"""Layer tracing from outside the program: wrap critfin's public functions.

The wrappers record one span per call (name, parent span, start, end) in an
in-memory list and a few work counts taken from arguments and return values.
Nothing is written until :meth:`Recorder.summary` is called at the end of the
run.  Modules import each other's functions by name (``from .geometry import
binary_roots``), so :func:`install` rebinds every module attribute that points
to a wrapped function, not only the defining one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: the functions wrapped, by module; span names drop the ``critfin.`` prefix
TARGETS = {
    "critfin.algebra": ("factor",),
    "critfin.geometry": (
        "binary_roots",
        "binary_roots_inexact",
        "solve_form_pair",
        "solve_form_pair_inexact",
        "curve_image",
    ),
    "critfin.dynamics": ("critical_set", "find_periodic"),
    "critfin.postcritical": ("build_orbit_graph", "classify"),
    "critfin.ramification": ("preimage_tree", "check_bounded_ramification"),
    "critfin.fatou": ("build_targets", "render_slice", "write_ppm"),
    "critfin.cli": ("load_map",),
}

# span record fields
_NAME, _PARENT, _START, _END, _CHILD_NS, _NESTED = range(6)


class Recorder:
    """Spans of one process, kept with their parent so self time is exact.

    Times are integer nanoseconds from ``perf_counter_ns``: a parent's
    duration minus the durations of its (disjoint, enclosed) children is then
    computed without rounding and can never be negative.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        nested = self.open_names[name] > 0
        self.spans.append([name, parent, self.clock(), None, 0, nested])
        self.stack.append(len(self.spans) - 1)
        self.open_names[name] += 1
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = self.clock()
        self.stack.pop()
        self.open_names[span[_NAME]] -= 1
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD_NS] += span[_END] - span[_START]

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self.stack[-1]][_NAME] if self.stack else None

    def inside(self, name: str) -> bool:
        return self.open_names[name] > 0

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus the counts.

        Inclusive time sums only the outermost span of each name, so a
        function that re-enters itself is not counted twice.
        """
        layers: dict[str, dict] = {}
        for span in self.spans:
            if span[_END] is None:
                continue  # left open by an exception that ended the run
            entry = layers.setdefault(span[_NAME], {"calls": 0, "ns": 0, "self_ns": 0})
            dur = span[_END] - span[_START]
            entry["calls"] += 1
            entry["self_ns"] += dur - span[_CHILD_NS]
            if not span[_NESTED]:
                entry["ns"] += dur
        return {
            "layers": {
                name: {"calls": e["calls"], "s": e["ns"] / 1e9, "self_s": e["self_ns"] / 1e9}
                for name, e in layers.items()
            },
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


# ---------------------------------------------------------------------------
# work counts read from arguments and return values
# ---------------------------------------------------------------------------


def _count_points(rec: Recorder, points) -> None:
    for pt, _mult in points:
        rec.counts["geometry.points_exact" if pt.exact else "geometry.points_float"] += 1


def _on_factor(rec, args, result):
    rec.maxima["algebra.factor.max_degree"] = max(
        rec.maxima["algebra.factor.max_degree"], args[0].degree or 0
    )


def _on_binary_roots(rec, args, result):
    rec.maxima["geometry.binary_roots.max_degree"] = max(
        rec.maxima["geometry.binary_roots.max_degree"], args[0].degree or 0
    )
    if rec.parent_name() == "geometry.solve_form_pair":
        # one eliminant split per projection centre that got that far
        rec.counts["geometry.solve_form_pair.eliminants"] += 1
    elif not rec.inside("geometry.solve_form_pair"):
        _count_points(rec, result)


def _on_solver(rec, args, result):
    _count_points(rec, result)


def _on_binary_roots_inexact(rec, args, result):
    if not rec.inside("geometry.solve_form_pair_inexact"):
        _count_points(rec, result)


def _on_find_periodic(rec, args, result):
    rec.counts["dynamics.find_periodic.points"] += len(result)
    rec.counts["dynamics.find_periodic.points_exact"] += sum(pp.point.exact for pp in result)


def _on_preimage_tree(rec, args, result):
    stack, nodes = [result.root], 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    rec.counts["ramification.preimage_tree.nodes"] += nodes


def _on_build_orbit_graph(rec, args, result):
    rec.counts["postcritical.build_orbit_graph.nodes"] += len(result.nodes)


def _on_build_targets(rec, args, result):
    rec.counts["fatou.build_targets.cycles"] += len(result.cycles)


def _on_render_slice(rec, args, result):
    rec.counts["fatou.render_slice.pixels"] += int(result.width * result.height)
    rec.counts["fatou.render_slice.orbit_steps"] += int(result.iterations.sum())


HOOKS = {
    "algebra.factor": _on_factor,
    "geometry.binary_roots": _on_binary_roots,
    "geometry.binary_roots_inexact": _on_binary_roots_inexact,
    "geometry.solve_form_pair": _on_solver,
    "geometry.solve_form_pair_inexact": _on_solver,
    "dynamics.find_periodic": _on_find_periodic,
    "ramification.preimage_tree": _on_preimage_tree,
    "postcritical.build_orbit_graph": _on_build_orbit_graph,
    "fatou.build_targets": _on_build_targets,
    "fatou.render_slice": _on_render_slice,
}


def wrap(rec: Recorder, name: str, fn):
    """``fn`` with a span around every call; the return value passes through."""
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


def install(rec: Recorder, targets: dict = TARGETS, prefix: str = "critfin.") -> int:
    """Wrap every target and rebind each module attribute bound to one.

    Returns the number of attributes rebound.  The target modules must be
    imported already.
    """
    wrappers = {}
    for module_name, names in targets.items():
        module = sys.modules[module_name]
        short = module_name.removeprefix(prefix)
        for name in names:
            fn = getattr(module, name)
            wrappers[fn] = wrap(rec, f"{short}.{name}", fn)
    root = prefix.rstrip(".")
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == root or module_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable attribute values cannot be targets
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)
                rebound += 1
    return rebound

"""Empirical orbit classification: basin sampling, escape rates, renders.

Everything here is numerical evidence, not certification: orbits are iterated
in adaptive charts (the lift is renormalized to unit max-norm every step, so
the working chart follows the largest coordinate), and each orbit is scored
against a ``TargetSet`` of certified periodic cycles and stabilized
postcritical components.  An orbit that sits within the convergence tolerance
of a cycle for a full window of consecutive steps is ``converged``; one whose
late iterates approach a postcritical component is ``accumulates-near``;
everything else is ``undecided``.  Slice renders classify a whole pixel grid
of start points and can be written out as a PPM image with a JSON legend
sidecar.

The orbit kernel runs the columns in fixed-size tiles, on every usable CPU
when there are several, so its working memory is O(tile) per process whatever
the number of start points; a render builds each tile's start points from the
slice and keeps only a label and an iteration count per pixel.  It keeps one
streak counter per orbit, which assumes the target cycles are disjoint: an
orbit within the convergence tolerance of two cycles at once is refused with
``InputError``.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import Config, resolve
from .dynamics import (
    UNDECIDED,
    Endomorphism,
    find_periodic,
)
from .errors import InputError
from .geometry import Component, HomogPoly, ProjPoint, same_component
from .postcritical import ClassificationReport, classify

CONVERGED = "converged"
ACCUMULATES = "accumulates-near"

# image label conventions: 0 undecided, 1..m the target cycles, m+1 escape
UNDECIDED_LABEL = 0

_CYCLE_COLORS = (
    (198, 57, 70),
    (69, 123, 157),
    (244, 162, 97),
    (42, 157, 143),
    (231, 111, 81),
    (131, 56, 236),
    (255, 183, 3),
    (0, 119, 182),
    (214, 40, 40),
    (6, 214, 160),
    (239, 71, 111),
    (17, 138, 178),
)


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass
class TargetSet:
    """What sampled orbits are scored against.

    ``cycles[i]`` lists the points of one periodic cycle (the cycle id is the
    index ``i``), ``classifications[i]`` is its certified multiplier class,
    and ``components`` collects the stabilized postcritical pieces orbits may
    accumulate on.
    """

    cycles: list[list[ProjPoint]] = field(default_factory=list)
    classifications: list[str] = field(default_factory=list)
    components: list[Component] = field(default_factory=list)

    def superattracting(self, i: int) -> bool:
        return self.classifications[i].startswith("superattracting")


def build_targets(
    f: Endomorphism,
    report: ClassificationReport | None = None,
    cfg: Config | None = None,
) -> TargetSet:
    """Certified cycles of period at most 2 plus the stabilized components.

    When no classification report is supplied one is computed (up to the
    order the dimension supports).  Periodic points coming back from the
    solver are grouped into cycles by following the map around the orbit;
    the component list is the union of the stabilized sets across computed
    orders, deduplicated.
    """
    cfg = resolve(cfg)
    if report is None:
        report = classify(f, order=min(f.k, 2), cfg=cfg)

    components: list[Component] = []
    for order in sorted(report.levels):
        omega = report.levels[order].omega
        if omega is None:
            continue
        for comp in omega.E:
            if not any(same_component(comp, c, cfg.cluster_tol) for c in components):
                components.append(comp)

    cycles: list[list[ProjPoint]] = []
    classifications: list[str] = []
    claimed: list[ProjPoint] = []
    for pp in find_periodic(f, 2, cfg):
        if any(pp.point.is_close(q, cfg.cluster_tol) for q in claimed):
            continue
        orbit = [pp.point]
        for _ in range(pp.period - 1):
            orbit.append(f(orbit[-1]))
        claimed.extend(orbit)
        cycles.append(orbit)
        classifications.append(pp.classification)
    return TargetSet(cycles=cycles, classifications=classifications, components=components)


# ---------------------------------------------------------------------------
# orbit sampling
# ---------------------------------------------------------------------------


@dataclass
class OrbitVerdict:
    """Outcome of sampling one forward orbit against certified targets."""

    start: ProjPoint
    outcome: str  # "converged" | "accumulates-near" | "undecided"
    cycle: int | None = None  # index into the target cycles when converged
    component: Component | None = None  # the component being approached
    iterations: int = 0  # step of confirmation, or the budget spent
    distance: float = math.inf  # final distance to the named target
    diagnostics: str = ""


def _form_terms(forms: Sequence[HomogPoly]) -> list[list[tuple[tuple[int, ...], complex]]]:
    # sorted term order keeps float summation (and hence rendered bytes)
    # identical from run to run
    return [[(e, complex(c)) for e, c in sorted(f.terms.items())] for f in forms]


def _eval_terms(terms: list[tuple[tuple[int, ...], complex]], coords: np.ndarray) -> np.ndarray:
    # Keep this expression as it is: the rendered bytes depend on it.  In
    # ``t * coords[var] ** e`` numpy reuses the power's buffer once it holds
    # 256 KiB (2**14 complex columns, one full tile) and computes
    # ``power * t`` in place, and its complex multiply is not bitwise
    # commutative.  Naming the power, caching powers or changing _TILE
    # changes the last bits, and with them the verdicts of chaotic orbits.
    acc = np.zeros(coords.shape[1], dtype=complex)
    for exps, c in terms:
        t = np.full(coords.shape[1], c, dtype=complex)
        for var, e in enumerate(exps):
            if e == 1:
                t = t * coords[var]
            elif e:
                t = t * coords[var] ** e
        acc += t
    return acc


def _eval_forms(all_terms: list[list], coords: np.ndarray) -> np.ndarray:
    out = np.empty((len(all_terms), coords.shape[1]), dtype=complex)
    for i, terms in enumerate(all_terms):
        out[i] = _eval_terms(terms, coords)
    return out


def _anchor_charts(cycles: list[list[ProjPoint]]) -> list[tuple[int, int, list]]:
    """Cycle members grouped by chart, then by the value they are screened on.

    One entry per chart: ``(chart, row, groups)``.  ``row`` is the non-chart
    coordinate whose anchor values are most distinct (the lowest such index
    on a tie), and each group is ``(anchor[row], members)`` with members
    ``(order, cycle id, chart-normalized lift)``; ``order`` is the member's
    place in its chart, the order in which clashes are checked.
    """
    charts: dict[int, list[tuple[int, np.ndarray]]] = {}
    for ci, cycle in enumerate(cycles):
        for p in cycle:
            v = np.asarray(p.to_complex(), dtype=complex)
            chart = int(np.argmax(np.abs(v)))
            charts.setdefault(chart, []).append((ci, v / v[chart]))
    out = []
    for chart, members in sorted(charts.items()):
        others = [j for j in range(len(members[0][1])) if j != chart]
        row = max(others, key=lambda j: len({complex(a[j]) for _, a in members}))
        groups: dict[complex, list[tuple[int, int, np.ndarray]]] = {}
        for order, (ci, anchor) in enumerate(members):
            groups.setdefault(complex(anchor[row]), []).append((order, ci, anchor))
        out.append((chart, row, list(groups.items())))
    return out


def _nearest_cycle(coords: np.ndarray, charts: list, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The cycle each column lies within ``tol`` of (-1 if none), and that distance.

    The distance to a cycle is the min over its members of the chart max-norm
    distance, each member measured in its own chart; an orbit point with a
    vanishing coordinate there is simply far away in that chart.  A column
    within ``tol`` of two cycles at once raises ``InputError``: the kernel
    counts one streak per orbit, which needs the target cycles disjoint.
    """
    n = coords.shape[1]
    cycle = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for chart, row, groups in charts:
            # the max-norm distance is below tol only if the screened
            # coordinate's is, and that only if its real part's is
            screen = coords[row] / coords[chart]
            screen_re = np.ascontiguousarray(screen.real)
            found = []
            for value, members in groups:
                hit = np.flatnonzero(np.abs(screen_re - value.real) < tol)
                if not hit.size:
                    continue
                near = np.abs(screen[hit] - value)
                close = near < tol
                hit, near = hit[close], near[close]
                if not hit.size:
                    continue
                den = coords[chart][hit]
                ratios = [(j, coords[j][hit] / den) for j in range(len(coords)) if j != row]
                for order, ci, anchor in members:
                    diff = near.copy()
                    for j, ratio in ratios:
                        np.maximum(diff, np.abs(ratio - anchor[j]), out=diff)
                    close = diff < tol
                    found.append((order, ci, hit[close], diff[close]))
            # in the chart's member order, so a clash names the same pair of
            # cycles however the members are grouped
            for _, ci, hit, diff in sorted(found, key=lambda entry: entry[0]):
                other = cycle[hit]
                clash = (other >= 0) & (other != ci)
                if clash.any():
                    raise InputError(
                        f"an orbit lies within {tol:g} of target cycles"
                        f" {int(other[clash][0])} and {ci} at once;"
                        " target cycles must be disjoint"
                    )
                cycle[hit] = ci
                dist[hit] = np.minimum(dist[hit], diff)
    return cycle, dist


def _component_probes(comps: list[Component]) -> list[tuple]:
    """What each component's distance needs, prepared once per kernel call.

    A curve keeps its sorted terms and the coefficient norm of
    geometry.curve_residual; a point keeps its lift and the lift's norm.
    """
    probes = []
    for comp in comps:
        if comp.kind == "curve":
            (terms,) = _form_terms([comp.poly])
            probes.append((comp.kind, terms, float(sum(abs(c) for _, c in terms))))
        else:
            qv = np.asarray(comp.point.to_complex(), dtype=complex)
            probes.append((comp.kind, qv, math.sqrt(float((np.abs(qv) ** 2).sum()))))
    return probes


def _point_chordal_batch(coords: np.ndarray, qv: np.ndarray, qnorm: float) -> np.ndarray:
    wedge = np.zeros(coords.shape[1])
    for i in range(len(qv)):
        for j in range(i + 1, len(qv)):
            wedge += np.abs(coords[i] * qv[j] - coords[j] * qv[i]) ** 2
    norms = np.sqrt((np.abs(coords) ** 2).sum(axis=0)) * qnorm
    return np.sqrt(wedge) / norms


def _component_distances(coords: np.ndarray, probes: list[tuple]) -> np.ndarray:
    out = np.empty((coords.shape[1], len(probes)))
    for j, (kind, data, norm) in enumerate(probes):
        if kind == "curve":
            # the kernel keeps every lift at unit max-norm, so no per-point
            # rescaling is needed here
            out[:, j] = np.abs(_eval_terms(data, coords)) / norm
        else:
            out[:, j] = _point_chordal_batch(coords, data, norm)
    return out


# columns per tile: the kernel's working memory is O(_TILE), not O(pixels)
_TILE = 1 << 14


def _tile_kernel(f: Endomorphism, targets: TargetSet, max_iter: int, cfg: Config):
    """The orbit kernel for one tile, as a function of the tile's start lifts.

    It takes a (k+1, m) array, m at most ``_TILE``, and returns the six
    per-column arrays ``_orbit_kernel`` describes for those columns.
    """
    terms = _form_terms(f.forms)
    charts = _anchor_charts(targets.cycles)
    probes = _component_probes(targets.components)
    tail_start = max_iter - cfg.convergence_window

    def run(tile: np.ndarray) -> tuple[np.ndarray, ...]:
        size = tile.shape[1]
        cycle_idx = np.full(size, -1, dtype=np.int64)
        conv_iter = np.zeros(size, dtype=np.int64)
        conv_dist = np.full(size, np.inf)
        overflow = np.zeros(size, dtype=np.int64)
        comp_idx = np.full(size, -1, dtype=np.int64)
        comp_dist = np.full(size, np.inf)

        # live state: lifts, column ids, streak and the cycle it counts
        # toward; retired orbits are dropped from all four
        tile = tile / np.abs(tile).max(axis=0)
        cols = np.arange(size)
        streak = np.zeros(size, dtype=np.int64)
        last = np.full(size, -1, dtype=np.int64)

        for it in range(1, max_iter + 1):
            if not cols.size:
                break
            img = _eval_forms(terms, tile)
            m = np.abs(img).max(axis=0)
            live = np.isfinite(m) & (m > 0.0)
            if not live.all():
                overflow[cols[~live]] = it
                img[:, ~live] = tile[:, ~live]  # freeze the last finite lift
                m = np.where(live, m, 1.0)
            tile = img / m

            if charts:
                near, dist = _nearest_cycle(tile, charts, cfg.convergence_tol)
                streak = np.where(near < 0, 0, np.where(near == last, streak + 1, 1))
                last = near
                done = streak >= cfg.convergence_window
                if done.any():
                    rows = cols[done]
                    cycle_idx[rows] = near[done]
                    conv_iter[rows] = it
                    conv_dist[rows] = dist[done]
                    live &= ~done

            if not live.all():
                tile, cols, streak, last = tile[:, live], cols[live], streak[live], last[live]
            if probes and it > tail_start and cols.size:
                d = _component_distances(tile, probes)
                best = d.min(axis=1)
                better = best < comp_dist[cols]
                comp_dist[cols] = np.where(better, best, comp_dist[cols])
                comp_idx[cols] = np.where(better, d.argmin(axis=1), comp_idx[cols])

        return cycle_idx, conv_iter, conv_dist, overflow, comp_idx, comp_dist

    return run


def _cpus() -> int:
    # sched_getaffinity is Linux-only; elsewhere the tiles run serially
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


_work = None  # the tile function of a worker process, set by _start_worker


def _start_worker(work) -> None:
    global _work
    _work = work


def _work_on(bounds: tuple[int, int]) -> tuple[np.ndarray, ...]:
    return _work(*bounds)


def _run_tiles(work, out: tuple[np.ndarray, ...]) -> None:
    """Fill the 1-D arrays ``out`` tile by tile from ``work(lo, hi)``, which
    returns one array per output for columns lo..hi-1.

    With two or more tiles and usable CPUs the tiles run in a pool of forked
    workers, one per CPU at most; each result is written into ``out`` in tile
    order as it arrives.  Forking hands ``work``, a closure, to the workers
    without pickling it or importing anything again; only tile bounds and
    results are pickled.  An exception raised in a worker is raised here, and
    a worker that dies raises ``BrokenProcessPool`` instead of a hang.
    """
    n = out[0].size
    bounds = [(lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE)]
    workers = min(len(bounds), _cpus())
    with contextlib.ExitStack() as stack:
        if workers < 2:
            results = (work(lo, hi) for lo, hi in bounds)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, fork, _start_worker, (work,))
            # after an error, tiles not yet started are dropped, not run
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_work_on, bounds)
        for (lo, hi), res in zip(bounds, results):
            for dst, src in zip(out, res):
                dst[lo:hi] = src


def _orbit_kernel(
    f: Endomorphism,
    coords: np.ndarray,
    targets: TargetSet,
    max_iter: int,
    cfg: Config,
) -> tuple[np.ndarray, ...]:
    """Iterate every column of ``coords`` and classify each orbit.

    Returns per-column arrays: converged cycle index (-1 if none), the step
    of confirmation, the confirming distance, the step at which the lift
    degenerated (0 if never), the nearest-component index over the tail
    window (-1 if unmeasured), and that best tail distance.

    Columns run in tiles of ``_TILE``, on every usable CPU when there are
    several tiles, so working memory is O(tile) per process beside the
    per-column results.  Each orbit keeps one streak counter and the cycle
    it counts toward, which assumes the target cycles are disjoint at the
    convergence tolerance; an orbit near two cycles at once raises
    ``InputError``.
    """
    n = coords.shape[1]
    run = _tile_kernel(f, targets, max_iter, cfg)
    dtypes = (np.int64, np.int64, float, np.int64, np.int64, float)
    out = tuple(np.empty(n, dtype=d) for d in dtypes)
    _run_tiles(lambda lo, hi: run(coords[:, lo:hi]), out)
    return out


def _verdicts(
    starts: Sequence[ProjPoint],
    kernel_out: tuple[np.ndarray, ...],
    targets: TargetSet,
    max_iter: int,
    cfg: Config,
) -> list[OrbitVerdict]:
    cycle_idx, conv_iter, conv_dist, overflow, comp_idx, comp_dist = kernel_out
    out = []
    for i, start in enumerate(starts):
        if cycle_idx[i] >= 0:
            out.append(
                OrbitVerdict(
                    start=start,
                    outcome=CONVERGED,
                    cycle=int(cycle_idx[i]),
                    iterations=int(conv_iter[i]),
                    distance=float(conv_dist[i]),
                )
            )
        elif overflow[i]:
            out.append(
                OrbitVerdict(
                    start=start,
                    outcome=UNDECIDED,
                    iterations=max_iter,
                    diagnostics=(
                        f"lift degenerated at iteration {int(overflow[i])}"
                        " despite chart renormalization"
                    ),
                )
            )
        elif comp_idx[i] >= 0 and comp_dist[i] < cfg.accumulation_tol:
            out.append(
                OrbitVerdict(
                    start=start,
                    outcome=ACCUMULATES,
                    component=targets.components[int(comp_idx[i])],
                    iterations=max_iter,
                    distance=float(comp_dist[i]),
                )
            )
        else:
            out.append(
                OrbitVerdict(
                    start=start,
                    outcome=UNDECIDED,
                    iterations=max_iter,
                    distance=float(comp_dist[i]),
                )
            )
    return out


def sample_orbits(
    f: Endomorphism,
    starts: Sequence[ProjPoint],
    targets: TargetSet,
    max_iter: int | None = None,
    cfg: Config | None = None,
) -> list[OrbitVerdict]:
    """Classify many forward orbits in one vectorized pass.

    Orbits advance in lockstep, one tile of columns at a time; a column
    retires as soon as its verdict is known.  Convergence means the distance
    to one cycle stayed below the convergence tolerance for a full window of
    consecutive steps; orbits that never confirm are checked over their last
    window of iterates against the postcritical components and reported as
    accumulating when they come within the accumulation tolerance.
    """
    cfg = resolve(cfg)
    max_iter = cfg.max_orbit_iters if max_iter is None else max_iter
    if max_iter < 1:
        raise InputError("orbit sampling needs at least one iteration")
    starts = list(starts)
    for p in starts:
        if p.dim != f.k:
            raise InputError(f"start point {p} does not live in the map's space P^{f.k}")
    if not starts:
        return []
    coords = np.array([p.to_complex() for p in starts], dtype=complex).T
    kernel_out = _orbit_kernel(f, coords, targets, max_iter, cfg)
    return _verdicts(starts, kernel_out, targets, max_iter, cfg)


def sample_orbit(
    f: Endomorphism,
    x: ProjPoint,
    targets: TargetSet,
    max_iter: int | None = None,
    cfg: Config | None = None,
) -> OrbitVerdict:
    """Classify a single forward orbit; see ``sample_orbits``."""
    return sample_orbits(f, [x], targets, max_iter, cfg)[0]


# ---------------------------------------------------------------------------
# escape rate
# ---------------------------------------------------------------------------


def escape_rate(
    f: Endomorphism,
    x: ProjPoint | Sequence[complex],
    n: int,
    cfg: Config | None = None,
) -> float:
    """Green-function value of a lift of x after n averaging steps.

    Accumulates d^-(i+1) * log||F(x_i)|| over max-norm-renormalized iterates;
    the partial sum equals d^-n * log||F^n(lift)|| exactly.  The value is an
    invariant of the lift, shifting by log|lambda| under lift rescaling, so a
    ``ProjPoint`` contributes its stored canonical representative (primitive
    integer coordinates for exact points, largest coordinate pinned to 1 for
    floating ones) and the result depends only on the point.  Pass an
    explicit coordinate sequence to evaluate a specific lift instead.
    """
    resolve(cfg)
    if n < 1:
        raise InputError("escape rate needs n >= 1")
    if isinstance(x, ProjPoint):
        coords = x.to_complex()
    else:
        coords = tuple(complex(c) for c in x)
        if all(c == 0 for c in coords):
            raise InputError("a lift needs a nonzero coordinate")
    if len(coords) != f.k + 1:
        raise InputError(f"the lift must have {f.k + 1} coordinates")

    total = 0.0
    d = float(f.degree)
    for i in range(n):
        img = [complex(form.evaluate(coords)) for form in f.forms]
        m = max(abs(c) for c in img)
        if m == 0.0 or not math.isfinite(m):
            break  # the lift underflowed onto a totally invariant point; the
            # remaining contributions vanish
        total += math.log(m) / d ** (i + 1)
        coords = tuple(c / m for c in img)
    return total


# ---------------------------------------------------------------------------
# slices and rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSpec:
    """An affine 2-plane of start points: base + u*dir_u + v*dir_v in a chart.

    ``base`` and the direction vectors hold the affine coordinates of the
    chart whose homogeneous coordinate ``chart`` is pinned to 1.  The window
    is the square of side ``extent`` centered at ``center`` in the (u, v)
    parameters; pixels sample the window at their centers, row-major with v
    decreasing down the image.  On the line the chart is one complex
    coordinate, so a real 2-plane needs directions independent over the
    reals only (the default pair 1, 1j sweeps the full complex chart).
    """

    base: tuple[complex, ...]
    dir_u: tuple[complex, ...]
    dir_v: tuple[complex, ...]
    chart: int
    center: tuple[float, float] = (0.0, 0.0)
    extent: float = 3.0
    width: int = 128
    height: int = 128

    def __post_init__(self):
        coords = {"base": self.base, "dir_u": self.dir_u, "dir_v": self.dir_v}
        if not all(isinstance(x, (list, tuple)) for x in (*coords.values(), self.center)):
            raise InputError("slice base, directions and center must be lists of coordinates")
        if not isinstance(self.chart, int) or not isinstance(self.extent, (int, float)):
            raise InputError("slice chart must be an integer and extent a number")
        try:
            for key, vals in coords.items():  # complex() refuses inner spaces, as in "1 + 2j"
                vals = (c.replace(" ", "") if isinstance(c, str) else c for c in vals)
                object.__setattr__(self, key, tuple(map(complex, vals)))
            u, v = self.center
            object.__setattr__(self, "center", (float(u), float(v)))
            object.__setattr__(self, "extent", float(self.extent))
        except (TypeError, ValueError, OverflowError):
            raise InputError("slice values must be numbers and center a (u, v) pair") from None
        k = len(self.base)
        if k < 1 or len(self.dir_u) != k or len(self.dir_v) != k:
            raise InputError("base point and direction vectors need matching lengths")
        if not 0 <= self.chart <= k:
            raise InputError(f"chart index must lie in 0..{k}")
        if self.width < 1 or self.height < 1:
            raise InputError("resolution must be at least 1x1")
        if not self.extent > 0:
            raise InputError("window extent must be positive")
        vectors = self.base + self.dir_u + self.dir_v
        if not all(cmath.isfinite(c) for c in vectors) or not all(
            math.isfinite(x) for x in (*self.center, self.extent)
        ):
            raise InputError("slice coordinates, center and extent must be finite")
        # independence over the reals: Cauchy-Schwarz must be strict for the
        # real inner product Re<u, v> on C^k viewed as R^(2k)
        uu = sum(abs(c) ** 2 for c in self.dir_u)
        vv = sum(abs(c) ** 2 for c in self.dir_v)
        uv = sum((a.conjugate() * b).real for a, b in zip(self.dir_u, self.dir_v))
        if uu * vv - uv * uv <= 1e-12 * uu * vv or uu == 0 or vv == 0:
            raise InputError("direction vectors must be linearly independent")

    @classmethod
    def default(
        cls,
        k: int,
        width: int = 128,
        height: int = 128,
        extent: float = 3.0,
        center: tuple[float, float] = (0.0, 0.0),
    ) -> "SliceSpec":
        """The standard affine chart around the origin.

        On the plane: the real (x, y) window of the chart with last
        coordinate 1.  On the line: the complex chart coordinate itself.
        """
        if k == 1:
            return cls((0,), (1,), (1j,), 1, center, extent, width, height)
        if k == 2:
            return cls((0, 0), (1, 0), (0, 1), 2, center, extent, width, height)
        raise InputError("slices are defined for maps of P^1 and P^2")

    def params(self, col: int, row: int) -> tuple[float, float]:
        """(u, v) at the center of pixel (col, row); row 0 is the top."""
        u = self.center[0] - self.extent / 2 + (col + 0.5) * self.extent / self.width
        v = self.center[1] + self.extent / 2 - (row + 0.5) * self.extent / self.height
        return u, v

    def pixel_at(self, u: float, v: float) -> tuple[int, int]:
        """(col, row) of the pixel whose window cell contains (u, v)."""
        col = int((u - self.center[0] + self.extent / 2) / self.extent * self.width)
        row = int((self.center[1] + self.extent / 2 - v) / self.extent * self.height)
        return min(max(col, 0), self.width - 1), min(max(row, 0), self.height - 1)

    def point(self, col: int, row: int) -> ProjPoint:
        """The start point sampled by pixel (col, row)."""
        u, v = self.params(col, row)
        affine = [b + u * du + v * dv for b, du, dv in zip(self.base, self.dir_u, self.dir_v)]
        affine.insert(self.chart, 1.0 + 0.0j)
        return ProjPoint.inexact(affine)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Pixel-center lifts of pixels lo..hi-1 (row-major) as a (k+1, hi-lo) array."""
        row, col = np.divmod(np.arange(lo, hi), self.width)
        u = self.center[0] - self.extent / 2 + (col + 0.5) * (self.extent / self.width)
        v = self.center[1] + self.extent / 2 - (row + 0.5) * (self.extent / self.height)
        rows = [b + u * du + v * dv for b, du, dv in zip(self.base, self.dir_u, self.dir_v)]
        rows.insert(self.chart, np.ones(u.size, dtype=complex))
        return np.array(rows, dtype=complex)

    def grid(self) -> np.ndarray:
        """All pixel-center lifts as one (k+1, width*height) array, row-major."""
        return self.columns(0, self.width * self.height)


@dataclass
class BasinImage:
    """A classified pixel grid plus the legend explaining its labels.

    ``labels[row, col]`` uses 0 for undecided, 1..m for the target cycles in
    order, and m+1 for escape toward the postcritical components;
    ``iterations`` records the confirmation step (converged pixels) or the
    full budget.  ``summary`` gives the fraction of pixels per legend entry.
    """

    width: int
    height: int
    labels: np.ndarray
    iterations: np.ndarray
    legend: dict[int, str]
    summary: dict[str, float]

    def label_color(self, label: int) -> tuple[int, int, int]:
        """Fixed palette: black undecided, white escape, colors per cycle."""
        if label == UNDECIDED_LABEL:
            return (0, 0, 0)
        if label == len(self.legend) - 1:  # escape carries the last label
            return (255, 255, 255)
        return _CYCLE_COLORS[(label - 1) % len(_CYCLE_COLORS)]


def _legend_for(targets: TargetSet) -> dict[int, str]:
    legend = {UNDECIDED_LABEL: "undecided"}
    for i, cycle in enumerate(targets.cycles):
        legend[i + 1] = (
            f"cycle {i} (period {len(cycle)}, {targets.classifications[i]}): {cycle[0]}"
        )
    legend[len(targets.cycles) + 1] = "escape-to-E"
    return legend


def render_slice(
    f: Endomorphism,
    spec: SliceSpec,
    targets: TargetSet,
    max_iter: int | None = None,
    cfg: Config | None = None,
) -> BasinImage:
    """Classify every pixel of a slice by sampling its center's orbit.

    Each pixel runs the same classification as ``sample_orbit`` on its slice
    point; the result is deterministic for a fixed spec and configuration,
    whatever the number of CPUs.  Start points are built one tile at a time
    and each tile is reduced to labels and iteration counts at once, so
    memory is O(tile) plus those two per pixel; several tiles run on every
    usable CPU.
    """
    cfg = resolve(cfg)
    max_iter = cfg.max_orbit_iters if max_iter is None else max_iter
    if max_iter < 1:
        raise InputError("rendering needs at least one iteration")
    if len(spec.base) != f.k:
        raise InputError(f"the slice lives in P^{len(spec.base)}, the map on P^{f.k}")

    run = _tile_kernel(f, targets, max_iter, cfg)
    m = len(targets.cycles)

    def classify_tile(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        cycle_idx, conv_iter, _, overflow, comp_idx, comp_dist = run(spec.columns(lo, hi))
        labels = np.zeros(hi - lo, dtype=np.int16)
        converged = cycle_idx >= 0
        labels[converged] = (cycle_idx[converged] + 1).astype(np.int16)
        escaped = (
            ~converged & (overflow == 0) & (comp_idx >= 0) & (comp_dist < cfg.accumulation_tol)
        )
        labels[escaped] = m + 1
        return labels, np.where(converged, conv_iter, max_iter).astype(np.int32)

    n_pix = spec.width * spec.height
    labels = np.empty(n_pix, dtype=np.int16)
    iterations = np.empty(n_pix, dtype=np.int32)
    _run_tiles(classify_tile, (labels, iterations))

    legend = _legend_for(targets)
    summary = {
        name: float(np.count_nonzero(labels == label)) / n_pix
        for label, name in sorted(legend.items())
    }
    return BasinImage(
        width=spec.width,
        height=spec.height,
        labels=labels.reshape(spec.height, spec.width),
        iterations=iterations.reshape(spec.height, spec.width),
        legend=legend,
        summary=summary,
    )


def write_ppm(image: BasinImage, path) -> None:
    """Binary P6 image, 8-bit RGB, row-major, no comment lines."""
    lut = np.zeros((len(image.legend), 3), dtype=np.uint8)
    for label in image.legend:
        lut[label] = image.label_color(label)
    rgb = lut[image.labels]
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())


def write_legend(image: BasinImage, path) -> None:
    """JSON sidecar: label descriptions, palette colors, label fractions."""
    payload = {
        "legend": {str(label): name for label, name in image.legend.items()},
        "colors": {str(label): list(image.label_color(label)) for label in image.legend},
        "summary": image.summary,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Orbit classification: basin sampling, escape rates, renders.

Apart from the trapping balls, which are certified, everything here is
numerical evidence: orbits are iterated in adaptive charts (the lift is
renormalized to unit max-norm every step, so the working chart follows the
largest coordinate), and each orbit is scored
against a ``TargetSet`` of certified periodic cycles and stabilized
postcritical components.  An orbit that enters a certified trapping ball of a
superattracting cycle, or that sits within the convergence tolerance of a
cycle for a full window of consecutive steps, is ``converged``; one whose
late iterates approach a postcritical component is ``accumulates-near``;
everything else is ``undecided``.  Slice renders classify a whole pixel grid
of start points and can be written out as a PPM image with a JSON legend
sidecar.

The orbit kernel cuts the columns once into near-equal pieces of at most
one tile, as many as the CPUs share evenly, and runs them on every usable
CPU, in plain forked workers that write into shared output arrays; each
step drops the orbits it decided from a piece's live columns at once.
Working memory is O(tile) per process whatever the number of start points,
and a render keeps only a label and an iteration count per pixel.
What a piece computes lives in ``orbits``: a column's bits depend neither on
the cut nor on the number of CPUs.  The kernel keeps one streak counter per
orbit, which assumes the target cycles are disjoint: an orbit within the
convergence tolerance of two cycles at once is refused with ``InputError``.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import Config, resolve
from .dynamics import UNDECIDED, Endomorphism, find_periodic, superattracting, trapping_radii
from .errors import InputError
from .geometry import Component, ProjPoint, same_component
from .orbits import _anchor_charts, _nearest_cycle, _render_tiles, _tile_kernel
from .postcritical import ClassificationReport, classify

CONVERGED = "converged"
ACCUMULATES = "accumulates-near"

# image label conventions: 0 undecided, 1..m the target cycles, m+1 escape
UNDECIDED_LABEL = 0

# one RGB color per target cycle, in turn
_CYCLE_COLORS = tuple(
    tuple(bytes.fromhex(rgb))
    for rgb in "c63946 457b9d f4a261 2a9d8f e76f51 8338ec ffb703 0077b6 d62828 06d6a0 ef476f 118ab2".split()
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
    accumulate on.  ``traps[i]``, when present, is cycle ``i``'s certified
    trapping radius r: around each member p, in p's chart, the closed
    max-norm ball of radius r is mapped by f^m into the ball of radius r/2
    and converges to p (see ``dynamics.trapping_radii``), and so is every
    smaller ball around p.  The kernel tests every trap at the smallest
    radius of the set, less a margin for rounding, and an orbit inside one
    of those balls is converged to its cycle at that step.  The balls must
    be disjoint, as ``build_targets`` makes them.  Cycles without a trap,
    and every cycle of a set built by hand without ``traps``, are confirmed
    by the convergence window alone.
    """

    cycles: list[list[ProjPoint]] = field(default_factory=list)
    classifications: list[str] = field(default_factory=list)
    components: list[Component] = field(default_factory=list)
    traps: dict[int, Fraction] = field(default_factory=dict)

    def superattracting(self, i: int) -> bool:
        return superattracting(self.classifications[i])


def build_targets(
    f: Endomorphism,
    report: ClassificationReport | None = None,
    cfg: Config | None = None,
) -> TargetSet:
    """Certified cycles of period at most 2 plus the stabilized components.

    When no classification report is supplied one is computed (up to the
    order the dimension supports).  Each cycle is the one
    ``find_periodic`` walked while certifying its first point, so the map
    is not evaluated here; the component list is the union of the
    stabilized sets across computed orders, deduplicated.

    Each superattracting cycle whose points are exact gets the trapping
    radius ``trapping_radii`` certifies in exact rational arithmetic, if any.
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
    for pp in find_periodic(f, 2, cfg):
        if not any(pp.point.is_close(q, cfg.cluster_tol) for cycle in cycles for q in cycle):
            cycles.append(pp.cycle)
            classifications.append(pp.classification)
    traps = trapping_radii(f, cycles, classifications, cfg)
    return TargetSet(cycles, classifications, components, traps)


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
    # step of confirmation, or the budget spent; for an orbit that entered a
    # certified trap, the step it entered
    iterations: int = 0
    # final distance to the named target: for a trapped orbit, the chart
    # max-norm distance to the member at entry, at most the trap radius
    distance: float = math.inf
    diagnostics: str = ""


# the most columns in a piece: working memory is O(_TILE), not O(pixels)
_TILE = 1 << 14

# the fewest columns in a piece added to share the pieces evenly across CPUs
_MIN_PART = 1 << 12


def _cpus() -> int:
    # sched_getaffinity is Linux-only; elsewhere the pieces run serially
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _fill(work, out, pieces):
    """Write each (lo, hi) of ``pieces`` into ``out`` in turn; return (lo, error)
    for the first that raises, which stops the run."""
    for lo, hi in pieces:
        try:
            for dst, src in zip(out, work(lo, hi)):
                dst[lo:hi] = src
        except Exception as exc:
            return lo, exc


def _fork_join(work, out, pieces, workers):
    """``_fill`` the shared ``out`` in forked workers; return the lowest (lo, error), if any.

    Worker w runs pieces w, w + workers, ... and pickles what ``_fill``
    returned to its pipe, read to the end before the worker is reaped.  It
    leaves only through ``os._exit``, flushing no inherited stdio buffer,
    with status 0 only once all its pieces are written.  The pieces of a
    worker that cannot be forked run here.  A worker that ends without a
    record raises ``RuntimeError``; an interrupted wait kills and reaps
    every worker left.
    """
    children, failures = {}, []
    try:
        for w in range(workers):
            picks = pieces[w::workers]
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process for this worker: its pieces run here
                os.close(r)
                os.close(wr)
                failures.append(_fill(work, out, picks))
                continue
            if not pid:  # the worker
                try:
                    failed = _fill(work, out, picks)
                    os.write(wr, pickle.dumps(failed))  # blocks until the parent reads it all
                    os._exit(1 if failed else 0)
                finally:
                    os._exit(1)
            os.close(wr)
            children[pid] = open(r, "rb")
        for pid in list(children):
            with children[pid] as fh:
                record = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if not record:
                raise RuntimeError(f"render worker {pid} ended with wait status {status}")
            failures.append(pickle.loads(record))
        return min(filter(None, failures), default=None)
    finally:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_tiles(work, dtypes, n):
    """The 1-D arrays, one per dtype of ``dtypes``, that ``work`` fills over n columns.

    ``work(lo, hi)`` runs columns lo..hi-1 as ``_tile_kernel``'s ``run``
    does and returns one array per output.  The n columns are cut once, into
    the fewest near-equal pieces of at most ``_TILE`` columns, their count
    rounded up toward a multiple of the usable CPUs while each piece keeps
    at least ``_MIN_PART`` columns; a column's bits do not depend on the
    columns run with it, so any cut gives the same outputs.

    With two or more pieces and usable CPUs, the arrays live in anonymous
    shared mappings that forked workers, one per CPU at most, fill in place
    (see ``_fork_join``); otherwise the pieces run here.  Either way the
    error of the lowest piece that raises, which a serial run meets first,
    is raised here.
    """
    cpus = _cpus()
    count = -(-n // _TILE)
    count = max(count, min(-(-count // cpus) * cpus, n // _MIN_PART))
    pieces = [(n * i // count, n * (i + 1) // count) for i in range(count)]
    workers = min(count, cpus)
    shared = workers > 1
    if shared:
        import mmap  # only here: loading it at import would raise every command's peak
    out = tuple(
        np.frombuffer(mmap.mmap(-1, n * np.dtype(d).itemsize), d, n) if shared else np.empty(n, d)
        for d in dtypes
    )
    failed = _fork_join(work, out, pieces, workers) if shared else _fill(work, out, pieces)
    if failed:
        raise failed[1]
    return out


def _orbit_kernel(
    f: Endomorphism,
    coords: np.ndarray,
    targets: TargetSet,
    max_iter: int,
    cfg: Config,
) -> tuple[np.ndarray, ...]:
    """Iterate every column of ``coords`` and classify each orbit.

    Returns per-column arrays: converged cycle index (-1 if none), the step
    of confirmation and the confirming distance (the step of entry and the
    distance at entry, for a column that enters a certified trap), the step
    at which the lift degenerated (0 if never), the nearest-component index
    over the tail window (-1 if unmeasured), and that best tail distance.

    Columns run in pieces of at most ``_TILE`` on every usable CPU, and the
    arrays come back from ``_run_tiles``, which allocates them: in a shared
    mapping that forked workers fill in place, or in this process when the
    pieces run here.  Working memory is O(tile) per process beside the
    per-column results.  Each orbit keeps one streak counter and the cycle
    it counts toward, which assumes the target cycles are disjoint at the
    convergence tolerance; an orbit near two cycles at once raises
    ``InputError``.
    """
    run = _tile_kernel(f, targets, max_iter, cfg)
    dtypes = (np.int64, np.int64, float, np.int64, np.int64, float)
    return _run_tiles(lambda lo, hi: run(coords[:, lo:hi]), dtypes, coords.shape[1])


def _accumulates(kernel_out: tuple[np.ndarray, ...], cfg: Config) -> np.ndarray:
    """Columns not converged, never degenerated, and within ``accumulation_tol`` of a component."""
    cycle_idx, _, _, overflow, comp_idx, comp_dist = kernel_out
    near = (comp_idx >= 0) & (comp_dist < cfg.accumulation_tol)
    return (cycle_idx < 0) & (overflow == 0) & near


def _verdicts(
    starts: Sequence[ProjPoint],
    kernel_out: tuple[np.ndarray, ...],
    targets: TargetSet,
    max_iter: int,
    cfg: Config,
) -> list[OrbitVerdict]:
    cycle_idx, conv_iter, conv_dist, overflow, comp_idx, comp_dist = kernel_out
    accumulates = _accumulates(kernel_out, cfg)
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
        elif accumulates[i]:
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

    Orbits advance in lockstep, one piece of columns at a time, on every
    usable CPU; a column retires as soon as its verdict is known.  A verdict
    depends neither on the other starts in the batch nor on the number of
    CPUs.  Convergence means the orbit entered one of the certified trapping
    balls of ``targets.traps`` (``iterations`` is the step of entry and
    ``distance`` the chart max-norm distance there, at most the trap
    radius), or that its distance to one cycle stayed below the convergence
    tolerance for a full window of consecutive steps; a trap is checked
    first, so a trapped orbit skips that step's screening.  Orbits that
    never confirm are checked over their last window of iterates against
    the postcritical components and reported as accumulating when they come
    within the accumulation tolerance.
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
    ``cfg`` is accepted like everywhere else; no knob affects the value.
    """
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
        """(u, v) at the center of pixel (col, row), row 0 at the top; arrays work too."""
        u = self.center[0] - self.extent / 2 + (col + 0.5) * (self.extent / self.width)
        v = self.center[1] + self.extent / 2 - (row + 0.5) * (self.extent / self.height)
        return u, v

    def pixel_at(self, u: float, v: float) -> tuple[int, int]:
        """(col, row) of the pixel whose window cell contains (u, v)."""
        col = int((u - self.center[0] + self.extent / 2) / self.extent * self.width)
        row = int((self.center[1] + self.extent / 2 - v) / self.extent * self.height)
        return min(max(col, 0), self.width - 1), min(max(row, 0), self.height - 1)

    def point(self, col: int, row: int) -> ProjPoint:
        """Pixel (col, row)'s start: ``ProjPoint.inexact`` of its ``columns`` lift, bit for bit."""
        u, v = self.params(col, row)
        affine = [b + u * du + v * dv for b, du, dv in zip(self.base, self.dir_u, self.dir_v)]
        affine.insert(self.chart, 1.0 + 0.0j)
        return ProjPoint.inexact(affine)

    def columns(self, ids: np.ndarray) -> np.ndarray:
        """Pixel-center lifts of the row-major pixel ids as a (k+1, ids.size) array."""
        row, col = np.divmod(ids, self.width)
        u, v = self.params(col, row)
        rows = [b + u * du + v * dv for b, du, dv in zip(self.base, self.dir_u, self.dir_v)]
        rows.insert(self.chart, np.ones(u.size, dtype=complex))
        return np.array(rows, dtype=complex)

    def grid(self) -> np.ndarray:
        """All pixel-center lifts as one (k+1, width*height) array, row-major."""
        return self.columns(np.arange(self.width * self.height))


@dataclass
class BasinImage:
    """A classified pixel grid plus the legend explaining its labels.

    ``labels[row, col]`` uses 0 for undecided, 1..m for the target cycles in
    order, and m+1 for escape toward the postcritical components;
    ``iterations`` records the confirmation step (converged pixels: the step
    the orbit entered a certified trap, or the last step of its convergence
    window) or the full budget.  ``summary`` gives the fraction of pixels
    per legend entry.
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

    A pixel starts from its column of ``spec.columns``, which ``spec.point``
    normalizes bit for bit, and is labelled by ``sample_orbit``'s outcome
    rule; on a chaotic map a start from the normalized point can still end
    otherwise.  A pixel whose orbit enters a certified trapping ball of
    ``targets.traps`` is labelled with that cycle at the step of entry, which
    is its iteration count.  Its orbit converges to that cycle, which the
    convergence window alone would confirm later, budget permitting.  The
    result is deterministic for a fixed spec and configuration, whatever the
    cut and the number of CPUs.  The pixels are cut once into near-equal
    pieces of at most one tile, as many as the CPUs share evenly while each
    keeps ``_MIN_PART`` pixels (see ``_run_tiles``): the default 128x128 runs
    as one piece per CPU.  Start points are built one piece at a time and
    reduced to labels and iteration counts at once, which forked workers
    write straight into the two per-pixel arrays that ``_run_tiles``
    returns, so memory is O(tile) plus those two per pixel.  When the map
    and the slice commute with the column mirror
    (``orbits._column_mirror``), the map is evaluated once per mirror pair
    of pixels in a piece, and every pixel still gets the label and count it
    gets alone.
    """
    cfg = resolve(cfg)
    max_iter = cfg.max_orbit_iters if max_iter is None else max_iter
    if max_iter < 1:
        raise InputError("rendering needs at least one iteration")
    if len(spec.base) != f.k:
        raise InputError(f"the slice lives in P^{len(spec.base)}, the map on P^{f.k}")

    m = len(targets.cycles)

    def classify(out: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        cycle_idx, conv_iter = out[:2]
        labels = np.zeros(cycle_idx.size, dtype=np.int16)
        converged = cycle_idx >= 0
        labels[converged] = (cycle_idx[converged] + 1).astype(np.int16)
        labels[_accumulates(out, cfg)] = m + 1
        return labels, np.where(converged, conv_iter, max_iter).astype(np.int32)

    n_pix = spec.width * spec.height
    work = _render_tiles(f, spec, targets, max_iter, cfg, classify)
    labels, iterations = _run_tiles(work, (np.int16, np.int32), n_pix)

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
        fh.write(rgb)  # the array's own buffer: no copy beside it


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

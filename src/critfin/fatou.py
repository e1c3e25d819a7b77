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

The orbit kernel runs the columns in fixed-size tiles on every usable CPU,
cutting a tile into parts when there are fewer tiles than CPUs, so its
working memory is O(tile) per process whatever the number of start points; a
render builds each tile's start points from the slice and keeps only a label
and an iteration count per pixel.  What a tile computes lives in ``orbits``:
a column's bits depend neither on the tile size nor on the number of CPUs.
The kernel keeps one streak counter per orbit, which assumes the target
cycles are disjoint: an orbit within the convergence tolerance of two cycles
at once is refused with ``InputError``.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import Config, resolve
from .dynamics import (
    UNDECIDED,
    Endomorphism,
    find_periodic,
    trapping_radii,
)
from .errors import InputError
from .geometry import Component, ProjPoint, same_component
from .orbits import _anchor_charts, _nearest_cycle, _tile_kernel
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
        return self.classifications[i].startswith("superattracting")


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


# columns per tile: the kernel's working memory is O(_TILE), not O(pixels)
_TILE = 1 << 14

# the fewest columns in a part of a tile split across CPUs
_MIN_PART = 1 << 12


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


def _work_on(piece: tuple) -> tuple:
    return _work(*piece)


def _run_tiles(work, out: tuple[np.ndarray, ...]) -> None:
    """Fill the 1-D arrays ``out`` from ``work``, tile by tile.

    ``work(lo, hi)`` runs columns lo..hi-1, a whole tile or a part of one,
    as ``_tile_kernel``'s ``run`` does, and returns one array per output.

    With two or more usable CPUs the tiles run in a pool of forked workers,
    one per CPU at most.  When there are fewer tiles than CPUs, each tile is
    cut into about one part per CPU, of at least ``_MIN_PART`` columns; a
    column's bits do not depend on the columns run with it, so the parts
    give the whole tile's outputs.  Results are written into ``out`` as they
    arrive, in tile order.  Forking hands ``work``, a closure, to the
    workers without pickling it or importing anything again; only bounds and
    results are pickled.  An exception raised in a worker is raised here,
    and a worker that dies raises ``BrokenProcessPool`` instead of a hang.
    """
    n = out[0].size
    cpus = _cpus()
    tiles = [(lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE)]
    pieces: list[tuple[int, int]] = []
    for lo, hi in tiles:
        parts = max(1, min(cpus // len(tiles), (hi - lo) // _MIN_PART))
        cuts = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
        pieces += zip(cuts, cuts[1:])
    workers = min(len(pieces), cpus)
    with contextlib.ExitStack() as stack:
        if workers < 2:
            results = itertools.starmap(work, pieces)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, fork, _start_worker, (work,))
            # after an error, pieces not yet started are dropped, not run
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_work_on, pieces)
        for (lo, hi), res in zip(pieces, results):
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
    of confirmation and the confirming distance (the step of entry and the
    distance at entry, for a column that enters a certified trap), the step
    at which the lift degenerated (0 if never), the nearest-component index
    over the tail window (-1 if unmeasured), and that best tail distance.

    Columns run in tiles of ``_TILE`` on every usable CPU, a lone tile cut
    into parts, so working memory is O(tile) per process beside the
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

    Orbits advance in lockstep, one tile of columns at a time, on every
    usable CPU (a lone tile is cut into parts); a column retires as soon as
    its verdict is known.  A verdict depends neither on the other starts in
    the batch nor on the number of CPUs.  Convergence means the orbit entered
    one of the certified trapping balls of ``targets.traps`` (``iterations``
    is the step of entry and ``distance`` the chart max-norm distance there,
    at most the trap radius), or that its distance to one cycle stayed below
    the convergence tolerance for a full window of consecutive steps; a trap
    is checked first, so a trapped orbit skips that step's screening.
    Orbits that never confirm are checked over their last window of
    iterates against the postcritical components and reported as
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

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Pixel-center lifts of pixels lo..hi-1 (row-major) as a (k+1, hi-lo) array."""
        row, col = np.divmod(np.arange(lo, hi), self.width)
        u, v = self.params(col, row)
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
    tile size and the number of CPUs.  Start points are built one tile (or
    part of a tile) at a time and reduced to labels and iteration counts at
    once, so memory is O(tile) plus those two per pixel.  The tiles run on
    every usable CPU; a render of fewer tiles than CPUs, such as the default
    128x128 (one tile), cuts each tile into parts.
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
        out = run(spec.columns(lo, hi))
        cycle_idx, conv_iter = out[:2]
        labels = np.zeros(hi - lo, dtype=np.int16)
        converged = cycle_idx >= 0
        labels[converged] = (cycle_idx[converged] + 1).astype(np.int16)
        labels[_accumulates(out, cfg)] = m + 1
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

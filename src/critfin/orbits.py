"""The orbit kernel's per-tile numerics: evaluation, screening, the streak loop.

``fatou`` cuts the start points into tiles and runs ``_tile_kernel``'s
function on each.  It iterates the lifts in adaptive charts (unit max-norm
every step), retires an orbit that enters a certified trapping ball, counts
each orbit's straight steps within the convergence tolerance of one target
cycle, and measures the last window of iterates against the postcritical
components.  Every product has one fixed order (see ``_eval_terms``), so a
column's bits do not depend on the columns run with it.  The window cycles
are screened once per window: an orbit first found near one at a checkpoint
replays its steps since the last checkpoint, so its streak counts exactly as
if every step had been screened.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import Config
from .dynamics import Endomorphism
from .errors import InputError
from .geometry import Component, HomogPoly, ProjPoint

if TYPE_CHECKING:
    from .fatou import TargetSet


def _form_terms(forms: Sequence[HomogPoly]) -> list[list[tuple[tuple[int, ...], complex]]]:
    # sorted term order keeps float summation (and hence rendered bytes)
    # identical from run to run
    return [[(e, complex(c)) for e, c in sorted(f.terms.items())] for f in forms]


def _eval_terms(terms: list[tuple[tuple[int, ...], complex]], coords: np.ndarray) -> np.ndarray:
    # The rendered bytes depend on the order of each product: this numpy's
    # complex multiply is not bitwise commutative.  A term multiplies its
    # coefficient by each coordinate as ``t * coord`` and by each power as
    # ``p * t``.  The power is named: numpy computes ``t * coords[var] ** e``
    # in the unnamed power's buffer, as ``power * t``, only once that buffer
    # holds 256 KiB, so the order would follow the number of live columns.
    # ``p * t`` is the order a full tile took that way.
    acc = np.zeros(coords.shape[1], dtype=complex)
    for exps, c in terms:
        t = c
        for var, e in enumerate(exps):
            if e == 1:
                t = t * coords[var]
            elif e:
                p = coords[var] ** e
                t = p * t
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


def _cycles_apart(charts: list, tol: float) -> bool:
    """Whether no lift can lie within ``tol`` of two of the cycles at once.

    Let a be a member in its chart c and b a member of another cycle at unit
    max-norm.  A lift within tol <= 0.01 of both has |b_c| > 0.98 and
    ||b/b_c - a|| < 3.1 tol in the max-norm.  So the cycles are apart when
    tol <= 0.01 and every such pair with |b_c| >= 1/2 is at least 8 tol
    apart; the margin also covers the rounding of the screen.
    """
    members = [(c, ci, a) for c, _, groups in charts for _, group in groups for _, ci, a in group]
    if not members:
        return True
    chart, cycle, lifts = (np.array(column) for column in zip(*members))
    # b_c[i, j]: member j's coordinate in member i's chart
    b_c = lifts[:, chart].T
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(lifts[None] / b_c[:, :, None] - lifts[:, None]).max(axis=2)
    clash = (cycle[:, None] != cycle[None]) & (np.abs(b_c) >= 0.5) & (gap < 8 * tol)
    return tol <= 0.01 and not clash.any()


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


def _tile_kernel(f: Endomorphism, targets: TargetSet, max_iter: int, cfg: Config):
    """The orbit kernel for one tile or part of a tile, as a function of its start lifts.

    ``run(tile)`` takes a (k+1, m) array, m at most ``fatou._TILE``, and
    returns the six per-column arrays ``fatou._orbit_kernel`` describes for
    those columns.  Each column's orbit is computed alone, so its bits do not
    depend on the other columns run with it.

    The traps are screened on every step.  When ``_cycles_apart`` holds, the
    window cycles are screened on every column only at the checkpoints, the
    multiples of the convergence window P, and in between only on the
    watched columns, those near a cycle at the previous step.  Every P
    straight steps hold one checkpoint, so no convergence is missed; a column
    first found near a cycle at a checkpoint recounts its streak from the
    previous checkpoint's lift.  Otherwise every step is a checkpoint.
    """
    terms = _form_terms(f.forms)
    charts = _anchor_charts(targets.cycles)
    tol, window = cfg.convergence_tol, cfg.convergence_window
    period = max(window, 1) if _cycles_apart(charts, tol) else 1
    trapped = sorted(targets.traps)
    trap_charts = _anchor_charts([targets.cycles[i] for i in trapped])
    # the margin makes a floating "inside" mean truly inside
    rho = min(map(float, targets.traps.values()), default=0.0) * (1 - 2.0**-20)
    probes = _component_probes(targets.components)
    tail_start = max_iter - window

    def step(tile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lifts' images at unit max-norm, and which stayed finite and nonzero."""
        img = _eval_forms(terms, tile)
        m = np.abs(img).max(axis=0)
        live = np.isfinite(m) & (m > 0.0)
        if not live.all():
            img[:, ~live] = tile[:, ~live]  # freeze the last finite lift
            m = np.where(live, m, 1.0)
        # numpy divides by m as by m + 0j, as (a + b*0) * (1/m); that differs
        # from this product only in the sign of a zero, and img holds no -0
        return img * (1.0 / m), live

    def count(streak, last, near):
        # a streak grows while the orbit stays near one cycle
        return np.where(near < 0, 0, np.where(near == last, streak + 1, 1)), near

    def replay(snapshot, ids):
        """The streak and cycle of columns ``ids`` one step before a checkpoint."""
        snap_cols, snap_tile, snap_streak, snap_last = snapshot
        at = np.searchsorted(snap_cols, ids)
        lift, streak, last = snap_tile[:, at], snap_streak[at], snap_last[at]
        for _ in range(period - 1):
            lift = step(lift)[0]
            streak, last = count(streak, last, _nearest_cycle(lift, charts, tol)[0])
        return streak, last

    def run(tile: np.ndarray) -> tuple[np.ndarray, ...]:
        size = tile.shape[1]
        cycle_idx = np.full(size, -1, dtype=np.int64)
        conv_iter = np.zeros(size, dtype=np.int64)
        conv_dist = np.full(size, np.inf)
        overflow = np.zeros(size, dtype=np.int64)
        comp_idx = np.full(size, -1, dtype=np.int64)
        comp_dist = np.full(size, np.inf)

        # live state: lifts, column ids, streak and the cycle it counts
        # toward (-1 for an unwatched column); retired orbits are dropped
        # from all four.  The snapshot is the state at the last checkpoint.
        tile = tile / np.abs(tile).max(axis=0)
        cols = np.arange(size)
        streak = np.zeros(size, dtype=np.int64)
        last = np.full(size, -1, dtype=np.int64)
        snapshot = (cols, tile, streak.copy(), last.copy())

        for it in range(1, max_iter + 1):
            if not cols.size:
                break
            tile, live = step(tile)
            if not live.all():
                overflow[cols[~live]] = it

            if trap_charts:
                # a column inside a certified trap converges: it retires
                # before the screening, which it skips
                near, dist = _nearest_cycle(tile, trap_charts, rho)
                done = live & (near >= 0)
                if done.any():
                    rows = cols[done]
                    cycle_idx[rows] = np.take(trapped, near[done])
                    conv_iter[rows] = it
                    conv_dist[rows] = dist[done]
                    keep = ~done
                    tile, live, cols, streak, last = (
                        tile[:, keep], live[keep], cols[keep], streak[keep], last[keep]
                    )

            checkpoint = it % period == 0
            at = np.arange(cols.size) if checkpoint else np.flatnonzero(last >= 0)
            if charts and at.size:
                near, dist = _nearest_cycle(tile if checkpoint else tile[:, at], charts, tol)
                if checkpoint:
                    fresh = np.flatnonzero((near >= 0) & (last < 0))
                    if fresh.size:
                        streak[fresh], last[fresh] = replay(snapshot, cols[fresh])
                streak[at], last[at] = count(streak[at], last[at], near)
                done = streak[at] >= window
                if done.any():
                    rows = cols[at[done]]
                    cycle_idx[rows] = near[done]
                    conv_iter[rows] = it
                    conv_dist[rows] = dist[done]
                    live[at[done]] = False

            if not live.all():
                tile, cols, streak, last = tile[:, live], cols[live], streak[live], last[live]
            if checkpoint:
                snapshot = (cols, tile, streak.copy(), last.copy())
            if probes and it > tail_start and cols.size:
                d = _component_distances(tile, probes)
                best = d.min(axis=1)
                better = best < comp_dist[cols]
                comp_dist[cols] = np.where(better, best, comp_dist[cols])
                comp_idx[cols] = np.where(better, d.argmin(axis=1), comp_idx[cols])

        return cycle_idx, conv_iter, conv_dist, overflow, comp_idx, comp_dist

    return run

"""The orbit kernel's per-tile numerics: evaluation, screening, the streak loop.

``fatou`` cuts the start points into pieces and runs ``_tile_kernel``'s
function on each.  It iterates the lifts in adaptive charts (unit max-norm
every step), retires an orbit that enters a certified trapping ball, counts
each orbit's straight steps within the convergence tolerance of one target
cycle, and measures the last window of iterates against the postcritical
components.  Every product has one fixed order (see ``_eval_terms``), so a
column's bits do not depend on the columns run with it.  The window cycles
are screened once per window: an orbit first found near one at a checkpoint
replays its steps since the last checkpoint, so its streak counts exactly as
if every step had been screened.  A render whose map and slice commute with
the column mirror evaluates the map once per mirror pair of pixels (see
``_column_mirror``).
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
    from .fatou import SliceSpec, TargetSet


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


def _eval_forms(all_terms: list[list], coords: np.ndarray, out: np.ndarray | None = None):
    if out is None:
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


def _column_mirror(f: Endomorphism, spec: SliceSpec, targets: TargetSet, cfg: Config):
    """The exact symmetry pairing pixel (col, row) with (W-1-col, row), or None.

    Returns the signs ``(s, eps, shared_orbit)``.  The u grid is symmetric
    to the bit, s is 1 on the chart, and s_j conj(b_j) = b_j,
    s_j conj(du_j) = -du_j and s_j conj(dv_j) = dv_j, so the mirror starts
    at conj(s x).  The coefficients are real, eps_i = s^a on every term a of
    F_i, and eps^a eps_i is one sign on every term of every form, so at every
    step the mirror's lift is +-h of its partner's, h(y) = eps conj(y).
    numpy's complex sums, products and integer powers below 100 keep this
    bit for bit up to the signs of zeros, and no output of ``_tile_kernel``
    sees those or the sign of a whole lift.  ``shared_orbit``: on a real
    slice with eps = 1 the two orbits agree from step 1 on.

    Refused also for a window under two steps, which could confirm an orbit
    whose first image degenerates at its start lift, where the mirror's
    differs, and for target cycles not apart, so that a clash is found where
    it is found alone.
    """
    if cfg.convergence_window < 2:
        return None
    if not _cycles_apart(_anchor_charts(targets.cycles), cfg.convergence_tol):
        return None
    u = spec.params(np.arange(spec.width), 0)[0]
    if (u[::-1] != -u).any():
        return None
    s = []
    for b, du, dv in zip(spec.base, spec.dir_u, spec.dir_v):
        fits = [
            t for t in (1, -1)
            if t * b.conjugate() == b and t * du.conjugate() == -du and t * dv.conjugate() == dv
        ]
        if not fits:
            return None
        s.append(fits[0])
    s.insert(spec.chart, 1)
    terms = _form_terms(f.forms)
    if any(c.imag or max(e) >= 100 for form in terms for e, c in form):
        return None
    # the sign of the monomial x^e at x = signs
    monomial = lambda signs, e: math.prod(signs[j] for j, ej in enumerate(e) if ej % 2)
    eps = [monomial(s, form[0][0]) for form in terms]
    if any(monomial(s, e) != eps[i] for i, form in enumerate(terms) for e, _ in form):
        return None
    if len({monomial(eps, e) * eps[i] for i, form in enumerate(terms) for e, _ in form}) > 1:
        return None
    real = not any(c.imag for c in spec.base + spec.dir_u + spec.dir_v)
    return tuple(s), tuple(eps), real and min(eps) == 1


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


def _tile_kernel(f: Endomorphism, targets: TargetSet, max_iter: int, cfg: Config, flips=()):
    """The orbit kernel for one piece of the columns, as a function of its start lifts.

    ``run(tile)`` takes a (k+1, m) array, m at most ``fatou._TILE``, and
    returns the six per-column arrays ``fatou._orbit_kernel`` describes for
    those columns.  Each column's orbit is computed alone, so its bits do not
    depend on the other columns run with it.

    ``run(tile, pairs)`` takes the columns as [partners | lone | mirrors],
    the last ``pairs`` columns the mirror pixels of the first ``pairs`` under
    a symmetry of ``_column_mirror`` whose h negates the rows ``flips``.  It
    evaluates the map on the partners and the lone columns only, and returns
    the same arrays as ``run(tile)``, in the tile's column order.

    The traps are screened on every step, then the window cycles on the
    columns no trap retired.  When ``_cycles_apart`` holds, the window cycles
    are screened on every such column only at the checkpoints, the multiples
    of the convergence window P, and in between only on the watched columns,
    those near a cycle at the previous step.  Every P straight steps hold one
    checkpoint, so no convergence is missed; a column first found near a
    cycle at a checkpoint recounts its streak from the previous checkpoint's
    lift.  Otherwise every step is a checkpoint.  A step drops the columns
    that converged or degenerated all at once, at its end.
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

    def step(tile: np.ndarray, pairs: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The lifts' images at unit max-norm, and which stayed finite and nonzero.

        The last ``pairs`` columns mirror the first ``pairs``: their images
        are h of their partners', conjugated with the rows ``flips`` negated,
        and the map is evaluated on the other columns only.
        """
        n = tile.shape[1] - pairs
        out = np.empty_like(tile)
        img = _eval_forms(terms, tile[:, :n], out[:, :n])
        m = np.abs(img).max(axis=0)
        live = np.isfinite(m) & (m > 0.0)
        if not live.all():
            img[:, ~live] = tile[:, :n][:, ~live]  # freeze the last finite lift
            m = np.where(live, m, 1.0)
        # numpy divides by m as by m + 0j, as (a + b*0) * (1/m); that differs
        # from this product only in the sign of a zero.  An evaluated image
        # holds no -0, but a mirror's lift can, and a frozen lift keeps it; no
        # output sees the sign of a zero
        img *= 1.0 / m
        if pairs:
            mirror = out[:, n:]
            np.conjugate(out[:, :pairs], out=mirror)
            for i in flips:
                np.negative(mirror[i], out=mirror[i])
            live = np.concatenate([live, live[:pairs]])
        return out, live

    def kept(keep: np.ndarray, pairs: int) -> tuple[np.ndarray, int]:
        """The kept columns in [partners | lone | mirrors] order, and the pairs left.

        A pair that loses one member splits, and the survivor joins the lone
        block.
        """
        n = keep.size - pairs
        both = keep[:pairs] & keep[n:]
        single = keep.copy()
        single[:pairs] &= ~both
        single[n:] &= ~both
        twins = np.flatnonzero(both)
        return np.concatenate([twins, np.flatnonzero(single), twins + n]), twins.size

    def count(streak, last, near):
        # a streak grows while the orbit stays near one cycle
        return np.where(near < 0, 0, np.where(near == last, streak + 1, 1)), near

    def replay(snapshot, ids):
        """The streak and cycle of columns ``ids`` one step before a checkpoint."""
        snap_cols, snap_tile, snap_streak, snap_last = snapshot
        # the pair blocks leave cols unsorted once a pair splits
        order = np.argsort(snap_cols)
        at = order[np.searchsorted(snap_cols, ids, sorter=order)]
        lift, streak, last = snap_tile[:, at], snap_streak[at], snap_last[at]
        for _ in range(period - 1):
            lift = step(lift)[0]
            streak, last = count(streak, last, _nearest_cycle(lift, charts, tol)[0])
        return streak, last

    def run(tile: np.ndarray, pairs: int = 0) -> tuple[np.ndarray, ...]:
        size = tile.shape[1]
        cycle_idx = np.full(size, -1, dtype=np.int64)
        conv_iter = np.zeros(size, dtype=np.int64)
        conv_dist = np.full(size, np.inf)
        overflow = np.zeros(size, dtype=np.int64)
        comp_idx = np.full(size, -1, dtype=np.int64)
        comp_dist = np.full(size, np.inf)

        # live state: lifts, column ids, streak and the cycle it counts
        # toward (-1 for an unwatched column), in the order of the pair
        # blocks; ``pairs`` counts the pairs left.  A step marks the columns
        # that converge in ``done``, then drops them and the degenerate ones
        # from all four at once.  The snapshot is the state at the last
        # checkpoint.
        tile = tile / np.abs(tile).max(axis=0)
        cols = np.arange(size)
        streak = np.zeros(size, dtype=np.int64)
        last = np.full(size, -1, dtype=np.int64)
        snapshot = (cols, tile, streak.copy(), last.copy())

        def converge(at, cycle, dist):
            # state columns ``at`` converge to ``cycle`` at this step, ``dist`` away
            done[at] = True
            rows = cols[at]
            cycle_idx[rows], conv_iter[rows], conv_dist[rows] = cycle, it, dist

        for it in range(1, max_iter + 1):
            if not cols.size:
                break
            tile, live = step(tile, pairs)
            if not live.all():
                overflow[cols[~live]] = it
            done = np.zeros(cols.size, dtype=bool)

            if trap_charts:
                # a column inside a certified trap converges and skips the
                # screening below
                near, dist = _nearest_cycle(tile, trap_charts, rho)
                at = np.flatnonzero(live & (near >= 0))
                if at.size:
                    converge(at, np.take(trapped, near[at]), dist[at])

            checkpoint = it % period == 0
            at = np.flatnonzero(~done if checkpoint else ~done & (last >= 0))
            if charts and at.size:
                screened = tile if at.size == cols.size else tile[:, at]
                near, dist = _nearest_cycle(screened, charts, tol)
                if checkpoint:
                    fresh = at[(near >= 0) & (last[at] < 0)]
                    if fresh.size:
                        streak[fresh], last[fresh] = replay(snapshot, cols[fresh])
                streak[at], last[at] = count(streak[at], last[at], near)
                won = streak[at] >= window
                if won.any():
                    converge(at[won], near[won], dist[won])

            keep = live & ~done
            if not keep.all():
                keep, pairs = kept(keep, pairs)
                tile, cols, streak, last = (a[..., keep] for a in (tile, cols, streak, last))
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


def _mirror_layout(width: int, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Pixels lo..hi-1, row-major, as [partners | lone | mirrors], and the pair count.

    Mirror i is the column mirror of partner i.  A pixel on the middle
    column, or whose mirror lies outside lo..hi-1, is lone.
    """
    ids = np.arange(lo, hi)
    mirror = ids + (width - 1 - 2 * (ids % width))
    inside = (mirror >= lo) & (mirror < hi)
    partner = inside & (mirror > ids)
    alone = ~inside | (mirror == ids)
    return np.concatenate([ids[partner], ids[alone], mirror[partner]]), int(partner.sum())


def _render_tiles(
    f: Endomorphism, spec: SliceSpec, targets: TargetSet, max_iter: int, cfg: Config, reduce
):
    """``work(lo, hi)`` for ``fatou._run_tiles``: ``reduce`` of pixels lo..hi-1's kernel arrays.

    ``reduce`` maps ``run``'s six arrays to per-column arrays, which ``work``
    returns in pixel order.  Under a ``_column_mirror`` symmetry a pixel
    whose mirror lies in lo..hi-1 is paired with it: the map is evaluated
    once per pair, or, in a shared orbit, the mirror takes its partner's
    arrays.  Every pixel gets the arrays it gets alone.
    """
    mirror = _column_mirror(f, spec, targets, cfg)
    _, eps, shared_orbit = mirror or ((), (), False)
    run = _tile_kernel(f, targets, max_iter, cfg, [i for i, e in enumerate(eps) if e < 0])

    def work(lo: int, hi: int) -> list[np.ndarray]:
        ids, pairs = _mirror_layout(spec.width, lo, hi) if mirror else (np.arange(lo, hi), 0)
        if shared_orbit:
            res = reduce(run(spec.columns(ids[: ids.size - pairs])))
            res = [np.concatenate([a, a[:pairs]]) for a in res]
        else:
            res = reduce(run(spec.columns(ids), pairs))
        ids -= lo
        out = [np.empty_like(a) for a in res]
        for dst, src in zip(out, res):
            dst[ids] = src
        return out

    return work

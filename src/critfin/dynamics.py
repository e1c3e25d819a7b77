"""Endomorphisms of P^1 and P^2: validation, iteration, differentials,
periodic points, and superattracting certification.

A map is accepted only when its coordinate forms have a nonvanishing
resultant (no common zero anywhere, so the map is a morphism), proved
modulo a prime where it can be and exactly otherwise.  Iterates
reuse that certificate: a composition of morphisms is a morphism, so only
degree bookkeeping and content removal run on iterates.

Local differentials are honest chart computations: the source chart is the
largest-magnitude coordinate of the point, the target chart the
largest-magnitude coordinate of its image, and cycle differentials compose
step jacobians whose chart choices match up by construction.  Nilpotency of
a 2x2 cycle differential is decided on trace and determinant — exactly for
exact cycles, with an explicit ambiguity band for floating ones.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import (
    HomogPoly,
    factor,
    factor_uncapped,
    from_ring,
    poly_gcd,
    rational_content,
    resultant,
    resultant_nonzero_mod_p,
    to_ring,
)
from .config import Config, resolve
from .errors import (
    ArityError,
    BudgetError,
    DegenerateEliminationError,
    InputError,
    NotAMorphismError,
    SolverError,
)
from .geometry import (
    AlgebraicSet,
    Component,
    ProjPoint,
    binary_roots,
    map_point,
    solve_form_pair,
)

SUPERATTRACTING_ZERO = "superattracting-with-zero-differential"
SUPERATTRACTING_NILPOTENT = "superattracting-nilpotent-nonzero"
ATTRACTING = "attracting"
OTHER = "other"
UNDECIDED = "undecided"


def superattracting(classification: str) -> bool:
    """Whether a multiplier class is one of the two superattracting ones."""
    return classification in (SUPERATTRACTING_ZERO, SUPERATTRACTING_NILPOTENT)


def _primitive_tuple(forms: list[HomogPoly]) -> tuple[HomogPoly, ...]:
    """Remove the common rational content of the tuple, keeping relative scales."""
    scale = 1 / rational_content(c for f in forms for c in f.terms.values())
    if forms[0].leading_term()[1] < 0:
        scale = -scale
    return tuple(f * scale for f in forms)


class Endomorphism:
    """A validated self-map of P^1 (two forms) or P^2 (three forms)."""

    __slots__ = ("forms", "k", "degree", "_jacobian", "_det_jacobian")

    def __init__(self, forms: Sequence[HomogPoly]):
        forms = list(forms)
        if not forms:
            raise ArityError("an endomorphism needs coordinate forms")
        nv = forms[0].num_vars
        if len(forms) != nv or any(f.num_vars != nv for f in forms):
            raise ArityError(
                f"a self-map of P^{nv - 1} needs exactly {nv} forms in {nv} variables"
            )
        if any(f.is_zero() for f in forms):
            raise InputError("coordinate forms must be nonzero")
        d = forms[0].degree
        if any(f.degree != d for f in forms):
            degs = sorted({f.degree for f in forms})
            raise InputError(f"coordinate forms mix degrees {degs}")
        if d < 2:
            raise InputError(f"dynamical degree must be at least 2, got {d}")
        self.forms = _primitive_tuple(forms)
        self.k = nv - 1
        self.degree = d
        self._jacobian: tuple[tuple[HomogPoly, ...], ...] | None = None
        self._det_jacobian: HomogPoly | None = None

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return map_point(self.forms, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.forms == other.forms

    def __hash__(self) -> int:
        return hash(self.forms)

    def __repr__(self) -> str:
        inner = " : ".join(str(f) for f in self.forms)
        return f"[{inner}]"

    @property
    def num_vars(self) -> int:
        return self.k + 1

    def jacobian(self) -> tuple[tuple[HomogPoly, ...], ...]:
        """Matrix of partials d f_i / d x_j as forms."""
        if self._jacobian is None:
            self._jacobian = tuple(
                tuple(f.partial(j) for j in range(self.num_vars)) for f in self.forms
            )
        return self._jacobian

    def det_jacobian(self) -> HomogPoly:
        if self._det_jacobian is None:
            J = self.jacobian()
            if self.k == 1:
                det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
            else:
                det = HomogPoly.zero(3)
                for j0, j1, j2, sign in (
                    (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                    (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1),
                ):
                    det = det + J[0][j0] * J[1][j1] * J[2][j2] * sign
            self._det_jacobian = det
        return self._det_jacobian


def endo_new(forms: Sequence[HomogPoly], cfg: Config | None = None) -> Endomorphism:
    """Validate and wrap coordinate forms as a morphism.

    Raises NotAMorphismError when the forms share a projective zero, on P^1
    and P^2 alike.  Macaulay's determinant modulo a prime proves the
    resultant nonzero (``resultant_nonzero_mod_p``); only when it cannot
    does the exact Macaulay ``resultant`` decide.
    """
    endo = Endomorphism(forms)
    if not resultant_nonzero_mod_p(endo.forms) and resultant(list(endo.forms)) == 0:
        raise NotAMorphismError(
            "coordinate forms share a common zero; the map is not a morphism"
        )
    return endo


def iterate(f: Endomorphism, n: int, cfg: Config | None = None) -> Endomorphism:
    """The n-th iterate f^n, with tuple content removed.

    The morphism certificate is inherited rather than recomputed: a
    composition of morphisms is a morphism, and re-running the resultant on
    iterated forms would dwarf every runtime budget.
    """
    cfg = resolve(cfg)
    if n < 1:
        raise InputError("iterate needs n >= 1")
    if f.degree**n > cfg.max_iterate_degree:
        raise BudgetError(
            f"iterate degree {f.degree}^{n} exceeds the cap {cfg.max_iterate_degree}"
        )
    current = f
    for _ in range(n - 1):
        composed = [g.compose(list(current.forms)) for g in f.forms]
        current = Endomorphism(composed)
    return current


def critical_set(f: Endomorphism, cfg: Config | None = None) -> AlgebraicSet:
    """The critical set as components: curves on P^2, points on P^1.

    The jacobian determinant has degree (k+1)(d-1) — asserted — and is
    factored exactly; on P^1 irrational critical points come back as
    polished floating components.
    """
    cfg = resolve(cfg)
    det = f.det_jacobian()
    expected = (f.k + 1) * (f.degree - 1)
    if det.is_zero() or det.degree != expected:  # pragma: no cover - morphism guarantee
        raise SolverError("jacobian determinant degenerated")
    if f.k == 1:
        return AlgebraicSet(
            [Component.of_point(pt) for pt, _m in binary_roots(det, cfg)],
            cluster_tol=cfg.cluster_tol,
        )
    comps = [Component.curve(base) for base, _m in factor(det, cfg).factors]
    return AlgebraicSet(comps, cluster_tol=cfg.cluster_tol)


# ---------------------------------------------------------------------------
# local differentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalJacobian:
    """Differential of the map in affine charts at a point.

    ``matrix[b][a]`` is the partial of the b-th target chart coordinate with
    respect to the a-th source chart coordinate; coordinates in a chart are
    the remaining homogeneous coordinates in their original order.  Entries
    are Fractions for exact points, complex otherwise.
    """

    point: ProjPoint
    source_chart: int
    target_chart: int
    matrix: tuple[tuple[object, ...], ...]
    exact: bool


def differential_at(
    f: Endomorphism,
    p: ProjPoint,
    source_chart: int | None = None,
    target_chart: int | None = None,
) -> LocalJacobian:
    """Exact (or floating) local jacobian of f at p.

    Charts default to the largest-magnitude coordinate of the point and of
    its image; any chart whose coordinate is nonzero at the respective point
    may be forced explicitly, which changes the matrix by the expected
    similarity but never the nilpotency verdict.
    """
    s = p.chart() if source_chart is None else source_chart
    tgt = f(p).chart() if target_chart is None else target_chart
    exact = p.exact
    coords = list(p.coords if exact else p.to_complex())
    pivot = coords[s]
    if pivot == 0:
        raise InputError(f"chart {s} is not admissible at {p}")
    lift = [c / pivot for c in coords]
    ftau = f.forms[tgt]
    denom = ftau.evaluate(lift)
    if denom == 0:
        raise InputError(f"target chart {tgt} is not admissible at the image of {p}")
    J = f.jacobian()
    free_src = [a for a in range(f.num_vars) if a != s]
    free_tgt = [b for b in range(f.num_vars) if b != tgt]
    rows = []
    for b in free_tgt:
        fb = f.forms[b].evaluate(lift)
        row = []
        for a in free_src:
            # d/dx_a (f_b / f_tgt) by the quotient rule at x_s = 1
            num = J[b][a].evaluate(lift) * denom - fb * J[tgt][a].evaluate(lift)
            row.append(num / denom**2)
        rows.append(tuple(row))
    return LocalJacobian(
        point=p, source_chart=s, target_chart=tgt, matrix=tuple(rows), exact=exact
    )


def _matmul(A: Sequence[Sequence], B: Sequence[Sequence]):
    n = len(A)
    return tuple(
        tuple(sum(A[i][l] * B[l][j] for l in range(n)) for j in range(n))
        for i in range(n)
    )


def cycle_differential(f: Endomorphism, cycle: Sequence[ProjPoint]) -> LocalJacobian:
    """Differential of f^n along a cycle, composed through matching charts."""
    n = len(cycle)
    step_jacobians = []
    for i, p in enumerate(cycle):
        nxt = cycle[(i + 1) % n]
        step_jacobians.append(
            differential_at(f, p, source_chart=None, target_chart=nxt.chart())
        )
    M = step_jacobians[0].matrix
    for J in step_jacobians[1:]:
        M = _matmul(J.matrix, M)
    return LocalJacobian(
        point=cycle[0],
        source_chart=step_jacobians[0].source_chart,
        target_chart=step_jacobians[-1].target_chart,
        matrix=M,
        exact=all(J.exact for J in step_jacobians),
    )


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------


@dataclass
class PeriodicPoint:
    """A periodic point with its minimal period and certification data."""

    point: ProjPoint
    period: int
    classification: str = UNDECIDED
    #: multiplier for k = 1; (trace, det) of the cycle differential for k = 2
    eigen_data: tuple = ()
    residual: float = 0.0
    diagnostics: str = ""
    #: the cycle walked from ``point``, set by ``certify_superattracting``
    cycle: list[ProjPoint] = field(default_factory=list)

    def is_superattracting(self) -> bool:
        return superattracting(self.classification)


def _expected_fixed_points(f: Endomorphism, n: int) -> int:
    dn = f.degree**n
    if f.k == 1:
        return dn + 1
    return dn * dn + dn + 1


def _fixed_point_candidates(g: Endomorphism, cfg: Config) -> list[ProjPoint]:
    """Solutions of the fixed-point minor system of g, unfiltered."""
    if g.k == 1:
        z = HomogPoly.variable(2, 0)
        w = HomogPoly.variable(2, 1)
        form = g.forms[0] * w - g.forms[1] * z
        return [pt for pt, _m in binary_roots(form, cfg)]
    x = [HomogPoly.variable(3, i) for i in range(3)]
    minors = {
        (0, 1): g.forms[0] * x[1] - g.forms[1] * x[0],
        (0, 2): g.forms[0] * x[2] - g.forms[2] * x[0],
        (1, 2): g.forms[1] * x[2] - g.forms[2] * x[1],
    }
    last_error: Exception | None = None
    for (ia, ib) in [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))]:
        A, B = minors[ia], minors[ib]
        third = next(m for key, m in minors.items() if key not in (ia, ib))
        try:
            return _solve_degenerate_pair(A, B, third, cfg)
        except (DegenerateEliminationError, SolverError) as exc:
            last_error = exc
    raise DegenerateEliminationError(
        f"every fixed-point minor pair degenerated: {last_error}"
    )


def _solve_degenerate_pair(
    A: HomogPoly, B: HomogPoly, third: HomogPoly, cfg: Config
) -> list[ProjPoint]:
    """Common zeros of {A, B}, splitting off any shared curve through `third`.

    Minor pairs legitimately share factors (for the power map every pair
    does); on the shared curve the remaining minor cuts out the candidates.
    """
    g = poly_gcd(A, B)
    candidates: list[ProjPoint] = []
    if g.degree and g.degree > 0:
        for base, _m in factor_uncapped(g).factors:
            if poly_gcd(base, third).degree != 0:
                # the base would have to divide all three minors: a curve of
                # fixed points, impossible for a morphism
                raise SolverError("minor system shares a full component")
            candidates.extend(pt for pt, _m2 in solve_form_pair(base, third, cfg))
        gr = to_ring(g)
        qa, ra = divmod(to_ring(A), gr)
        qb, rb = divmod(to_ring(B), gr)
        if ra or rb:
            raise SolverError("the minors' common factor does not divide them exactly")
        A = from_ring(qa, A.num_vars)
        B = from_ring(qb, B.num_vars)
    if A.degree and B.degree:
        if poly_gcd(A, B).degree != 0:
            raise DegenerateEliminationError("minor pair still shares a component")
        candidates.extend(pt for pt, _m in solve_form_pair(A, B, cfg))
    return candidates


def find_periodic(f: Endomorphism, n_max: int, cfg: Config | None = None) -> list[PeriodicPoint]:
    """All periodic points of period <= n_max, with minimal periods.

    Points found at period n are demoted to the smallest divisor m of n
    with f^m(x) = x; duplicates across periods are merged.  Every returned
    point satisfies the fixed-point residual gate (exact zero for rational
    points, chordal distance below the residual tolerance otherwise), and
    each comes back certified by ``certify_superattracting``.
    """
    cfg = resolve(cfg)
    if n_max < 1:
        raise InputError("find_periodic needs n_max >= 1")
    worst = _expected_fixed_points(f, n_max)
    if worst > cfg.budget_point_nodes:
        raise BudgetError(
            f"{worst} expected period-{n_max} points exceed the point budget "
            f"{cfg.budget_point_nodes}"
        )
    found: list[PeriodicPoint] = []
    for n in range(1, n_max + 1):
        g = iterate(f, n, cfg)
        for cand in _fixed_point_candidates(g, cfg):
            if not _is_fixed(g, cand, cfg):
                continue
            if any(pp.point.is_close(cand, cfg.cluster_tol) for pp in found):
                continue
            period = n
            for m in range(1, n):
                if n % m == 0 and _is_fixed(iterate(f, m, cfg), cand, cfg):
                    period = m
                    break
            pp = PeriodicPoint(point=cand, period=period)
            found.append(certify_superattracting(f, pp, cfg))
    return found


def _miss(image: ProjPoint, p: ProjPoint) -> float:
    """Chordal distance from image to p: exactly 0.0 or 1.0 when both are exact."""
    if image.exact and p.exact:
        return 0.0 if image == p else 1.0
    return image.chordal(p)


def _is_fixed(g: Endomorphism, p: ProjPoint, cfg: Config) -> bool:
    return _miss(g(p), p) < cfg.residual_tol


def certify_superattracting(
    f: Endomorphism, pp: PeriodicPoint, cfg: Config | None = None
) -> PeriodicPoint:
    """Classify a periodic point by its cycle differential.

    On P^2 the verdict is decided by trace and determinant of the chain-rule
    product: both zero means nilpotent, split into zero-differential and
    nilpotent-nonzero by the matrix itself.  Exact cycles get exact
    verdicts; floating ones use the residual tolerance with an ambiguity
    band of one order of magnitude reported as "undecided" rather than
    forced either way.  The cycle walked from the point is kept on ``pp.cycle``.
    """
    cfg = resolve(cfg)
    pp.cycle = [pp.point]
    for _ in range(pp.period - 1):
        pp.cycle.append(f(pp.cycle[-1]))
    J = cycle_differential(f, pp.cycle)
    pp.residual = _miss(f(pp.cycle[-1]), pp.point)
    if f.k == 1:
        lam = J.matrix[0][0]
        pp.eigen_data = (lam,)
        pp.classification = _classify_multiplier(lam, J.exact, cfg)
        return pp
    (a, b), (c, d) = J.matrix
    tr = a + d
    det = a * d - b * c
    pp.eigen_data = (tr, det)
    pp.classification = _classify_matrix(J.matrix, tr, det, J.exact, cfg)
    return pp


def _classify_multiplier(lam, exact: bool, cfg: Config) -> str:
    if exact:
        if lam == 0:
            return SUPERATTRACTING_ZERO
        return ATTRACTING if abs(lam) < 1 else OTHER
    mag = abs(complex(lam))
    if mag < cfg.residual_tol:
        return SUPERATTRACTING_ZERO
    if mag <= cfg.ambiguity_factor * cfg.residual_tol:
        return UNDECIDED
    if abs(mag - 1.0) <= cfg.residual_tol:
        return UNDECIDED
    return ATTRACTING if mag < 1 else OTHER


def _classify_matrix(matrix, tr, det, exact: bool, cfg: Config) -> str:
    if exact:
        if tr == 0 and det == 0:
            zero = all(v == 0 for row in matrix for v in row)
            return SUPERATTRACTING_ZERO if zero else SUPERATTRACTING_NILPOTENT
        # both roots of x^2 - tr x + det strictly inside the unit circle
        # (Schur-Cohn for real rational coefficients)
        return ATTRACTING if abs(det) < 1 and abs(tr) < 1 + det else OTHER
    scale = max(max(abs(complex(v)) for row in matrix for v in row), 1.0)
    tr_r = abs(complex(tr)) / scale
    det_r = abs(complex(det)) / scale**2
    tol = cfg.residual_tol
    if tr_r < tol and det_r < tol:
        zero = all(abs(complex(v)) / scale < tol for row in matrix for v in row)
        return SUPERATTRACTING_ZERO if zero else SUPERATTRACTING_NILPOTENT
    if tr_r <= cfg.ambiguity_factor * tol and det_r <= cfg.ambiguity_factor * tol:
        return UNDECIDED
    return _attracting_numeric(tr, det, cfg)


def _attracting_numeric(tr, det, cfg: Config) -> str:
    trc, detc = complex(tr), complex(det)
    disc = cmath.sqrt(trc * trc - 4 * detc)
    lams = ((trc + disc) / 2, (trc - disc) / 2)
    mags = [abs(l) for l in lams]
    if any(abs(m - 1.0) <= cfg.residual_tol for m in mags):
        return UNDECIDED
    return ATTRACTING if all(m < 1 for m in mags) else OTHER


# ---------------------------------------------------------------------------
# trapping balls
# ---------------------------------------------------------------------------

# trapping radii are tried from 2^-1 down to this one
_MIN_TRAP = Fraction(1, 2**30)


def _trap_radius(g: Endomorphism, p: ProjPoint) -> Fraction | None:
    """The largest r = 2^-j >= 2^-30 on which g provably halves the distance to p.

    In p's chart c, with x = p + h (h_c = 0), write N_i(h) = G_i(x) - p_i G_c(x)
    and D(h) = G_c(x), expanded over Q.  When no N_i has a term of degree
    below 2 in h, every h with ||h|| <= r has |N_i(h)| <= ||h||^2
    sum |a_i,alpha| r^(|alpha|-2) and |D(h)| >= B(r) = |D(0)| -
    sum_{alpha != 0} |b_alpha| r^|alpha|.  So B(r) > 0 and
    max_i sum |a_i,alpha| r^(|alpha|-1) <= B(r)/2 give
    ||g(p+h) - p|| <= ||h||^2 / (2r) <= ||h|| / 2 in the max-norm.
    """
    c = p.chart()
    anchor = [x / p.coords[c] for x in p.coords]
    nv = len(anchor)
    xc = HomogPoly.variable(nv, c)
    shift = [HomogPoly.variable(nv, j) + xc * anchor[j] if j != c else xc for j in range(nv)]
    G = [form.compose(shift) for form in g.forms]

    def weights(poly: HomogPoly) -> dict[int, Fraction]:
        # sum of |coefficient| per total degree in h
        out: dict[int, Fraction] = {}
        for e, coef in poly.terms.items():
            out[g.degree - e[c]] = out.get(g.degree - e[c], 0) + abs(coef)
        return out

    D = weights(G[c])
    N = [weights(G[i] - G[c] * anchor[i]) for i in range(nv) if i != c]
    if any(k < 2 for w in N for k in w):
        return None
    r = Fraction(1, 2)
    while r >= _MIN_TRAP:
        B = D.get(0, 0) - sum(w * r**k for k, w in D.items() if k)
        if B > 0 and all(2 * sum(w * r ** (k - 1) for k, w in Ni.items()) <= B for Ni in N):
            return r
        r /= 2
    return None


def _in_ball(q: ProjPoint, p: ProjPoint, r: Fraction) -> bool:
    """Whether q lies in the closed max-norm ball of radius r around p, in p's chart."""
    c = p.chart()
    if q.coords[c] == 0:
        return False
    return all(
        abs(q.coords[j] / q.coords[c] - p.coords[j] / p.coords[c]) <= r
        for j in range(len(p.coords))
        if j != c
    )


def trapping_radii(
    f: Endomorphism,
    cycles: Sequence[Sequence[ProjPoint]],
    classifications: Sequence[str],
    cfg: Config | None = None,
) -> dict[int, Fraction]:
    """Certified trapping radius of each superattracting cycle with exact points.

    For cycle ``i`` of period n the radius r = 2^-j (j <= 30) is certified
    in exact rational arithmetic on g = f^n, or on f^(2n) when f^n fails (a
    nilpotent differential): at every member p the expansion of g has no
    term of degree below 2, and r satisfies the bound of ``_trap_radius``,
    so g maps the closed max-norm ball of radius r around p, in p's chart,
    into the ball of radius r/2 and its iterates converge to p.  r is then
    halved until no point of another cycle lies in a ball.  A cycle gets no
    radius when d^m exceeds ``max_iterate_degree``, when some member fails
    the check, or when r would drop below 2^-30.  The result maps cycle
    indices to radii.
    """
    cfg = resolve(cfg)
    iterates: dict[int, Endomorphism] = {}
    traps: dict[int, Fraction] = {}
    for i, cycle in enumerate(cycles):
        if not superattracting(classifications[i]) or not all(p.exact for p in cycle):
            continue
        r = None
        for m in (len(cycle), 2 * len(cycle)):
            if f.degree**m > cfg.max_iterate_degree:
                break
            if m not in iterates:
                iterates[m] = iterate(f, m, cfg)
            radii = [_trap_radius(iterates[m], p) for p in cycle]
            if None not in radii:
                r = min(radii)
                break
        others = [q for j, other in enumerate(cycles) if j != i for q in other]
        while r is not None and any(_in_ball(q, p, r) for p in cycle for q in others):
            r = r / 2 if r > _MIN_TRAP else None
        if r is not None:
            traps[i] = r
    return traps

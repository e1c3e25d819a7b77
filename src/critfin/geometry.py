"""Projective points, algebraic sets, and exact curve geometry on P^1 / P^2.

Points carry either exact rational coordinates (primitive integer vectors,
first nonzero coordinate positive) or inexact complex ones (scaled so the
largest-magnitude coordinate is exactly 1).  Distances between points are
measured in the chordal metric ``||p ^ q|| / (||p|| ||q||)`` — symmetric,
scale and phase invariant, and chart-free — and every clustering or
membership tolerance in the package applies to that metric or to
coefficient-normalized residuals.

The two geometric workhorses:

* ``curve_image`` computes the image of an irreducible curve under a
  morphism by finding the minimal-degree form whose pullback the curve
  divides (the coefficient conditions are linear over Q, so the image drops
  out of an exact nullspace and is certified by divisibility plus
  irreducibility).
* ``solve_form_pair`` intersects two coprime ternary forms by projecting
  from a point off both curves (deterministic retry ladder), eliminating via
  a resultant, and reading the one point on each fiber: exactly over Q on
  a rational direction, and by a Newton-polished subresultant root on a
  floating one.  ``solve_form_pair_inexact`` runs the same ladder and
  splitter on forms with floating coefficients.  The exact ladder screens
  a center twice before its expensive work.  A center [a : b : 1] lies on
  the curve p = 0 iff p(a, b, 1) = 0, the t^d coefficient of the shifted
  form, so both forms are evaluated there before either is shifted.  And
  an exact fiber can hold more than one point only over a repeated root of
  the eliminant, so the fibers over its repeated rational roots are read
  before the rest of it is factored.  Either screen refuses a center with
  the reason the full route would give.

Forms reach sympy through ``algebra.to_ring`` only; ``curve_image`` reduces
in that grevlex ring.  The exact path stays on sympy's dense domains and
never builds a sympy expression: the t-eliminant is the subresultant-PRS
resultant of two dense univariates in t over ZZ[z, w] (denominators cleared,
then divided back out), and an exact fiber is the dense gcd over QQ of two
univariates, which must be c * (t - tau)^m.  A floating fiber, in either
engine, takes tau = -s0/s1 from the first subresultant s1*t + s0 of its two
univariates: two determinants of a matrix from ``_sylvester``, which also
builds the floating engine's Sylvester matrices.  Small determinants of
one center are stacked into one ``det`` call, which runs the one-matrix LU
on each, so the bits are those of one call per matrix.  Newton polishing
evaluates each form's ``complex_terms``, in its own term order and with
``HomogPoly.evaluate``'s per-term arithmetic, and stops once its step is
rounding noise.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from typing import Iterable, Sequence

import numpy as np
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_gcd, dup_resultant
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from .algebra import (
    Factorization,
    HomogPoly,
    _clear_denominators,
    binary_factors,
    factor,
    factor_uncapped,
    monomials_of_degree,
    poly_gcd,
    rational_content,
    to_fraction,
    to_ring,
)
from .config import Config, resolve
from .errors import (
    ArityError,
    BudgetError,
    DegenerateEliminationError,
    InputError,
    SolverError,
)

#: coefficient domain ZZ[z, w] of the t-eliminant's dense univariates
_ZZ_ZW = ring("z,w", ZZ)[0].to_domain()


class Membership(enum.Enum):
    """Tri-state membership verdict with an explicit ambiguity band."""

    IN = "in"
    OUT = "out"
    UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class ProjPoint:
    """A point of P^1 or P^2 with exact or inexact homogeneous coordinates."""

    __slots__ = ("coords", "exact")

    def __init__(self, coords: Sequence, exact: bool):
        self.coords = tuple(coords)
        self.exact = exact

    @classmethod
    def exact_point(cls, coords: Sequence) -> "ProjPoint":
        vals = [Fraction(c) for c in coords]
        if all(v == 0 for v in vals):
            raise InputError("projective point needs a nonzero coordinate")
        scale = rational_content(vals)
        if next(v for v in vals if v != 0) < 0:
            scale = -scale
        return cls(tuple(v / scale for v in vals), exact=True)

    @classmethod
    def inexact(cls, coords: Sequence) -> "ProjPoint":
        vals = [complex(c) for c in coords]
        mags = [abs(v) for v in vals]
        top = max(mags)
        if top == 0.0 or not all(cmath.isfinite(v) for v in vals):
            raise InputError("inexact point must have finite, not-all-zero coordinates")
        pivot = vals[mags.index(top)]
        return cls(tuple(v / pivot for v in vals), exact=False)

    # -- views --------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the ambient projective space (1 or 2)."""
        return len(self.coords) - 1

    def to_complex(self) -> tuple[complex, ...]:
        if self.exact:
            return tuple(complex(c) for c in self.coords)
        return self.coords  # type: ignore[return-value]

    def as_dict(self) -> dict:
        """JSON form: rational strings when exact, [re, im] pairs otherwise."""
        if self.exact:
            return {"coords": [str(c) for c in self.coords], "exact": True}
        return {"coords": [[z.real, z.imag] for z in self.to_complex()], "exact": False}

    def chart(self) -> int:
        """Index of the largest-magnitude coordinate (ties: lowest index)."""
        mags = [abs(complex(c)) for c in self.coords]
        return mags.index(max(mags))

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.exact == other.exact and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.exact, self.coords))

    def chordal(self, other: "ProjPoint") -> float:
        """Chordal distance ||p ^ q||_2 / (||p||_2 ||q||_2), in [0, 1]."""
        p = self.to_complex()
        q = other.to_complex()
        if len(p) != len(q):
            raise ArityError("points live in different spaces")
        wedge = 0.0
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                wedge += abs(p[i] * q[j] - p[j] * q[i]) ** 2
        np_ = sum(abs(c) ** 2 for c in p)
        nq = sum(abs(c) ** 2 for c in q)
        return sqrt(wedge / (np_ * nq))

    def is_close(self, other: "ProjPoint", tol: float) -> bool:
        if self.exact and other.exact:
            return self == other
        return self.chordal(other) <= tol

    def snap_to_rational(self, cfg: Config | None = None) -> "ProjPoint | None":
        """Exact rational point reproducing this one to within snap_tol, if any."""
        cfg = resolve(cfg)
        if self.exact:
            return self
        c = self.chart()
        pivot = self.coords[c]
        ratios = [complex(v) / pivot for v in self.coords]
        cand: list[Fraction] = []
        for r in ratios:
            if abs(r.imag) > cfg.snap_tol:
                return None
            cand.append(Fraction(r.real).limit_denominator(cfg.snap_max_denominator))
        try:
            snapped = ProjPoint.exact_point(cand)
        except InputError:
            return None
        return snapped if self.chordal(snapped) <= cfg.snap_tol else None

    def __repr__(self) -> str:
        if self.exact:
            return "[" + " : ".join(str(c) for c in self.coords) + "]"
        return "[" + " : ".join(f"{c:.6g}" for c in self.coords) + "]~"


# ---------------------------------------------------------------------------
# components and sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One irreducible piece of an algebraic set: a curve or a point."""

    kind: str  # "curve" | "point"
    poly: HomogPoly | None = None
    point: ProjPoint | None = None

    @classmethod
    def curve(cls, poly: HomogPoly) -> "Component":
        if poly.is_zero() or poly.degree == 0:
            raise InputError("a curve component needs a nonconstant form")
        return cls(kind="curve", poly=poly.normalized())

    @classmethod
    def of_point(cls, point: ProjPoint) -> "Component":
        return cls(kind="point", point=point)

    @property
    def codim(self) -> int:
        if self.kind == "curve":
            return 1
        return self.point.dim  # points: codim k in P^k

    @property
    def degree(self) -> int:
        return self.poly.degree if self.kind == "curve" else 0

    @property
    def is_exact(self) -> bool:
        return True if self.kind == "curve" else self.point.exact

    def sort_key(self) -> tuple:
        if self.kind == "curve":
            return (0, self.poly.degree, str(self.poly))
        pt = self.point
        if pt.exact:
            return (1, 0, tuple((c.numerator, c.denominator) for c in pt.coords))
        rounded = tuple((round(c.real, 9), round(c.imag, 9)) for c in pt.coords)
        return (1, 1, rounded)

    def __str__(self) -> str:
        if self.kind == "curve":
            return f"{{{self.poly} = 0}}"
        return repr(self.point)


class AlgebraicSet:
    """A duplicate-free, deterministically ordered union of components."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Component] = (), cluster_tol: float | None = None):
        tol = resolve(None).cluster_tol if cluster_tol is None else cluster_tol
        kept: list[Component] = []
        for comp in components:
            if any(same_component(comp, other, tol) for other in kept):
                continue
            kept.append(comp)
        kept.sort(key=Component.sort_key)
        self.components = tuple(kept)

    def union(self, other: "AlgebraicSet") -> "AlgebraicSet":
        return AlgebraicSet(self.components + other.components)

    def curves(self) -> list[Component]:
        return [c for c in self.components if c.kind == "curve"]

    def points(self) -> list[Component]:
        return [c for c in self.components if c.kind == "point"]

    @property
    def is_empty(self) -> bool:
        return not self.components

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.components)
        return f"AlgebraicSet({inner})"


def same_component(a: Component, b: Component, tol: float) -> bool:
    """Equal curves, or points within chordal distance ``tol`` (exact: equal)."""
    if a.kind != b.kind:
        return False
    if a.kind == "curve":
        return a.poly == b.poly
    return a.point.is_close(b.point, tol)


def curve_residual(poly: HomogPoly, point: ProjPoint) -> float:
    """Scale-free residual |q(p^)| / ||q||_1 with p^ at unit max-norm."""
    coords = point.to_complex()
    top = max(abs(c) for c in coords)
    hat = [c / top for c in coords]
    return abs(poly.evaluate(hat)) / poly.l1_norm


def contains(s: AlgebraicSet, p: ProjPoint, cfg: Config | None = None) -> Membership:
    """Tri-state membership of a point in a set.

    Exact point against an exact curve or point is decided exactly.
    Otherwise the residual (curves) or chordal distance (points) is compared
    against ``residual_tol``: below means IN, above ``ambiguity_factor``
    times it means OUT, and the band in between is reported as UNDECIDED
    rather than guessed.
    """
    cfg = resolve(cfg)
    tol = cfg.residual_tol
    undecided = False
    for comp in s.components:
        if comp.kind == "curve":
            if p.exact:
                if comp.poly.evaluate(p.coords) == 0:
                    return Membership.IN
                continue
            r = curve_residual(comp.poly, p)
        else:
            if p.exact and comp.point.exact:
                if p == comp.point:
                    return Membership.IN
                continue
            r = p.chordal(comp.point)
        if r < tol:
            return Membership.IN
        if r <= cfg.ambiguity_factor * tol:
            undecided = True
    return Membership.UNDECIDED if undecided else Membership.OUT


def set_equal(a: AlgebraicSet, b: AlgebraicSet) -> bool:
    """Exact equality of algebraic sets (component lists in normal form)."""
    for s in (a, b):
        for comp in s.components:
            if not comp.is_exact:
                raise InputError("set_equal requires exact components")
    return [c.sort_key() for c in a.components] == [c.sort_key() for c in b.components]


# ---------------------------------------------------------------------------
# point images and binary-form roots
# ---------------------------------------------------------------------------


def map_point(forms: Sequence[HomogPoly], p: ProjPoint) -> ProjPoint:
    """Image of a point under a morphism's coordinate forms."""
    if p.exact:
        vals = [f.evaluate(p.coords) for f in forms]
        return ProjPoint.exact_point(vals)
    coords = p.to_complex()
    return ProjPoint.inexact([f.evaluate(coords) for f in forms])


def _coeff_floats(coeffs: list[Fraction]) -> list[complex]:
    top = max(abs(c) for c in coeffs)
    return [complex(c / top) for c in coeffs]


def _irrational_roots(coeffs: list[Fraction], cfg: Config) -> list[complex]:
    """Newton-polished roots of an irreducible rational univariate (descending)."""
    floats = _coeff_floats(coeffs)
    return [_polish_univariate(floats, complex(r), cfg.newton_max_steps) for r in np.roots(floats)]


def _polish_univariate(coeffs: list[complex], root: complex, max_steps: int) -> complex:
    deriv = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    x = root
    for _ in range(max_steps):
        fx = 0j
        for c in coeffs:
            fx = fx * x + c
        dfx = 0j
        for c in deriv:
            dfx = dfx * x + c
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def binary_roots(
    p: HomogPoly, cfg: Config | None = None, factors: Iterable[tuple[HomogPoly, int]] | None = None
) -> list[tuple[ProjPoint, int]]:
    """Projective roots of a binary form with multiplicities.

    Rational roots come out exact (from the linear factors of the exact
    factorization, which ``factor`` computes from p(z, 1); the root [1 : 0]
    is the factor w, with multiplicity the degree drop of p(z, 1)); roots of
    higher-degree irreducible factors are floating and Newton-polished.
    ``factor`` finds most factors from floating candidates that it accepts
    only on exact division, but its result is the unique factorization,
    sorted, so the roots and their order do not depend on that route.  A
    caller that holds p's irreducible factors already, in any order, passes
    them as ``factors``.
    """
    cfg = resolve(cfg)
    if p.num_vars != 2:
        raise ArityError("binary_roots needs a two-variable form")
    if p.is_zero():
        raise ArityError("zero form has every root")
    # the degree cap guards user-facing factor() calls; internal resultants
    # legitimately reach higher degrees and must still split exactly
    fac = factor_uncapped(p) if factors is None else Factorization.of(p, factors)
    out: list[tuple[ProjPoint, int]] = []
    for base, mult in fac.factors:
        if base.degree == 1:
            out.append((_linear_root(base), mult))
        else:
            # irreducible of degree >= 2 over Q: no roots at (1:0) or (0:1)
            coeffs = [base.terms.get((base.degree - j, j), Fraction(0)) for j in range(base.degree + 1)]
            roots = _irrational_roots(coeffs, cfg)
            out.extend((ProjPoint.inexact([root, 1.0]), mult) for root in roots)
    return out


def _linear_root(base: HomogPoly) -> ProjPoint:
    """The root [-b : a] of a*z + b*w."""
    return ProjPoint.exact_point([-base.terms.get((0, 1), 0), base.terms.get((1, 0), 0)])


# ---------------------------------------------------------------------------
# curve images under a morphism
# ---------------------------------------------------------------------------


def curve_image(f, c: Component, cfg: Config | None = None) -> Component:
    """Image of an irreducible curve under a morphism of P^2.

    Searches for the minimal degree D admitting a form q with c | q(f);
    since reduction modulo the principal ideal (c) is linear over Q, such q
    form the exact nullspace of a rational matrix.  At the minimal D the
    nullspace is one-dimensional and spanned by the defining polynomial of
    f(V(c)); the returned component is certified by re-checking divisibility
    exactly and verifying irreducibility.

    Raises BudgetError when the degree bound d*deg(c) exceeds the configured
    curve-degree cap, and SolverError if no degree admits a divisor (cannot
    happen for a genuine morphism; kept as a hard failure, not a guess).
    """
    cfg = resolve(cfg)
    forms = list(getattr(f, "forms", f))
    if len(forms) != 3:
        raise ArityError("curve_image needs a self-map of P^2")
    if c.kind != "curve":
        raise InputError("curve_image needs a curve component")
    d = forms[0].degree
    bound = d * c.poly.degree
    if bound > cfg.factor_degree_cap:
        raise BudgetError(
            f"image degree bound {bound} exceeds the curve degree cap "
            f"{cfg.factor_degree_cap}"
        )
    cr = to_ring(c.poly)
    fr = [to_ring(fi) for fi in forms]
    pows = [[cr.ring.one] for _ in fr]

    def power(i: int, e: int):
        while len(pows[i]) <= e:
            pows[i].append(pows[i][-1] * fr[i])
        return pows[i][e]

    for D in range(1, bound + 1):
        target = monomials_of_degree(3, D)
        columns = []
        support: dict[tuple[int, ...], int] = {}
        for (a, b, e) in target:
            remainder = (power(0, a) * power(1, b) * power(2, e)).rem([cr])
            col = {}
            for expo, coeff in remainder.terms():
                if expo not in support:
                    support[expo] = len(support)
                col[support[expo]] = coeff
            columns.append(col)
        if not support:
            # every pullback reduced to zero: any q of this degree works;
            # impossible for a morphism, and caught here rather than papered over
            raise SolverError("curve reduction degenerated to zero")
        rows = len(support)
        data = [[QQ.zero] * len(target) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, coeff in col.items():
                data[i][j] = coeff
        null = DomainMatrix(data, (rows, len(target)), QQ).nullspace()
        if null.shape[0] == 0:
            continue
        if null.shape[0] > 1:
            raise SolverError(
                f"nullspace dimension {null.shape[0]} at minimal degree {D}; "
                "the image is not a single curve"
            )
        vec = null.to_list()[0]
        terms = {mono: to_fraction(v) for mono, v in zip(target, vec) if v != 0}
        q = HomogPoly(3, terms).normalized()
        # certify: divisibility (structural, but re-checked) + irreducibility
        pullback = to_ring(q.compose(forms))
        if pullback.rem([cr]):
            raise SolverError("image candidate failed exact divisibility")
        fac = factor(q, cfg)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            raise SolverError("image candidate is not irreducible")
        return Component.curve(q)
    raise SolverError("no image degree up to d*deg(c) admitted a divisor")


# ---------------------------------------------------------------------------
# intersections: the shared elimination engine
# ---------------------------------------------------------------------------

#: deterministic ladder of projection centers: the substitution
#: (z, w, t) -> (z + a*t, w + b*t, t) moves the center of projection to
#: [a : b : 1]; the identity (projection from [0:0:1]) is tried first.
_PROJECTION_SHIFTS: list[tuple[int, int]] = [
    (0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1),
    (1, -1), (-1, 1), (2, 1), (1, 2), (-2, 1), (3, 2),
]

def _shift_form(p: HomogPoly, a: int, b: int) -> HomogPoly:
    if (a, b) == (0, 0):
        return p
    z = HomogPoly.variable(3, 0)
    w = HomogPoly.variable(3, 1)
    t = HomogPoly.variable(3, 2)
    return p.compose([z + t * Fraction(a), w + t * Fraction(b), t])


def _evaluate_terms(terms, powers) -> complex:
    """Sum of complex terms at a point, term by term as ``HomogPoly.evaluate`` does.

    ``powers[i][e]`` is ``coords[i] ** e``, computed once per point.  The sum
    starts at the first term.
    """
    acc = None
    for expo, c in terms:
        term = c
        for pw, e in zip(powers, expo):
            if e:
                term = term * pw[e]
        acc = term if acc is None else acc + term
    return 0j if acc is None else acc


def _float_fibers(As, Bs, z0, w0) -> tuple[list, list]:
    """Both forms' complex coefficients (descending in t) at (z0, w0, t)."""
    return tuple(_fiber_coeffs(p.complex_terms, p.degree, z0, w0) for p in (As, Bs))


def _fiber_coeffs(terms, deg: int, z0, w0) -> list:
    """Coefficients (descending in t) of a form at (z0, w0, t).

    ``terms`` are a form's exact terms (``p.terms.items()``) at rational z0,
    w0, or its ``complex_terms``.  The sums start from the integer 0,
    which adds exactly as Fraction(0) or 0j would.
    """
    coeffs = [0] * (deg + 1)
    for (i, j, k), c in terms:
        coeffs[deg - k] += c * z0**i * w0**j
    return coeffs


#: a Newton step within four units in the last place of the iterate is
#: rounding noise: the iterate has converged
_NEWTON_STOP = 4 * 2.0**-52


class _NewtonSystem:
    """A form pair and all its partials as prepared complex terms.

    Built once per projection center, then shared by its floating fibers and
    every Newton polish there.
    """

    __slots__ = ("forms", "partials", "degree")

    def __init__(self, A, B):
        self.degree = max(A.degree, B.degree)
        self.forms = (A.complex_terms, B.complex_terms)
        self.partials = tuple(tuple(p.partial(i).complex_terms for i in range(3)) for p in (A, B))


def _newton_system(
    system: _NewtonSystem, start: tuple[complex, complex, complex], cfg: Config
) -> tuple[complex, complex, complex]:
    """Polish a root of the system {A = B = 0} in the chart of its largest coord.

    Stops at a singular jacobian, after ``newton_max_steps`` steps, or once
    a step is within ``_NEWTON_STOP`` of the iterate.
    """
    coords = list(start)
    mags = [abs(c) for c in coords]
    chart = mags.index(max(mags))
    pivot = coords[chart]
    coords = [c / pivot for c in coords]
    free = [i for i in range(3) if i != chart]
    ta, tb = system.forms
    pa = [system.partials[0][i] for i in free]
    pb = [system.partials[1][i] for i in free]
    exponents = range(system.degree + 1)
    for _ in range(cfg.newton_max_steps):
        powers = [[v**e for e in exponents] for v in coords]
        fa = _evaluate_terms(ta, powers)
        fb = _evaluate_terms(tb, powers)
        j00 = _evaluate_terms(pa[0], powers)
        j01 = _evaluate_terms(pa[1], powers)
        j10 = _evaluate_terms(pb[0], powers)
        j11 = _evaluate_terms(pb[1], powers)
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-300:
            break
        du = (fa * j11 - fb * j01) / det
        dv = (fb * j00 - fa * j10) / det
        coords[free[0]] -= du
        coords[free[1]] -= dv
        if max(abs(du), abs(dv)) <= _NEWTON_STOP * max(1.0, abs(coords[free[0]]), abs(coords[free[1]])):
            break
    return tuple(coords)  # type: ignore[return-value]


def _dense_in_t(p: HomogPoly) -> tuple[list, int]:
    """D * p as a dense univariate in t (descending) over ZZ[z, w], and D.

    D is the least common denominator of p's coefficients.
    """
    den, ints = _clear_denominators(p)
    by_t: dict[int, dict] = {}
    for (i, j, k), c in ints.items():
        by_t.setdefault(k, {})[(i, j)] = c
    zw = _ZZ_ZW.ring
    top = max(by_t, default=-1)
    return [zw.from_dict(by_t[k]) if k in by_t else zw.zero for k in range(top, -1, -1)], den


def _resultant_t(A: HomogPoly, B: HomogPoly) -> HomogPoly:
    """Eliminate t from two ternary forms, returning a binary form in (z, w).

    With denominators cleared, both forms are dense univariates in t over
    ZZ[z, w] (t is the only generator), and the eliminant is their
    subresultant-PRS resultant over that domain, divided back by
    Res(D_A A, D_B B) / Res(A, B) = D_A^deg_t(B) * D_B^deg_t(A).
    """
    fa, da = _dense_in_t(A)
    fb, db = _dense_in_t(B)
    res = dup_resultant(fa, fb, _ZZ_ZW)
    scale = da ** max(len(fb) - 1, 0) * db ** max(len(fa) - 1, 0)
    return HomogPoly(2, {expo: Fraction(int(c), scale) for expo, c in res.terms()})


def solve_form_pair(
    A: HomogPoly, B: HomogPoly, cfg: Config | None = None
) -> list[tuple[ProjPoint, int]]:
    """All common zeros of two coprime ternary forms, with multiplicities.

    Multiplicities sum to deg(A) * deg(B).  The projection center is moved
    down a deterministic ladder until every resultant fiber carries a single
    intersection point (so the fiber multiplicity is attributable); exact
    rational fibers stay exact, floating ones are Newton-polished on the
    original system and verified against the residual tolerance.  A center
    on either curve is refused before the forms are shifted, and one with an
    ambiguous fiber over a repeated rational direction before its eliminant
    is factored in full; the points, and the reasons in the error, are those
    of the unscreened route.

    Raises DegenerateEliminationError when every center fails — in practice
    only for inputs violating the coprimality precondition.
    """
    cfg = resolve(cfg)
    if A.num_vars != 3 or B.num_vars != 3:
        raise ArityError("solve_form_pair needs ternary forms")
    return _projection_ladder(A, B, _exact_center, _exact_directions, cfg)


def _exact_center(
    A: HomogPoly, B: HomogPoly, a: int, b: int
) -> tuple[HomogPoly, HomogPoly] | None:
    """Both forms shifted to the center [a : b : 1], or None if it lies on either curve.

    The t^d coefficient of p(z + a*t, w + b*t, t) is p(a, b, 1), so the test
    runs before the shift, in Fractions.
    """
    at = (Fraction(a), Fraction(b), Fraction(1))
    if A.evaluate(at) == 0 or B.evaluate(at) == 0:
        return None
    return _shift_form(A, a, b), _shift_form(B, a, b)


#: the reason a center fails when one of its fibers holds more than one point
_AMBIGUOUS = "produced an ambiguous fiber"


def _exact_directions(
    As: HomogPoly, Bs: HomogPoly, cfg: Config
) -> tuple[list[tuple[ProjPoint, int]], dict[ProjPoint, Fraction]] | str:
    """Roots of the exact t-resultant R with the fiber roots already read, or why the center fails.

    An exact fiber can fail the c * (t - tau)^m test only over a direction
    of multiplicity at least two in R: over a simple root of R lies one
    simple intersection point.  So R's repeated factors come first from
    ``binary_factors``, the fiber over each rational one is read at once,
    and a center with an ambiguous one is refused before the rest of R is
    factored.  A center that passes hands its fiber roots on to
    ``_split_fibers``.
    """
    R = _resultant_t(As, Bs)
    if R.is_zero():
        raise DegenerateEliminationError(
            "elimination vanished identically; the forms share a component"
        )
    if R.degree != As.degree * Bs.degree:
        return "dropped resultant degree"
    pairs: list[tuple[HomogPoly, int]] = []
    known: dict[ProjPoint, Fraction] = {}
    for base, mult in binary_factors(R):
        pairs.append((base, mult))
        if mult > 1 and base.degree == 1:
            direction = _linear_root(base)
            tau = _exact_fiber(As, Bs, direction)
            if tau is None:
                return _AMBIGUOUS
            known[direction] = tau
    return binary_roots(R, cfg, pairs), known


def _projection_ladder(A, B, center, directions, cfg: Config) -> list[tuple[ProjPoint, int]]:
    """Project from each center of the ladder until the fibers separate.

    Shared by both solvers, which pass in what differs at a center: the
    ``center`` step giving both forms shifted so that it moves to [0:0:1],
    or None when it lies on or near a curve, and the ``directions`` step
    giving the roots of the t-eliminant with any fiber roots it has read, or
    the reason the center fails.  The exact engine's steps refuse a doomed
    center before the expensive work: a center on a curve is never shifted,
    and an ambiguous fiber over a repeated rational direction ends the
    center before its eliminant is factored in full.
    """
    expected = A.degree * B.degree
    failures: list[str] = []
    for a, b in _PROJECTION_SHIFTS[: cfg.max_projection_retries]:
        # the center [0:0:1] must avoid both curves, i.e. full t-degree
        pair = center(A, B, a, b)
        if pair is None:
            failures.append(f"center ({a},{b}) lies on or near a curve")
            continue
        found = directions(*pair, cfg)
        if not isinstance(found, str):
            roots, known = found
            found = _split_fibers(*pair, roots, a, b, cfg, known)
            if found is None:
                found = _AMBIGUOUS
        if isinstance(found, str):
            failures.append(f"center ({a},{b}) {found}")
            continue
        total = sum(m for _, m in found)
        if total != expected:  # pragma: no cover - structural identity
            failures.append(f"center ({a},{b}) multiplicity sum {total} != {expected}")
            continue
        return found
    raise DegenerateEliminationError(
        "no projection center separated the intersection: " + "; ".join(failures)
    )


def _split_fibers(
    As, Bs, directions: list[tuple[ProjPoint, int]], a: int, b: int, cfg: Config, known: dict | None = None
) -> list[tuple[ProjPoint, int]] | None:
    """The one intersection point on each direction, or None for a bad center.

    An exact direction reads its fiber root exactly off the gcd over Q,
    unless ``known`` already holds it; a floating one reads it off the first
    subresultant and Newton polishes it on the system.  The floating
    directions' roots are read together, at the first of them.
    """
    known = known or {}
    results: list[tuple[ProjPoint, int]] = []
    taus = None  # the floating fiber roots, in direction order
    for direction, mult in directions:
        if direction.exact:
            z0, w0 = direction.coords
            tau = known[direction] if direction in known else _exact_fiber(As, Bs, direction)
        else:
            z0, w0 = direction.to_complex()
            if taus is None:
                system = _NewtonSystem(As, Bs)
                floating = [d.to_complex() for d, _m in directions if not d.exact]
                taus = iter(_float_fiber_roots([_float_fibers(As, Bs, *zw) for zw in floating]))
            tau = next(taus)
        if tau is None:
            return None
        # solutions live in the shifted frame; the original coordinates are
        # (z' + a t', w' + b t', t')
        if direction.exact:
            point = ProjPoint.exact_point([z0 + a * tau, w0 + b * tau, tau])
        else:
            z, w, t = _newton_system(system, (z0, w0, tau), cfg)
            point = ProjPoint.inexact([z + a * t, w + b * t, t])
        # distinct directions carry distinct points: a repeat means one
        # direction is spurious and a true intersection point went missing
        if any(point.is_close(pt, cfg.cluster_tol) for pt, _ in results):
            return None
        results.append((point, mult))
    return results


def _exact_fiber(As: HomogPoly, Bs: HomogPoly, direction: ProjPoint) -> Fraction | None:
    """The one fiber root over a rational direction, or None."""
    z0, w0 = direction.coords
    return _exact_fiber_root(*(_fiber_coeffs(p.terms.items(), p.degree, z0, w0) for p in (As, Bs)))


def _exact_fiber_root(pa: list[Fraction], pb: list[Fraction]) -> Fraction | None:
    """The one common root of two rational univariates (descending), or None.

    Their gcd over Q must be c * (t - tau)^m, which gives tau exactly for any
    multiplicity m and without factoring.
    """
    g = dup_gcd(*([QQ(c.numerator, c.denominator) for c in p] for p in (pa, pb)), QQ)
    m = len(g) - 1
    if m < 1:
        return None
    tau = -g[1] / (m * g[0])
    if any(c != g[0] * comb(m, i) * (-tau) ** i for i, c in enumerate(g)):
        return None
    return to_fraction(tau)


#: the first subresultant's leading coefficient s1 below this share of its
#: Hadamard bound means the univariates share two roots, or a double one
_SUBRESULTANT_GATE = 1e-11


def _float_fiber_roots(pairs: list[tuple[list[complex], list[complex]]]) -> list[complex | None]:
    """The one common root of each pair of floating univariates (descending), or None.

    Every pair has the same two lengths.  The root is -s0/s1 for the pair's
    first subresultant s1*t + s0, whose coefficients are two maximal minors
    of ``_sylvester(pa, pb, 1)``, each one stacked ``det`` over all pairs;
    two linear univariates are their own first subresultant.
    """
    M = np.array([_sylvester(pa, pb, 1) for pa, pb in pairs])
    if not M[0].size:
        return [complex(-s0 / s1) for (s1, s0), _pb in pairs]
    S1 = M[:, :, :-1]
    s1, s0 = np.linalg.det(S1), np.linalg.det(np.delete(M, -2, axis=2))
    bounds = np.prod(np.linalg.norm(S1, axis=2), axis=1)
    return [
        None if abs(x1) < _SUBRESULTANT_GATE * bound else complex(-x0 / x1)
        for x1, x0, bound in zip(s1, s0, bounds)
    ]


def curve_intersect(
    a: Component, b: Component, cfg: Config | None = None
) -> list[tuple[ProjPoint, int]]:
    """Intersection points of two distinct irreducible curves in P^2.

    Multiplicities sum to the product of the degrees (Bezout).  Exact
    rational intersection points come back exact; the rest are polished
    floating points.  Distinctness is enforced; sharing a component is an
    input error surfaced through the coprimality check.
    """
    cfg = resolve(cfg)
    if a.kind != "curve" or b.kind != "curve":
        raise InputError("curve_intersect needs curve components")
    if a.poly == b.poly:
        raise InputError("curve_intersect needs two distinct curves")
    if poly_gcd(a.poly, b.poly).degree != 0:
        raise InputError("curves share a common component")
    points = solve_form_pair(a.poly, b.poly, cfg)
    # final residual gate (exact points are exact zeros by construction)
    for pt, _m in points:
        if pt.exact:
            if a.poly.evaluate(pt.coords) != 0 or b.poly.evaluate(pt.coords) != 0:
                raise SolverError(f"exact intersection point {pt} is not a common zero")
        else:
            ra = curve_residual(a.poly, pt)
            rb = curve_residual(b.poly, pt)
            if max(ra, rb) > cfg.residual_tol:
                raise SolverError(
                    f"intersection point {pt} failed the residual gate "
                    f"({max(ra, rb):.2e})"
                )
    return points


# ---------------------------------------------------------------------------
# inexact elimination (floating complex coefficients)
# ---------------------------------------------------------------------------


class InexactForm:
    """A homogeneous form with floating complex coefficients.

    Arises when a form pair is assembled from floating scalars (backward
    fibers over any floating point, real or complex), where the rational
    elimination pipeline cannot run.  Quacks enough like ``HomogPoly``
    (``terms``, ``complex_terms``, ``degree``, ``partial``) for the shared
    projection ladder, fiber splitter and Newton polish above to work
    unchanged; exact factorization is of course unavailable, so roots and
    their multiplicities come from clustering instead.
    """

    __slots__ = ("num_vars", "terms", "degree")

    def __init__(self, num_vars: int, terms: dict, degree: int):
        self.num_vars = num_vars
        self.terms = {e: complex(c) for e, c in terms.items() if c != 0}
        self.degree = degree

    @classmethod
    def combination(cls, ca, p: HomogPoly, cb, q: HomogPoly) -> "InexactForm":
        """The form ca * p + cb * q for complex scalars ca, cb.

        The result is rescaled so its largest coefficient has magnitude one,
        and coefficients below 1e-14 of that are treated as cancellation dust
        and dropped.  A combination that cancels entirely means p and q were
        proportional, which the morphism precondition excludes.
        """
        if p.num_vars != q.num_vars or p.degree != q.degree:
            raise ArityError("combination needs two forms of the same shape")
        terms: dict[tuple, complex] = {}
        for e, c in p.terms.items():
            terms[e] = terms.get(e, 0j) + complex(ca) * complex(c)
        for e, c in q.terms.items():
            terms[e] = terms.get(e, 0j) + complex(cb) * complex(c)
        top = max((abs(v) for v in terms.values()), default=0.0)
        if top == 0.0:
            raise DegenerateEliminationError("scalar combination vanished identically")
        kept = {e: v / top for e, v in terms.items() if abs(v) > 1e-14 * top}
        return cls(p.num_vars, kept, p.degree)

    @property
    def complex_terms(self):
        return self.terms.items()  # already complex, in stored order

    def partial(self, var: int) -> "InexactForm":
        terms: dict[tuple, complex] = {}
        for expo, c in self.terms.items():
            if expo[var] == 0:
                continue
            lowered = list(expo)
            lowered[var] -= 1
            terms[tuple(lowered)] = c * expo[var]
        return InexactForm(self.num_vars, terms, max(self.degree - 1, 0))

    def __repr__(self) -> str:
        return f"InexactForm(deg={self.degree}, {len(self.terms)} terms)"


def _shift_inexact(p: InexactForm, a: int, b: int) -> InexactForm:
    """p(z + a*t, w + b*t, t), expanded term by term."""
    if (a, b) == (0, 0):
        return p
    terms: dict[tuple, complex] = {}
    for (i, j, k), c in p.terms.items():
        for r in range(i + 1):
            ca = comb(i, r) * a ** (i - r)
            for s in range(j + 1):
                cb = comb(j, s) * b ** (j - s)
                key = (r, s, k + (i - r) + (j - s))
                terms[key] = terms.get(key, 0j) + c * ca * cb
    top = max(abs(v) for v in terms.values())
    kept = {e: v for e, v in terms.items() if abs(v) > 1e-14 * top}
    return InexactForm(3, kept, p.degree)


def _sylvester(pa: list[complex], pb: list[complex], j: int) -> np.ndarray:
    """The matrix of the j-th subresultant of pa and pb (descending).

    Rows are the coefficients of t^i * pa for i < deg(pb) - j and of
    t^i * pb for i < deg(pa) - j, highest shift first, over the
    deg(pa) + deg(pb) - j powers of t; j = 0 gives the Sylvester matrix.
    """
    da, db = len(pa) - 1, len(pb) - 1
    M = np.zeros((da + db - 2 * j, da + db - j), dtype=complex)
    for r in range(db - j):
        M[r, r : r + da + 1] = pa
    for r in range(da - j):
        M[db - j + r, r : r + db + 1] = pb
    return M


def _interp_resultant_t(As: InexactForm, Bs: InexactForm) -> np.ndarray:
    """Descending coefficients of Res_t(As, Bs)(z, 1) by DFT interpolation.

    The resultant is a binary form of degree deg(As)*deg(Bs); evaluating the
    Sylvester determinant at roots of unity and inverting the DFT recovers
    its coefficients with unit-circle conditioning.  The samples' Sylvester
    matrices are stacked and take one ``det``.
    """
    n = As.degree * Bs.degree + 1
    samples = np.exp(2j * np.pi * np.arange(n) / n)
    stack = [_sylvester(*_float_fibers(As, Bs, complex(z0), 1.0), 0) for z0 in samples]
    vals = np.linalg.det(np.array(stack))
    coeffs_ascending = np.fft.fft(vals) / n
    return coeffs_ascending[::-1]


def _cluster_roots(values, gate: float) -> list[tuple[complex, int]]:
    """Greedy clustering of floating roots; cluster size is the multiplicity."""
    clusters: list[list[complex]] = []
    for x in values:
        for cl in clusters:
            if abs(complex(x) - cl[0]) <= gate * max(1.0, abs(cl[0])):
                cl.append(complex(x))
                break
        else:
            clusters.append([complex(x)])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


# multiple roots of a numerically computed polynomial split by roughly
# eps^(1/m); this gate re-merges them up to multiplicity three or so
_CLUSTER_GATE = 1e-5


def binary_roots_inexact(
    coeffs: Sequence[complex], cfg: Config | None = None
) -> list[tuple[ProjPoint, int]]:
    """Projective roots of a floating binary form, multiplicities by clustering.

    ``coeffs`` are the descending coefficients of p(z, 1), all deg(p) + 1 of
    them: leading entries below 1e-10 of the largest magnitude are read as
    roots at [1 : 0].  Multiplicities sum to the degree by construction.
    """
    cfg = resolve(cfg)
    if len(coeffs) < 2:
        raise ArityError("binary_roots_inexact needs a form of positive degree")
    top = max(abs(c) for c in coeffs)
    if top == 0.0:
        raise ArityError("zero form has every root")
    vals = [complex(c) / top for c in coeffs]
    at_infinity = 0
    while len(vals) > 1 and abs(vals[0]) < 1e-10:
        vals.pop(0)
        at_infinity += 1
    out: list[tuple[ProjPoint, int]] = []
    if at_infinity:
        out.append((ProjPoint.inexact([1.0, 0.0]), at_infinity))
    if len(vals) > 1:
        for root, mult in _cluster_roots(np.roots(vals), _CLUSTER_GATE):
            # Newton at a multiple root divides by a vanishing derivative and
            # lands on a neighbouring root; the cluster mean is kept instead
            if mult == 1:
                root = _polish_univariate(vals, root, cfg.newton_max_steps)
            out.append((ProjPoint.inexact([root, 1.0]), mult))
    return out


def solve_form_pair_inexact(
    A: InexactForm, B: InexactForm, cfg: Config | None = None
) -> list[tuple[ProjPoint, int]]:
    """Common zeros of two floating ternary forms, multiplicities by clustering.

    Runs the projection ladder and fiber splitter of ``solve_form_pair``; at
    each center only the eliminant differs: the t-resultant is interpolated
    from Sylvester determinants, and root multiplicities come from clustering
    its roots.  Every returned point is Newton-polished on the shifted
    system.  Fibers that refuse to separate exhaust the ladder and raise,
    exactly as in the exact pipeline — never a silently short answer.
    """
    cfg = resolve(cfg)
    if A.num_vars != 3 or B.num_vars != 3:
        raise ArityError("solve_form_pair_inexact needs ternary forms")
    return _projection_ladder(A, B, _inexact_center, _inexact_directions, cfg)


def _inexact_center(
    A: InexactForm, B: InexactForm, a: int, b: int
) -> tuple[InexactForm, InexactForm] | None:
    """Both forms shifted to the center [a : b : 1], or None if it is near either curve."""
    As, Bs = _shift_inexact(A, a, b), _shift_inexact(B, a, b)
    return None if _near_curve(As) or _near_curve(Bs) else (As, Bs)


def _near_curve(p: InexactForm) -> bool:
    # full t-degree is not enough: the leading coefficient must be of honest
    # magnitude, or the center sits numerically on the curve
    scale = max(abs(c) for c in p.terms.values())
    return abs(p.terms.get((0, 0, p.degree), 0j)) < 1e-10 * scale


def _inexact_directions(
    As: InexactForm, Bs: InexactForm, cfg: Config
) -> tuple[list[tuple[ProjPoint, int]], dict]:
    rc = _interp_resultant_t(As, Bs)
    if max(abs(c) for c in rc) == 0.0:
        raise DegenerateEliminationError(
            "elimination vanished identically; the forms share a component"
        )
    return binary_roots_inexact(list(rc), cfg), {}

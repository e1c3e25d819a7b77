"""Projective points, membership, curve images, and intersections."""

import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from critfin.algebra import (
    HomogPoly,
    factor,
    monomials_of_degree,
    poly_parse,
    to_fraction,
)
from critfin import geometry
from critfin.config import Config
from critfin.errors import BudgetError, InputError, SolverError
from critfin.geometry import (
    AlgebraicSet,
    Component,
    InexactForm,
    Membership,
    ProjPoint,
    _evaluate_terms,
    _exact_directions,
    _exact_fiber_root,
    _float_fiber_roots,
    _PROJECTION_SHIFTS,
    _NewtonSystem,
    _newton_system,
    _resultant_t,
    _shift_form,
    _split_fibers,
    binary_roots,
    binary_roots_inexact,
    contains,
    curve_image,
    curve_intersect,
    curve_residual,
    map_point,
    set_equal,
    solve_form_pair,
    solve_form_pair_inexact,
)
from expression_bridge import from_sympy, to_sympy

F_FORMS = [poly_parse("z^2 - w*t"), poly_parse("w^2", 3), poly_parse("t^2", 3)]
POWER_FORMS = [poly_parse("z^2", 3), poly_parse("w^2", 3), poly_parse("t^2", 3)]
G4_FORMS = [poly_parse("z^4 - w^3*t"), poly_parse("-w^4", 3), poly_parse("-t^4", 3)]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_exact_point_normal_form():
    p = ProjPoint.exact_point([Fraction(2, 3), Fraction(-4, 3), 2])
    assert p.coords == (Fraction(1), Fraction(-2), Fraction(3))
    # first nonzero coordinate positive
    q = ProjPoint.exact_point([0, -2, 4])
    assert q.coords == (Fraction(0), Fraction(1), Fraction(-2))


def test_exact_point_equality_ignores_scaling():
    assert ProjPoint.exact_point([2, -4, 6]) == ProjPoint.exact_point([-1, 2, -3])


def test_inexact_point_pivot_is_one():
    p = ProjPoint.inexact([2j, 1 + 1j, 0.5])
    assert p.coords[p.chart()] == 1.0 + 0j


def test_zero_vector_rejected():
    with pytest.raises(InputError):
        ProjPoint.exact_point([0, 0, 0])
    with pytest.raises(InputError):
        ProjPoint.inexact([0.0, 0.0])


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("inf")), complex(float("nan"), 0.0)]
)
def test_inexact_point_refuses_nonfinite_coordinates(bad):
    with pytest.raises(InputError):
        ProjPoint.inexact([1.0, bad, 0.5])
    with pytest.raises(InputError):
        ProjPoint.inexact([bad, 1.0])


def test_chordal_metric_properties():
    rng = random.Random(3)
    for _ in range(20):
        coords = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        p = ProjPoint.inexact(coords)
        lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        q = ProjPoint.inexact([lam * c for c in coords])
        assert p.chordal(q) < 1e-12  # scale invariance
        r = ProjPoint.inexact([coords[1], coords[2], coords[0]])
        assert abs(p.chordal(r) - r.chordal(p)) < 1e-15  # symmetry
    assert ProjPoint.exact_point([1, 0, 0]).chordal(ProjPoint.exact_point([0, 1, 0])) == 1.0


def test_snap_to_rational_accepts_dyadic_noise():
    p = ProjPoint.inexact([1e-15, 1.0 + 2e-16, 0.5])
    snapped = p.snap_to_rational()
    assert snapped is not None
    assert snapped == ProjPoint.exact_point([0, 2, 1])


def test_snap_to_rational_refuses_irrational_and_complex():
    assert ProjPoint.inexact([2**0.5, 1.0]).snap_to_rational() is None
    assert ProjPoint.inexact([1j, 1.0]).snap_to_rational() is None


# ---------------------------------------------------------------------------
# components / sets / membership
# ---------------------------------------------------------------------------


def test_component_curve_is_stored_normalized():
    c = Component.curve(poly_parse("-2*z^2 + 2*w*t"))
    assert str(c.poly) == "z^2 - w*t"
    assert c.codim == 1 and c.degree == 2


def test_set_dedups_exact_and_clustered_inexact():
    a = Component.of_point(ProjPoint.exact_point([1, 2, 3]))
    b = Component.of_point(ProjPoint.exact_point([2, 4, 6]))
    c = Component.of_point(ProjPoint.inexact([0.5, 0.5 + 1e-12, 0.25]))
    d = Component.of_point(ProjPoint.inexact([0.5, 0.5, 0.25 + 1e-13]))
    s = AlgebraicSet([a, b, c, d])
    assert len(s) == 2  # {exact [1:2:3]} + one clustered inexact point


def test_set_order_is_deterministic():
    comps = [
        Component.of_point(ProjPoint.exact_point([1, 0, 0])),
        Component.curve(poly_parse("w", 3)),
        Component.curve(poly_parse("z^2 - w*t")),
        Component.curve(poly_parse("z", 3)),
    ]
    s1 = AlgebraicSet(comps)
    s2 = AlgebraicSet(list(reversed(comps)))
    assert [str(c) for c in s1] == [str(c) for c in s2]
    # curves sort before points, low degree first
    assert [c.kind for c in s1] == ["curve", "curve", "curve", "point"]


def test_contains_is_exact_for_exact_data():
    s = AlgebraicSet([Component.curve(poly_parse("z^2 - w*t"))])
    assert contains(s, ProjPoint.exact_point([1, 1, 1])) is Membership.IN
    assert contains(s, ProjPoint.exact_point([1, 1, 2])) is Membership.OUT


def test_contains_tri_state_band():
    s = AlgebraicSet([Component.curve(poly_parse("z", 3))])
    cfg = Config(residual_tol=1e-10)
    near = ProjPoint.inexact([5e-11, 1.0, 0.0])
    band = ProjPoint.inexact([5e-10, 1.0, 0.0])
    far = ProjPoint.inexact([5e-9, 1.0, 0.0])
    assert contains(s, near, cfg=cfg) is Membership.IN
    assert contains(s, band, cfg=cfg) is Membership.UNDECIDED
    assert contains(s, far, cfg=cfg) is Membership.OUT


def test_contains_invariant_under_rescaling():
    s = AlgebraicSet([Component.curve(poly_parse("z^2 - w*t"))])
    base = [1.0 + 1e-12, 1.0, 1.0]
    for lam in [1.0, -3.7, 1j, 200j - 5]:
        p = ProjPoint.inexact([lam * c for c in base])
        assert contains(s, p) is Membership.IN


def test_set_equal_ignores_order_and_scale():
    a = AlgebraicSet([
        Component.curve(poly_parse("z", 3)),
        Component.of_point(ProjPoint.exact_point([1, 1, 1])),
    ])
    b = AlgebraicSet([
        Component.of_point(ProjPoint.exact_point([3, 3, 3])),
        Component.curve(poly_parse("5*z", 3)),
    ])
    assert set_equal(a, b)
    assert not set_equal(a, AlgebraicSet([Component.curve(poly_parse("z", 3))]))


def test_set_equal_requires_exact_members():
    s = AlgebraicSet([Component.of_point(ProjPoint.inexact([1.0, 2.0, 3.0]))])
    with pytest.raises(InputError):
        set_equal(s, s)


# ---------------------------------------------------------------------------
# point images / binary roots
# ---------------------------------------------------------------------------


def test_map_point_exact_and_projective():
    p = map_point(F_FORMS, ProjPoint.exact_point([1, 1, 1]))
    assert p == ProjPoint.exact_point([0, 1, 1])
    # scaling the input does not move the image
    q = map_point(F_FORMS, ProjPoint.exact_point([5, 5, 5]))
    assert q == p


def test_map_point_inexact_tracks_exact():
    exact = map_point(F_FORMS, ProjPoint.exact_point([2, 3, 5]))
    approx = map_point(F_FORMS, ProjPoint.inexact([2.0, 3.0, 5.0]))
    assert approx.chordal(exact) < 1e-14


def test_binary_roots_exact_with_multiplicity():
    # z = 0 is the point [0:1], w = 0 is [1:0]
    for text, expected in [
        ("z^2*w*(z - w)^3", {("[0 : 1]", 2), ("[1 : 0]", 1), ("[1 : 1]", 3)}),
        ("w^2*(z - 3*w)", {("[1 : 0]", 2), ("[3 : 1]", 1)}),
    ]:
        roots = binary_roots(poly_parse(text, 2))
        assert all(pt.exact for pt, _ in roots)
        assert {(str(pt), m) for pt, m in roots} == expected


def test_binary_roots_numeric_residuals():
    p = poly_parse("z^4 - 6*z^2*w^2 + w^4", 2)  # roots +-(1 +- sqrt(2))
    roots = binary_roots(p)
    assert len(roots) == 4
    vals = sorted(pt.to_complex()[0].real / pt.to_complex()[1].real for pt, _ in roots)
    import math

    expect = sorted([1 + math.sqrt(2), -1 - math.sqrt(2), math.sqrt(2) - 1, 1 - math.sqrt(2)])
    assert max(abs(a - b) for a, b in zip(vals, expect)) < 1e-12


def test_binary_roots_count_matches_degree():
    rng = random.Random(17)
    for _ in range(10):
        deg = rng.randint(1, 6)
        terms = {}
        for j in range(deg + 1):
            c = rng.randint(-4, 4)
            if c:
                terms[(deg - j, j)] = Fraction(c)
        if not terms:
            continue
        p = HomogPoly(2, terms)
        roots = binary_roots(p)
        assert sum(m for _, m in roots) == p.degree


def test_binary_roots_inexact_keeps_the_mean_of_a_double_root():
    # z^4 - s^2 z^2 with rounding noise: the double root at 0 splits by about
    # 1e-8, and a Newton step from the cluster mean divides by a vanishing
    # derivative and lands on +-s instead
    rng = np.random.default_rng(0)
    for _ in range(2000):
        s = rng.uniform(0.2, 2.0)
        coeffs = np.array([1.0, 0.0, -s * s, 0.0, 0.0], dtype=complex)
        coeffs += 1e-16 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        roots = binary_roots_inexact(list(coeffs))
        assert sorted(m for _, m in roots) == [1, 1, 2]
        (double,) = [pt for pt, m in roots if m == 2]
        z, w = double.to_complex()
        assert abs(z / w) <= 4e-15


# ---------------------------------------------------------------------------
# curve images
# ---------------------------------------------------------------------------


def test_curve_image_fixture_two_cycle():
    line = Component.curve(poly_parse("z", 3))
    img = curve_image(F_FORMS, line)
    assert img.poly == poly_parse("z^2 - w*t")
    back = curve_image(F_FORMS, img)
    assert back.poly == poly_parse("z", 3)


def test_curve_image_fixed_lines():
    for text in ["w", "t"]:
        comp = Component.curve(poly_parse(text, 3))
        assert curve_image(F_FORMS, comp).poly == comp.poly
    for text in ["z", "w", "t"]:
        comp = Component.curve(poly_parse(text, 3))
        assert curve_image(POWER_FORMS, comp).poly == comp.poly


def test_curve_image_quartic_two_cycle():
    line = Component.curve(poly_parse("z", 3))
    img = curve_image(G4_FORMS, line)
    assert img.poly == poly_parse("z^4 - w^3*t")
    assert curve_image(G4_FORMS, img).poly == poly_parse("z", 3)


def test_curve_image_degree_law():
    # deg(image) <= d * deg(c); equality fails exactly when the covering
    # degree exceeds one, as in both fixture 2-cycles above
    conic = Component.curve(poly_parse("z*w - t^2"))
    img = curve_image(F_FORMS, conic)
    assert img.poly.degree <= 2 * 2
    # pushforward property: sampled points of the conic land on the image
    for s in [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)]:
        pt = ProjPoint.exact_point([1, s * s, s])  # z*w = t^2 parametrization
        image_pt = map_point(F_FORMS, pt)
        assert img.poly.evaluate(image_pt.coords) == 0


def test_curve_image_respects_degree_budget():
    line = Component.curve(poly_parse("z", 3))
    with pytest.raises(BudgetError):
        curve_image(G4_FORMS, line, Config(factor_degree_cap=3))


def test_curve_image_rejects_points():
    with pytest.raises(InputError):
        curve_image(F_FORMS, Component.of_point(ProjPoint.exact_point([1, 0, 0])))


def p_to_expr(p, syms):
    expr = 0
    for expo, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, expo):
            term *= s**e
        expr += term
    return expr


def test_curve_image_agrees_with_elimination_oracle():
    zs, ws, ts, y0, y1, y2 = sp.symbols("z w t y0 y1 y2")
    xs = (zs, ws, ts)
    for comp_text in ["z", "w", "z^2 - w*t"]:
        comp = Component.curve(poly_parse(comp_text, 3))
        got = curve_image(F_FORMS, comp).poly
        fx = [p_to_expr(p, xs) for p in F_FORMS]
        cx = p_to_expr(comp.poly, xs)
        minors = [
            y0 * fx[1] - y1 * fx[0],
            y0 * fx[2] - y2 * fx[0],
            y1 * fx[2] - y2 * fx[1],
        ]
        # eliminate the source point chart by chart (projective elimination
        # needs the irrelevant locus x = 0 removed, which dehomogenizing does)
        candidates = set()
        for chart in xs:
            others = [x for x in xs if x is not chart]
            system = [e.subs(chart, 1) for e in [cx] + minors]
            basis = sp.groebner(system, *others, y0, y1, y2, order="lex")
            eliminated = [g for g in basis.exprs if not g.free_symbols & set(others)]
            for g in eliminated:
                for base, _m in sp.factor_list(g)[1]:
                    if base.free_symbols:
                        candidates.add(base)
        assert candidates, "elimination ideal was empty in every chart"
        # keep the factors vanishing on pushforward samples of c
        samples = _exact_samples_on_curve(comp)
        assert len(samples) >= 2
        survivors = []
        for base in candidates:
            ok = True
            for pt in samples:
                img = map_point(F_FORMS, pt)
                val = base.subs({y0: sp.Rational(img.coords[0]), y1: sp.Rational(img.coords[1]), y2: sp.Rational(img.coords[2])})
                if val != 0:
                    ok = False
                    break
            if ok:
                survivors.append(base)
        assert len(survivors) == 1
        expr = sp.expand(survivors[0].subs({y0: zs, y1: ws, y2: ts}))
        oracle = from_sympy(sp.Poly(expr, zs, ws, ts), 3).normalized()
        assert oracle == got


def _exact_samples_on_curve(comp):
    """A few exact rational points on the curve, via pencil-of-lines slicing."""
    pencil = [poly_parse(s, 3) for s in [
        "w - t", "w - 4*t", "w - 9*t", "z - t", "z - 4*t", "t", "z - w",
    ]]
    samples = []
    for line in pencil:
        lc = Component.curve(line)
        if lc.poly == comp.poly:
            continue
        try:
            pts = curve_intersect(comp, lc)
        except InputError:
            continue
        samples.extend(pt for pt, _m in pts if pt.exact)
        if len(samples) >= 4:
            break
    return samples


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------


def test_intersect_line_with_conic_fixture():
    pts = curve_intersect(
        Component.curve(poly_parse("z", 3)), Component.curve(poly_parse("z^2 - w*t"))
    )
    got = {(str(pt), m) for pt, m in pts}
    assert got == {("[0 : 0 : 1]", 1), ("[0 : 1 : 0]", 1)}


def test_intersect_tangency_has_multiplicity_two():
    pts = curve_intersect(
        Component.curve(poly_parse("w", 3)), Component.curve(poly_parse("z^2 - w*t"))
    )
    assert [(str(pt), m) for pt, m in pts] == [("[0 : 0 : 1]", 2)]


def test_intersect_coordinate_lines():
    pts = curve_intersect(
        Component.curve(poly_parse("z", 3)), Component.curve(poly_parse("w", 3))
    )
    assert [(str(pt), m) for pt, m in pts] == [("[0 : 0 : 1]", 1)]


def test_intersect_refuses_an_exact_point_off_the_curves(monkeypatch):
    import critfin.geometry as geometry

    off = ProjPoint.exact_point([1, 1, 1])
    monkeypatch.setattr(geometry, "solve_form_pair", lambda a, b, cfg: [(off, 1)])
    with pytest.raises(SolverError, match="not a common zero"):
        curve_intersect(
            Component.curve(poly_parse("z", 3)), Component.curve(poly_parse("w", 3))
        )


def test_intersect_rejects_equal_or_overlapping_curves():
    c = Component.curve(poly_parse("z^2 - w*t"))
    with pytest.raises(InputError):
        curve_intersect(c, c)
    with pytest.raises(InputError):
        curve_intersect(
            Component.curve(poly_parse("z*w", 3)), Component.curve(poly_parse("z*t", 3))
        )


def test_intersect_bezout_sum_property():
    rng = random.Random(71)
    done = 0
    while done < 8:
        terms_a = _random_conic(rng)
        terms_b = _random_conic(rng)
        if terms_a is None or terms_b is None:
            continue
        a, b = terms_a, terms_b
        if a.poly == b.poly:
            continue
        try:
            pts = curve_intersect(a, b)
        except InputError:
            continue
        assert sum(m for _, m in pts) == a.poly.degree * b.poly.degree
        for pt, _m in pts:
            assert curve_residual(a.poly, pt) < 1e-10 or (
                pt.exact and a.poly.evaluate(pt.coords) == 0
            )
        done += 1


def _random_conic(rng):
    terms = {}
    for mono in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        c = rng.randint(-3, 3)
        if c:
            terms[mono] = Fraction(c)
    if not terms:
        return None
    p = HomogPoly(3, terms)
    if p.degree != 2:
        return None
    if len(factor(p).factors) != 1 or factor(p).factors[0][1] != 1:
        return None
    return Component.curve(p)


def test_solve_form_pair_finds_full_fibers():
    # preimages of [2:3:5] under the fixture map: 4 points, each verified
    y = [Fraction(2), Fraction(3), Fraction(5)]
    A = F_FORMS[1] * y[2] - F_FORMS[2] * y[1]
    B = F_FORMS[0] * y[2] - F_FORMS[2] * y[0]
    sols = solve_form_pair(A, B)
    assert sum(m for _, m in sols) == 4
    target = ProjPoint.exact_point(y)
    for pt, _m in sols:
        assert map_point(F_FORMS, pt).chordal(target) < 1e-10


def test_solve_form_pair_inexact_splits_a_real_floating_fiber():
    # preimages of [1/sqrt3 : 1 : 1/sqrt3] under the power map are the four
    # sign classes [+-a : 1 : +-a], a = 3^(-1/4); projecting from [0:0:1]
    # puts two of them on each direction, so that center must be refused
    y = ProjPoint.inexact([3**-0.5, 1.0, 3**-0.5]).to_complex()
    A = InexactForm.combination(y[1], POWER_FORMS[0], -y[0], POWER_FORMS[1])
    B = InexactForm.combination(y[1], POWER_FORMS[2], -y[2], POWER_FORMS[1])
    sols = solve_form_pair_inexact(A, B)
    assert [m for _, m in sols] == [1, 1, 1, 1]
    points = [pt for pt, _ in sols]
    for i, pt in enumerate(points):
        assert map_point(POWER_FORMS, pt).chordal(ProjPoint.inexact(y)) < 1e-10
        assert all(pt.chordal(other) > 1e-3 for other in points[:i])


def test_split_fibers_refuses_two_directions_with_one_point():
    # a spurious direction next to a true one polishes onto the same point;
    # the center must be refused, not the point returned twice
    A, B, cfg = poly_parse("t - z", 3), poly_parse("t - w", 3), Config()
    true_dir = ProjPoint.exact_point([1, 1])
    point = ProjPoint.exact_point([1, 1, 1])
    assert _split_fibers(A, B, [(true_dir, 1)], 0, 0, cfg) == [(point, 1)]
    spurious = ProjPoint.inexact([1 + 1e-9, 1.0])
    assert _split_fibers(A, B, [(true_dir, 1), (spurious, 1)], 0, 0, cfg) is None
    # an exact direction whose fiber holds two points, [1 : 1 : +-1], is
    # refused too, and one whose fiber holds one double point is read exactly
    A, B = poly_parse("t^2 - z^2", 3), poly_parse("t^2 - w^2", 3)
    assert _split_fibers(A, B, [(true_dir, 4)], 0, 0, cfg) is None
    A, B = poly_parse("(t - z)^2", 3), poly_parse("(t - w)*(t - z)", 3)
    assert _split_fibers(A, B, [(true_dir, 3)], 0, 0, cfg) == [(point, 3)]


# ---------------------------------------------------------------------------
# exact elimination on dense domains, against the sympy expression route
# ---------------------------------------------------------------------------


def _expression_resultant_t(A, B):
    """Res_t(A, B) through sympy expressions and ``sp.resultant`` (the oracle)."""
    zs, ws, ts = sp.symbols("z w t")
    res = sp.resultant(sp.Poly(to_sympy(A).as_expr(), ts), sp.Poly(to_sympy(B).as_expr(), ts))
    return from_sympy(sp.Poly(res, zs, ws, domain="QQ"), 2)


def _expression_fiber_root(pa, pb):
    """The one distinct root of gcd(pa, pb), through ``sp.gcd`` and
    ``factor_list`` on Polys (the oracle), or None when it has no root or
    more than one."""
    ts = sp.Symbol("t")
    g = sp.gcd(sp.Poly(pa, ts, domain="QQ"), sp.Poly(pb, ts, domain="QQ"))
    bases = [base for base, _m in g.factor_list()[1]]
    if len(bases) != 1 or bases[0].degree() != 1:
        return None
    c1, c0 = bases[0].all_coeffs()
    return to_fraction(sp.Rational(-c0, c1))


def _random_ternary(rng, degree, t_lead):
    """A nonzero ternary form with small rational coefficients."""
    while True:
        terms = {
            expo: Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3, 7]))
            for expo in monomials_of_degree(3, degree)
            if rng.random() < 0.6
        }
        if t_lead:
            terms[(0, 0, degree)] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        else:
            terms.pop((0, 0, degree), None)
        p = HomogPoly(3, terms)
        if not p.is_zero():
            return p


def test_resultant_t_matches_the_expression_route_on_random_pairs():
    rng = random.Random(83)
    cfg = Config()
    dropped = 0
    for _ in range(200):
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        # some forms lose their t-leading coefficient; the eliminant drops
        # degree only when both do (the other one's is a nonzero constant)
        lose = rng.choice(["", "", "A", "B", "AB", "AB"])
        A = _random_ternary(rng, da, t_lead="A" not in lose)
        B = _random_ternary(rng, db, t_lead="B" not in lose)
        R = _resultant_t(A, B)
        assert R == _expression_resultant_t(A, B)
        if R.is_zero():
            continue
        if lose != "AB":
            assert R.degree == da * db
        elif R.degree != da * db:
            assert _exact_directions(A, B, cfg) == "dropped resultant degree"
            dropped += 1
    assert dropped >= 20


@pytest.mark.parametrize("forms", [F_FORMS, POWER_FORMS], ids=["f", "power"])
@pytest.mark.parametrize("center", [(0, 0), (1, 0)])
def test_resultant_t_matches_the_expression_route_on_fixed_point_minors(forms, center):
    x = [HomogPoly.variable(3, i) for i in range(3)]
    minors = [forms[i] * x[j] - forms[j] * x[i] for i, j in [(0, 1), (0, 2), (1, 2)]]
    nonzero = 0
    for A, B in itertools.combinations(minors, 2):
        As, Bs = _shift_form(A, *center), _shift_form(B, *center)
        R = _resultant_t(As, Bs)
        assert R == _expression_resultant_t(As, Bs)
        nonzero += not R.is_zero()
    assert nonzero >= 1


def _times(p, q):
    out = [0 * p[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_exact_fiber_root_matches_the_expression_route():
    rng = random.Random(89)

    def rand_poly(deg):
        coeffs = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in range(deg + 1)]
        coeffs[0] = coeffs[0] or Fraction(1)
        return coeffs

    outcomes = {"root": 0, "none": 0}
    for _ in range(200):
        common = rand_poly(rng.randint(0, 3))
        pa = _times(common, rand_poly(rng.randint(0, 3)))
        pb = _times(common, rand_poly(rng.randint(0, 3)))
        want = _expression_fiber_root(pa, pb)
        assert _exact_fiber_root(pa, pb) == want
        outcomes["none" if want is None else "root"] += 1
    assert min(outcomes.values()) >= 30
    # a common factor (q t - p)^m: one root of multiplicity m, read exactly
    for _ in range(20):
        root = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5]))
        common = [Fraction(1)]
        for _ in range(rng.randint(2, 3)):
            common = _times(common, [root.denominator, -root.numerator])
        pa = _times(common, rand_poly(rng.randint(0, 2)))
        pb = _times(common, rand_poly(rng.randint(0, 2)))
        want = _expression_fiber_root(pa, pb)
        assert want == root and _exact_fiber_root(pa, pb) == root


def _complex_poly(rng, deg):
    return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)]


def _float_fiber_root(pa, pb):
    return _float_fiber_roots([(pa, pb)])[0]


def test_float_fiber_root_reads_one_shared_root():
    rng = random.Random(1503)
    for _ in range(200):
        root = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pa = _times([1, -root], _complex_poly(rng, rng.randint(0, 3)))
        pb = _times([1, -root], _complex_poly(rng, rng.randint(0, 3)))
        got = _float_fiber_root(pa, pb)
        assert got is not None and abs(got - root) <= 1e-9 * max(1.0, abs(root))


def test_float_fiber_root_refuses_two_shared_roots():
    rng = random.Random(1504)
    for double in (False, True) * 50:
        r1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r2 = r1 if double else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        common = _times([1, -r1], [1, -r2])
        pa = _times(common, _complex_poly(rng, rng.randint(0, 2)))
        pb = _times(common, _complex_poly(rng, rng.randint(0, 2)))
        assert _float_fiber_root(pa, pb) is None


def test_float_fiber_root_takes_a_linear_univariate():
    # 2t - 3 against a quadratic through its root, and against 4t - 6
    assert _float_fiber_root([2, -3], [1, -2.5, 1.5]) == pytest.approx(1.5, abs=1e-15)
    assert _float_fiber_root([1, -2.5, 1.5], [2, -3]) == pytest.approx(1.5, abs=1e-15)
    assert _float_fiber_root([2, -3], [4, -6]) == 1.5


def test_solve_form_pair_builds_no_expressions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact elimination went through sympy expressions")

    monkeypatch.setattr(sp.polys.polytools.Poly, "_from_expr", refuse)
    monkeypatch.setattr(sp, "resultant", refuse)
    # the (0,1) and (1,2) fixed-point minors of f with their common factor w
    # divided out, as find_periodic hands them to the solver
    A, B = poly_parse("z^2 - z*w - w*t"), poly_parse("w*t - t^2", 3)
    sols = solve_form_pair(A, B)
    assert sum(m for _, m in sols) == 4
    for pt, _m in sols:
        if pt.exact:
            assert A.evaluate(pt.coords) == 0 and B.evaluate(pt.coords) == 0


def test_prepared_terms_evaluate_bit_for_bit():
    # the sum starts at the first term, as HomogPoly.evaluate's does: a sum
    # started at 0j would differ in the sign of a zero at the first two points
    rng = random.Random(97)
    forms = [poly_parse("2*z", 3), _random_ternary(rng, 3, t_lead=True)]
    points = [(complex(-1.0, -0.0), 0j, 0j), (complex(1.0, -0.0), 0j, 0j)]
    points += [tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)) for _ in range(20)]
    for form in forms:
        system = _NewtonSystem(form, form)
        pairs = [(system.forms[0], form)]
        pairs += [(system.partials[0][i], form.partial(i)) for i in range(3)]
        for pt in points:
            powers = [[v**e for e in range(system.degree + 1)] for v in pt]
            for terms, ref in pairs:
                got = _evaluate_terms(terms, powers)
                assert repr(got) == repr(complex(ref.evaluate(pt)))


def _plain_newton_system(system, start, cfg):
    """``_newton_system`` with the stop it had before: every step until one
    falls below 1e-16 of the iterate, which rounding noise rarely does."""
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
        if max(abs(du), abs(dv)) <= 1e-16 * max(1.0, abs(coords[free[0]]), abs(coords[free[1]])):
            break
    return tuple(coords)


def test_newton_stops_within_a_few_steps_at_the_fixed_point(monkeypatch):
    # seeded starts near the fixed points [u : v : 1] of power^2 with u^3 =
    # v^3 = 1, at four projection centres: each call stops once its step is
    # rounding noise, as close to the fixed point as the plain loop gets
    cfg = Config()
    rng = random.Random(1405)
    x = [HomogPoly.variable(3, i) for i in range(3)]
    forms = [p.compose(POWER_FORMS) for p in POWER_FORMS]
    minors = [forms[i] * x[j] - forms[j] * x[i] for i, j in [(0, 1), (0, 2), (1, 2)]]
    omega = cmath.exp(2j * cmath.pi / 3)
    evaluations = []
    counted = geometry._evaluate_terms

    def count(terms, powers):
        evaluations.append(1)
        return counted(terms, powers)

    calls = 0
    for A, B in itertools.combinations(minors, 2):
        for a, b in _PROJECTION_SHIFTS[:4]:
            system = _NewtonSystem(_shift_form(A, a, b), _shift_form(B, a, b))
            for _ in range(10):
                u, v = omega ** rng.randrange(3), omega ** rng.randrange(3)
                noise = [complex(rng.gauss(0, 1e-6), rng.gauss(0, 1e-6)) for _ in range(3)]
                start = tuple(c + n for c, n in zip((u - a, v - b, 1), noise))
                exact = ProjPoint.inexact([u - a, v - b, 1])
                plain = ProjPoint.inexact(_plain_newton_system(system, start, cfg))
                evaluations.clear()
                with monkeypatch.context() as m:
                    m.setattr(geometry, "_evaluate_terms", count)
                    got = ProjPoint.inexact(_newton_system(system, start, cfg))
                # six evaluations (two forms, four partials) per step
                assert len(evaluations) <= 6 * 12
                assert got.chordal(exact) <= 1e-14
                assert plain.chordal(exact) <= 1e-14
                calls += 1
    assert calls == 120

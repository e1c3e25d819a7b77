"""Endomorphism validation, differentials, periodic points, certification."""

import random
from fractions import Fraction

import pytest

from critfin.algebra import HomogPoly, poly_parse
from critfin.config import Config
from critfin.dynamics import (
    ATTRACTING,
    OTHER,
    SUPERATTRACTING_NILPOTENT,
    SUPERATTRACTING_ZERO,
    UNDECIDED,
    Endomorphism,
    PeriodicPoint,
    certify_superattracting,
    critical_set,
    cycle_differential,
    differential_at,
    endo_new,
    find_periodic,
    iterate,
)
from critfin.errors import (
    ArityError,
    BudgetError,
    InputError,
    NotAMorphismError,
    SolverError,
)
from critfin.geometry import ProjPoint

P3 = lambda s: poly_parse(s, 3)
P2 = lambda s: poly_parse(s, 2)


def f_map():
    return endo_new([P3("z^2 - w*t"), P3("w^2"), P3("t^2")])


def power_map():
    return endo_new([P3("z^2"), P3("w^2"), P3("t^2")])


def g_map(d):
    return endo_new([P3(f"z^{d} - w^{d - 1}*t"), P3(f"-w^{d}"), P3(f"-t^{d}")])


def quad_map():
    return endo_new([P2("z^2 - 2*w^2"), P2("w^2")])


def lattes_map():
    return endo_new([P2("z^4 + 2*z^2*w^2 + w^4"), P2("4*z^3*w - 4*z*w^3")])


def pt(*coords):
    return ProjPoint.exact_point(list(coords))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_endo_new_rejects_mixed_degrees():
    with pytest.raises(InputError):
        endo_new([P3("z^2"), P3("w^3"), P3("t^2")])


def test_endo_new_rejects_wrong_form_count():
    with pytest.raises(ArityError):
        endo_new([P3("z^2"), P3("w^2")])
    with pytest.raises(ArityError):
        endo_new([P2("z^2"), P2("w^2"), P2("z*w")])


def test_endo_new_rejects_degree_one():
    with pytest.raises(InputError):
        endo_new([P3("z"), P3("w"), P3("t")])


def test_endo_new_rejects_common_zero():
    # all three forms vanish at [0:0:1]
    with pytest.raises(NotAMorphismError):
        endo_new([P3("z^2"), P3("w^2"), P3("z*w")])
    # shared linear factor
    with pytest.raises(NotAMorphismError):
        endo_new([P3("z^2"), P3("z*w"), P3("z*t")])


def test_endo_tuple_content_removed_jointly():
    f = endo_new([P3("2*z^2"), P3("4*w^2"), P3("6*t^2")])
    assert f.forms == (P3("z^2"), P3("2*w^2"), P3("3*t^2"))


def test_endo_sign_convention_keeps_relative_signs():
    g = g_map(4)
    # global sign is fixed by the first form; the others keep their signs
    assert g.forms == (P3("z^4 - w^3*t"), P3("-w^4"), P3("-t^4"))
    flipped = endo_new([P3("-z^4 + w^3*t"), P3("w^4"), P3("t^4")])
    assert flipped == g


def test_endo_call_maps_points():
    f = f_map()
    assert f(pt(0, 1, 1)) == pt(-1, 1, 1)
    assert f(pt(-1, 1, 1)) == pt(0, 1, 1)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def test_iterate_degree_and_agreement():
    rng = random.Random(11)
    f = f_map()
    f2 = iterate(f, 2)
    assert f2.degree == 4
    for _ in range(10):
        p = pt(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        assert f2(p) == f(f(p))


def test_iterate_respects_degree_cap():
    f = f_map()
    assert iterate(f, 6).degree == 64
    with pytest.raises(BudgetError):
        iterate(f, 7)
    with pytest.raises(BudgetError):
        iterate(g_map(4), 4)
    assert iterate(f, 7, Config(max_iterate_degree=128)).degree == 128


def test_iterate_rejects_bad_n():
    with pytest.raises(InputError):
        iterate(f_map(), 0)


# ---------------------------------------------------------------------------
# critical sets
# ---------------------------------------------------------------------------


def test_critical_set_of_fixture_is_coordinate_triangle():
    C1 = critical_set(f_map())
    assert {str(c.poly) for c in C1.curves()} == {"z", "w", "t"}
    assert not C1.points()


def test_critical_set_of_power_and_g4():
    for f in (power_map(), g_map(3), g_map(4)):
        C1 = critical_set(f)
        assert {str(c.poly) for c in C1.curves()} == {"z", "w", "t"}


def test_critical_set_degree_law():
    # deg det df = (k+1)(d-1), visible through the factor degrees with
    # multiplicity dropped; check on a map with an irreducible critical curve
    f = endo_new([P3("z^2 + w*t"), P3("w^2 + z*t"), P3("t^2 + z*w")])
    C1 = critical_set(f)
    assert sum(c.degree for c in C1) <= 3 * (f.degree - 1)
    assert all(c.kind == "curve" for c in C1)


def test_critical_set_on_line_is_points():
    C1 = critical_set(quad_map())
    got = {c.point for c in C1.points()}
    assert got == {pt(0, 1), pt(1, 0)}


def test_lattes_critical_points_match_surds():
    C1 = critical_set(lattes_map())
    pts = [c.point for c in C1.points()]
    assert len(pts) == 6
    r2 = 2**0.5
    expected = [
        ProjPoint.inexact([1j, 1]),
        ProjPoint.inexact([-1j, 1]),
        ProjPoint.inexact([1 + r2, 1]),
        ProjPoint.inexact([-1 - r2, 1]),
        ProjPoint.inexact([r2 - 1, 1]),
        ProjPoint.inexact([1 - r2, 1]),
    ]
    for e in expected:
        assert min(e.chordal(p) for p in pts) < 1e-12


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------


def test_differential_nilpotent_at_vertex():
    J = differential_at(f_map(), pt(0, 0, 1))
    assert J.exact
    assert J.matrix == ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(0)))
    assert J.source_chart == 2 and J.target_chart == 2


def test_differential_zero_at_totally_critical_vertex():
    J = differential_at(f_map(), pt(1, 0, 0))
    assert J.matrix == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))


def test_differential_multiplier_on_line():
    J = differential_at(quad_map(), pt(2, 1))
    assert J.matrix == ((Fraction(4),),)


def test_differential_chart_choice_preserves_trace_and_det():
    f = f_map()
    p = pt(1, 1, 0)  # fixed, both charts 0 and 1 admissible
    J0 = differential_at(f, p, source_chart=0, target_chart=0)
    J1 = differential_at(f, p, source_chart=1, target_chart=1)
    for J in (J0, J1):
        (a, b), (c, d) = J.matrix
        assert a + d == Fraction(2)
        assert a * d - b * c == Fraction(0)
    assert J0.matrix != J1.matrix


def test_differential_rejects_inadmissible_chart():
    with pytest.raises(InputError):
        differential_at(f_map(), pt(0, 0, 1), source_chart=0)


def test_chain_rule_matches_iterate_differential():
    f = f_map()
    for p in (pt(1, 0, 1), pt(1, 1, 0), pt(0, 1, 0)):
        s = p.chart()
        J = differential_at(f, p, source_chart=s, target_chart=s).matrix
        J2 = differential_at(iterate(f, 2), p, source_chart=s, target_chart=s).matrix
        prod = tuple(
            tuple(sum(J[i][l] * J[l][j] for l in range(2)) for j in range(2))
            for i in range(2)
        )
        assert J2 == prod


def test_cycle_differential_of_two_cycle():
    f = f_map()
    J = cycle_differential(f, [pt(0, 1, 1), pt(-1, 1, 1)])
    (a, b), (c, d) = J.matrix
    assert (a + d, a * d - b * c) == (Fraction(4), Fraction(0))


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------


def test_fixture_fixed_point_inventory():
    pps = find_periodic(f_map(), 1)
    assert len(pps) == 7
    by_point = {pp.point: pp for pp in pps if pp.point.exact}
    assert len(by_point) == 5
    assert by_point[pt(1, 0, 0)].classification == SUPERATTRACTING_ZERO
    assert by_point[pt(0, 0, 1)].classification == SUPERATTRACTING_NILPOTENT
    assert by_point[pt(0, 1, 0)].classification == SUPERATTRACTING_NILPOTENT
    assert by_point[pt(1, 0, 1)].classification == OTHER
    assert by_point[pt(1, 1, 0)].classification == OTHER
    # the two remaining fixed points have golden-ratio coordinates
    for pp in pps:
        if not pp.point.exact:
            assert pp.classification == OTHER


def test_fixture_two_cycle_is_not_superattracting():
    pps = find_periodic(f_map(), 2)
    assert len(pps) == 21  # 7 fixed + 14 points on two-cycles
    cycle = [pp for pp in pps if pp.point in (pt(0, 1, 1), pt(-1, 1, 1))]
    assert len(cycle) == 2
    for pp in cycle:
        assert pp.period == 2
        assert pp.eigen_data == (Fraction(4), Fraction(0))
        assert pp.classification == OTHER
        assert not pp.is_superattracting()


def test_power_map_fixed_points():
    pps = find_periodic(power_map(), 1)
    assert len(pps) == 7
    vertices = {pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}
    for pp in pps:
        if pp.point in vertices:
            assert pp.classification == SUPERATTRACTING_ZERO
        else:
            assert pp.classification == OTHER


def test_quadratic_periodic_inventory():
    pps = find_periodic(quad_map(), 2)
    by_point = {pp.point: pp for pp in pps if pp.point.exact}
    assert by_point[pt(1, 0)].classification == SUPERATTRACTING_ZERO
    assert by_point[pt(2, 1)].eigen_data == (Fraction(4),)
    assert by_point[pt(1, -1)].eigen_data == (Fraction(-2),)
    two_cycle = [pp for pp in pps if pp.period == 2]
    assert len(two_cycle) == 2
    for pp in two_cycle:
        assert abs(complex(pp.eigen_data[0]) - (-4)) < 1e-9
        assert pp.classification == OTHER


def test_lattes_cycles_all_repelling():
    pps = find_periodic(lattes_map(), 2)
    assert len(pps) == 17  # 5 fixed + 12 on two-cycles
    for pp in pps:
        lam = abs(complex(pp.eigen_data[0]))
        # torus doubling gives |multiplier| 2^n, squared to 4^n at cycles
        # through branch points of the torus projection (the fixed infinity)
        assert min(abs(lam - 2.0**pp.period), abs(lam - 4.0**pp.period)) < 1e-9
        assert lam > 1
        assert pp.classification == OTHER


def test_periodic_residual_invariant():
    for f, n in ((f_map(), 2), (power_map(), 2), (quad_map(), 2), (lattes_map(), 1)):
        for pp in find_periodic(f, n):
            g = iterate(f, pp.period)
            if pp.point.exact:
                assert g(pp.point) == pp.point
            else:
                assert g(pp.point).chordal(pp.point) < 1e-10


def test_find_periodic_minimal_periods_and_dedup():
    pps = find_periodic(f_map(), 2)
    pts = [pp.point for pp in pps]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert not a.is_close(b, 1e-8)
    for pp in pps:
        if pp.period == 2:
            assert not (pp.point.exact and f_map()(pp.point) == pp.point)


def test_find_periodic_budget():
    with pytest.raises(BudgetError):
        find_periodic(power_map(), 5)
    with pytest.raises(BudgetError):
        find_periodic(g_map(4), 3)


def test_snapped_candidates_come_back_exact():
    # the rational periodic points of the power map must come back exact even
    # though the solver route goes through floating fibers; the period-two
    # points are genuinely irrational (nonzero coordinates are cube roots of
    # unity) and must NOT get snapped to nearby rationals
    pps = find_periodic(power_map(), 2)
    exact = [pp for pp in pps if pp.point.exact]
    assert len(exact) == 7
    assert all(pp.period == 1 for pp in exact)
    for pp in pps:
        if pp.point.exact:
            continue
        assert pp.period == 2
        for c in pp.point.to_complex():
            assert abs(c) < 1e-9 or abs(abs(c) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_exact_two_cycle():
    pp = certify_superattracting(f_map(), PeriodicPoint(point=pt(0, 1, 1), period=2))
    assert pp.classification == OTHER
    assert pp.residual == 0.0
    assert pp.eigen_data == (Fraction(4), Fraction(0))


def test_certify_inexact_nilpotent_within_tolerance():
    f = f_map()
    p = ProjPoint.inexact([1e-13, 1e-13, 1.0])
    pp = certify_superattracting(f, PeriodicPoint(point=p, period=1))
    assert pp.classification == SUPERATTRACTING_NILPOTENT


def test_certify_ambiguity_band_reports_undecided():
    # trace lands between tol and 10*tol: refuse to decide
    p = ProjPoint.inexact([2e-10, 2e-10, 1.0])
    pp = certify_superattracting(power_map(), PeriodicPoint(point=p, period=1))
    assert pp.classification == UNDECIDED


def test_certify_inexact_clear_verdicts():
    power = power_map()
    near_zero = ProjPoint.inexact([1e-12, 1e-12, 1.0])
    pp = certify_superattracting(power, PeriodicPoint(point=near_zero, period=1))
    assert pp.classification == SUPERATTRACTING_ZERO
    far = ProjPoint.inexact([1.0 + 1e-13, 1.0, 1.0])
    pp = certify_superattracting(power, PeriodicPoint(point=far, period=1))
    assert pp.classification == OTHER


def test_certify_attracting_exact():
    # z -> z^2/4 + z*w/2 ... use z -> (z^2+z*w)/4 style map with small fixed
    # multiplier: h(z) = z^2 - z*w has h'(0) = -1; scale to get |mult| < 1
    h = endo_new([P2("2*z^2 - z*w"), P2("4*w^2")])
    # fixed point [0:1]: multiplier -1/4
    pp = certify_superattracting(h, PeriodicPoint(point=pt(0, 1), period=1))
    assert pp.classification == ATTRACTING
    assert pp.eigen_data == (Fraction(-1, 4),)


def test_random_morphisms_satisfy_degree_laws():
    rng = random.Random(20260814)
    built = 0
    while built < 6:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        try:
            f = endo_new(
                [
                    P3(f"z^2 + {a}*w*t") if a else P3("z^2"),
                    P3(f"w^2 + {b}*z*t") if b else P3("w^2"),
                    P3(f"t^2 + {c}*z*w") if c else P3("t^2"),
                ]
            )
        except NotAMorphismError:
            continue
        built += 1
        det = f.det_jacobian()
        assert det.degree == 3 * (f.degree - 1)
        p = pt(rng.randint(1, 5), rng.randint(-5, 5), rng.randint(1, 5))
        assert iterate(f, 2)(p) == f(f(p))


def test_degenerate_pair_refuses_a_common_factor_that_does_not_divide(monkeypatch):
    import critfin.dynamics as dynamics

    real_gcd = dynamics.poly_gcd
    claimed = [P3("z")]  # a common factor that divides neither minor
    monkeypatch.setattr(
        dynamics, "poly_gcd", lambda a, b: claimed.pop() if claimed else real_gcd(a, b)
    )
    A, B, third = P3("w^2 - t^2"), P3("w*t"), P3("z - w - t")
    with pytest.raises(SolverError, match="does not divide"):
        dynamics._solve_degenerate_pair(A, B, third, Config())

"""Exact polynomial layer: parsing, normal form, factorization, resultants."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from critfin import algebra, cli, geometry
from critfin.algebra import (
    Factorization,
    HomogPoly,
    _Parser,
    factor,
    monomials_of_degree,
    poly_gcd,
    poly_parse,
    resultant,
    square_free,
)
from critfin.config import Config
from critfin.dynamics import iterate
from critfin.errors import ArityError, BudgetError, InhomogeneityError, ParseError
from critfin.geometry import _PROJECTION_SHIFTS, _shift_form
from expression_bridge import SYMS, assemble, from_sympy, to_sympy, zassenhaus_factor

Z3 = HomogPoly.variable(3, 0)
W3 = HomogPoly.variable(3, 1)
T3 = HomogPoly.variable(3, 2)


NONZERO = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]


def random_form(rng: random.Random, num_vars: int, degree: int, density=0.7) -> HomogPoly:
    terms = {}
    for mono in monomials_of_degree(num_vars, degree):
        if rng.random() < density:
            terms[mono] = Fraction(rng.choice(NONZERO))
    if not terms:
        terms[monomials_of_degree(num_vars, degree)[0]] = Fraction(1)
    return HomogPoly(num_vars, terms)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    p = poly_parse("z^2 - w*t")
    assert p.num_vars == 3
    assert p.degree == 2
    assert p.terms == {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-1)}


def test_parse_infers_two_variables_without_t():
    assert poly_parse("z^2 - 2*w^2").num_vars == 2
    assert poly_parse("z^2 - 2*w^2", 3).num_vars == 3


def test_parse_rational_coefficients_and_parens():
    p = poly_parse("3/4*z^2 - (1/2)*(w^2 - 2*z*w)")
    assert p.terms == {
        (2, 0): Fraction(3, 4),
        (0, 2): Fraction(-1, 2),
        (1, 1): Fraction(1),
    }


def test_parse_unary_minus_and_powers_of_groups():
    p = poly_parse("-(z - w)^2")
    assert p == -(poly_parse("z-w") ** 2)


def test_parse_reports_position_of_bad_character():
    with pytest.raises(ParseError) as exc:
        poly_parse("z^2 + a*w")
    assert exc.value.position == 6


def test_parse_rejects_trailing_operator():
    with pytest.raises(ParseError):
        poly_parse("z^2 +")


def test_parse_rejects_nonconstant_divisor():
    with pytest.raises(ParseError):
        poly_parse("z^2 / w")


def test_parse_rejects_t_in_two_variable_context():
    with pytest.raises(ParseError):
        poly_parse("z*t", 2)


def test_inhomogeneous_input_reports_both_degrees():
    with pytest.raises(InhomogeneityError) as exc:
        poly_parse("z^2 + w")
    assert set(exc.value.degrees) == {1, 2}


def test_cancellation_to_homogeneous_is_accepted():
    # (z + w)*(z - w) + w^2 collapses to z^2: degrees mix only transiently
    p = poly_parse("(z + w)*(z - w) + w^2")
    assert p == poly_parse("z^2")


def test_str_round_trips_through_parser():
    rng = random.Random(11)
    for _ in range(25):
        nv = rng.choice([2, 3])
        p = random_form(rng, nv, rng.randint(1, 5))
        assert poly_parse(str(p), nv) == p


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 1023, 100000])
def test_parse_power_squares_and_multiplies(monkeypatch, n):
    calls = 0
    real_mul = _Parser._mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(_Parser, "_mul", counting_mul)
    assert poly_parse(f"t^{n}", 3) == T3**n
    assert calls <= 2 * math.ceil(math.log2(n))


def test_parse_power_of_a_sum_matches_repeated_products():
    assert poly_parse("(z - 2*w + t)^5") == poly_parse(
        "(z - 2*w + t)*(z - 2*w + t)*(z - 2*w + t)*(z - 2*w + t)*(z - 2*w + t)"
    )
    assert poly_parse("(z + w)^0 * z") == poly_parse("z")


# ---------------------------------------------------------------------------
# arithmetic and normal form
# ---------------------------------------------------------------------------


def test_addition_of_mixed_degrees_is_rejected():
    with pytest.raises(InhomogeneityError):
        poly_parse("z^2") + poly_parse("z")


def test_euler_identity():
    # sum_i x_i * dp/dx_i == deg(p) * p for homogeneous p
    rng = random.Random(23)
    for _ in range(20):
        nv = rng.choice([2, 3])
        p = random_form(rng, nv, rng.randint(1, 6))
        acc = HomogPoly.zero(nv)
        for i in range(nv):
            acc = acc + HomogPoly.variable(nv, i) * p.partial(i)
        assert acc == p * p.degree


def test_evaluate_scales_homogeneously():
    rng = random.Random(5)
    for _ in range(20):
        p = random_form(rng, 3, rng.randint(1, 4))
        pt = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)), Fraction(1)]
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = [lam * c for c in pt]
        assert p.evaluate(scaled) == lam**p.degree * p.evaluate(pt)


def test_normal_form_is_primitive_positive_and_idempotent():
    p = poly_parse("-4/6*z^2 + 2*w*t")
    q = p.normalized()
    assert q.content() == 1
    assert q.leading_term()[1] > 0
    assert q.normalized() == q
    # proportional forms share a normal form
    assert (p * Fraction(-7, 3)).normalized() == q


def test_content_and_primitive_reassemble():
    p = poly_parse("6*z^2 - 9*w*t") * Fraction(1, 12)
    c, prim = p.content_and_primitive()
    assert prim * c == p
    assert prim == poly_parse("2*z^2 - 3*w*t")


# ---------------------------------------------------------------------------
# square-free part and factorization
# ---------------------------------------------------------------------------


def test_square_free_drops_multiplicity():
    assert square_free(poly_parse("z^2*w^4", 3)) == poly_parse("z*w", 3)


def test_square_free_of_squarefree_is_identity_up_to_normalization():
    p = poly_parse("z^2 - w*t")
    assert square_free(p * 3) == p


def test_factor_known_product():
    fac = factor(poly_parse("4*z*w*(z^2 - w^2)", 2))
    assert fac.unit == 4
    assert {str(b) for b, _ in fac.factors} == {"w", "z", "z - w", "z + w"}
    assert all(m == 1 for _, m in fac.factors)


def test_factor_irreducibles_stay_whole():
    for text in ["z^2 - w*t", "z^4 - w^3*t", "z^2 + w^2 + t^2"]:
        fac = factor(poly_parse(text, 3))
        assert len(fac.factors) == 1
        assert fac.factors[0][1] == 1


def test_factor_reassembles_exactly():
    rng = random.Random(41)
    for _ in range(15):
        nv = rng.choice([2, 3])
        p = random_form(rng, nv, rng.randint(1, 3))
        q = random_form(rng, nv, rng.randint(1, 3))
        prod = p * q * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        fac = factor(prod)
        assert fac.reassemble() == prod
        # bases are pairwise distinct normal forms
        keys = [b.sort_key() for b, _ in fac.factors]
        assert len(keys) == len(set(keys))
        for base, _ in fac.factors:
            assert base.normalized() == base
            refac = factor(base)
            assert len(refac.factors) == 1 and refac.factors[0][1] == 1


def test_factor_respects_degree_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factoring started above the degree cap")

    for num_vars in (2, 3):
        p = (poly_parse("z - w", num_vars) * poly_parse("z + 2*w", num_vars)) ** 13
        with monkeypatch.context() as m:
            m.setattr(algebra, "dup_factor_list", refuse)
            m.setattr(PolyElement, "factor_list", refuse)
            with pytest.raises(BudgetError):
                factor(p)
        assert factor(p, Config(factor_degree_cap=30)).reassemble() == p  # raised cap admits it


def _bivariate_factorization(p: HomogPoly) -> Factorization:
    """Reference: factor a binary form as a bivariate polynomial, normalise and sort."""
    _, pairs = sp.factor_list(to_sympy(p))
    return assemble(p, [(from_sympy(sp.Poly(b, *sp.symbols("z w")), 2), m) for b, m in pairs])


def test_binary_factor_matches_bivariate_factoring():
    rng = random.Random(61)
    z, w = HomogPoly.variable(2, 0), HomogPoly.variable(2, 1)
    roomy = Config(factor_degree_cap=33)  # 3 forms of degree <= 3, cubed, times z^3*w^3
    for _ in range(300):
        p = HomogPoly.constant(2, Fraction(rng.choice(NONZERO), rng.randint(1, 7)))
        for _ in range(rng.randint(1, 3)):
            p = p * random_form(rng, 2, rng.randint(1, 3)) ** rng.randint(1, 3)
        p = p * z ** rng.randint(0, 3) * w ** rng.randint(0, 3)
        assert factor(p, roomy) == _bivariate_factorization(p), str(p)


def test_binary_factor_degree_drop_edge_cases():
    w, z = poly_parse("w", 2), poly_parse("z", 2)
    # p(z, 1) is a constant: the whole form is a power of w
    assert factor(poly_parse("-5/2*w^3", 2)) == Factorization(Fraction(-5, 2), ((w, 3),))
    assert factor(poly_parse("z^2*w^3", 2)) == Factorization(Fraction(1), ((w, 3), (z, 2)))
    assert factor(poly_parse("3*z - 6*w", 2)) == Factorization(Fraction(3), ((poly_parse("z - 2*w", 2), 1),))
    assert factor(poly_parse("-2*w", 2)) == Factorization(Fraction(-2), ((w, 1),))
    assert factor(poly_parse("7*z", 2)) == Factorization(Fraction(7), ((z, 1),))


# degree-16 t-eliminant met by find_periodic during `critfin analyze f`
ANALYZE_F_ELIMINANT = (
    "-8*z^15*w - 60*z^14*w^2 - 186*z^13*w^3 - 298*z^12*w^4 - 276*z^11*w^5"
    " - 186*z^10*w^6 - 110*z^9*w^7 + 48*z^8*w^8 + 210*z^7*w^9 + 298*z^6*w^10"
    " + 276*z^5*w^11 + 186*z^4*w^12 + 118*z^3*w^13 + 12*z^2*w^14 - 24*z*w^15"
)


def test_binary_factor_needs_no_multivariate_factoring(monkeypatch):
    import sympy.polys.factortools as factortools

    def refuse(*args, **kwargs):
        raise AssertionError("a binary form reached multivariate Hensel lifting")

    p = poly_parse(ANALYZE_F_ELIMINANT, 2)
    monkeypatch.setattr(factortools, "dmp_zz_wang", refuse)
    fac = factor(p)
    assert fac.reassemble() == p
    assert sum(b.degree * m for b, m in fac.factors) == 16 and len(fac.factors) == 9


def _same_factorization(got: Factorization, want: Factorization) -> bool:
    """Equal, and every base with its terms in the same order."""
    return got == want and [list(b.terms.items()) for b, _m in got.factors] == [
        list(b.terms.items()) for b, _m in want.factors
    ]


def _seeded_binary_form(rng: random.Random) -> HomogPoly:
    """A product of seeded factor shapes, each to a power, with content and powers of z and w."""
    z, w = HomogPoly.variable(2, 0), HomogPoly.variable(2, 1)

    def binary(*coeffs):
        k = len(coeffs) - 1
        return HomogPoly(2, {(k - j, j): Fraction(c) for j, c in enumerate(coeffs)})

    def quadratic(sign):
        # a*z^2 + b*z*w + c*w^2 with a discriminant of the given sign, or split
        while True:
            a, b, c = rng.randint(1, 12), rng.randint(-20, 20), rng.randint(-20, 20)
            disc = b * b - 4 * a * c
            if sign is None or (disc > 0) - (disc < 0) == sign:
                return binary(a, b, c)

    shapes = [
        lambda: binary(rng.randint(1, 9), rng.randint(-9, 9)),  # small rational root
        lambda: binary(rng.randint(1, 10**6), rng.randint(-(10**6), 10**6)),  # large denominator
        lambda: binary(10**4 + 1, -(10**4)) * binary(10**4, -(10**4 - 1)),  # near-equal roots
        lambda: quadratic(None),  # split or not, as drawn
        lambda: quadratic(1),  # real roots: irrational unless the discriminant is a square
        lambda: quadratic(-1),  # complex conjugate roots
        lambda: binary(1, 0, 0, -rng.choice([2, 3, 5, 7])),  # z^3 - n w^3: one real irrational root
        lambda: binary(*(rng.randint(-9, 9) or 1 for _ in range(4))),  # cubic
        lambda: binary(*(rng.randint(-9, 9) or 1 for _ in range(5))),  # quartic
        lambda: quadratic(-1) * quadratic(1),  # quartic that splits into quadratics
    ]
    p = HomogPoly.constant(2, Fraction(rng.choice(NONZERO), rng.randint(1, 12)))
    for _ in range(rng.randint(1, 3)):
        p = p * rng.choice(shapes)() ** rng.choice([1, 1, 1, 2, 3])
    return p * z ** rng.randint(0, 2) * w ** rng.randint(0, 2)


def test_binary_factor_matches_one_zassenhaus_call_on_seeded_forms():
    rng = random.Random(1401)
    for _ in range(1000):
        p = _seeded_binary_form(rng)
        assert _same_factorization(algebra.factor_uncapped(p), zassenhaus_factor(p)), str(p)


#: how many of those binary forms ``analyze`` factors in full; the others are
#: eliminants of centers refused over a repeated rational direction, whose
#: simple part is never split
FACTORED_IN_FULL = {"f": 13, "power": 12, "quadratic": 3, "lattes4": 3}


@pytest.mark.parametrize(
    "fixture, count", [("f", 25), ("power", 32), ("quadratic", 3), ("lattes4", 3)]
)
def test_binary_factor_matches_one_zassenhaus_call_on_analyze_eliminants(
    monkeypatch, capsys, fixture, count
):
    # every binary form analyze starts to factor is compared with Zassenhaus,
    # factored in full here, those it stopped early included
    started: list[HomogPoly] = []
    finished: list[HomogPoly] = []
    factors = algebra.binary_factors

    def record(p):
        started.append(p)
        yield from factors(p)
        finished.append(p)

    monkeypatch.setattr(algebra, "binary_factors", record)
    monkeypatch.setattr(geometry, "binary_factors", record)
    assert cli.main(["analyze", fixture]) == 0
    capsys.readouterr()
    assert len(started) == count
    assert len(finished) == FACTORED_IN_FULL[fixture]
    monkeypatch.undo()
    for p in started:
        assert _same_factorization(algebra.factor_uncapped(p), zassenhaus_factor(p)), str(p)


def _fraction_compose(p: HomogPoly, forms) -> HomogPoly:
    """p(forms) expanded over Fraction as the form operators did it.

    Each term is c * forms[0]^e0 * ..., each power by square-and-multiply from
    1, and the terms are summed into a running total; every product and every
    sum drops its zero coefficients.  So the result has the terms of that
    expansion in its order.
    """
    nv = forms[0].num_vars
    one = (0,) * nv

    def times(a, b):
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return {e: c for e, c in out.items() if c != 0}

    total: dict = {}
    for expo, c in p.terms.items():
        term = {one: c}
        for form, e in zip(forms, expo):
            if e:
                power, base, n = {one: Fraction(1)}, form.terms, e
                while n:
                    if n & 1:
                        power = times(power, base)
                    base = times(base, base) if n > 1 else base
                    n >>= 1
                term = times(term, power)
        merged = dict(total)
        for key, v in term.items():
            merged[key] = merged.get(key, Fraction(0)) + v
        total = {key: v for key, v in merged.items() if v != 0}
    return HomogPoly(nv, total)


def test_compose_matches_the_fraction_expansion_at_every_projection_shift():
    rng = random.Random(1402)
    z, w, t = (HomogPoly.variable(3, i) for i in range(3))
    for degree in range(7):
        for _ in range(3):
            p = random_form(rng, 3, degree) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for a, b in _PROJECTION_SHIFTS:
                want = _fraction_compose(p, [z + t * Fraction(a), w + t * Fraction(b), t])
                assert list(_shift_form(p, a, b).terms.items()) == list(want.terms.items())
        # rational substitutions too, with cancellation: a sum of forms and its negation
        q = random_form(rng, 3, 2) * Fraction(1, rng.randint(2, 9))
        forms = [q, -q + random_form(rng, 3, 2) * Fraction(rng.randint(1, 5), 7), q * Fraction(3, 4)]
        p = random_form(rng, 3, degree) * Fraction(5, rng.randint(1, 9))
        assert list(p.compose(forms).terms.items()) == list(_fraction_compose(p, forms).terms.items())


@pytest.mark.parametrize("fixture", ["f", "g3", "g4", "lattes4", "power", "quadratic"])
def test_compose_matches_the_fraction_expansion_on_second_iterates(fixture):
    f, _ = cli.load_map(fixture)
    want = [_fraction_compose(g, list(f.forms)) for g in f.forms]
    got = iterate(f, 2).forms
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]


def test_gcd_of_coprime_forms_is_unit():
    assert poly_gcd(poly_parse("z^2 - w*t"), poly_parse("w^2", 3)).degree == 0


def _expression_factor_bases(p: HomogPoly) -> list[HomogPoly]:
    """factor's bases through sympy expression Polys: p(z, 1) for binary forms."""
    if p.num_vars == 3:
        pairs = sp.factor_list(to_sympy(p))[1]
        bases = [from_sympy(sp.Poly(b, *SYMS), 3) for b, _m in pairs]
    else:
        d = p.degree
        coeffs = [p.terms.get((d - j, j), Fraction(0)) for j in range(d + 1)]
        w_mult = next(j for j, c in enumerate(coeffs) if c)
        dehom = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in coeffs[w_mult:]], SYMS[0])
        bases = [HomogPoly.variable(2, 1)] if w_mult else []
        for b, _m in dehom.factor_list()[1]:
            k = b.degree()
            bases.append(HomogPoly(2, {(k - j, j): algebra.to_fraction(c) for j, c in enumerate(b.all_coeffs())}))
    bases = [b.normalized() for b in bases if b.degree]
    return sorted(bases, key=lambda b: (b.degree, b.sort_key()))


def test_ring_bridge_matches_the_expression_route_term_for_term():
    # forms sum their terms in stored order, so the ring bridge must hand back
    # the expression route's terms in its order too, not only the same terms
    rng = random.Random(1305)
    for num_vars, cases in ((2, 40), (3, 25)):
        for _ in range(cases):
            shared = random_form(rng, num_vars, rng.randint(1, 2))
            other = random_form(rng, num_vars, rng.randint(1, 2))
            unit = Fraction(rng.choice(NONZERO), rng.randint(1, 6))
            a = unit * shared * other ** rng.randint(1, 2)
            b = -unit * shared ** rng.randint(1, 2) * random_form(rng, num_vars, 1)
            pairs = [
                (poly_gcd(a, b), from_sympy(sp.gcd(to_sympy(a), to_sympy(b)), num_vars).normalized()),
                (algebra.from_ring(divmod(algebra.to_ring(a), algebra.to_ring(shared))[0], num_vars),
                 from_sympy(sp.div(to_sympy(a), to_sympy(shared))[0], num_vars)),
            ]
            want_sqf = HomogPoly.constant(num_vars, 1)
            for base, _m in to_sympy(a).sqf_list()[1]:
                want_sqf = want_sqf * from_sympy(base, num_vars)
            pairs.append((square_free(a), want_sqf.normalized()))
            got_bases = [base for base, _m in factor(a).factors]
            pairs.extend(zip(got_bases, _expression_factor_bases(a), strict=True))
            for got, want in pairs:
                assert list(got.terms.items()) == list(want.terms.items()), (str(a), str(b))


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_of_coordinate_forms_is_one():
    assert resultant([poly_parse("z", 3), poly_parse("w", 3), poly_parse("t", 3)]) == 1
    assert resultant([poly_parse("z", 2), poly_parse("w", 2)]) == 1


def test_resultant_of_coordinate_powers_is_one():
    assert resultant([poly_parse("z^2", 3), poly_parse("w^2", 3), poly_parse("t^2", 3)]) == 1
    assert resultant([poly_parse("z^3", 3), poly_parse("w^2", 3), poly_parse("t^4", 3)]) == 1


def test_resultant_known_values():
    # hand-checked 10x10 Macaulay over its 4x4 denominator minor
    assert resultant([poly_parse("z^2 - w*t"), poly_parse("w^2", 3), poly_parse("t^2", 3)]) == 1
    # common zero [1:0:0] forces zero
    assert resultant([poly_parse("z^2", 3), poly_parse("z*w", 3), poly_parse("z*t", 3)]) == 0
    # binary: Res(z - w, z + w) = value of z + w at (1, 1)
    assert resultant([poly_parse("z - w", 2), poly_parse("z + w", 2)]) == 2


def test_resultant_of_linear_system_is_coefficient_determinant():
    rng = random.Random(13)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        forms = [
            HomogPoly(3, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]})
            for r in rows
        ]
        if any(f.is_zero() for f in forms):
            continue
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert resultant(forms) == det


def test_resultant_scaling_law():
    base = [poly_parse("z^2 - w*t"), poly_parse("w^2", 3), poly_parse("t^2", 3)]
    lam = Fraction(3, 7)
    scaled = [base[0] * lam, base[1], base[2]]
    # degree-multilinearity: scaling f_0 scales Res by lam^(d_1*d_2)
    assert resultant(scaled) == lam**4 * resultant(base)


def test_resultant_multiplicative_in_each_argument():
    rng = random.Random(29)
    for _ in range(6):
        f0 = random_form(rng, 3, 1)
        g0 = random_form(rng, 3, 2)
        f1 = random_form(rng, 3, 2)
        f2 = random_form(rng, 3, 2)
        lhs = resultant([f0 * g0, f1, f2])
        rhs = resultant([f0, f1, f2]) * resultant([g0, f1, f2])
        assert lhs == rhs


def test_resultant_vanishes_iff_common_zero():
    # constructed systems: half share the rational zero p, half are generic
    rng = random.Random(37)
    built = 0
    while built < 20:
        point = (
            Fraction(rng.randint(-3, 3)),
            Fraction(rng.randint(-3, 3)),
            Fraction(1),
        )
        share = built % 2 == 0
        forms = []
        for _ in range(3):
            f = random_form(rng, 3, rng.randint(1, 2))
            if share:
                # subtract the right multiple of a monomial nonvanishing at p
                val = f.evaluate(point)
                corr = HomogPoly(3, {(0, 0, f.degree): val})
                f = f - corr
                if f.is_zero():
                    break
            forms.append(f)
        if len(forms) != 3:
            continue
        built += 1
        r = resultant(forms)
        if share:
            assert r == 0
        else:
            # generic triples are zero-free; allow the rare degenerate draw
            if r == 0:
                continue
            assert r != 0


def test_resultant_arity_errors():
    with pytest.raises(ArityError):
        resultant([poly_parse("z", 3), poly_parse("w", 3)])
    with pytest.raises(ArityError):
        resultant([poly_parse("z", 2), poly_parse("w", 2), poly_parse("z+w", 2)])
    with pytest.raises(ArityError):
        resultant([poly_parse("z", 3), poly_parse("w", 3), HomogPoly.zero(3)])
    with pytest.raises(ArityError):
        resultant([poly_parse("z", 3), poly_parse("w", 3), HomogPoly.constant(3, 5)])


def test_resultant_degenerate_denominator_uses_perturbation():
    # The denominator minor of this system is singular, so the perturbed-path
    # value is the only way to get the answer; it was cross-checked against
    # the plain quotient after the unimodular substitution w -> w + z (which
    # leaves the resultant invariant and regularizes the minor).
    forms = [
        poly_parse("3*z*w - 2*w^2", 3),
        poly_parse("3*w^2 + 3*z*t - 2*t^2"),
        poly_parse("3*z^2 + 3*w^2 - 2*t^2"),
    ]
    assert resultant(forms) == 40176
    sub = [Z3, W3 + Z3, T3]
    assert resultant([f.compose(sub) for f in forms]) == 40176


def test_regular_minor_never_takes_the_charpoly_of_the_full_matrix(monkeypatch):
    sizes = []
    real_charpoly = algebra._charpoly

    def spy(m):
        sizes.append(m.shape[0])
        return real_charpoly(m)

    monkeypatch.setattr(algebra, "_charpoly", spy)
    # ternary quadrics: M is 15 x 15, its minor M' is the 3 x 3 identity
    assert resultant([poly_parse("z^2 - w*t"), poly_parse("w^2", 3), poly_parse("t^2", 3)]) == 1
    assert sizes == [3]
    sizes.clear()
    # binary forms: M is the Sylvester matrix and M' is empty
    assert resultant([poly_parse("z - w", 2), poly_parse("z + w", 2)]) == 2
    assert sizes == [0]
    sizes.clear()
    # a singular minor still reads [s^k] off the charpoly of M
    forms = [
        poly_parse("3*z*w - 2*w^2", 3),
        poly_parse("3*w^2 + 3*z*t - 2*t^2"),
        poly_parse("3*z^2 + 3*w^2 - 2*t^2"),
    ]
    assert resultant(forms) == 40176
    assert sizes == [3, 15]


def test_resultant_invariant_under_unimodular_substitution():
    rng = random.Random(53)
    sub = [Z3 + T3, W3 - Z3, T3]  # determinant 1
    for _ in range(5):
        forms = [random_form(rng, 3, 2) for _ in range(3)]
        try:
            lhs = resultant(forms)
        except ArityError:
            continue
        rhs = resultant([f.compose(sub) for f in forms])
        assert lhs == rhs


def _denominator_minor(forms):
    """Macaulay's denominator minor M', built here independently of the module.

    Its rows and columns are the monomials of degree 1 + sum(d_i - 1) that
    two of the powers x_i^(d_i) divide; a row belongs to the first such f_i.
    """
    nv = len(forms)
    degrees = [f.degree for f in forms]
    mons = monomials_of_degree(nv, 1 + sum(d - 1 for d in degrees))
    nonreduced = [m for m in mons if sum(m[i] >= degrees[i] for i in range(nv)) >= 2]
    rows = []
    for m in nonreduced:
        i = next(i for i in range(nv) if m[i] >= degrees[i])
        shift = [e - (degrees[i] if v == i else 0) for v, e in enumerate(m)]
        rows.append(
            [forms[i].terms.get(tuple(c - s for c, s in zip(col, shift)), 0) for col in nonreduced]
        )
    return sp.Matrix(rows)


def test_resultant_of_products_of_linear_forms():
    # Res(prod l_0j, ..., prod l_(n-1)j) = prod over every choice of one
    # linear factor per form of det(coefficient rows); Res(z, w, t) = 1
    rng = random.Random(61)
    singular_minors = 0
    for draw in range(300):
        nv = 2 if draw % 3 == 0 else 3
        factors = []
        for _ in range(nv):
            rows = []
            for _ in range(rng.randint(1, 3)):
                row = [rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(nv)]
                if not any(row):
                    row[rng.randrange(nv)] = 1
                rows.append(row)
            factors.append(rows)
        forms = []
        for rows in factors:
            f = HomogPoly.constant(nv, 1)
            for row in rows:
                f = f * HomogPoly(nv, {e: c for e, c in zip(monomials_of_degree(nv, 1), row)})
            forms.append(f)
        expected = 1
        for choice in itertools.product(*factors):
            expected *= sp.Matrix(choice).det()
        assert resultant(forms) == expected, (forms, expected)
        if nv == 3 and _denominator_minor(forms).det() == 0:
            singular_minors += 1
    assert singular_minors >= 40

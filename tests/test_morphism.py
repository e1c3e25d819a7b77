"""``endo_new`` proves a morphism modulo a prime and asks the exact resultant only when it cannot.

Macaulay's det M = +-Res * det M' with denominators cleared, so det M != 0
modulo 2^61 - 1 proves Res != 0.  A singular minor M' makes det M vanish
identically; a substitution of determinant 1 then moves the system onto a
regular minor.  Every verdict must be the exact resultant's.
"""

import random
from fractions import Fraction

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from critfin import cli, dynamics
from critfin.algebra import (
    HomogPoly,
    _macaulay,
    monomials_of_degree,
    poly_parse,
    resultant,
    resultant_nonzero_mod_p,
)
from critfin.dynamics import endo_new
from critfin.errors import NotAMorphismError

NONZERO = [c for c in range(-9, 10) if c]


def spy_resultant(monkeypatch) -> list:
    """Count the exact ``resultant`` calls that ``endo_new`` makes."""
    calls = []

    def spy(forms):
        calls.append(forms)
        return resultant(forms)

    monkeypatch.setattr(dynamics, "resultant", spy)
    return calls


def random_form(rng, nv: int, degree: int) -> HomogPoly:
    """About four in five monomials, with coefficients p/q, |p| <= 9 and q <= 4."""
    mons = monomials_of_degree(nv, degree)
    terms = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for m in mons if rng.random() < 0.8}
    return HomogPoly(nv, terms)


def random_system(rng, nv: int, degrees: list[int], share: bool) -> list[HomogPoly]:
    """Forms of the given degrees; with ``share``, all vanish at one rational point."""
    forms = [random_form(rng, nv, d) for d in degrees]
    if share:
        # subtract the multiple of the last coordinate's power that kills f there
        point = [Fraction(rng.randint(-3, 3)) for _ in range(nv - 1)] + [Fraction(1)]
        last = (0,) * (nv - 1)
        forms = [f - HomogPoly(nv, {last + (f.degree or 0,): f.evaluate(point)}) for f in forms]
    return forms


def test_every_fixture_is_proved_a_morphism_without_the_exact_resultant(monkeypatch):
    calls = spy_resultant(monkeypatch)
    for name in cli.fixture_names():
        f, _ = cli.load_map(name)
        assert resultant_nonzero_mod_p(f.forms)
        assert resultant(list(f.forms)) != 0
    assert len(cli.fixture_names()) == 6 and calls == []


def test_endo_new_accepts_exactly_when_the_resultant_is_nonzero(monkeypatch):
    # 200 binary and ternary systems of degrees 1 to 5, half of them with a
    # shared rational zero; mixed degrees go to the modular test alone, one
    # common degree of at least 2 through endo_new too
    calls = spy_resultant(monkeypatch)
    rng = random.Random(1806)
    verdicts = {True: 0, False: 0}
    built = 0
    while built < 200:
        nv = 2 + built % 2
        if built % 3:
            degrees = [rng.randint(1, 5)] * nv if nv == 2 else [rng.randint(1, 3)] * 3
        else:
            degrees = [rng.randint(1, 5) for _ in range(nv)]
            while sum(degrees) > 9:
                degrees = [rng.randint(1, 5) for _ in range(nv)]
        forms = random_system(rng, nv, degrees, share=built % 4 >= 2)
        if any(f.is_zero() or f.degree == 0 for f in forms):
            continue
        built += 1
        morphism = resultant(forms) != 0
        verdicts[morphism] += 1
        assert resultant_nonzero_mod_p(forms) == morphism, [str(f) for f in forms]
        if len(set(degrees)) == 1 and degrees[0] >= 2:
            calls.clear()
            if morphism:
                endo_new(forms)
                assert calls == []
            else:
                with pytest.raises(NotAMorphismError):
                    endo_new(forms)
                assert len(calls) == 1
    assert verdicts[True] >= 80 and verdicts[False] >= 80


def test_a_shared_zero_still_raises_through_the_exact_fallback(monkeypatch):
    calls = spy_resultant(monkeypatch)
    # all three vanish at [1 : 1 : 1]
    forms = [poly_parse("z^2 - w*t"), poly_parse("w^2 - z*t"), poly_parse("t^2 - z*w")]
    with pytest.raises(NotAMorphismError):
        endo_new(forms)
    assert len(calls) == 1 and resultant(forms) == 0


def test_a_singular_minor_is_decided_without_the_exact_resultant(monkeypatch):
    # seed-searched: the first dense ternary quintic system of this kind,
    # every monomial present, whose 30 x 30 minor M' is singular
    rng = random.Random(17)
    forms = [
        HomogPoly(3, {m: Fraction(rng.choice(NONZERO), rng.randint(1, 3)) for m in monomials_of_degree(3, 5)})
        for _ in range(3)
    ]
    big, minor, _ = _macaulay(forms)
    rows = [[ZZ(big[i][j]) for j in minor] for i in minor]
    assert len(minor) == 30 and DomainMatrix(rows, (30, 30), ZZ).det() == 0
    calls = spy_resultant(monkeypatch)
    assert endo_new(forms).degree == 5
    assert calls == []
    assert resultant(forms) != 0

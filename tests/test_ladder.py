"""The exact projection ladder's two screens, against the unscreened oracle.

``solve_form_pair`` tests each center against both curves before shifting,
and refuses a center over a repeated rational direction before factoring
the rest of its eliminant.  Both screens may only save work: every pair
below must give the points, multiplicities and order of
``ladder_oracle.solve_form_pair_unscreened``, or the same error text.
"""

import random

import pytest
from sympy.polys.densearith import dup_mul, dup_prem
from sympy.polys.domains import ZZ

from critfin import algebra, cli, dynamics, geometry, postcritical
from critfin.algebra import HomogPoly, _clear_denominators, poly_gcd
from critfin.errors import CritfinError, DegenerateEliminationError
from ladder_oracle import solve_form_pair_unscreened

AMBIGUOUS = "produced an ambiguous fiber"


def outcome(solve, A, B):
    """A solver's points on a pair, or its error's type and text."""
    try:
        return solve(A, B)
    except CritfinError as exc:
        return type(exc), str(exc)


def record_pairs(monkeypatch, module) -> list:
    """Record each pair ``module`` hands to ``solve_form_pair``, with its outcome."""
    met = []
    solve = module.solve_form_pair

    def record(A, B, cfg=None):
        try:
            found = solve(A, B, cfg)
        except CritfinError as exc:
            met.append((A, B, (type(exc), str(exc))))
            raise
        met.append((A, B, found))
        return found

    monkeypatch.setattr(module, "solve_form_pair", record)
    return met


@pytest.mark.parametrize("fixture", ["f", "power", "g3"])
def test_screened_ladder_matches_the_oracle_on_every_periodic_minor_pair(monkeypatch, fixture):
    # find_periodic at n = 1 and 2; g3's period-2 pairs all degenerate
    # (ROADMAP item 3), which the oracle must reproduce word for word
    f, _ = cli.load_map(fixture)
    met = record_pairs(monkeypatch, dynamics)
    if fixture == "g3":
        with pytest.raises(DegenerateEliminationError):
            dynamics.find_periodic(f, 2)
    else:
        dynamics.find_periodic(f, 2)
    monkeypatch.undo()
    assert met
    for A, B, got in met:
        assert outcome(solve_form_pair_unscreened, A, B) == got, (str(A), str(B))


@pytest.mark.parametrize("fixture", ["f", "power", "g3", "g4"])
def test_screened_ladder_matches_the_oracle_on_every_classify_curve_pair(monkeypatch, fixture):
    f, _ = cli.load_map(fixture)
    met = record_pairs(monkeypatch, geometry)
    postcritical.classify(f)
    monkeypatch.undo()
    assert met
    for A, B, got in met:
        assert outcome(solve_form_pair_unscreened, A, B) == got, (str(A), str(B))


def _linear(rng) -> HomogPoly:
    while True:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if any(c):
            return HomogPoly(3, {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2]})


def _lines_and_conics(rng) -> HomogPoly:
    """Products of small lines, some squared, at times with a conic.

    Their rational intersection points often share a direction from a
    center, or have multiplicity above one: repeated rational directions.
    """
    p = HomogPoly.constant(3, 1)
    for _ in range(rng.randint(1, 3)):
        p = p * _linear(rng) ** rng.choice([1, 1, 2])
    if rng.random() < 0.3:
        p = p * (_linear(rng) * _linear(rng) + _linear(rng) * _linear(rng))
    return p


def test_screened_ladder_matches_the_oracle_on_seeded_pairs_with_repeated_directions(monkeypatch):
    refused = passed = 0
    directions = geometry._exact_directions

    def count(As, Bs, cfg):
        nonlocal refused, passed
        found = directions(As, Bs, cfg)
        refused += found == AMBIGUOUS
        passed += isinstance(found, tuple) and bool(found[1])
        return found

    monkeypatch.setattr(geometry, "_exact_directions", count)
    rng = random.Random(1601)
    pairs = 0
    while pairs < 100:
        A, B = _lines_and_conics(rng), _lines_and_conics(rng)
        if poly_gcd(A, B).degree != 0:
            continue
        pairs += 1
        got = outcome(geometry.solve_form_pair, A, B)
        assert outcome(solve_form_pair_unscreened, A, B) == got, (str(A), str(B))
    # both sides of the screen were exercised: centers refused over a
    # repeated direction, and centers whose repeated fibers were handed on
    assert refused >= 20 and passed >= 50


def _dehomogenised(R: HomogPoly) -> list[int]:
    """R(z, 1) over ZZ with its denominators cleared, without the factor w."""
    _, ints = _clear_denominators(R)
    coeffs = [ints.get((R.degree - j, j), 0) for j in range(R.degree + 1)]
    while not coeffs[0]:
        coeffs.pop(0)
    return coeffs


@pytest.mark.parametrize("fixture, refusals", [("f", 12), ("power", 20)])
def test_an_ambiguous_center_splits_only_the_repeated_part_of_its_eliminant(
    monkeypatch, capsys, fixture, refusals
):
    split = algebra._split_low_degree
    parts: list[list[int]] = []
    refused: list[HomogPoly] = []

    def record(part):
        parts.append(part)
        return split(part)

    directions = geometry._exact_directions

    def check(As, Bs, cfg):
        parts.clear()
        found = directions(As, Bs, cfg)
        if found == AMBIGUOUS:
            R = geometry._resultant_t(As, Bs)
            r = _dehomogenised(R)
            # every square-free part split so far has its square dividing R
            assert all(not dup_prem(r, dup_mul(p, p, ZZ), ZZ) for p in parts), str(R)
            refused.append(R)
        return found

    monkeypatch.setattr(algebra, "_split_low_degree", record)
    monkeypatch.setattr(geometry, "_exact_directions", check)
    assert cli.main(["analyze", fixture]) == 0
    capsys.readouterr()
    assert len(refused) == refusals

"""The floating path's tables and stacks, against the per-call oracle.

Forms convert their coefficients to complex once and keep them with their
L1 norm, and the floating engine stacks its small determinants.  On every
node of backward trees over pool roots of all six fixtures (the roots and
depths of the certify benchmark), each must give the bits of
``float_oracle``'s route.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import float_oracle
from critfin import cli, geometry
from critfin.algebra import HomogPoly, monomials_of_degree
from critfin.dynamics import critical_set
from critfin.geometry import ProjPoint, curve_residual, map_point
from critfin.ramification import preimage_tree

#: the first two roots of each dimension's pool, and the tree depth, per fixture
ROOTS = {1: ([7, 5], [4, 5]), 2: ([1, 9, 1], [2, 8, 3])}
DEPTHS = {"f": 4, "power": 4, "quadratic": 4, "lattes4": 4, "g3": 2, "g4": 2}


def bits(values) -> str:
    """A repr that tells every float apart, the sign of a zero included."""
    return repr([v if v is None else complex(v) for v in values])


def record(monkeypatch, name: str) -> list:
    """Record each call of ``geometry.<name>`` with its result."""
    calls = []
    real = getattr(geometry, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(geometry, name, spy)
    return calls


@pytest.mark.parametrize("fixture", sorted(DEPTHS))
def test_floating_routes_give_the_oracle_bits_on_pool_trees(monkeypatch, fixture):
    f, _ = cli.load_map(fixture)
    roots_met = record(monkeypatch, "_float_fiber_roots")
    samples_met = record(monkeypatch, "_interp_resultant_t")
    nodes = []
    for root in ROOTS[f.k]:
        tree = preimage_tree(f, ProjPoint.exact_point(root), DEPTHS[fixture])
        nodes += [node.point for level in range(tree.depth + 1) for node in tree.level(level)]
    monkeypatch.undo()
    assert sum(not p.exact for p in nodes) >= 20
    curves = list(f.forms) + ([c.poly for c in critical_set(f).curves()] if f.k == 2 else [])
    for p in nodes:
        got, want = map_point(f.forms, p), float_oracle.map_point(f.forms, p)
        assert (got.exact, repr(got.coords)) == (want.exact, repr(want.coords)), p
        if not p.exact:
            for poly in curves:
                assert repr(curve_residual(poly, p)) == repr(float_oracle.curve_residual(poly, p))
    if f.k == 1:
        return
    assert roots_met and samples_met
    for (pairs,), taus in roots_met:
        assert bits(taus) == bits(float_oracle.float_fiber_root(pa, pb) for pa, pb in pairs)
    for (As, Bs), coeffs in samples_met:
        want = float_oracle.interp_resultant_t(As, Bs)
        assert coeffs.dtype == want.dtype and coeffs.tobytes() == want.tobytes()


def test_stacked_fiber_roots_match_one_det_per_matrix_on_random_pairs():
    # sizes 1 to 9 of the first-subresultant matrix, gated pairs included:
    # half of the pairs share two roots, so their s1 falls below the gate
    rng = np.random.default_rng(1806)
    for da in range(1, 6):
        for db in range(1, 6):
            pairs = []
            for i in range(12):
                pa = list(rng.normal(size=da + 1) + 1j * rng.normal(size=da + 1))
                pb = list(rng.normal(size=db + 1) + 1j * rng.normal(size=db + 1))
                if i % 2 and min(da, db) >= 2:
                    common = np.poly(rng.normal(size=2) + 1j * rng.normal(size=2))
                    pa = list(np.polymul(common, pa[: da - 1]))
                    pb = list(np.polymul(common, pb[: db - 1]))
                pairs.append((pa, pb))
            taus = geometry._float_fiber_roots(pairs)
            assert bits(taus) == bits(float_oracle.float_fiber_root(pa, pb) for pa, pb in pairs)


def test_converted_forms_give_the_oracle_bits_with_rational_coefficients():
    # fixture coefficients are small integers, which convert exactly however
    # they are summed; thirds and sevenths do not
    rng = random.Random(1807)
    for nv in (2, 3) * 10:
        forms = [
            HomogPoly(nv, {m: Fraction(rng.randint(-9, 9), rng.choice([1, 3, 7])) for m in monomials_of_degree(nv, d)})
            for d in [rng.randint(1, 4)] * nv
        ]
        for _ in range(5):
            p = ProjPoint.inexact([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nv)])
            got, want = map_point(forms, p), float_oracle.map_point(forms, p)
            assert repr(got.coords) == repr(want.coords)
            for poly in forms:
                assert repr(poly.evaluate(p.coords)) == repr(float_oracle.evaluate(poly, p.coords))
                assert repr(curve_residual(poly, p)) == repr(float_oracle.curve_residual(poly, p))

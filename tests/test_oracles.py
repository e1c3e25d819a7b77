"""Oracle maps whose periodic points are known in closed form.

The products F = (z^2 + c1*t^2 : w^2 + c2*t^2 : t^2) of the postcritically
finite quadratics z^2 + c, c in {0, -1, -2}, are the standard first examples
of critically finite maps of P^2 (Fornaess-Sibony 1992).  Their periodic
points are pairs (x, y) of periodic points of the two factors, plus those of
the power map [z^2 : w^2] on the line t = 0, and at a finite point
D F^n = diag((p^n)'(x), (q^n)'(y)).  So for every (c1, c2):

* period <= 2 holds 21 points, 7 of period 1 and 14 of period 2;
* 7 of them are rational: the pairs of the two rational points of period
  <= 2 of each factor, and [1:0:0], [0:1:0], [1:1:0] on t = 0;
* the superattracting ones are [1:0:0], [0:1:0] and the pairs (x, y) with
  both coordinates on the critical cycle S(c) of z^2 + c, each with zero
  differential: S(0) = {0}, S(-1) = {0, -1}, S(-2) = {} (0 -> -2 -> 2 is
  only preperiodic).

The P^2 Lattes map ``lattes2``, the symmetric square of the line's degree-4
Lattes map, is the paper's k-critically finite case with k = 2: its orbits
of critical curves and of order-2 critical points both close.

Each map is loaded with ``cli.load_map`` from a map document written here.
"""

import json

import pytest

from critfin.cli import load_map
from critfin.dynamics import SUPERATTRACTING_ZERO, find_periodic
from critfin.errors import DegenerateEliminationError
from critfin.geometry import ProjPoint
from critfin.postcritical import classify

#: S(c): the critical cycle of z^2 + c, empty when 0 is only preperiodic
CRITICAL_CYCLE = {0: (0,), -1: (0, -1), -2: ()}

#: why the xfails below fail, and the ROADMAP item that should mend them
ITEM_3 = (
    "ROADMAP item 3: every projection centre of the ladder meets a minor "
    "curve or gives an ambiguous fibre, so elimination raises "
    "DegenerateEliminationError"
)


def _load(tmp_path, components: list[str], degree: int):
    path = tmp_path / "oracle.json"
    doc = {"dimension": 2, "degree": degree, "components": components, "name": "oracle"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_map(str(path))[0]


def _quadratic(var: str, c: int) -> str:
    return f"{var}^2" if c == 0 else f"{var}^2 - {-c}*t^2"


def _product(tmp_path, c1: int, c2: int):
    return _load(tmp_path, [_quadratic("z", c1), _quadratic("w", c2), "t^2"], 2)


def _superattracting(c1: int, c2: int) -> set[ProjPoint]:
    at_infinity = {ProjPoint.exact_point([1, 0, 0]), ProjPoint.exact_point([0, 1, 0])}
    return at_infinity | {
        ProjPoint.exact_point([x, y, 1]) for x in CRITICAL_CYCLE[c1] for y in CRITICAL_CYCLE[c2]
    }


def _check_product(f, c1: int, c2: int, count: int) -> None:
    points = find_periodic(f, 2)
    assert len(points) == 21
    assert sorted(pp.period for pp in points) == [1] * 7 + [2] * 14
    assert sum(pp.point.exact for pp in points) == 7
    superattracting = [pp for pp in points if pp.is_superattracting()]
    assert len(superattracting) == count
    assert {pp.point for pp in superattracting} == _superattracting(c1, c2)
    assert all(pp.point.exact for pp in superattracting)
    assert all(pp.classification == SUPERATTRACTING_ZERO for pp in superattracting)


@pytest.mark.parametrize(
    "c1, c2, count", [(0, 0, 3), (0, -1, 4), (0, -2, 2), (-1, -1, 6), (-1, -2, 2)]
)
def test_quadratic_product_matches_its_closed_form(tmp_path, c1, c2, count):
    f = _product(tmp_path, c1, c2)
    _check_product(f, c1, c2, count)
    report = classify(f)
    assert sorted(report.levels) == [1, 2]
    for level in report.levels.values():
        assert level.finite_order is True
        assert level.verdict is False


#: the symmetric square of lattes4 on P^2
LATTES2 = [
    "16*t^3*z + 32*t^2*z^2 - 16*t*w^2*z + 16*t*z^3",
    "4*t^3*w + 20*t^2*w*z - 4*t*w^3 - 20*t*w*z^2 + 4*w^3*z - 4*w*z^3",
    "t^4 - 4*t^3*z + 2*t^2*w^2 + 6*t^2*z^2 - 4*t*w^2*z - 4*t*z^3 + w^4 + 2*w^2*z^2 + z^4",
]


def test_lattes2_is_critically_finite_of_orders_one_and_two(tmp_path):
    report = classify(_load(tmp_path, LATTES2, 4))
    assert sorted(report.levels) == [1, 2]
    for level in report.levels.values():
        assert level.finite_order is True
        assert level.verdict is True
        assert level.omega.certified()


@pytest.mark.xfail(strict=True, raises=DegenerateEliminationError, reason=ITEM_3)
def test_the_minus_two_square_matches_its_closed_form(tmp_path):
    _check_product(_product(tmp_path, -2, -2), -2, -2, 2)


@pytest.mark.xfail(strict=True, raises=DegenerateEliminationError, reason=ITEM_3)
@pytest.mark.parametrize(
    "components",
    [["z^3", "w^3", "t^3"], ["z^3 - 3*z*t^2", "w^3", "t^3"]],
    ids=["cubic-power", "chebyshev-cubic"],
)
def test_cubic_product_has_thirteen_fixed_points(tmp_path, components):
    # d^2 + d + 1 = 13 fixed points, all simple: 3 x 3 finite pairs (z^3 - 3z
    # fixes 0 and +-2, w^3 fixes 0 and +-1) and 4 on t = 0, where the map is
    # [z^3 : w^3]
    assert len(find_periodic(_load(tmp_path, components, 3), 1)) == 13

"""Preimage trees and the bounded-ramification certificate."""

import json
import random

import pytest

from critfin.algebra import poly_parse
from critfin.cli import load_map
from critfin.config import Config
from critfin.dynamics import endo_new
from critfin.errors import BudgetError, InputError, SolverError
from critfin.geometry import AlgebraicSet, Component, Membership, ProjPoint
from critfin.postcritical import classify
from critfin.ramification import (
    certify_ramification,
    check_bounded_ramification,
    preimage_tree,
    ramification_bound,
)

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


def pt(*coords):
    return ProjPoint.exact_point(list(coords))


def walk(node):
    yield node
    for child in node.children:
        yield from walk(child)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def test_bound_oracles():
    rep_f = classify(f_map())
    assert ramification_bound(rep_f, 1) == 1
    assert ramification_bound(rep_f, 2) == 2
    rep_p = classify(power_map())
    assert ramification_bound(rep_p, 2) == 2
    rep_q = classify(quad_map(), order=1)
    assert ramification_bound(rep_q, 1) == 2


def test_bound_skips_vacuous_levels():
    # on the line the order-2 inventory is empty; its conventional
    # stabilization time must not inflate the bound
    rep = classify(quad_map())
    assert ramification_bound(rep, 2) == ramification_bound(rep, 1) == 2


def test_bound_requires_the_requested_orders():
    rep = classify(f_map(), order=1)
    with pytest.raises(InputError):
        ramification_bound(rep, 2)
    with pytest.raises(InputError):
        ramification_bound(rep, 3)


def test_bound_rejects_budget_exhausted_levels():
    rep = classify(f_map(), cfg=Config(budget_curve_nodes=2))
    with pytest.raises(InputError):
        ramification_bound(rep, 1)


# ---------------------------------------------------------------------------
# preimage trees
# ---------------------------------------------------------------------------


def test_power_fiber_is_the_four_sign_classes():
    tree = preimage_tree(power_map(), pt(1, 1, 1), depth=1)
    level = tree.level(1)
    assert {n.point for n in level} == {pt(1, 1, 1), pt(1, 1, -1), pt(1, -1, 1), pt(1, -1, -1)}
    assert all(n.multiplicity == 1 for n in level)
    assert all(n.point.exact for n in level)


def test_power_depth_two_has_sixteen_leaves_with_multiplicity():
    tree = preimage_tree(power_map(), pt(1, 1, 1), depth=2)
    assert len(tree.level(2)) == 16
    assert tree.weighted_leaf_count() == 16


def test_totally_ramified_fiber_collapses_to_a_chain():
    # the vertex is its own full preimage, four sheets at a time
    tree = preimage_tree(power_map(), pt(0, 0, 1), depth=2)
    for j in (1, 2):
        (node,) = tree.level(j)
        assert node.point == pt(0, 0, 1)
        assert node.multiplicity == 4
    assert tree.weighted_leaf_count() == 16


def test_fiber_over_a_critical_value_keeps_its_double_points():
    # [0 : 1 : 2] lies on the critical value line z = 0: its fiber is the
    # two double points [0 : +-2^(-1/2) : 1], each on a direction whose
    # irrational fiber must be read without factoring
    tree = preimage_tree(power_map(), pt(0, 1, 2), depth=1)
    level = tree.level(1)
    assert [n.multiplicity for n in level] == [2, 2]
    roots = sorted(n.point.to_complex()[1].real for n in level)
    assert roots == pytest.approx([-(2**-0.5), 2**-0.5], abs=1e-15)
    for n in level:
        assert abs(n.point.to_complex()[0]) <= 1e-15
        assert power_map()(n.point).chordal(pt(0, 1, 2)) <= 1e-16


def test_quadratic_fiber_is_plus_minus_root_three():
    tree = preimage_tree(quad_map(), pt(1, 1), depth=1)
    ratios = sorted(
        (n.point.to_complex()[0] / n.point.to_complex()[1]).real for n in tree.level(1)
    )
    assert abs(ratios[0] + 3**0.5) < 1e-12
    assert abs(ratios[1] - 3**0.5) < 1e-12


def test_quadratic_infinity_chain():
    tree = preimage_tree(quad_map(), pt(1, 0), depth=2)
    for j in (1, 2):
        (node,) = tree.level(j)
        assert node.point == pt(1, 0)
        assert node.multiplicity == 2


def test_fixture_tree_levels_and_fiber_sums():
    # power [3:8:3] at depth 4 meets real floating parents whose projections
    # put two preimages on one direction; none may come back twice
    for f, root, depth in [(f_map(), pt(2, 3, 5), 3), (power_map(), pt(3, 8, 3), 4)]:
        tree = preimage_tree(f, root, depth=depth)
        assert [len(tree.level(j)) for j in range(depth + 1)] == [4**j for j in range(depth + 1)]
        assert len(tree.paths()) == 4**depth
        for node in walk(tree.root):
            if node.children:
                assert sum(c.multiplicity for c in node.children) == 4
                kids = [c.point for c in node.children]
                for i, kid in enumerate(kids):
                    assert all(kid.chordal(other) > 1e-6 for other in kids[:i])


def test_fixture_tree_reaches_complex_nodes():
    # one branch has w < 0, forcing z^2 < 0: truly complex preimages, so
    # the floating elimination route is genuinely exercised at this depth
    tree = preimage_tree(f_map(), pt(2, 3, 5), depth=2)
    coords = [c for n in tree.level(2) for c in n.point.to_complex()]
    assert any(abs(c.imag) > 1e-3 for c in coords)


def test_every_leaf_maps_back_to_the_root():
    f = f_map()
    root = pt(2, 3, 5)
    tree = preimage_tree(f, root, depth=3)
    for leaf in tree.level(3):
        x = leaf.point
        for _ in range(3):
            x = f(x)
        assert x.chordal(root) < 1e-8


def test_exact_fibers_stay_exact():
    tree = preimage_tree(power_map(), pt(16, 1, 1), depth=1)
    assert {n.point for n in tree.level(1)} == {pt(4, 1, 1), pt(4, 1, -1), pt(4, -1, 1), pt(4, -1, -1)}


def test_complex_root_fiber():
    f = f_map()
    root = ProjPoint.inexact([0.4 + 0.25j, -0.375j, 1.0])
    tree = preimage_tree(f, root, depth=1)
    level = tree.level(1)
    assert sum(n.multiplicity for n in level) == 4
    for n in level:
        assert f(n.point).chordal(root) < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="double precision scatters the 4-fold fiber point [0 : 1 : -+i] by "
    "about eps^(1/4) ~ 1e-4, past the 1e-5 cluster gate of binary_roots_inexact",
)
@pytest.mark.parametrize("sign", [1, -1])
def test_g4_floating_fiber_keeps_its_four_fold_point(sign):
    # over [1 : +-i : +-i] the fiber is 12 simple points plus [0 : 1 : -+i]
    # of multiplicity 4
    tree = preimage_tree(g_map(4), ProjPoint.inexact([1, sign * 1j, sign * 1j]), depth=1)
    children = tree.root.children
    assert len(children) == 13
    assert sorted(c.multiplicity for c in children) == [1] * 12 + [4]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: at a triple point the Jacobian is singular, so Newton "
    "converges only linearly and stops about 4.2e-6 off w = 0; the point still maps "
    "back within residual_tol, and nothing flags it",
)
def test_g3_floating_triple_points_lie_on_w_zero():
    # over [1 : 0 : 1] the fiber is [1 : 0 : -1] and [e^(-+i pi/3) : 0 : 1],
    # each of multiplicity 3; the last two lie on floating directions
    tree = preimage_tree(g_map(3), pt(1, 0, 1), depth=1)
    triple = [c.point for c in tree.root.children if not c.point.exact]
    assert [c.multiplicity for c in tree.root.children] == [3, 3, 3]
    assert len(triple) == 2
    assert all(abs(p.coords[1]) < 1e-9 for p in triple)


def test_tree_determinism():
    f = f_map()
    first = preimage_tree(f, pt(2, 3, 5), depth=2)
    second = preimage_tree(f, pt(2, 3, 5), depth=2)
    assert [repr(n.point) for n in walk(first.root)] == [
        repr(n.point) for n in walk(second.root)
    ]


def test_tree_depth_defaults_and_caps():
    f = quad_map()
    assert preimage_tree(f, pt(3, 1)).depth == 3
    with pytest.raises(InputError):
        preimage_tree(f, pt(3, 1), depth=0)
    with pytest.raises(InputError):
        preimage_tree(f, pt(3, 1), depth=5)


def test_tree_budget_precheck():
    with pytest.raises(BudgetError):
        preimage_tree(g_map(4), pt(1, 1, 1), depth=3)  # 16 + 256 + 4096 nodes
    # the same request passes with a raised budget only as far as solving goes
    tree = preimage_tree(g_map(4), pt(1, 1, 1), depth=1)
    assert sum(n.multiplicity for n in tree.level(1)) == 16


def test_tree_dimension_mismatch():
    with pytest.raises(InputError):
        preimage_tree(quad_map(), pt(1, 1, 1), depth=1)


def test_random_fibers_invert_the_map():
    rng = random.Random(20260814)
    maps = [quad_map(), f_map()]
    for f in maps:
        for _ in range(3):
            coords = [rng.randint(1, 9) for _ in range(f.k + 1)]
            root = pt(*coords)
            tree = preimage_tree(f, root, depth=2)
            per = f.degree**f.k
            for node in walk(tree.root):
                if node.children:
                    assert sum(c.multiplicity for c in node.children) == per
                    for child in node.children:
                        assert f(child.point).chordal(node.point) < 1e-9


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_fixture_certificate_is_clean():
    f = f_map()
    cert = certify_ramification(f, pt(2, 3, 5), depth=3)
    assert cert.verdict == "all-within-bound"
    assert cert.order == 2
    assert cert.bound == 2
    assert cert.stratum_bounds == {1: 1, 2: 1}
    assert cert.max_passages == 0
    assert len(cert.paths) == 64
    assert all(rec.forward_residual < 1e-8 for rec in cert.paths)
    assert not cert.violations


def test_power_certificate_no_passages():
    cert = certify_ramification(power_map(), pt(1, 1, 1), depth=3)
    assert cert.verdict == "all-within-bound"
    assert cert.bound == 2
    assert all(rec.total == 0 for rec in cert.paths)


def test_quadratic_passages_counted_once():
    rep = classify(quad_map(), order=1)
    cert = certify_ramification(quad_map(), pt(2, 1), depth=3, report=rep)
    assert cert.verdict == "all-within-bound"
    assert cert.order == 1
    assert cert.bound == 2
    assert cert.max_passages == 1
    hits = [p for rec in cert.paths for p in rec.passages]
    assert hits and all(p.point.is_close(pt(0, 1), 1e-9) for p in hits)
    # the critical point recurs once per -2 ancestor, never twice on a path
    assert {p.level for p in hits} == {2, 3}
    assert all(rec.total <= 1 for rec in cert.paths)


def test_max_passages_monotone_in_depth():
    rep = classify(quad_map(), order=1)
    seen = []
    for depth in (1, 2, 3, 4):
        cert = certify_ramification(quad_map(), pt(2, 1), depth=depth, report=rep)
        seen.append(cert.max_passages)
    assert seen == [0, 1, 1, 1]
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def test_root_on_critical_cycle_is_not_applicable():
    f = f_map()
    for root in (pt(1, 0, 3), pt(2, 1, 4)):  # on w = 0 resp. the conic
        cert = certify_ramification(f, root, depth=2)
        assert cert.verdict == "not-applicable"
        assert not cert.paths
    rep = classify(quad_map(), order=1)
    cert = certify_ramification(quad_map(), pt(1, 0), depth=2, report=rep)
    assert cert.verdict == "not-applicable"


def test_root_in_omega_but_off_cycles_is_applicable():
    # 2 sits in the stabilized postcritical set of z^2 - 2 but on no
    # critical cycle, so the top-order bound still applies
    rep = classify(quad_map(), order=1)
    cert = certify_ramification(quad_map(), pt(2, 1), depth=2, report=rep)
    assert cert.verdict == "all-within-bound"


def test_root_membership_ambiguity_is_undecided():
    rep = classify(quad_map(), order=1)
    root = ProjPoint.inexact([1.0, 4e-10])  # in the band around infinity
    cert = certify_ramification(quad_map(), root, depth=1, report=rep)
    assert cert.verdict == "undecided"
    assert any("ambiguous" in d for d in cert.diagnostics)


def test_band_passages_make_paths_undecided():
    # preimages of -2 + 3e-19 sit ~5.5e-10 from the critical point: inside
    # the ambiguity band, so no path may contribute to the verdict
    rep = classify(quad_map(), order=1)
    root = pt(-2 * 10**19 + 3, 10**19)
    cert = certify_ramification(quad_map(), root, depth=1, report=rep)
    assert cert.verdict == "undecided"
    assert cert.max_passages is None
    assert all(rec.undecided for rec in cert.paths)
    assert any("2 of 2 paths undecided" in d for d in cert.diagnostics)


def test_forced_violation_is_reported_with_the_path():
    rep = classify(quad_map(), order=1)
    tree = preimage_tree(quad_map(), pt(2, 1), depth=2)
    cert = check_bounded_ramification(tree, rep.level(1).C, 0)
    assert cert.verdict == "violation"
    assert len(cert.violations) == 1
    assert cert.violations[0].passages[0].point.is_close(pt(0, 1), 1e-9)
    assert any("bound violated" in d for d in cert.diagnostics)


def test_stratum_bounds_are_checked_separately():
    rep = classify(quad_map(), order=1)
    tree = preimage_tree(quad_map(), pt(2, 1), depth=2)
    inventory = AlgebraicSet([Component.of_point(pt(0, 1))])
    ok = check_bounded_ramification(
        tree, rep.level(1).C, 5, stratum_bounds={1: 2, 2: 1}, order2_points=inventory
    )
    assert ok.verdict == "all-within-bound"
    assert ok.order == 2
    bad = check_bounded_ramification(
        tree, rep.level(1).C, 5, stratum_bounds={1: 2, 2: 0}, order2_points=inventory
    )
    assert bad.verdict == "violation"
    assert bad.violations[0].passages[0].stratum == 2


#: the first two roots of the benchmark's seeded pool, per dimension
POOL_ROOTS = {1: [(7, 5), (4, 5)], 2: [(1, 9, 1), (2, 8, 3)]}
#: roots on critical cycle curves, not-applicable before any fiber is solved
EXCLUDED_ROOTS = {"power": (0, 1, 2), "g3": (1, 0, 1), "g4": (0, 1, 1)}


@pytest.mark.parametrize("fixture", ["f", "power", "quadratic", "lattes4", "g3", "g4"])
def test_certificate_bound_is_the_classification_bound(fixture):
    f = load_map(fixture)[0]
    reports = [classify(f, order=min(f.k, 2))]
    if f.k == 2:
        reports.append(classify(f, order=1))  # no order-2 data: the order-1 plan
    for report in reports:
        for root in POOL_ROOTS[f.k]:
            cert = certify_ramification(f, pt(*root), depth=1, report=report)
            bound = ramification_bound(report, cert.order)
            assert cert.bound == bound == sum(cert.stratum_bounds.values())
    if fixture in EXCLUDED_ROOTS:
        cert = certify_ramification(f, pt(*EXCLUDED_ROOTS[fixture]), depth=2, report=reports[0])
        assert cert.verdict == "not-applicable" and not cert.paths
        bound = ramification_bound(reports[0], cert.order)
        assert cert.bound == bound == sum(cert.stratum_bounds.values())


def test_certify_needs_a_closed_order_one_orbit():
    f = f_map()
    rep = classify(f, cfg=Config(budget_curve_nodes=2))
    with pytest.raises(BudgetError):
        certify_ramification(f, pt(2, 3, 5), depth=1, report=rep)


def test_certificate_serializes_to_json():
    cert = certify_ramification(f_map(), pt(2, 3, 5), depth=2)
    data = json.loads(json.dumps(cert.as_dict()))
    assert data["verdict"] == "all-within-bound"
    assert data["bound"] == 2
    assert data["order"] == 2
    assert data["stratum_bounds"] == {"1": 1, "2": 1}
    assert len(data["paths"]) == 16
    assert data["root"] == {"coords": ["2", "3", "5"], "exact": True}


def test_preimage_tree_checks_each_fiber_sums_to_the_degree(monkeypatch):
    import critfin.ramification as ramification

    real = ramification._fiber
    monkeypatch.setattr(ramification, "_fiber", lambda f, q, cfg: real(f, q, cfg)[1:])
    with pytest.raises(SolverError, match="multiplicity 3, not 4"):
        preimage_tree(f_map(), pt(2, 3, 5), depth=1)


def test_fiber_check_survives_optimized_python(run_cli_process):
    # ``python -O`` strips assert statements; the check must still exit 4
    done = run_cli_process(
        ["certify-ramification", "f", "--point", "2,3,5", "--depth", "1"],
        setup="import critfin.ramification as r\nr._fiber = lambda f, q, cfg: []",
        flags=("-O",),
    )
    stderr = done.stderr.decode()
    assert done.returncode == 4, stderr
    assert "solver shortfall: the fiber over [2 : 3 : 5]" in stderr


def test_audit_tests_each_tree_node_once(monkeypatch):
    import critfin.ramification as ramification

    calls = []
    real = ramification.contains

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ramification, "contains", counting)
    cert = certify_ramification(f_map(), pt(2, 3, 5), depth=3)
    # 64 paths share 84 non-root nodes (4 + 16 + 64); the root is tested
    # twice, against the excluded locus and the stabilized order-2 locus
    assert len(cert.paths) == 64
    assert len(calls) == 84 + 2


@pytest.mark.parametrize(
    "fixture, root, depth, nodes, f_calls",
    [("f", (2, 3, 5), 3, 84, 128), ("lattes4", (1, 3), 4, 340, 768)],
)
def test_audit_starts_each_residual_from_the_fiber_image(monkeypatch, fixture, root, depth, nodes, f_calls):
    import critfin.ramification as ramification
    from critfin.dynamics import Endomorphism

    f = load_map(fixture)[0]
    report = classify(f, order=min(f.k, 2))
    C1 = report.level(1).C
    order2 = report.level(2).C if f.k == 2 else None
    tree = preimage_tree(f, pt(*root), depth)
    counts = {"f": 0, "C1": 0}
    real_call, real_contains = Endomorphism.__call__, ramification.contains

    def call(self, x):
        counts["f"] += 1
        return real_call(self, x)

    def contains(s, p, cfg=None):
        counts["C1"] += s is C1
        return real_contains(s, p, cfg=cfg)

    monkeypatch.setattr(Endomorphism, "__call__", call)
    monkeypatch.setattr(ramification, "contains", contains)
    cert = check_bounded_ramification(tree, C1, 2, order2_points=order2)
    leaves = tree.level(depth)
    assert len(cert.paths) == len(leaves)
    # the fiber check already applied f once to every leaf
    assert counts["f"] == f_calls == len(leaves) * (depth - 1)
    # every non-root node is tested against the critical set exactly once
    assert counts["C1"] == nodes == sum(len(tree.level(j)) for j in range(1, depth + 1))


#: diagnostics and per-path undecided flags of two certificates whose band
#: nodes lie on several paths, recorded when the audit still walked each path
#: on its own: a band node's note comes once per path through it, in path
#: order, and a violation line follows its own path's notes
_AMBIGUOUS = "is ambiguous at the working tolerance"
_FORCED_BAND = {
    "quadratic": (
        [
            f"critical membership of [2 : 1] (depth 2) {_AMBIGUOUS}",
            f"critical membership of [2 : 1] (depth 2) {_AMBIGUOUS}",
            "bound violated along the backward orbit ending at [0 : 1]: 1 passages at "
            "[0 : 1] (depth 3)",
            f"critical membership of [2 : -1] (depth 1) {_AMBIGUOUS}",
            f"critical membership of [2 : -1] (depth 1) {_AMBIGUOUS}",
            "4 of 5 paths undecided at the working tolerance and excluded from the verdict",
        ],
        [True, True, False, True, True],
        "violation",
    ),
    "f": (
        [
            f"critical membership of [1+0j : 0.714712+0j : 0.92269+0j]~ (depth 1) {_AMBIGUOUS}",
            f"order-2 membership of [1+0j : -0.628027+0j : -0.713576+0j]~ (depth 2) {_AMBIGUOUS}",
            f"critical membership of [1+0j : 0.714712+0j : 0.92269+0j]~ (depth 1) {_AMBIGUOUS}",
            f"critical membership of [1+0j : 0.714712+0j : 0.92269+0j]~ (depth 1) {_AMBIGUOUS}",
            f"critical membership of [1+0j : 0.714712+0j : 0.92269+0j]~ (depth 1) {_AMBIGUOUS}",
            "4 of 16 paths undecided at the working tolerance and excluded from the verdict",
        ],
        [False] * 4 + [True] * 4 + [False] * 8,
        "all-within-bound",
    ),
}


@pytest.mark.parametrize("fixture", ["quadratic", "f"])
def test_band_nodes_on_shared_paths_keep_their_diagnostics_order(monkeypatch, fixture):
    import critfin.ramification as ramification

    f = load_map(fixture)[0]
    report = classify(f, order=min(f.k, 2))
    C1 = report.level(1).C
    if f.k == 1:
        # [2 : 1] at depth 2 and [2 : -1] at depth 1 fall in the band; the
        # decided path through the critical point breaks the bound 0
        tree = preimage_tree(f, pt(2, 1), 3)
        first, second = tree.root.children[0].children[0], tree.root.children[1]
        kwargs = {"bound": 0}
    else:
        # a depth-1 node falls in the critical band, and its first child is
        # critical but falls in the order-2 band
        tree = preimage_tree(f, pt(2, 3, 5), 2)
        second = tree.root.children[1]
        first = second.children[0]
        kwargs = {"bound": 2, "stratum_bounds": {1: 1, 2: 1}, "order2_points": report.level(2).C}
    real = ramification.contains

    def contains(s, p, cfg=None):
        if p is first.point and f.k == 2:
            return Membership.IN if s is C1 else Membership.UNDECIDED
        if p is first.point or p is second.point:
            return Membership.UNDECIDED
        return real(s, p, cfg=cfg)

    monkeypatch.setattr(ramification, "contains", contains)
    cert = check_bounded_ramification(tree, C1, **kwargs)
    diagnostics, undecided, verdict = _FORCED_BAND[fixture]
    assert cert.diagnostics == diagnostics
    assert [rec.undecided for rec in cert.paths] == undecided
    assert cert.verdict == verdict

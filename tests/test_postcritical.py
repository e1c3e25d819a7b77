"""Orbit graphs, omega-limit decompositions, and finiteness verdicts."""

import json

import pytest

from critfin.algebra import poly_parse
from critfin.config import Config
from critfin.dynamics import critical_set, endo_new
from critfin.errors import BudgetError, InputError, SolverError
from critfin.geometry import AlgebraicSet, Component, ProjPoint
from critfin.postcritical import (
    OrbitGraph,
    _verify_inexact_cycles,
    build_orbit_graph,
    classify,
    omega_limit,
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


def lattes_map():
    return endo_new([P2("z^4 + 2*z^2*w^2 + w^4"), P2("4*z^3*w - 4*z*w^3")])


def curve_strs(s: AlgebraicSet) -> set[str]:
    return {str(c.poly) for c in s.curves()}


def point_set(s: AlgebraicSet) -> set[ProjPoint]:
    return {c.point for c in s.points()}


def pt(*coords):
    return ProjPoint.exact_point(list(coords))


# ---------------------------------------------------------------------------
# orbit graphs
# ---------------------------------------------------------------------------


def test_power_map_graph_is_three_fixed_loops():
    f = power_map()
    g = build_orbit_graph(f, critical_set(f))
    assert len(g) == 3
    for node in g.nodes:
        assert g.nodes[node.image] is node


def test_fixture_graph_edges():
    f = f_map()
    g = build_orbit_graph(f, critical_set(f))
    assert len(g) == 4
    edges = {
        str(node.component.poly): str(g.component(node.image).poly) for node in g.nodes
    }
    assert edges == {"z": "z^2 - w*t", "z^2 - w*t": "z", "w": "w", "t": "t"}


def test_g3_graph_contains_two_cycle():
    f = g_map(3)
    g = build_orbit_graph(f, critical_set(f))
    cycles = {
        tuple(sorted(str(g.component(i).poly) for i in cycle)) for cycle in g.cycles()
    }
    assert ("z", "z^3 - w^2*t") in cycles


def test_quadratic_point_graph():
    f = quad_map()
    g = build_orbit_graph(f, critical_set(f))
    # 0 -> -2 -> 2 -> 2 and infinity -> infinity
    comps = {c.component.point for c in g.nodes}
    assert comps == {pt(0, 1), pt(-2, 1), pt(2, 1), pt(1, 0)}
    assert all(node.component.point.exact for node in g.nodes)


def test_lattes_graph_snaps_postcritical_orbit_to_exact():
    f = lattes_map()
    g = build_orbit_graph(f, critical_set(f))
    assert len(g) == 10  # six floating critical points, four exact orbit points
    for node in g.nodes:
        if node.depth >= 1:
            assert node.component.point.exact
    exact_pts = {node.component.point for node in g.nodes if node.component.point.exact}
    assert exact_pts == {pt(0, 1), pt(1, 1), pt(-1, 1), pt(1, 0)}


def test_graph_budget_error_lists_frontier():
    f = f_map()
    with pytest.raises(BudgetError) as err:
        build_orbit_graph(f, critical_set(f), Config(budget_curve_nodes=3))
    assert "z^2 - w*t" in str(err.value)


def test_point_orbit_cap_stops_escaping_orbits():
    # z -> z^2 + 1 escapes; the orbit never closes, the budget must trip
    f = endo_new([P2("z^2 + w^2"), P2("w^2")])
    with pytest.raises(BudgetError):
        build_orbit_graph(f, critical_set(f), Config(budget_point_nodes=8))


def test_exact_coordinate_blowup_trips_budget():
    # with a generous node budget the escaping exact orbit must still stop
    # before its integer coordinates become astronomically tall
    f = endo_new([P2("z^2 + w^2"), P2("w^2")])
    with pytest.raises(BudgetError) as err:
        build_orbit_graph(f, critical_set(f), Config(budget_point_nodes=512))
    assert "height" in str(err.value)


def test_mixed_seed_kinds_rejected():
    seeds = AlgebraicSet(
        [Component.curve(P3("z")), Component.of_point(pt(0, 0, 1))]
    )
    with pytest.raises(InputError):
        build_orbit_graph(f_map(), seeds)


def test_empty_seeds_rejected():
    with pytest.raises(InputError):
        build_orbit_graph(f_map(), AlgebraicSet())


def test_graph_determinism():
    f = f_map()
    a = build_orbit_graph(f, critical_set(f))
    b = build_orbit_graph(f, critical_set(f))
    assert repr(a) == repr(b)
    assert a.cycles() == b.cycles()


def test_node_degrees_bounded_by_pushforward_law():
    for f in (f_map(), g_map(4)):
        g = build_orbit_graph(f, critical_set(f))
        max_seed = max(g.component(i).degree for i in g.seed_indices)
        for node in g.nodes:
            assert node.component.degree <= f.degree * max_seed


# ---------------------------------------------------------------------------
# omega-limit decomposition
# ---------------------------------------------------------------------------


def test_fixture_omega_decomposition():
    f = f_map()
    g = build_orbit_graph(f, critical_set(f))
    om = omega_limit(g)
    assert om.l == 1
    assert curve_strs(om.E) == {"z", "w", "t", "z^2 - w*t"}
    assert curve_strs(om.F) == {"z", "w", "t", "z^2 - w*t"}
    assert om.E_prime.is_empty
    assert om.certified()


def test_power_omega_is_fully_critical():
    f = power_map()
    om = omega_limit(build_orbit_graph(f, critical_set(f)))
    assert om.l == 1
    assert curve_strs(om.E) == curve_strs(om.F) == {"z", "w", "t"}


def test_quadratic_omega_oracle():
    f = quad_map()
    om = omega_limit(build_orbit_graph(f, critical_set(f)))
    assert om.l == 2
    assert point_set(om.E) == {pt(2, 1), pt(1, 0)}
    assert point_set(om.F) == {pt(1, 0)}
    assert point_set(om.E_prime) == {pt(2, 1)}


def test_lattes_omega_oracle():
    f = lattes_map()
    om = omega_limit(build_orbit_graph(f, critical_set(f)))
    assert om.l == 2
    assert point_set(om.E) == {pt(1, 0)}
    assert om.F.is_empty


def test_omega_rejects_open_graph():
    g = OrbitGraph([Component.of_point(pt(1, 0))], cluster_tol=1e-8)
    g.critical_reference = AlgebraicSet()
    with pytest.raises(InputError):
        omega_limit(g)


def test_omega_requires_critical_reference():
    g = OrbitGraph([Component.of_point(pt(1, 0))], cluster_tol=1e-8)
    g.nodes[0].image = 0
    with pytest.raises(InputError):
        omega_limit(g)


def test_forward_invariance_of_E_and_F():
    for f in (f_map(), power_map(), g_map(3), quad_map(), lattes_map()):
        g = build_orbit_graph(f, critical_set(f))
        om = omega_limit(g)
        index = {id(g.nodes[i].component): i for i in range(len(g))}
        for part in (om.E, om.F):
            idx = {index[id(c)] for c in part}
            assert g.image_set(idx) == idx  # the edge map permutes the part


def test_descending_chain_and_minimal_l():
    for f in (f_map(), quad_map(), lattes_map()):
        g = build_orbit_graph(f, critical_set(f))
        om = omega_limit(g)
        S = g.reachable_union()
        chain = [S]
        for _ in range(om.l + 2):
            chain.append(g.image_set(chain[-1]))
        for older, newer in zip(chain, chain[1:]):
            assert newer <= older
        assert chain[om.l - 1] == chain[om.l]
        if om.l >= 2:
            assert chain[om.l - 2] != chain[om.l - 1]


def test_unverified_float_cycle_is_flagged():
    # hand-built graph whose "cycle" is not actually periodic for the map
    f = power_map_p1()
    a = Component.of_point(ProjPoint.inexact([0.7, 1.0]))
    b = Component.of_point(ProjPoint.inexact([0.3, 1.0]))
    g = OrbitGraph([a, b], cluster_tol=1e-8)
    g.nodes[0].image = 1
    g.nodes[1].image = 0
    g.critical_reference = AlgebraicSet()
    _verify_inexact_cycles(f, g, Config())
    assert g.unverified_cycles == [(0, 1)]
    om = omega_limit(g)
    assert not om.certified()
    assert any("re-verification" in d for d in om.diagnostics)


def power_map_p1():
    return endo_new([P2("z^2"), P2("w^2")])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_fixture_full_report():
    rep = classify(f_map(), order=2)
    l1, l2 = rep.levels[1], rep.levels[2]
    assert l1.finite_order is True and l1.verdict is False
    assert l2.finite_order is True and l2.verdict is False
    assert point_set(l2.C) == {pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}
    assert point_set(l2.omega.F) == point_set(l2.C)
    assert (l1.omega.l, l2.omega.l) == (1, 1)
    assert rep.stabilization_sum() == 2


def test_classify_power_map():
    rep = classify(power_map(), order=2)
    assert rep.levels[1].verdict is False
    assert rep.levels[2].verdict is False
    assert not rep.levels[2].omega.F.is_empty
    assert rep.stabilization_sum() == 2


def test_classify_g_family():
    for d in (3, 4):
        rep = classify(g_map(d), order=2)
        assert rep.levels[1].verdict is False
        assert curve_strs(rep.levels[1].omega.E) == {"z", "w", "t", f"z^{d} - w^{d - 1}*t"}


def test_classify_quadratic_line_map():
    rep = classify(quad_map(), order=2)
    l1, l2 = rep.levels[1], rep.levels[2]
    assert l1.verdict is False
    assert point_set(l1.omega.F) == {pt(1, 0)}
    assert l2.verdict is True and l2.C.is_empty
    assert any("vacuous" in d for d in l2.diagnostics)
    assert rep.stabilization_sum() == 2  # the vacuous layer adds nothing


def test_classify_lattes_is_order_one_critically_finite():
    rep = classify(lattes_map(), order=2)
    assert rep.levels[1].verdict is True
    assert rep.levels[1].omega.F.is_empty
    assert point_set(rep.levels[1].omega.E) == {pt(1, 0)}


def test_classify_order_one_only():
    rep = classify(f_map(), order=1)
    assert set(rep.levels) == {1}


def test_classify_rejects_bad_order():
    with pytest.raises(InputError):
        classify(f_map(), order=3)


def test_classify_budget_exhaustion_gives_no_verdict():
    rep = classify(f_map(), order=2, cfg=Config(budget_curve_nodes=3))
    l1 = rep.levels[1]
    assert l1.finite_order is None and l1.verdict is None
    assert any("within budget" in d for d in l1.diagnostics)
    assert 2 not in rep.levels  # order-2 withheld
    assert any("withheld" in d for d in l1.diagnostics)
    assert rep.stabilization_sum() is None


def test_report_serializes_to_json():
    rep = classify(f_map(), order=2)
    blob = json.dumps(rep.as_dict())
    data = json.loads(blob)
    assert data["levels"]["1"]["verdict"] is False
    assert data["levels"]["2"]["l"] == 1
    assert data["stabilization_sum"] == 2
    assert {c["poly"] for c in data["levels"]["1"]["E"]} == {"z", "w", "t", "z^2 - w*t"}


def test_omega_limit_checks_the_cycle_identity(monkeypatch):
    f = f_map()
    g = build_orbit_graph(f, critical_set(f))
    cycles = g.cycles()
    assert cycles
    monkeypatch.setattr(g, "cycles", lambda: cycles[1:])  # one cycle lost
    with pytest.raises(SolverError, match="union of the graph's cycles"):
        omega_limit(g)


@pytest.mark.parametrize(
    "name, walks",
    [("f", 2), ("power", 2), ("g3", 2), ("g4", 2), ("quad", 1), ("lattes", 1)],
)
def test_classify_walks_each_orbit_graph_once(monkeypatch, name, walks):
    # one graph per level, and the cycle verification and omega_limit share
    # that graph's one walk
    f = {
        "f": f_map,
        "power": power_map,
        "g3": lambda: g_map(3),
        "g4": lambda: g_map(4),
        "quad": quad_map,
        "lattes": lattes_map,
    }[name]()
    calls = []
    walk = OrbitGraph._walk_cycles

    def spy(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(OrbitGraph, "_walk_cycles", spy)
    report = classify(f)
    graphs = [lvl.graph for lvl in report.levels.values() if lvl.graph is not None]
    assert len(calls) == walks == len(graphs)
    assert [id(g) for g in calls] == [id(g) for g in graphs]


def test_cycle_list_follows_the_edges():
    g = OrbitGraph([Component.of_point(pt(1, 0)), Component.of_point(pt(0, 1))], 1e-8)
    g.nodes[0].image, g.nodes[1].image = 0, 1
    assert g.cycles() == [(0,), (1,)]
    g.nodes[0].image, g.nodes[1].image = 1, 0
    assert g.cycles() == [(0, 1)]

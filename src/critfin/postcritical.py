"""Post-critical orbit graphs and the omega-limit decomposition.

The forward orbit of a seed set (critical curves at order 1, intersection
points at order 2) is tracked as a finite functional graph: one node per
irreducible component, one outgoing edge per node (its forward image).  When
the graph closes, the descending chain of image sets stabilizes after l - 1
steps at the cyclic part E, which splits into F — components on cycles that
meet the critical set — and the rest E'.  The map is n-critically finite
exactly when F_n is empty, and that verdict is always computed twice: once
through cycle analysis and once by directly testing components of E against
the critical set.  The two must agree.

Graphs that hit a node or depth budget raise; classification converts the
failure into a "not critically finite within budget" diagnostic rather than
a verdict, because a truncated orbit proves nothing either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import Config, resolve
from .dynamics import Endomorphism, critical_set
from .errors import BudgetError, InputError, SolverError
from .geometry import (
    AlgebraicSet,
    Component,
    Membership,
    ProjPoint,
    contains,
    curve_image,
    curve_intersect,
    same_component,
)

__all__ = [
    "GraphNode",
    "OrbitGraph",
    "OmegaData",
    "LevelReport",
    "ClassificationReport",
    "build_orbit_graph",
    "omega_limit",
    "classify",
]


@dataclass
class GraphNode:
    component: Component
    depth: int
    image: int | None = None


class OrbitGraph:
    """Forward-orbit graph of a seed set under one endomorphism.

    Nodes are components; ``nodes[i].image`` is the index of the forward
    image.  A graph produced by :func:`build_orbit_graph` is always closed
    (every node has an image); ``unverified_cycles`` lists cycles containing
    inexact points whose periodicity re-verification failed.
    """

    def __init__(self, seeds: list[Component], cluster_tol: float):
        self.nodes: list[GraphNode] = []
        self.seed_indices: list[int] = []
        self.cluster_tol = cluster_tol
        self.critical_reference: AlgebraicSet | None = None
        self.unverified_cycles: list[tuple[int, ...]] = []
        self._exact_index: dict[Component, int] = {}
        # the images last walked, and the cycles found on them
        self._cycles: tuple[tuple, list[tuple[int, ...]]] = ((), [])
        for s in seeds:
            self.seed_indices.append(self.find_or_add(s, depth=0))

    def find_or_add(self, comp: Component, depth: int) -> int:
        if comp.is_exact:
            i = self._exact_index.get(comp)
            if i is not None:
                return i
        else:
            for i, node in enumerate(self.nodes):
                if same_component(node.component, comp, self.cluster_tol):
                    return i
        self.nodes.append(GraphNode(component=comp, depth=depth))
        i = len(self.nodes) - 1
        if comp.is_exact:
            self._exact_index[comp] = i
        return i

    def __len__(self) -> int:
        return len(self.nodes)

    def component(self, i: int) -> Component:
        return self.nodes[i].component

    def is_closed(self) -> bool:
        return all(node.image is not None for node in self.nodes)

    def image_set(self, indices: set[int]) -> set[int]:
        return {self.nodes[i].image for i in indices}

    def reachable_union(self) -> set[int]:
        """All nodes hit by some forward image of a seed (depth >= 1 orbit)."""
        frontier = {self.nodes[s].image for s in self.seed_indices}
        seen: set[int] = set()
        while frontier - seen:
            seen |= frontier
            frontier = self.image_set(frontier)
        return seen

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition of the functional graph, deterministic order.

        The list is kept with the edges it was walked on, so the cycle
        verification and ``omega_limit`` share one walk of a closed graph.
        """
        images = tuple(node.image for node in self.nodes)
        if self._cycles[0] != images:
            self._cycles = (images, self._walk_cycles())
        return list(self._cycles[1])

    def _walk_cycles(self) -> list[tuple[int, ...]]:
        state = [0] * len(self.nodes)  # 0 unseen, 1 on current walk, 2 done
        found: list[tuple[int, ...]] = []
        for start in range(len(self.nodes)):
            if state[start] != 0:
                continue
            path: list[int] = []
            i = start
            while state[i] == 0:
                state[i] = 1
                path.append(i)
                i = self.nodes[i].image
            if state[i] == 1:  # closed a new cycle inside this walk
                cut = path.index(i)
                cycle = path[cut:]
                pivot = cycle.index(min(cycle))
                found.append(tuple(cycle[pivot:] + cycle[:pivot]))
            for j in path:
                state[j] = 2
        return sorted(found)

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{node.component} -> {self.nodes[node.image].component}"
            for node in self.nodes
            if node.image is not None
        )
        return f"OrbitGraph({edges})"


def build_orbit_graph(
    f: Endomorphism,
    seeds: AlgebraicSet,
    cfg: Config | None = None,
    critical_reference: AlgebraicSet | None = None,
) -> OrbitGraph:
    """Saturate the forward orbit of the seed components under f.

    Curve components are pushed forward exactly; point components are
    evaluated (exactly for rational points) and snapped back to rational
    coordinates whenever the reconstruction verifies.  Raises BudgetError,
    listing the open frontier, if the node or depth budget is hit before the
    graph closes; cycles through inexact points are re-verified by extra
    iterations and reported on the graph when verification fails.
    """
    cfg = resolve(cfg)
    seed_list = list(seeds)
    if not seed_list:
        raise InputError("orbit graph needs at least one seed component")
    kinds = {c.kind for c in seed_list}
    if len(kinds) != 1:
        raise InputError("orbit seeds must be all curves or all points")
    kind = kinds.pop()
    if kind == "curve" and f.k != 2:
        raise InputError("curve orbits only exist on the plane")
    budget = cfg.budget_curve_nodes if kind == "curve" else cfg.budget_point_nodes
    graph = OrbitGraph(seed_list, cluster_tol=cfg.cluster_tol)
    graph.critical_reference = critical_reference if critical_reference is not None else seeds
    queue = list(graph.seed_indices)
    while queue:
        i = queue.pop(0)
        node = graph.nodes[i]
        if node.image is not None:
            continue
        if node.depth > cfg.point_orbit_cap:
            raise BudgetError(
                f"orbit of {node.component} still open after "
                f"{cfg.point_orbit_cap} iterations"
            )
        image_comp = _forward_image(f, node.component, cfg)
        j = graph.find_or_add(image_comp, depth=node.depth + 1)
        if len(graph) > budget:
            frontier = [str(graph.component(q)) for q in queue if graph.nodes[q].image is None]
            frontier.append(str(image_comp))
            raise BudgetError(
                f"orbit graph exceeded {budget} {kind} nodes; open frontier: "
                + "; ".join(sorted(set(frontier)))
            )
        node.image = j
        if graph.nodes[j].image is None:
            queue.append(j)
    _verify_inexact_cycles(f, graph, cfg)
    return graph


def _forward_image(f: Endomorphism, comp: Component, cfg: Config) -> Component:
    if comp.kind == "curve":
        return curve_image(f, comp, cfg)
    image = f(comp.point)
    image = image.snap_to_rational(cfg) or image
    if image.exact and max(abs(c) for c in image.coords) > cfg.max_point_height:
        raise BudgetError(
            f"orbit point coordinates exceeded the height bound "
            f"{cfg.max_point_height:.0e} (escaping exact orbit)"
        )
    return Component.of_point(image)


def _verify_inexact_cycles(f: Endomorphism, graph: OrbitGraph, cfg: Config) -> None:
    for cycle in graph.cycles():
        members = [graph.component(i) for i in cycle]
        if members[0].kind != "point" or all(c.point.exact for c in members):
            continue  # exact cycles are proven by construction
        pts = [c.point for c in members]
        current = pts[0]
        ok = True
        for _ in range(cfg.cycle_verify_iters):
            current = f(current)
            if min(current.chordal(q) for q in pts) > cfg.cycle_verify_tol:
                ok = False
                break
        if not ok:
            graph.unverified_cycles.append(cycle)


@dataclass
class OmegaData:
    """Stabilized forward orbit: E = E' ∪ F and the stabilization index l."""

    E: AlgebraicSet
    l: int
    E_prime: AlgebraicSet
    F: AlgebraicSet
    #: human-readable reasons the decomposition is not fully certified
    diagnostics: list[str] = field(default_factory=list)

    def certified(self) -> bool:
        return not self.diagnostics


def omega_limit(graph: OrbitGraph, cfg: Config | None = None) -> OmegaData:
    """Stabilization index and cyclic decomposition of a closed orbit graph.

    l is the least index with f^{l-1}(D) = f^l(D), computed on node-identity
    sets, so exact and clustered-inexact components are treated uniformly; E
    is the stabilized set, and F collects the components on cycles at least
    one of whose members lies in the graph's critical reference set.
    Membership that falls in the tolerance ambiguity band — or a cycle whose
    floating re-verification failed — poisons the decomposition with a
    diagnostic instead of guessing.
    """
    cfg = resolve(cfg)
    if not graph.is_closed():
        raise InputError("omega_limit needs a closed orbit graph")
    if graph.critical_reference is None:
        raise InputError("orbit graph carries no critical reference set")
    D = graph.reachable_union()
    current = D
    l = 1
    while True:
        nxt = graph.image_set(current)
        if nxt == current:
            break
        current = nxt
        l += 1
    E_indices = current
    cycles = graph.cycles()
    # structural identity of functional graphs: the stabilized image set is
    # exactly the union of cycles (every cycle is hit by the orbit of D)
    if E_indices != {i for cycle in cycles for i in cycle}:
        raise SolverError("the stabilized image set is not the union of the graph's cycles")
    diagnostics: list[str] = []
    F_indices: set[int] = set()
    for cycle in cycles:
        verdicts = [
            _critical_membership(graph.component(i), graph.critical_reference, cfg)
            for i in cycle
        ]
        if any(v == Membership.IN for v in verdicts):
            F_indices |= set(cycle)
        elif any(v == Membership.UNDECIDED for v in verdicts):
            diagnostics.append(
                "criticality of the cycle through "
                f"{graph.component(cycle[0])} is inside the tolerance band"
            )
        if cycle in graph.unverified_cycles:
            diagnostics.append(
                f"floating cycle through {graph.component(cycle[0])} failed "
                f"re-verification over {cfg.cycle_verify_iters} iterations"
            )
    tol = graph.cluster_tol
    E = AlgebraicSet([graph.component(i) for i in sorted(E_indices)], cluster_tol=tol)
    F = AlgebraicSet([graph.component(i) for i in sorted(F_indices)], cluster_tol=tol)
    E_prime = AlgebraicSet(
        [graph.component(i) for i in sorted(E_indices - F_indices)], cluster_tol=tol
    )
    return OmegaData(E=E, l=l, E_prime=E_prime, F=F, diagnostics=diagnostics)


def _critical_membership(
    comp: Component, reference: AlgebraicSet, cfg: Config
) -> Membership:
    """Is a component contained in the reference set (componentwise)?"""
    if comp.kind == "curve":
        return Membership.IN if comp in reference.curves() else Membership.OUT
    return contains(reference, comp.point, cfg=cfg)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class LevelReport:
    """Everything the analysis established at one criticality order."""

    order: int
    C: AlgebraicSet
    graph: OrbitGraph | None = None
    omega: OmegaData | None = None
    #: True when the orbit closed within budget; None when the budget was hit
    finite_order: bool | None = None
    #: the n-critically-finite verdict: True / False / None (undecided)
    verdict: bool | None = None
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class ClassificationReport:
    """Critical-finiteness verdicts for orders 1 and (on the plane) 2."""

    map_repr: str
    dimension: int
    degree: int
    levels: dict[int, LevelReport] = field(default_factory=dict)

    def level(self, n: int) -> LevelReport | None:
        return self.levels.get(n)

    def stabilization_sum(self) -> int | None:
        """Σ l_m over all computed orders — the ramification path bound.

        Levels with an empty seed inventory contribute nothing: no critical
        passage of that order can occur, so its stabilization index does not
        lengthen any backward path.  None when some level has no omega data.
        """
        total = 0
        for lvl in self.levels.values():
            if lvl.omega is None:
                return None
            if not lvl.C.is_empty:
                total += lvl.omega.l
        return total

    def as_dict(self) -> dict:
        return {
            "map": self.map_repr,
            "dimension": self.dimension,
            "degree": self.degree,
            "levels": {str(n): _level_dict(lvl) for n, lvl in self.levels.items()},
            "stabilization_sum": self.stabilization_sum(),
        }


def _component_dict(c: Component) -> dict:
    if c.kind == "curve":
        return {"kind": "curve", "poly": str(c.poly), "degree": c.degree}
    return {"kind": "point", **c.point.as_dict()}


def _set_dict(s: AlgebraicSet | None) -> list | None:
    if s is None:
        return None
    return [_component_dict(c) for c in s]


def _level_dict(lvl: LevelReport) -> dict:
    omega = lvl.omega
    return {
        "order": lvl.order,
        "C": _set_dict(lvl.C),
        "finite_order": lvl.finite_order,
        "verdict": lvl.verdict,
        "l": None if omega is None else omega.l,
        "E": None if omega is None else _set_dict(omega.E),
        "E_prime": None if omega is None else _set_dict(omega.E_prime),
        "F": None if omega is None else _set_dict(omega.F),
        "diagnostics": lvl.diagnostics + ([] if omega is None else omega.diagnostics),
    }


def classify(f: Endomorphism, order: int = 2, cfg: Config | None = None) -> ClassificationReport:
    """Critical-finiteness analysis up to the requested order.

    Order 1 always runs (seeds = the critical set).  The order-2 layer runs
    only when the order-1 orbit closed, per the inductive definition; on the
    line it is vacuous (points have no proper pairwise intersections) and
    says so in the diagnostics.  Budget exhaustion yields verdict None with
    a "not critically finite within budget" diagnostic — absence of closure
    is never presented as a disproof.
    """
    cfg = resolve(cfg)
    if order not in (1, 2):
        raise InputError(f"criticality order must be 1 or 2, got {order}")
    report = ClassificationReport(map_repr=repr(f), dimension=f.k, degree=f.degree)
    C1 = critical_set(f, cfg)
    report.levels[1] = _analyze_level(f, 1, C1, C1, cfg)
    if order == 1:
        return report
    lvl1 = report.levels[1]
    if not lvl1.finite_order:
        lvl1.diagnostics.append("order-2 analysis withheld: order-1 orbit did not close")
        return report
    if f.k == 1:
        report.levels[2] = _empty_level(
            2,
            "order-2 layer is vacuous on the line: point components have no "
            "proper pairwise intersections",
        )
        return report
    C2 = _pairwise_intersections(C1, lvl1.omega.E, cfg)
    report.levels[2] = _analyze_level(f, 2, C2, C1, cfg)
    return report


def _analyze_level(
    f: Endomorphism, order: int, seeds: AlgebraicSet, C1: AlgebraicSet, cfg: Config
) -> LevelReport:
    if seeds.is_empty:
        return _empty_level(order, f"order-{order} seed set is empty; verdict is vacuous")
    lvl = LevelReport(order=order, C=seeds)
    try:
        lvl.graph = build_orbit_graph(f, seeds, cfg, critical_reference=C1)
    except BudgetError as exc:
        lvl.finite_order = None
        lvl.verdict = None
        lvl.diagnostics.append(f"not critically finite within budget: {exc}")
        return lvl
    lvl.finite_order = True
    lvl.omega = omega_limit(lvl.graph, cfg)
    lvl.verdict = _verdict(lvl.graph, lvl.omega, cfg)
    if lvl.verdict is None:
        lvl.diagnostics.append("verdict withheld: see omega diagnostics")
    return lvl


def _verdict(graph: OrbitGraph, omega: OmegaData, cfg: Config) -> bool | None:
    """F_n emptiness, cross-checked against direct membership of E_n in C_1."""
    if omega.diagnostics:
        return None
    via_cycles = omega.F.is_empty
    direct = [
        _critical_membership(c, graph.critical_reference, cfg) for c in omega.E
    ]
    if any(v == Membership.UNDECIDED for v in direct):
        return None
    via_membership = all(v == Membership.OUT for v in direct)
    if via_cycles != via_membership:  # pragma: no cover - structural identity
        raise SolverError(
            "cycle analysis and direct membership disagree on critical finiteness"
        )
    return via_cycles


def _empty_level(order: int, diagnostic: str) -> LevelReport:
    """A closed level with nothing to track, vacuously critically finite."""
    empty = AlgebraicSet()
    return LevelReport(
        order=order,
        C=empty,
        omega=OmegaData(E=empty, l=1, E_prime=empty, F=empty),
        finite_order=True,
        verdict=True,
        diagnostics=[diagnostic],
    )


def _pairwise_intersections(C1: AlgebraicSet, E1: AlgebraicSet, cfg: Config) -> AlgebraicSet:
    """Proper intersections of distinct critical and omega-limit curves.

    Shared components are skipped (a curve meets itself improperly), which
    keeps the seed set zero-dimensional even when C_1 and E_1 overlap.
    """
    points: list[Component] = []
    for c in C1.curves():
        for e in E1.curves():
            if c.poly == e.poly:
                continue
            points.extend(
                Component.of_point(p) for p, _mult in curve_intersect(c, e, cfg)
            )
    return AlgebraicSet(points, cluster_tol=cfg.cluster_tol)

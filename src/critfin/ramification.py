"""Backward orbit trees and the bounded-ramification certificate.

For a map whose postcritical orbits close, the visits of any backward orbit
to the critical set are uniformly bounded: a j-th preimage p of a point q
off the exceptional locus satisfies

    #{ i < j : f^i(p) critical }  <=  l_1 + ... + l_n,

where l_m is the stabilization time of the order-m postcritical orbit.  The
bound is blind to j — backward orbits may pass through the critical set only
a bounded number of times no matter how deep they run.  This module
materializes backward orbits as preimage trees (every node solved to its
full fiber, multiplicities certified) and audits the bound path by path,
stratifying passages by order when order-2 data is available.

Fibers over rational points are solved exactly; fibers over floating
points, real or complex, go through the floating elimination pipeline.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from .config import Config, resolve
from .dynamics import Endomorphism
from .errors import (
    BudgetError,
    DegenerateEliminationError,
    InputError,
    SolverError,
)
from .geometry import (
    AlgebraicSet,
    InexactForm,
    Membership,
    ProjPoint,
    binary_roots,
    binary_roots_inexact,
    contains,
    solve_form_pair,
    solve_form_pair_inexact,
)
from .postcritical import ClassificationReport, classify

# a leaf must map back to the root under f^depth within this chordal residual
_PATH_RESIDUAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def ramification_bound(report: ClassificationReport, order: int) -> int:
    """The uniform passage bound l_1 + ... + l_order from a classification.

    Every contributing level must have closed: a bound read off an
    unfinished orbit computation would be meaningless, so missing or
    budget-exhausted levels are input errors rather than guesses.  Levels
    with an empty seed inventory contribute nothing — no passage of that
    order can occur, so its stabilization time never lengthens a path.
    """
    if order not in (1, 2):
        raise InputError(f"passage bounds exist for orders 1 and 2, not {order}")
    total = 0
    for m in range(1, order + 1):
        lvl = report.levels.get(m)
        if lvl is None:
            raise InputError(f"report has no order-{m} level")
        if lvl.finite_order is not True or lvl.omega is None:
            raise InputError(
                f"order-{m} orbit did not close; no stabilization time available"
            )
        if not lvl.C.is_empty:
            total += lvl.omega.l
    return total


# ---------------------------------------------------------------------------
# preimage trees
# ---------------------------------------------------------------------------


@dataclass
class PreimageNode:
    """One backward-orbit point; multiplicity is its local fiber degree.

    ``image`` is f(point), kept from the fiber check (None at the root).
    """

    point: ProjPoint
    multiplicity: int
    depth: int
    image: ProjPoint | None = None
    children: list["PreimageNode"] = field(default_factory=list)


@dataclass
class PreimageTree:
    """The full deg^(k*depth)-sheeted backward orbit of ``root.point``."""

    f: Endomorphism
    root: PreimageNode
    depth: int

    def paths(self) -> list[list[PreimageNode]]:
        """Every root-to-leaf node path, root first."""
        out: list[list[PreimageNode]] = []

        def walk(node: PreimageNode, acc: list[PreimageNode]) -> None:
            acc = acc + [node]
            if not node.children:
                out.append(acc)
            else:
                for child in node.children:
                    walk(child, acc)

        walk(self.root, [])
        return out

    def level(self, depth: int) -> list[PreimageNode]:
        """All nodes at the given depth (0 = the root itself)."""
        nodes = [self.root]
        for _ in range(depth):
            nodes = [c for n in nodes for c in n.children]
        return nodes

    def weighted_leaf_count(self) -> int:
        """Leaves counted with multiplicity, i.e. deg^(k*depth)."""
        total = 0
        for path in self.paths():
            weight = 1
            for node in path[1:]:
                weight *= node.multiplicity
            total += weight
        return total


def preimage_tree(
    f: Endomorphism,
    q: ProjPoint,
    depth: int | None = None,
    cfg: Config | None = None,
) -> PreimageTree:
    """Materialize every backward orbit of q down to the given depth.

    Each node's fiber carries exactly deg(f)^k preimages with multiplicity
    (asserted per node); a fiber the solver cannot fully separate is a hard
    failure naming the node, never a silently thin tree.  Depth defaults to
    the configured preimage depth and is capped — fibers multiply fast, and
    the cumulative node count is also checked against the point budget up
    front so the failure arrives before any solving starts.
    """
    cfg = resolve(cfg)
    depth = _tree_depth(f, q, depth, cfg)
    per_node = f.degree**f.k
    root = PreimageNode(point=q, multiplicity=1, depth=0)
    frontier = [root]
    for level in range(1, depth + 1):
        next_frontier: list[PreimageNode] = []
        for parent in frontier:
            try:
                fiber = _fiber(f, parent.point, cfg)
            except (DegenerateEliminationError, SolverError) as exc:
                raise SolverError(
                    f"could not certify the fiber over {parent.point} "
                    f"(depth {level}): {exc}"
                ) from exc
            for child_point, mult, image in fiber:
                child = PreimageNode(child_point, mult, level, image)
                parent.children.append(child)
                next_frontier.append(child)
            total = sum(c.multiplicity for c in parent.children)
            if total != per_node:
                raise SolverError(
                    f"the fiber over {parent.point} (depth {level}) has multiplicity"
                    f" {total}, not {per_node}"
                )
        frontier = next_frontier
    return PreimageTree(f=f, root=root, depth=depth)


def _tree_depth(f: Endomorphism, q: ProjPoint, depth: int | None, cfg: Config) -> int:
    """The checked depth of q's preimage tree, before anything is solved.

    Checks the root's shape, the depth range and the cumulative node budget.
    """
    if len(q.coords) != f.k + 1:
        raise InputError(
            f"root point has {len(q.coords)} coordinates; the map lives on P^{f.k}"
        )
    if depth is None:
        depth = cfg.preimage_depth_default
    if depth < 1:
        raise InputError("preimage depth must be at least 1")
    if depth > cfg.preimage_depth_cap:
        raise InputError(
            f"preimage depth {depth} exceeds the cap {cfg.preimage_depth_cap}"
        )
    per_node = f.degree**f.k
    total = sum(per_node**j for j in range(1, depth + 1))
    if total > cfg.budget_point_nodes:
        raise BudgetError(
            f"a depth-{depth} preimage tree holds {total} nodes, over the "
            f"budget of {cfg.budget_point_nodes}"
        )
    return depth


def _fiber(
    f: Endomorphism, y: ProjPoint, cfg: Config
) -> list[tuple[ProjPoint, int, ProjPoint]]:
    """The fiber over y as (point, multiplicity, image) triples, multiplicities summing to deg^k.

    The minors y_p * f_o - y_o * f_p, for the largest coordinate p and each
    other o, vanish together exactly on the fiber.  An exact parent gives
    exact minors, whose rational solutions come back exact; a floating parent
    gives floating minors.  Every child must map onto its parent: exactly
    when both are exact, within the residual tolerance otherwise.
    """
    mags = [abs(c) for c in y.coords]
    p = mags.index(max(mags))
    others = [o for o in range(f.k + 1) if o != p]
    yp = y.coords[p]
    if y.exact:
        minors = [f.forms[o] * yp - f.forms[p] * y.coords[o] for o in others]
        fiber = binary_roots(*minors, cfg) if f.k == 1 else solve_form_pair(*minors, cfg)
    elif f.k == 1:
        (o,) = others
        d = f.degree
        coeffs = [
            complex(f.forms[o].terms.get((d - j, j), 0)) * yp
            - complex(f.forms[p].terms.get((d - j, j), 0)) * y.coords[o]
            for j in range(d + 1)
        ]
        fiber = binary_roots_inexact(coeffs, cfg)
    else:
        A, B = (InexactForm.combination(yp, f.forms[o], -y.coords[o], f.forms[p]) for o in others)
        fiber = solve_form_pair_inexact(A, B, cfg)
    checked = []
    for x, mult in fiber:
        image = f(x)
        if not image.is_close(y, cfg.residual_tol):
            raise SolverError(f"fiber point {x} misses its parent {y} by {image.chordal(y):.2e}")
        checked.append((x, mult, image))
    return checked


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


@dataclass
class PassageRecord:
    """One visit of a backward orbit to the critical set.

    ``level`` is the tree depth of the visiting node (1 = immediate
    preimage of the root); ``stratum`` is 1 for plain critical visits and 2
    for visits landing on the order-2 point inventory.
    """

    level: int
    point: ProjPoint
    stratum: int


@dataclass
class PathRecord:
    """Passage audit of one root-to-leaf backward orbit."""

    leaf: ProjPoint
    passages: list[PassageRecord]
    stratum_counts: dict[int, int]
    total: int
    undecided: bool
    forward_residual: float


@dataclass
class RamificationCertificate:
    """Outcome of checking every backward orbit against the passage bound.

    Verdicts: ``all-within-bound`` (every decided path obeys the bound),
    ``violation`` (some decided path exceeds it; see ``violations``),
    ``not-applicable`` (the root lies in the excluded locus, where the
    bound genuinely does not hold), or ``undecided`` (every membership
    query that mattered fell in the tolerance ambiguity band).
    """

    root: ProjPoint
    depth: int
    order: int
    bound: int
    stratum_bounds: dict[int, int]
    verdict: str = "all-within-bound"
    paths: list[PathRecord] = field(default_factory=list)
    violations: list[PathRecord] = field(default_factory=list)
    max_passages: int | None = None
    diagnostics: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "root": self.root.as_dict(),
            "depth": self.depth,
            "order": self.order,
            "bound": self.bound,
            "stratum_bounds": {str(m): b for m, b in sorted(self.stratum_bounds.items())},
            "verdict": self.verdict,
            "max_passages": self.max_passages,
            "paths": [_path_dict(p) for p in self.paths],
            "violations": [_path_dict(p) for p in self.violations],
            "diagnostics": list(self.diagnostics),
        }


def _path_dict(rec: PathRecord) -> dict:
    return {
        "leaf": rec.leaf.as_dict(),
        "total": rec.total,
        "stratum_counts": {str(m): c for m, c in sorted(rec.stratum_counts.items())},
        "undecided": rec.undecided,
        "forward_residual": rec.forward_residual,
        "passages": [
            {"level": p.level, "point": p.point.as_dict(), "stratum": p.stratum}
            for p in rec.passages
        ],
    }


def check_bounded_ramification(
    tree: PreimageTree,
    C1: AlgebraicSet,
    bound: int,
    stratum_bounds: dict[int, int] | None = None,
    order2_points: AlgebraicSet | None = None,
    order: int | None = None,
    cfg: Config | None = None,
) -> RamificationCertificate:
    """Audit every backward orbit in the tree against the passage bound.

    Passages are counted on tree levels 1..depth — the leaf's own position
    counts, the root's does not, matching the bound's quantifier (the root
    is the point whose preimages are being taken, not one of them).  When
    ``order2_points`` is supplied, visits landing on that inventory count
    toward stratum 2 and each stratum is checked against its own bound as
    well as the total.

    The root is not tested against any excluded locus here:
    ``certify_ramification`` settles that before the tree is built.
    Membership queries landing in the tolerance ambiguity band never guess —
    the affected path is reported undecided instead.

    Every leaf is checked to map back to the root under the appropriate
    iterate; a miss is a solver failure, not a diagnostic.
    """
    cfg = resolve(cfg)
    if order is None:
        order = 2 if order2_points is not None else 1
    bounds = dict(stratum_bounds) if stratum_bounds else {}
    cert = RamificationCertificate(
        root=tree.root.point, depth=tree.depth, order=order, bound=bound, stratum_bounds=bounds
    )
    for record in _audited_paths(tree, C1, order2_points, cert.diagnostics, cfg):
        cert.paths.append(record)
        if record.undecided:
            continue
        over_total = record.total > bound
        over_stratum = any(
            count > bounds[m] for m, count in record.stratum_counts.items() if m in bounds
        )
        if over_total or over_stratum:
            cert.violations.append(record)
            cert.diagnostics.append(
                f"bound violated along the backward orbit ending at {record.leaf}: "
                f"{record.total} passages at "
                + ", ".join(f"{p.point} (depth {p.level})" for p in record.passages)
            )
    decided = [r for r in cert.paths if not r.undecided]
    cert.max_passages = max((r.total for r in decided), default=None)
    undecided_count = len(cert.paths) - len(decided)
    if undecided_count:
        cert.diagnostics.append(
            f"{undecided_count} of {len(cert.paths)} paths undecided at the "
            "working tolerance and excluded from the verdict"
        )
    if cert.violations:
        cert.verdict = "violation"
    elif not decided:
        cert.verdict = "undecided"
    return cert


def _root_excluded(cert: RamificationCertificate, excluded: AlgebraicSet, cfg: Config) -> bool:
    """Settle the certificate when its root is in, or ambiguous for, ``excluded``."""
    membership = contains(excluded, cert.root, cfg=cfg)
    if membership is Membership.IN:
        cert.verdict = "not-applicable"
        cert.diagnostics.append(
            "root lies in the excluded locus; the passage bound does not apply"
        )
    elif membership is Membership.UNDECIDED:
        cert.verdict = "undecided"
        cert.diagnostics.append(
            "root membership in the excluded locus is ambiguous at the "
            "working tolerance"
        )
    return membership is not Membership.OUT


def _audited_paths(
    tree: PreimageTree,
    C1: AlgebraicSet,
    order2_points: AlgebraicSet | None,
    diagnostics: list[str],
    cfg: Config,
) -> Iterator[PathRecord]:
    """Each root-to-leaf path's record, in ``tree.paths()`` order.

    One depth-first walk tests each node's memberships once and carries its
    path's passages and ambiguity notes down.  A leaf appends its path's
    notes to ``diagnostics`` and checks that f^depth maps it back to the
    root, starting from the image its fiber check computed.
    """
    stratified = order2_points is not None and not order2_points.is_empty
    f, root = tree.f, tree.root.point

    def walk(node: PreimageNode, passages: list, notes: list, undecided: bool):
        if not node.children:
            diagnostics.extend(notes)
            x = node.image
            for _ in range(node.depth - 1):
                x = f(x)
            residual = x.chordal(root)
            if residual > _PATH_RESIDUAL_TOL:
                raise SolverError(
                    f"leaf {node.point} does not map back to the root under f^{node.depth} "
                    f"(residual {residual:.2e})"
                )
            counts = dict(Counter(p.stratum for p in passages))
            yield PathRecord(node.point, list(passages), counts, len(passages), undecided, residual)
            return
        for child in node.children:
            here, band = passages, None
            m1 = contains(C1, child.point, cfg=cfg)
            if m1 is Membership.UNDECIDED:
                band = "critical"
            elif m1 is Membership.IN:
                m2 = contains(order2_points, child.point, cfg=cfg) if stratified else None
                band = "order-2" if m2 is Membership.UNDECIDED else None
                stratum = 2 if m2 is Membership.IN else 1
                here = passages + [PassageRecord(child.depth, child.point, stratum)]
            if band is None:
                yield from walk(child, here, notes, undecided)
            else:
                note = (
                    f"{band} membership of {child.point} (depth {child.depth}) is "
                    "ambiguous at the working tolerance"
                )
                yield from walk(child, here, notes + [note], True)

    return walk(tree.root, [], [], False)


# ---------------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------------


def certify_ramification(
    f: Endomorphism,
    q: ProjPoint,
    depth: int | None = None,
    report: ClassificationReport | None = None,
    cfg: Config | None = None,
) -> RamificationCertificate:
    """End-to-end bounded-ramification certificate for one root point.

    Classifies the map (or reuses a supplied report) and sets one passage
    plan: by default order 1, bounds {1: l_1} and, as excluded locus, the
    whole stabilized postcritical set E_1, as the bound needs below top
    order.  At top order the root need only be off the critical cycle
    locus: F_1 on a cleanly classified line, F_1 ∪ F_2 on a plane with clean
    order-1 and order-2 data, audited at order 2 (stratum bound l_2 when C_2
    is nonempty; a root in the stabilized order-2 set but off those cycles
    is flagged as the order-2 case).  The bound is ``ramification_bound``'s,
    the sum of the stratum bounds, as C_1 is never empty.  A root in, or
    ambiguous for, the locus is not-applicable (undecided) with no paths and
    no fiber solved; otherwise every backward orbit is audited.
    """
    cfg = resolve(cfg)
    if report is None:
        report = classify(f, order=min(f.k, 2), cfg=cfg)
    lvl1 = report.level(1)
    if lvl1 is None or lvl1.finite_order is not True or lvl1.omega is None:
        raise BudgetError(
            "the order-1 postcritical orbit did not close; no passage bound "
            "is available"
        )
    clean1 = not lvl1.omega.diagnostics
    lvl2 = report.level(2)
    clean2 = (
        lvl2 is not None
        and lvl2.finite_order is True
        and lvl2.omega is not None
        and not lvl2.omega.diagnostics
    )
    # the default plan: order 1, off the whole stabilized postcritical set
    order, bounds, excluded, order2_points = 1, {1: lvl1.omega.l}, lvl1.omega.E, None
    notes: list[str] = []
    if f.k == 1 and clean1:
        excluded = lvl1.omega.F
    elif f.k == 2 and clean1 and clean2:
        # the critical cycle locus in full: cycle curves plus cycle points
        order, excluded = 2, lvl1.omega.F.union(lvl2.omega.F)
        if not lvl2.C.is_empty:
            bounds[2], order2_points = lvl2.omega.l, lvl2.C
    elif f.k == 1:
        notes.append(
            "order-1 cycle classification carried diagnostics; excluding "
            "the whole stabilized postcritical set to stay conservative"
        )
    else:
        notes.append(
            "order-2 data unavailable or uncertified; using the order-1 "
            "exclusion locus and bound"
        )
    depth = _tree_depth(f, q, depth, cfg)
    bound = ramification_bound(report, order)
    cert = RamificationCertificate(
        root=q, depth=depth, order=order, bound=bound, stratum_bounds=bounds
    )
    if not _root_excluded(cert, excluded, cfg):
        cert = check_bounded_ramification(
            preimage_tree(f, q, depth, cfg),
            lvl1.C,
            bound,
            stratum_bounds=bounds,
            order2_points=order2_points,
            order=order,
            cfg=cfg,
        )
    cert.diagnostics.extend(notes)
    if (
        order == 2
        and cert.verdict not in ("not-applicable", "undecided")
        and contains(lvl2.omega.E, q, cfg=cfg) is Membership.IN
    ):
        cert.diagnostics.append(
            "root lies in the stabilized order-2 locus but on no critical "
            "cycle; the passage bound still applies (order-2 case)"
        )
    return cert

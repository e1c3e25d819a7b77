"""Critical-finiteness certificates for polynomial endomorphisms of P^1 and P^2.

The package decides critical finiteness of orders 1 and 2, certifies
superattracting periodic points, checks backward-orbit ramification against
the stabilization-index bound, and renders empirical basin pictures.

Importing critfin freezes every object alive at that moment (``gc.freeze``).
The sympy and numpy module heap, about a hundred thousand objects, then sits
in the collector's permanent generation: no full collection during a solve
scans it again, and interpreter shutdown does not collect it, which was most
of the time a one-shot CLI call spent exiting.  The collector is off while
the submodules import and is then left as the host had it.  A long-running
host that wants those objects collectable again can call ``gc.unfreeze()``.
"""

import gc

_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    # load every submodule here; the imports below only bind names
    from . import algebra, config, dynamics, errors, fatou, geometry, postcritical, ramification
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

from .algebra import (
    Factorization,
    HomogPoly,
    Rational,
    factor,
    poly_parse,
    resultant,
    square_free,
)
from .config import Config
from .dynamics import (
    Endomorphism,
    LocalJacobian,
    PeriodicPoint,
    certify_superattracting,
    critical_set,
    differential_at,
    endo_new,
    find_periodic,
    iterate,
)
from .errors import (
    ArityError,
    BudgetError,
    CritfinError,
    DegenerateEliminationError,
    InhomogeneityError,
    InputError,
    NotAMorphismError,
    ParseError,
    SolverError,
    UnwritableOutputError,
)
from .fatou import (
    BasinImage,
    OrbitVerdict,
    SliceSpec,
    TargetSet,
    build_targets,
    escape_rate,
    render_slice,
    sample_orbit,
    sample_orbits,
    write_legend,
    write_ppm,
)
from .geometry import (
    AlgebraicSet,
    Component,
    Membership,
    ProjPoint,
    contains,
    curve_image,
    curve_intersect,
    map_point,
    set_equal,
)
from .postcritical import (
    ClassificationReport,
    LevelReport,
    OmegaData,
    OrbitGraph,
    build_orbit_graph,
    classify,
    omega_limit,
)
from .ramification import (
    PathRecord,
    PreimageTree,
    RamificationCertificate,
    certify_ramification,
    check_bounded_ramification,
    preimage_tree,
    ramification_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Config",
    "CritfinError",
    "InputError",
    "ParseError",
    "InhomogeneityError",
    "ArityError",
    "NotAMorphismError",
    "BudgetError",
    "SolverError",
    "DegenerateEliminationError",
    "UnwritableOutputError",
    "Rational",
    "HomogPoly",
    "Factorization",
    "poly_parse",
    "square_free",
    "factor",
    "resultant",
    "Endomorphism",
    "LocalJacobian",
    "PeriodicPoint",
    "endo_new",
    "iterate",
    "critical_set",
    "differential_at",
    "certify_superattracting",
    "find_periodic",
    "ProjPoint",
    "Component",
    "AlgebraicSet",
    "Membership",
    "contains",
    "set_equal",
    "map_point",
    "curve_image",
    "curve_intersect",
    "OrbitGraph",
    "OmegaData",
    "LevelReport",
    "ClassificationReport",
    "build_orbit_graph",
    "omega_limit",
    "classify",
    "PreimageTree",
    "PathRecord",
    "RamificationCertificate",
    "ramification_bound",
    "preimage_tree",
    "check_bounded_ramification",
    "certify_ramification",
    "TargetSet",
    "OrbitVerdict",
    "SliceSpec",
    "BasinImage",
    "build_targets",
    "sample_orbit",
    "sample_orbits",
    "escape_rate",
    "render_slice",
    "write_ppm",
    "write_legend",
]

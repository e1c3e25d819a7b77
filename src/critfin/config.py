"""Tolerances and budgets.

Every knob that can influence a verdict lives here so reports can echo the
complete configuration.  Defaults are the documented contract values; tests
that probe behaviour under tighter budgets construct their own instances.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any


@dataclass(frozen=True)
class Config:
    # -- numeric tolerances ------------------------------------------------
    #: residual below which an inexact point is accepted as lying on a variety
    residual_tol: float = 1e-10
    #: chordal distance below which two inexact points are identified
    cluster_tol: float = 1e-8
    #: membership ambiguity band: residual in [tol, 10*tol] is "undecided"
    ambiguity_factor: float = 10.0
    #: orbit convergence: within this distance of a cycle ...
    convergence_tol: float = 1e-8
    #: ... for this many consecutive iterations
    convergence_window: int = 10
    #: accumulation proxy: orbit-tail residual against omega-limit components
    accumulation_tol: float = 1e-3

    # -- exactness recovery ------------------------------------------------
    #: snap an inexact point to a rational one if reconstruction is this close
    snap_tol: float = 1e-12
    #: largest denominator attempted by rational reconstruction
    snap_max_denominator: int = 1000

    # -- budgets -----------------------------------------------------------
    #: distinct curve components allowed in an orbit graph
    budget_curve_nodes: int = 64
    #: distinct point components allowed in an orbit graph
    budget_point_nodes: int = 512
    #: iterations of a single point orbit before giving up on periodicity
    point_orbit_cap: int = 200
    #: largest integer coordinate allowed on an exact orbit point (escaping
    #: exact orbits double their digit count every step; this converts them
    #: into a budget failure long before the arithmetic stalls)
    max_point_height: float = 1e60
    #: extra iterations used to re-verify an inexact cycle ...
    cycle_verify_iters: int = 50
    #: ... which must all stay this close to the cycle
    cycle_verify_tol: float = 1e-6
    #: factorization refuses inputs above this total degree
    factor_degree_cap: int = 24
    #: iterate() refuses compositions above this degree
    max_iterate_degree: int = 64
    #: default orbit length for sampling verdicts
    max_orbit_iters: int = 500
    #: default / maximum backward tree depth
    preimage_depth_default: int = 3
    preimage_depth_cap: int = 4
    #: Newton polish iteration cap
    newton_max_steps: int = 60
    #: deterministic projection retries before declaring degeneracy
    max_projection_retries: int = 12

    def as_dict(self) -> dict[str, Any]:
        """Flat dict echo for reports (JSON-safe: ints and floats only)."""
        return asdict(self)

    def with_overrides(self, **kwargs: Any) -> "Config":
        return replace(self, **kwargs)


#: module-level default; functions take ``cfg: Config | None = None`` and fall
#: back to this instance.
DEFAULT = Config()


def resolve(cfg: "Config | None") -> Config:
    return DEFAULT if cfg is None else cfg

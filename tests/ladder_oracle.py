"""The exact projection ladder as it ran before its two screens.

``solve_form_pair`` now tests a center against both curves before shifting
the forms, and reads the fibers over an eliminant's repeated rational
directions before factoring the rest.  This oracle keeps the route without
either screen: shift both forms at every center, test the shifted forms for
full t-degree, factor the whole eliminant (``binary_roots``) and split every
fiber.  The screens may only save work, so both routes must give the same
points in the same order, or the same error.
"""

from critfin.config import resolve
from critfin.errors import DegenerateEliminationError
from critfin.geometry import (
    _PROJECTION_SHIFTS,
    _resultant_t,
    _shift_form,
    _split_fibers,
    binary_roots,
)


def _on_curve(p) -> bool:
    """Whether the center [0:0:1] lies on the curve p = 0 (no t^d term)."""
    return p.terms.get((0, 0, p.degree)) is None


def solve_form_pair_unscreened(A, B, cfg=None):
    """``solve_form_pair`` with every center shifted and every eliminant fully factored."""
    cfg = resolve(cfg)
    failures = []
    for a, b in _PROJECTION_SHIFTS[: cfg.max_projection_retries]:
        As, Bs = _shift_form(A, a, b), _shift_form(B, a, b)
        if _on_curve(As) or _on_curve(Bs):
            failures.append(f"center ({a},{b}) lies on or near a curve")
            continue
        R = _resultant_t(As, Bs)
        if R.is_zero():
            raise DegenerateEliminationError(
                "elimination vanished identically; the forms share a component"
            )
        if R.degree != As.degree * Bs.degree:
            failures.append(f"center ({a},{b}) dropped resultant degree")
            continue
        found = _split_fibers(As, Bs, binary_roots(R, cfg), a, b, cfg)
        if found is None:
            failures.append(f"center ({a},{b}) produced an ambiguous fiber")
            continue
        return found
    raise DegenerateEliminationError(
        "no projection center separated the intersection: " + "; ".join(failures)
    )

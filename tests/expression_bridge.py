"""sympy's expression route for forms: ``sp.Poly`` over the symbols z, w, t.

critfin itself crosses into sympy only through ``sympy.polys`` rings
(``algebra.to_ring`` / ``from_ring``).  The oracles in these tests keep this
independent route, so a mistake on the ring side cannot hide in both.
"""

import sympy as sp

from critfin.algebra import HomogPoly, to_fraction

SYMS = sp.symbols("z w t")


def to_sympy(p: HomogPoly) -> sp.Poly:
    return sp.Poly.from_dict(
        {e: sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *SYMS[: p.num_vars],
        domain=sp.QQ,
    )


def from_sympy(poly: sp.Poly, num_vars: int) -> HomogPoly:
    """The form of a Poly, its terms in ``as_dict()`` order."""
    return HomogPoly(num_vars, {tuple(e): to_fraction(c) for e, c in poly.as_dict().items()})

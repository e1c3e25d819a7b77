"""Reference routes into sympy that critfin itself no longer takes.

critfin crosses into sympy only through ``sympy.polys`` rings
(``algebra.to_ring`` / ``from_ring``), and factors a binary form through
its own rational-and-quadratic-first split.  The oracles in these tests keep
independent routes: ``sp.Poly`` over the symbols z, w, t, and one
Zassenhaus factoring (``dup_factor_list``) of p(z, 1), so a mistake on the
critfin side cannot hide in both.
"""

from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.factortools import dup_factor_list

from critfin.algebra import Factorization, HomogPoly, to_fraction

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


def assemble(p: HomogPoly, pairs) -> Factorization:
    """The Factorization of p from (base, multiplicity) pairs: normal forms, sorted."""
    bases = [(b.normalized(), int(m)) for b, m in pairs]
    bases = sorted(((b, m) for b, m in bases if b.degree), key=lambda bm: (bm[0].degree, bm[0].sort_key()))
    lc_product = Fraction(1)
    for base, mult in bases:
        lc_product *= base.leading_term()[1] ** mult
    return Factorization(unit=p.leading_term()[1] / lc_product, factors=tuple(bases))


def zassenhaus_factor(p: HomogPoly) -> Factorization:
    """A binary form's factorization by one ``dup_factor_list`` call on p(z, 1) over QQ.

    The power of w is the degree drop of p(z, 1); every other factor is
    homogenised back to its own degree.
    """
    d = p.degree
    coeffs = [p.terms.get((d - j, j), Fraction(0)) for j in range(d + 1)]
    w_mult = next(j for j, c in enumerate(coeffs) if c)
    pairs = [(HomogPoly.variable(2, 1), w_mult)] if w_mult else []
    for base, mult in dup_factor_list([QQ(c.numerator, c.denominator) for c in coeffs[w_mult:]], QQ)[1]:
        k = len(base) - 1
        pairs.append((HomogPoly(2, {(k - j, j): to_fraction(c) for j, c in enumerate(base)}), mult))
    return assemble(p, pairs)

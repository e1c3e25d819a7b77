"""The floating evaluation and fibre routes as they ran before their tables and stacks.

``HomogPoly`` now converts its coefficients to complex once and keeps them
with their L1 norm, and the floating engine stacks its small determinants
into one ``det`` call.  This oracle keeps the routes without either: every
coefficient converted and the norm summed on every call, and one ``det``
per matrix.  The tables and stacks may only save work, so both routes must
give the same bits.
"""

from fractions import Fraction

import numpy as np

from critfin.geometry import _SUBRESULTANT_GATE, ProjPoint, _fiber_coeffs, _sylvester


def evaluate(poly, point):
    """``HomogPoly.evaluate`` converting each coefficient per call."""
    acc = None
    for expo, c in poly.terms.items():
        term = c if isinstance(point[0], Fraction) else complex(c)
        for v, e in zip(point, expo):
            if e:
                term = term * v**e
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0) if (point and isinstance(point[0], Fraction)) else 0.0
    return acc


def map_point(forms, p):
    """``geometry.map_point`` on the oracle's ``evaluate``."""
    if p.exact:
        return ProjPoint.exact_point([evaluate(f, p.coords) for f in forms])
    coords = p.to_complex()
    return ProjPoint.inexact([complex(evaluate(f, coords)) for f in forms])


def curve_residual(poly, point):
    """``geometry.curve_residual`` recomputing the norm per call."""
    coords = point.to_complex()
    top = max(abs(c) for c in coords)
    hat = [c / top for c in coords]
    norm = float(sum(abs(c) for c in poly.terms.values()))
    return abs(complex(evaluate(poly, hat))) / norm


def float_fiber_root(pa, pb):
    """One floating fibre root, from one ``det`` per minor."""
    M = _sylvester(pa, pb, 1)
    if not M.size:
        s1, s0 = pa
    else:
        S1 = M[:, :-1]
        s1, s0 = np.linalg.det(S1), np.linalg.det(np.delete(M, -2, axis=1))
        if abs(s1) < _SUBRESULTANT_GATE * np.prod(np.linalg.norm(S1, axis=1)):
            return None
    return complex(-s0 / s1)


def interp_resultant_t(As, Bs):
    """``geometry._interp_resultant_t`` with one ``det`` per sample."""
    n = As.degree * Bs.degree + 1
    samples = np.exp(2j * np.pi * np.arange(n) / n)
    ta = [(e, complex(c)) for e, c in As.terms.items()]
    tb = [(e, complex(c)) for e, c in Bs.terms.items()]
    vals = np.array(
        [
            np.linalg.det(
                _sylvester(
                    _fiber_coeffs(ta, As.degree, complex(z0), 1.0),
                    _fiber_coeffs(tb, Bs.degree, complex(z0), 1.0),
                    0,
                )
            )
            for z0 in samples
        ]
    )
    return (np.fft.fft(vals) / n)[::-1]

"""Exact homogeneous polynomial arithmetic over Q.

Forms live in Q[z, w] (two variables, maps of P^1) or Q[z, w, t] (three
variables, maps of P^2).  Coefficients are ``fractions.Fraction`` throughout;
nothing in this module ever rounds.  The monomial order used for normal forms
and printing is degree-reverse-lexicographic with z > w > t.

The heavy ring operations (gcd, square-free decomposition, irreducible
factorization over Q, characteristic polynomials) are delegated to
``sympy.polys``; this module owns the representation, the parser, the normal
form, the resultant, and the linear and quadratic factors of binary forms,
which it splits off before Zassenhaus sees the rest; a binary form's
repeated factors come out before its simple part is factored at all.  The
resultant takes one route for binary and ternary forms: Macaulay's quotient
det M / det M', read off the characteristic polynomials of M and M' so that
a singular minor M' needs no separate fallback (for binary forms M is the
Sylvester matrix and M' is empty).  To prove only that it is nonzero, as a
morphism needs, det M is reduced modulo a prime in Python ints.

This is the package's one bridge to sympy, and it reaches only
``sympy.polys``: ``to_ring`` gives a form's element of the grevlex ring
Q[z, w] or Q[z, w, t], and ``from_ring`` gives it back with its terms in
ascending exponent order.  That order matters because ``evaluate``, Newton
polishing and the fibre coefficients sum a form's floats in stored order;
a form converts its coefficients to complex once, on first use.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm, prod
from typing import Iterable, Iterator, Sequence

from sympy.polys.densearith import dup_div
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring
from sympy.polys.sqfreetools import dup_sqf_list

from .config import Config, resolve
from .errors import (
    ArityError,
    BudgetError,
    InhomogeneityError,
    ParseError,
)

#: the exact scalar type used across the package
Rational = Fraction

VAR_NAMES = ("z", "w", "t")

#: Q[z, w] and Q[z, w, t], in the degrevlex order of this module's normal form
_RINGS = {n: ring(VAR_NAMES[:n], QQ, order="grevlex")[0] for n in (2, 3)}


def _order_key(expo: tuple[int, ...]) -> tuple:
    """Sort key realizing degrevlex with z > w > t (larger key = larger monomial)."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


def monomials_of_degree(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, degrevlex-descending."""
    out: list[tuple[int, ...]] = []
    if num_vars == 2:
        out = [(degree - j, j) for j in range(degree + 1)]
    elif num_vars == 3:
        for a in range(degree, -1, -1):
            for b in range(degree - a, -1, -1):
                out.append((a, b, degree - a - b))
    else:  # pragma: no cover - guarded by callers
        raise ArityError(f"unsupported variable count {num_vars}")
    out.sort(key=_order_key, reverse=True)
    return out


def rational_content(values: Iterable[Fraction]) -> Fraction:
    """The positive rational c making values / c coprime integers (0 if all are 0).

    For fractions in lowest terms that is the gcd of the numerators over the
    lcm of the denominators.
    """
    num = 0
    den = 1
    for c in values:
        num = gcd(num, abs(c.numerator))
        den = lcm(den, c.denominator)
    return Fraction(num, den)


def _product(a: dict, b: dict) -> dict:
    """The product of two term dicts, in ``HomogPoly.__mul__``'s loop order, zeros dropped."""
    terms: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return {e: c for e, c in terms.items() if c}


def _power(a: dict, n: int, num_vars: int) -> dict:
    """a^n for a term dict, by square-and-multiply from the constant 1."""
    result = {(0,) * num_vars: 1}
    while n:
        if n & 1:
            result = _product(result, a)
        a = _product(a, a) if n > 1 else a
        n >>= 1
    return result


class HomogPoly:
    """A homogeneous polynomial with exact rational coefficients.

    Instances are immutable in practice (nothing mutates ``terms`` after
    construction) and hashable.  The zero polynomial is allowed and has
    ``degree is None``.
    """

    __slots__ = ("num_vars", "terms", "degree", "_hash", "_floats")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        if num_vars not in (2, 3):
            raise ArityError(f"forms must have 2 or 3 variables, got {num_vars}")
        clean: dict[tuple[int, ...], Fraction] = {}
        degree: int | None = None
        for expo, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(expo) != num_vars or any(e < 0 for e in expo):
                raise ArityError(f"bad exponent tuple {expo!r} for {num_vars} variables")
            d = sum(expo)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneityError(degree, d)
            clean[tuple(expo)] = c
        self.num_vars = num_vars
        self.terms = clean
        self.degree = degree
        self._hash: int | None = None
        self._floats: tuple[list, float] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "HomogPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value) -> "HomogPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "HomogPoly":
        expo = [0] * num_vars
        expo[index] = 1
        return cls(num_vars, {tuple(expo): Fraction(1)})

    # -- basic protocol ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num_vars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"HomogPoly({self})"

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "HomogPoly", sign: int) -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise ArityError("mixed variable counts")
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + sign * c
        return HomogPoly(self.num_vars, terms)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        return self._combine(other, +1)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return HomogPoly.zero(self.num_vars)
            return HomogPoly(
                self.num_vars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ArityError("mixed variable counts")
        return HomogPoly(self.num_vars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HomogPoly":
        if n < 0:
            raise ArityError("negative power of a form")
        return HomogPoly(self.num_vars, _power(self.terms, n, self.num_vars))

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, index: int) -> "HomogPoly":
        """Partial derivative with respect to variable ``index``."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            key = tuple(x - 1 if i == index else x for i, x in enumerate(expo))
            terms[key] = terms.get(key, Fraction(0)) + c * e
        return HomogPoly(self.num_vars, terms)

    @property
    def complex_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """The terms with complex coefficients, in stored order, converted on first use."""
        return self._float_data()[0]

    @property
    def l1_norm(self) -> float:
        """The sum of the coefficients' absolute values as a float, computed on first use."""
        return self._float_data()[1]

    def _float_data(self) -> tuple[list, float]:
        if self._floats is None:
            norm = float(sum(abs(c) for c in self.terms.values()))
            self._floats = [(e, complex(c)) for e, c in self.terms.items()], norm
        return self._floats

    def evaluate(self, point: Sequence):
        """Evaluate at a coordinate tuple (Fractions, floats or complex)."""
        exact = bool(point) and isinstance(point[0], Fraction)
        acc = None
        for expo, c in self.terms.items() if exact else self.complex_terms:
            term = c
            for v, e in zip(point, expo):
                if e:
                    term = term * v**e
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0) if exact else 0.0
        return acc

    def compose(self, forms: Sequence["HomogPoly"]) -> "HomogPoly":
        """Substitute ``forms[i]`` for variable ``i``.

        Runs on integers: self is scaled by the lcm D of its denominators and
        every form by the one lcm L of theirs, so the integer result divided
        by D * L^deg(self) is the answer (each term of self has total
        exponent deg(self)).  Each power of a form is computed once per call.
        The products and the running sum keep the loop order of ``*``,
        ``**`` and ``+`` on forms and drop zeros where they do, so the result
        has the same terms in the same order as that Fraction expansion;
        Newton polishing and fibre coefficients sum floats in that order.
        """
        if len(forms) != self.num_vars:
            raise ArityError("substitution needs one form per variable")
        nv = forms[0].num_vars
        if not self.terms:
            return HomogPoly.zero(nv)
        den, ints = _clear_denominators(self)
        scale = lcm(*(c.denominator for f in forms for c in f.terms.values()))
        scaled = [{e: c.numerator * (scale // c.denominator) for e, c in f.terms.items()} for f in forms]
        powers: dict[tuple[int, int], dict] = {}
        acc: dict[tuple[int, ...], int] = {}
        for expo, c in ints.items():
            term = {(0,) * nv: c}
            for i, e in enumerate(expo):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = _power(scaled[i], e, nv)
                    term = _product(term, powers[i, e])
            for key, v in term.items():
                total = acc.get(key, 0) + v
                if total:
                    acc[key] = total
                else:
                    del acc[key]
        den *= scale**self.degree
        return HomogPoly(nv, {e: Fraction(c, den) for e, c in acc.items()})

    # -- normal form ---------------------------------------------------------

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ArityError("zero polynomial has no leading term")
        expo = max(self.terms, key=_order_key)
        return expo, self.terms[expo]

    def content(self) -> Fraction:
        """Positive rational c with self = c * primitive-integer-part (0 for 0)."""
        return rational_content(self.terms.values())

    def normalized(self) -> "HomogPoly":
        """Normal form: primitive integer coefficients, positive leading sign."""
        if not self.terms:
            return self
        scale = 1 / self.content()
        if self.terms[max(self.terms, key=_order_key)] < 0:
            scale = -scale
        return self * scale

    def content_and_primitive(self) -> tuple[Fraction, "HomogPoly"]:
        """Split as (c, p) with self = c * p and p in normal form."""
        if not self.terms:
            return Fraction(0), self
        prim = self.normalized()
        _, lc_self = self.leading_term()
        _, lc_prim = prim.leading_term()
        return lc_self / lc_prim, prim

    # -- printing ------------------------------------------------------------

    def sort_key(self) -> tuple:
        """Deterministic total-order key (degree, then term data)."""
        items = sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)
        return (self.degree if self.degree is not None else -1, tuple(items))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = VAR_NAMES[: self.num_vars]
        parts: list[str] = []
        for expo, c in sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True):
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Grammar (whitespace insignificant):
#
#   expr     := term (("+" | "-") term)*
#   term     := signed (("*" | "/") signed)*
#   signed   := ("+" | "-")* power
#   power    := atom ("^" natural)?
#   atom     := natural | variable | "(" expr ")"
#   variable := "z" | "w" | "t"
#
# "/" requires a constant divisor, so rational coefficients are written 3/4
# or 3/4*z^2.  Exponents are literal naturals.  The result must be
# homogeneous; a mix of total degrees raises InhomogeneityError with both
# degrees, anything unparseable raises ParseError with the offset.

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in string.whitespace:
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in VAR_NAMES:
            tokens.append(("var", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing possibly-inhomogeneous term dicts."""

    def __init__(self, text: str, num_vars: int, max_degree: float = float("inf")):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.num_vars = num_vars
        self.max_degree = max_degree  # a product above it is refused unexpanded

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    # term dicts here may mix degrees; homogeneity is checked by the caller
    def parse(self) -> dict[tuple[int, ...], Fraction]:
        result = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", at)
        return result

    def expr(self) -> dict:
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                sign = 1 if val == "+" else -1
                for e, c in rhs.items():
                    acc[e] = acc.get(e, Fraction(0)) + sign * c
            else:
                return acc

    def term(self) -> dict:
        acc = self.signed()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                acc = self._mul(acc, self.signed())
            elif kind == "op" and val == "/":
                self.advance()
                rhs = self.signed()
                const = {e: c for e, c in rhs.items() if c}
                if len(const) > 1 or (const and sum(next(iter(const))) != 0):
                    raise ParseError("division only by a nonzero constant", at)
                if not const:
                    raise ParseError("division by zero", at)
                value = next(iter(const.values()))
                acc = {e: c / value for e, c in acc.items()}
            else:
                return acc

    def signed(self) -> dict:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        body = self.power()
        if sign == -1:
            body = {e: -c for e, c in body.items()}
        return body

    def power(self) -> dict:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, at = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a literal natural number", at)
            self.advance()
            n = int(val)
            # square-and-multiply, as in HomogPoly.__pow__
            acc = None
            while n:
                if n & 1:
                    acc = base if acc is None else self._mul(acc, base)
                n >>= 1
                if n:
                    base = self._mul(base, base)
            return {(0,) * self.num_vars: Fraction(1)} if acc is None else acc
        return base

    def atom(self) -> dict:
        kind, val, at = self.advance()
        if kind == "int":
            return {(0,) * self.num_vars: Fraction(int(val))}
        if kind == "var":
            idx = VAR_NAMES.index(val)
            if idx >= self.num_vars:
                raise ParseError(
                    f"variable {val!r} not available with {self.num_vars} variables", at
                )
            expo = [0] * self.num_vars
            expo[idx] = 1
            return {tuple(expo): Fraction(1)}
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)

    def _mul(self, a: dict, b: dict) -> dict:
        degree = sum(max((sum(e) for e, c in x.items() if c), default=0) for x in (a, b))
        if degree > self.max_degree:
            msg = f"a product of degree {degree} exceeds the declared degree {self.max_degree}"
            raise ParseError(msg, self.tokens[self.pos - 1][2])
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return out


def poly_parse(text: str, num_vars: int | None = None) -> HomogPoly:
    """Parse polynomial text into a homogeneous form.

    Parameters
    ----------
    text:
        Expression over the variables z, w, t with integer or p/q rational
        coefficients and the operators ``+ - * / ^`` plus parentheses (see
        the grammar comment above).
    num_vars:
        2 or 3.  When omitted, 3 is used if the text mentions ``t``,
        otherwise 2.

    Raises
    ------
    ParseError
        On any syntax problem, with the character offset.
    InhomogeneityError
        When the expanded polynomial mixes two total degrees (both reported).
    """
    if num_vars is None:
        num_vars = 3 if "t" in text else 2
    raw = _Parser(text, num_vars).parse()
    return HomogPoly(num_vars, raw)  # homogeneity enforced by the constructor


# ---------------------------------------------------------------------------
# the bridge to sympy.polys
# ---------------------------------------------------------------------------


def to_ring(p: HomogPoly):
    """p as an element of the sympy.polys ring Q[z, w] or Q[z, w, t]."""
    return _RINGS[p.num_vars].from_dict(
        {e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
    )


def to_fraction(value) -> Fraction:
    """A polys-domain or sympy rational (or integer) as a Fraction."""
    return Fraction(int(value.numerator), int(value.denominator))


def from_ring(e, num_vars: int) -> HomogPoly:
    """A ring element as a form, its terms in ascending exponent order (not the ring's)."""
    return HomogPoly(num_vars, {expo: to_fraction(c) for expo, c in sorted(e.items())})


def poly_gcd(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    if a.num_vars != b.num_vars:
        raise ArityError("mixed variable counts")
    return from_ring(to_ring(a).gcd(to_ring(b)), a.num_vars).normalized()


# ---------------------------------------------------------------------------
# square-free part and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Exact factorization ``unit * prod(base^mult)`` over Q.

    Bases are irreducible, pairwise distinct, and in normal form (primitive
    integer coefficients, positive leading sign); the unit absorbs content
    and signs so reassembly reproduces the input exactly.
    """

    unit: Fraction
    factors: tuple[tuple[HomogPoly, int], ...]

    @classmethod
    def of(cls, p: HomogPoly, pairs: Iterable[tuple[HomogPoly, int]]) -> "Factorization":
        """The factorization of p from its irreducible factors, in any order."""
        # a constant base is content, which the unit absorbs
        bases = [(q, mult) for q, mult in ((b.normalized(), m) for b, m in pairs) if q.degree]
        bases.sort(key=lambda bm: (bm[0].degree, bm[0].sort_key()))
        lc_product = Fraction(1)
        for base, mult in bases:
            lc_product *= base.leading_term()[1] ** mult
        return cls(unit=p.leading_term()[1] / lc_product, factors=tuple(bases))

    def reassemble(self) -> HomogPoly:
        acc = HomogPoly.constant(self.num_vars, self.unit)
        for base, mult in self.factors:
            acc = acc * base**mult
        return acc

    @property
    def num_vars(self) -> int:
        if self.factors:
            return self.factors[0][0].num_vars
        return 3

    def __iter__(self):
        return iter(self.factors)


def square_free(p: HomogPoly) -> HomogPoly:
    """Product of the distinct irreducible factors of p, in normal form."""
    if p.is_zero():
        return p
    _, pairs = to_ring(p).sqf_list()
    acc = HomogPoly.constant(p.num_vars, 1)
    for base, _mult in pairs:
        acc = acc * from_ring(base, p.num_vars)
    return acc.normalized()


def _rational_near(x: float, lc: int):
    """Convergents p/q of x's continued fraction with q | lc, near x.

    A rational root p/q of an integer polynomial with leading coefficient lc
    has q | lc, and once x is within 1/(2 q^2) of it, p/q is a convergent of
    x (Legendre).  These are candidates only; callers test them exactly.
    """
    if not isfinite(x):
        return
    tol = 1e-6 * max(1.0, abs(x))
    rest = Fraction(x)
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = rest.numerator // rest.denominator
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if k1 > abs(lc):
            return
        if lc % k1 == 0 and abs(h1 / k1 - x) <= tol:
            yield Fraction(h1, k1)
        rest -= a
        if not rest:
            return
        rest = 1 / rest


def _near_real(value: complex, scale: float) -> bool:
    return abs(value.imag) <= 1e-6 * max(1.0, scale)


def _is_irreducible(f: list[int]) -> bool:
    """Whether f is linear, or a quadratic whose discriminant is not a square."""
    if len(f) != 3:
        return len(f) == 2
    disc = f[1] ** 2 - 4 * f[0] * f[2]
    return disc < 0 or isqrt(disc) ** 2 != disc


def _split_off(f: list[int], g: list[int]) -> list[int] | None:
    """f / g over ZZ (dense, descending), or None if g does not divide f."""
    quo, rem = dup_div(f, g, ZZ)
    return None if rem else quo


def _linear_candidates(f: list[int], root: complex):
    """Primitive q*z - p for rational p/q near root with q^n f(p/q) = 0 exactly."""
    if not _near_real(root, abs(root)):
        return
    for x in _rational_near(root.real, f[0]):
        p, q = x.numerator, x.denominator
        value = 0
        for i, c in enumerate(f):
            value = value * p + c * q**i
        if not value:
            yield [q, -p]


def _quadratic_candidates(f: list[int], r1: complex, r2: complex):
    """Primitive a*z^2 + b*z + c near a(z - r1)(z - r2), with a | lc(f) and
    a discriminant that is not a square."""
    s, pr = r1 + r2, r1 * r2
    scale = max(abs(s), abs(pr))
    if not (_near_real(s, scale) and _near_real(pr, scale)):
        return
    for sum_ in _rational_near(s.real, f[0]):
        for prod_ in _rational_near(pr.real, f[0]):
            a = lcm(sum_.denominator, prod_.denominator)
            b, c = int(-a * sum_), int(a * prod_)
            g = gcd(a, b, c)
            quad = [a // g, b // g, c // g]
            if f[0] % a == 0 and _is_irreducible(quad):
                yield quad


def _split_low_degree(f: list[int]) -> list[list[int]]:
    """The irreducible factors of a square-free primitive integer polynomial.

    ``np.roots`` proposes the factors: rational roots p/q with q | lc(f),
    then pairs of the remaining roots as rational quadratics.  A linear
    factor is accepted only on an exact integer zero and an exact division,
    a quadratic only on an exact division and a discriminant that is not a
    square (so it is irreducible over Q).  Only what is left, if it is not
    itself linear or an irreducible quadratic, goes to Zassenhaus
    (``dup_factor_list``).  A missed candidate costs time, never a factor.
    """
    # imported here: a module-level numpy import grows every process's peak
    # RSS.  Complex coefficients keep np.roots on the LAPACK routine (zgeev)
    # the geometry layer loads anyway; real ones would load dgeev as well.
    import numpy as np

    found: list[list[int]] = []
    if len(f) > 2 and not _is_irreducible(f):
        top = max(abs(c) for c in f)
        left = []
        for root in np.roots(np.array([c / top for c in f], dtype=complex)):
            for lin in _linear_candidates(f, root):
                quo = _split_off(f, lin)
                if quo is not None:
                    found.append(lin)
                    f = quo
                    break
            else:
                left.append(root)
        used: set[int] = set()
        for i in range(len(left)):
            for j in range(i + 1, len(left)):
                if len(f) <= 3 or i in used or j in used:
                    continue
                for quad in _quadratic_candidates(f, left[i], left[j]):
                    quo = _split_off(f, quad)
                    if quo is not None:
                        found.append(quad)
                        f = quo
                        used.update((i, j))
                        break
    if _is_irreducible(f):
        found.append(f)
    elif len(f) > 2:
        found.extend(base for base, _m in dup_factor_list(f, ZZ)[1])
    return found


def binary_factors(p: HomogPoly) -> Iterator[tuple[HomogPoly, int]]:
    """The irreducible factors of a binary form with multiplicities: w, then the most repeated.

    p(z, 1) drops one degree for each leading zero coefficient of p; that
    drop is the multiplicity of the factor w (the root at [1 : 0]), which
    comes first.  The rest, with denominators cleared, has one square-free
    decomposition over ZZ (``dup_sqf_list``), and its parts follow by
    descending multiplicity, each split into irreducibles by
    ``_split_low_degree`` only when the iteration reaches it.  So a caller
    that stops at the first simple factor has factored only the repeated
    part of p.  Every factor is homogenised back to its own degree.
    """
    d = p.degree
    _, ints = _clear_denominators(p)
    coeffs = [ints.get((d - j, j), 0) for j in range(d + 1)]
    w_mult = next(j for j, c in enumerate(coeffs) if c)
    if w_mult:
        yield HomogPoly.variable(2, 1), w_mult
    parts = dup_sqf_list(coeffs[w_mult:], ZZ)[1]
    for part, mult in sorted(parts, key=lambda pm: -pm[1]):
        for base in _split_low_degree(part):
            k = len(base) - 1
            yield HomogPoly(2, {(k - j, j): Fraction(c) for j, c in enumerate(base)}), int(mult)


def factor(p: HomogPoly, cfg: Config | None = None) -> Factorization:
    """Irreducible factorization over Q.

    A binary form is factored through its dehomogenisation p(z, 1) in one
    variable, with the power of w read off the degree drop: linear and
    quadratic factors proposed by floating roots and accepted only by exact
    division, and Zassenhaus only for what they leave (``binary_factors``).
    A ternary form is factored as a multivariate polynomial.  The
    factorization over Q is unique and its bases are normalized and sorted,
    so the result does not depend on the route.  Inputs above the configured
    degree cap are refused with BudgetError (factoring cost is the one
    genuinely superpolynomial step exposed to user-controlled input).
    """
    cfg = resolve(cfg)
    if p.degree is not None and p.degree > cfg.factor_degree_cap:
        raise BudgetError(
            f"degree {p.degree} exceeds the factorization cap {cfg.factor_degree_cap}"
        )
    return factor_uncapped(p)


def factor_uncapped(p: HomogPoly) -> Factorization:
    """``factor`` without the degree cap, for eliminants the package built itself."""
    if p.is_zero():
        raise ArityError("cannot factor the zero polynomial")
    if p.num_vars == 2:
        return Factorization.of(p, binary_factors(p))
    return Factorization.of(p, ((from_ring(b, 3), int(m)) for b, m in to_ring(p).factor_list()[1]))


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _clear_denominators(p: HomogPoly) -> tuple[int, dict[tuple[int, ...], int]]:
    """Return (L, integer terms) with L*p having the integer coefficients.

    L is the least common denominator of p's coefficients.
    """
    L = lcm(*(c.denominator for c in p.terms.values()))
    return L, {e: c.numerator * (L // c.denominator) for e, c in p.terms.items()}


def _charpoly(m: DomainMatrix) -> list[int]:
    """Coefficients of det(s*I - m), lowest power of s first."""
    return [int(c) for c in reversed(m.charpoly())]


def _macaulay(forms: Sequence[HomogPoly]) -> tuple[list[list[int]], list[int], list]:
    """The rows of ``resultant``'s matrix M in integers, the indices of its
    minor M', and each form's ``_clear_denominators`` pair.
    """
    nv = forms[0].num_vars
    degrees = [f.degree for f in forms]
    cleared = [_clear_denominators(f) for f in forms]
    mons = monomials_of_degree(nv, 1 + sum(d - 1 for d in degrees))
    index_of = {mono: j for j, mono in enumerate(mons)}
    big: list[list[int]] = []
    nonreduced: list[int] = []
    for idx, mono in enumerate(mons):
        divisors = [i for i in range(nv) if mono[i] >= degrees[i]]
        if len(divisors) >= 2:
            nonreduced.append(idx)
        i = divisors[0]
        shift = [e - (degrees[i] if v == i else 0) for v, e in enumerate(mono)]
        row = [0] * len(mons)
        for expo, c in cleared[i][1].items():
            row[index_of[tuple(a + b for a, b in zip(expo, shift))]] = c
        big.append(row)
    return big, nonreduced, cleared


def _singular_mod_p(rows: list[list[int]], p: int = 2**61 - 1) -> bool:
    """Whether a square integer matrix is singular modulo the prime p (Gaussian elimination)."""
    rows = [[c % p for c in row] for row in rows]
    for col in range(len(rows)):
        pivot = next((i for i, row in enumerate(rows) if row[col]), None)
        if pivot is None:
            return True
        head = rows.pop(pivot)[col:]
        inv = pow(head[0], -1, p)
        for row in rows:
            if row[col]:
                k = row[col] * inv % p
                row[col:] = [(x - k * y) % p for x, y in zip(row[col:], head)]
    return False


def resultant_nonzero_mod_p(forms: Sequence[HomogPoly]) -> bool:
    """True when Res is proved nonzero modulo a prime; False proves nothing.

    Macaulay's det M = +-Res * det M' (Cox, Little & O'Shea, *Using
    Algebraic Geometry*, ch. 3), so det M != 0 mod 2^61 - 1 proves Res != 0.
    A singular M' makes det M vanish; ternary forms get one more try after
    x -> A x, A = [[9, 11, 7], [4, 5, 3], [3, 4, 3]] of determinant 1, which
    keeps Res.  The new coefficients of z^d, w^d and t^d are f at A's
    columns, so a vanishing one, the usual cause of a singular M', rarely
    survives the move.  The forms must be as ``resultant`` accepts them.
    """
    if not _singular_mod_p(_macaulay(forms)[0]):
        return True
    if forms[0].num_vars == 2:
        return False
    z, w, t = (HomogPoly.variable(3, i) for i in range(3))
    A = [z * 9 + w * 11 + t * 7, z * 4 + w * 5 + t * 3, z * 3 + w * 4 + t * 3]
    return not _singular_mod_p(_macaulay([f.compose(A) for f in forms])[0])


def resultant(forms: Sequence[HomogPoly]) -> Fraction:
    """Multivariate resultant of a square system of forms.

    Macaulay's quotient det M / det M', for two binary or three ternary
    forms alike.  M is n x n, indexed by the n monomials m of degree
    1 + sum(d_i - 1): row m holds the coefficients of (m / x_i^(d_i)) * f_i
    for the first i with x_i^(d_i) | m, so its diagonal entry is the
    coefficient of x_i^(d_i) in f_i.  M' is the n' x n' principal minor on
    the monomials that two such powers divide; for binary forms there are
    none, and M is the Sylvester matrix.

    Subtracting s down the diagonal perturbs each f_i by -s*x_i^(d_i), so
    det(M - sI) / det(M' - sI) is the resultant of the perturbed system, a
    polynomial in s whose value at 0 is the answer (Canny's generalized
    characteristic polynomial).  Writing chi(s) = det(sI - .) and k for the
    order to which chi_M' vanishes at 0 (k = 0 unless M' is singular), that
    value is (-1)^(n - n') [s^k]chi_M / [s^k]chi_M'.  A singular minor thus
    takes the same path as a regular one.  When M' is regular (k = 0) the
    numerator is (-1)^n det M, and chi_M itself is never computed.

    Parameters
    ----------
    forms:
        Exactly ``num_vars`` forms, all nonzero, of degree >= 1: two binary
        forms or three ternary forms.

    Returns
    -------
    Fraction
        Nonzero iff the forms have no common zero in projective space.
        Normalized so the coordinate forms give 1, e.g.
        resultant([z, w, t]) == 1.
    """
    forms = list(forms)
    if not forms:
        raise ArityError("resultant of an empty system")
    nv = forms[0].num_vars
    if any(f.num_vars != nv for f in forms):
        raise ArityError("resultant needs forms in a common variable set")
    if len(forms) != nv:
        raise ArityError(
            f"resultant needs exactly {nv} forms for {nv} variables, got {len(forms)}"
        )
    if any(f.is_zero() or f.degree == 0 for f in forms):
        raise ArityError("resultant requires nonzero forms of degree >= 1")
    big, nonreduced, cleared = _macaulay(forms)
    M = DomainMatrix([[ZZ(c) for c in row] for row in big], (len(big), len(big)), ZZ)
    chi_minor = _charpoly(M.extract(nonreduced, nonreduced))
    k = next(j for j, c in enumerate(chi_minor) if c)
    lead = (-1) ** len(big) * int(M.det()) if k == 0 else _charpoly(M)[k]
    if lead % chi_minor[k] != 0:  # pragma: no cover - theory says exact
        raise ArityError("Macaulay quotient failed to divide exactly")
    res_int = (-1) ** (len(big) - len(nonreduced)) * (lead // chi_minor[k])
    # Res is homogeneous of degree prod(d_j, j != i) in the coefficients of f_i
    degrees = [f.degree for f in forms]
    scale = prod(L ** prod(degrees[:i] + degrees[i + 1 :]) for i, (L, _) in enumerate(cleared))
    return Fraction(res_int, scale)

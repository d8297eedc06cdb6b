"""Exact arithmetic in the bigraded algebra C[E4, E6, A^{+-1}, B].

The four generators carry (weight, index) bidegrees E4:(4,0), E6:(6,0),
A:(-2,1), B:(0,1).  A monomial E4^i * E6^j * A^k * B^l is homogeneous of
bidegree (4i + 6j - 2k, k + l); the exponent of A may be negative because
the algebra is localized at the powers of A.  The weight-two function
F2 = B * A^-1 is not a stored generator: the parser can rewrite it away,
so every element has a single canonical monomial basis and equality is a
dictionary comparison.

Coefficients are exact rationals.  Internally an element keeps integer
numerators over one shared positive denominator, which keeps the hot
arithmetic paths in machine integers; the public API speaks Fraction.
Sums and products of elements are folded into one integer accumulator by
`linear_combination`, divided by an optional integer and normalised once;
`+`, `-` and `*` are one-term or two-term calls of it, and `power` is the
one square-and-multiply of elements, coefficients and series.  All values
are immutable after construction, so an element caches its split into
homogeneous components (its bidegree, when it is homogeneous).  The
subalgebras M, Jtilde and Q are each defined once, by a monomial test and
generators, which `membership`, `monomial_basis` and the stability check read.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Malformed element text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BidegreeError(ValueError):
    """A construction violates the weight/index bookkeeping."""


class InternalInvariantError(RuntimeError):
    """An internally verified identity failed: a bug, not a bad input."""


class Monomial(NamedTuple):
    e4: int
    e6: int
    a: int
    b: int


class Bidegree(NamedTuple):
    weight: int
    index: int


def bidegree(m) -> Bidegree:
    """Bidegree (weight, index) of a monomial exponent vector."""
    return Bidegree(4 * m[0] + 6 * m[1] - 2 * m[2], m[2] + m[3])


def _check_monomial(m: Monomial) -> None:
    if m[0] < 0 or m[1] < 0 or m[3] < 0:
        raise BidegreeError(f"exponents of E4, E6, B must be nonnegative, got {tuple(m)}")


def _over_common_denominator(coeffs: dict):
    """Integer numerators over the least common denominator of rational
    coefficients."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}, den


def _normalized(num: dict, den: int):
    """Reduce an integer term dict over a common denominator to lowest terms."""
    if not num:
        return {}, 1
    if den < 0:
        den = -den
        num = {m: -c for m, c in num.items()}
    g = den
    for c in num.values():
        g = math.gcd(g, c)
        if g == 1:
            return num, den
    return {m: c // g for m, c in num.items()}, den // g


class BigradedElement:
    """A finite rational combination of monomials in E4, E6, A^{+-1}, B."""

    __slots__ = ("_num", "_den", "_hash", "_split")

    def __init__(self, terms: Mapping | None = None):
        coeffs: dict = {}
        for m, c in (terms or {}).items():
            m = Monomial(*m)
            _check_monomial(m)
            coeffs[m] = coeffs.get(m, 0) + Fraction(c)
        num, den = _over_common_denominator(coeffs)
        self._num, self._den = _normalized({m: c for m, c in num.items() if c}, den)
        self._hash = self._split = None

    @classmethod
    def _raw(cls, num: dict, den: int) -> "BigradedElement":
        # trusted path: integer coefficients, monomials already legal
        el = cls.__new__(cls)
        el._num, el._den = _normalized({m: c for m, c in num.items() if c}, den)
        el._hash = el._split = None
        return el

    # ------------------------------------------------------------------ basics

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self) -> dict[Monomial, Fraction]:
        d = self._den
        return {Monomial(*m): Fraction(c, d) for m, c in sorted(self._num.items())}

    def coefficient(self, m) -> Fraction:
        return Fraction(self._num.get(tuple(m), 0), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = constant(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._den, frozenset(self._num.items())))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"<element {format_element(self)}>"

    def __str__(self) -> str:
        return format_element(self)

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other):
        if not isinstance(other, BigradedElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = constant(other)
        return linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return BigradedElement._raw({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, BigradedElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = constant(other)
        return linear_combination(((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, BigradedElement):
            return linear_combination(((1, self, other),))
        if isinstance(other, (int, Fraction)):
            return linear_combination(((other, self),))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return linear_combination(((other, self),))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return linear_combination(((1 / Fraction(other), self),))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self._inverted(), -n, ONE)
        return power(self, n, ONE)

    def _inverted(self):
        # only pure powers of A are units in the localization
        if len(self._num) != 1:
            raise ValueError("only single-term pure A powers are invertible")
        (m, c), = self._num.items()
        if m[0] or m[1] or m[3]:
            raise ValueError("only single-term pure A powers are invertible")
        return BigradedElement._raw({(0, 0, -m[2], 0): self._den}, c)

    # ----------------------------------------------------------------- grading

    def _components(self) -> tuple:
        """(Bidegree, piece) pairs in bidegree order; a homogeneous element
        is its own single piece.  The split is cached in _split, for a
        homogeneous element as its Bidegree alone, so no element refers to
        itself."""
        split = self._split
        if split is None:
            buckets: dict = {}
            for m, c in self._num.items():
                # (weight, index) as in bidegree(), without a Bidegree per monomial
                buckets.setdefault((4 * m[0] + 6 * m[1] - 2 * m[2], m[2] + m[3]), {})[m] = c
            parts = sorted(buckets.items())
            if len(parts) == 1:
                split = self._split = Bidegree(*parts[0][0])
            else:
                split = self._split = tuple((Bidegree(*d), BigradedElement._raw(num, self._den)) for d, num in parts)
        return ((split, self),) if type(split) is Bidegree else split

    def homogeneous_components(self) -> dict[Bidegree, "BigradedElement"]:
        """The homogeneous pieces by bidegree, in bidegree order, in a new
        dict on each call; a homogeneous element is its own single piece."""
        return dict(self._components())

    @property
    def is_homogeneous(self) -> bool:
        return len(self._components()) <= 1

    def bidegree(self) -> Bidegree:
        """Bidegree of a nonzero homogeneous element."""
        parts = self._components()
        if len(parts) != 1:
            raise ValueError("element is zero or not homogeneous")
        return parts[0][0]


def monomial(e4: int = 0, e6: int = 0, a: int = 0, b: int = 0, coeff: Scalar = 1) -> BigradedElement:
    return BigradedElement({Monomial(e4, e6, a, b): coeff})


def constant(c: Scalar) -> BigradedElement:
    return BigradedElement({Monomial(0, 0, 0, 0): c})


def power(base, n: int, one):
    """base ** n for an integer n >= 0 by square-and-multiply, from the
    unit one: the one power rule of elements, coefficients and series."""
    if n < 0:
        raise ValueError("negative powers are not supported")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def linear_combination(terms, divisor: int = 1) -> BigradedElement:
    """Sum of coeff * x over (coeff, x) terms and of coeff * x * y over
    (coeff, x, y) terms, divided by the positive integer divisor and
    normalised once.

    The terms are consumed one at a time into one dict of integer
    numerators over a common denominator that grows as needed; a product is
    expanded straight into that dict, never built as an element of its
    own.  The sum is reduced to lowest terms once, at the end.  This is the
    one place that decides how sums and products of elements are
    normalised.
    """
    num: dict = {}
    get = num.get
    den = 1
    for term in terms:
        c, x = term[0], term[1]
        y = term[2] if len(term) == 3 else None
        if not (c and x._num) or (y is not None and not y._num):
            continue
        d = c.denominator * x._den
        if y is not None:
            d *= y._den
        if den % d:  # grow the common denominator and rescale the sum so far
            grown = math.lcm(den, d)
            num = {m: v * (grown // den) for m, v in num.items()}
            get = num.get
            den = grown
        scale = c.numerator * (den // d)
        if y is None:
            for m, v in x._num.items():
                num[m] = get(m, 0) + scale * v
            continue
        y_items = y._num.items()
        for (i, j, k, l), v in x._num.items():
            sv = scale * v
            for m, w in y_items:
                key = (i + m[0], j + m[1], k + m[2], l + m[3])
                num[key] = get(key, 0) + sv * w
    return BigradedElement._raw(num, den * divisor)


def rescaled(f: BigradedElement, factor) -> BigradedElement:
    """f with the coefficient of each monomial m multiplied by factor(m),
    in one pass over the monomials."""
    num, den = _over_common_denominator({m: c * factor(m) for m, c in f._num.items()})
    return BigradedElement._raw(num, f._den * den)


def leibniz_apply(f: BigradedElement, images) -> BigradedElement:
    """Apply the derivation with the given generator images to f.

    images is a 4-tuple of elements (values on E4, E6, A, B).  The Leibniz
    power rule c*e*x^{e-1}*image handles negative A exponents, which forces
    the localization rule D(A^-1) = -A^-2 D(A).
    """
    l = math.lcm(*(img._den for img in images))
    out: dict = {}
    get = out.get
    for m, cf in f._num.items():
        for slot in range(4):
            e = m[slot]
            if not e:
                continue
            img = images[slot]
            if not img._num:
                continue
            scale = (l // img._den) * e * cf
            base = list(m)
            base[slot] -= 1
            b0, b1, b2, b3 = base
            for mi, ci in img._num.items():
                key = (b0 + mi[0], b1 + mi[1], b2 + mi[2], b3 + mi[3])
                out[key] = get(key, 0) + scale * ci
    return BigradedElement._raw(out, f._den * l)


ZERO = BigradedElement()
ONE = constant(1)
E4 = monomial(e4=1)
E6 = monomial(e6=1)
A = monomial(a=1)
B = monomial(b=1)
A_INV = monomial(a=-1)
F2 = monomial(a=-1, b=1)

GENERATORS = (E4, E6, A, B)
GENERATOR_NAMES = ("E4", "E6", "A", "B")

# The monomial test of each subalgebra of K, and each proper one's generators
_MEMBERSHIP = {
    "M": lambda m: m[2] == 0 and m[3] == 0,
    "Jtilde": lambda m: m[2] >= 0,
    "Q": lambda m: m[2] == -m[3],
    "K": lambda m: True,
}
SUBALGEBRA_GENERATORS = {"M": (E4, E6), "Jtilde": GENERATORS, "Q": (E4, E6, F2)}


def membership(f: BigradedElement, algebra: str) -> bool:
    """Whether every monomial of f lies in the named subalgebra of K.

    M is C[E4,E6]; Jtilde is C[E4,E6,A,B]; Q is C[E4,E6,F2] (monomials with
    the A exponent opposite to the B exponent); K is everything.
    """
    try:
        test = _MEMBERSHIP[algebra]
    except KeyError:
        raise ValueError(f"unknown algebra {algebra!r}, expected one of {tuple(_MEMBERSHIP)}")
    return all(test(m) for m in f._num)


def monomial_basis(weight_cap: int, index_cap: int, algebra: str = "Jtilde") -> list[BigradedElement]:
    """The monomials of a proper subalgebra of K of weight <= weight_cap
    and index <= index_cap, in increasing exponent order: those of one box,
    A^a B^b with |a| <= index_cap and 0 <= b <= index_cap - a times each
    E4^i E6^j within the weight cap, that the algebra's monomial test keeps.
    """
    if algebra not in SUBALGEBRA_GENERATORS:
        raise ValueError("basis enumeration needs a proper subalgebra of K")
    box = (
        (i, j, a, b)
        for a in range(-index_cap, index_cap + 1)
        for b in range(index_cap - a + 1)
        for i in range((weight_cap + 2 * a) // 4 + 1)
        for j in range((weight_cap + 2 * a - 4 * i) // 6 + 1)
    )
    return [monomial(*m) for m in sorted(filter(_MEMBERSHIP[algebra], box))]


# ---------------------------------------------------------------------- text

_MAX_EXPONENT = 10 ** 6

_TOKEN = re.compile(r"(?P<name>E4|E6|F2|A|B)|(?P<int>\d+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastgroup == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    return tokens


def parse_element(text: str, allow_f2: bool = False) -> BigradedElement:
    """Parse element text such as "E4^2*A^-1*B - 1/3*E6".

    F2 is rejected unless allow_f2 is set, in which case every F2^e is
    rewritten as B^e * A^-e so the result is in canonical coordinates.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek(kind=None):
        if pos < len(tokens) and (kind is None or tokens[pos][0] == kind):
            return tokens[pos]
        return None

    def error(message):
        at = tokens[pos][2] if pos < len(tokens) else len(text)
        raise ParseError(message, at)

    def take_int():
        nonlocal pos
        sign = 1
        if peek("op") and tokens[pos][1] == "-":
            sign = -1
            pos += 1
        tok = peek("int")
        if tok is None:
            error("expected an integer")
        pos += 1
        value = sign * int(tok[1])
        if abs(value) > _MAX_EXPONENT:
            raise ParseError("exponent overflow", tok[2])
        return value

    def take_rational():
        nonlocal pos
        tok = peek("int")
        pos += 1
        value = Fraction(int(tok[1]))
        if peek("op") and tokens[pos][1] == "/":
            pos += 1
            den = peek("int")
            if den is None:
                error("expected a positive denominator")
            pos += 1
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value /= int(den[1])
        return value

    def take_factor():
        nonlocal pos
        tok = peek("name")
        if tok is None:
            error("expected a generator name")
        pos += 1
        exp = 1
        if peek("op") and tokens[pos][1] == "^":
            pos += 1
            exp = take_int()
        name = tok[1]
        if name == "F2":
            if not allow_f2:
                raise ParseError("F2 is not a stored generator (pass allow_f2 to rewrite it)", tok[2])
            return (0, 0, -exp, exp)
        slot = {"E4": 0, "E6": 1, "A": 2, "B": 3}[name]
        vec = [0, 0, 0, 0]
        vec[slot] = exp
        return tuple(vec)

    def take_term():
        nonlocal pos
        coeff = Fraction(1)
        exps = [0, 0, 0, 0]
        if peek("int"):
            coeff = take_rational()
            if not (peek("op") and tokens[pos][1] == "*"):
                return coeff, tuple(exps)
            pos += 1
        while True:
            vec = take_factor()
            exps = [x + y for x, y in zip(exps, vec)]
            if peek("op") and tokens[pos][1] == "*":
                pos += 1
                continue
            break
        return coeff, tuple(exps)

    if not tokens:
        raise ParseError("empty element text", 0)

    total: dict = {}
    sign = Fraction(1)
    if peek("op") and tokens[pos][1] in "+-":
        sign = Fraction(-1) if tokens[pos][1] == "-" else Fraction(1)
        pos += 1
    while True:
        coeff, exps = take_term()
        m = Monomial(*exps)
        _check_monomial(m)
        total[m] = total.get(m, Fraction(0)) + sign * coeff
        if pos >= len(tokens):
            break
        tok = peek("op")
        if tok is None or tokens[pos][1] not in "+-":
            error("expected '+' or '-' between terms")
        sign = Fraction(-1) if tokens[pos][1] == "-" else Fraction(1)
        pos += 1
        if pos >= len(tokens):
            error("dangling sign")
    return BigradedElement(total)


def _format_monomial(m: Monomial) -> str:
    parts = []
    for name, e in zip(GENERATOR_NAMES, m):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_element(f: BigradedElement) -> str:
    """Canonical text form; monomials in descending lexicographic
    (e4, e6, a, b) order, so the leading monomial comes first."""
    if f.is_zero:
        return "0"
    chunks = []
    den = f._den
    for m in sorted(f._num, reverse=True):
        c = Fraction(f._num[m], den)
        m = Monomial(*m)
        body = _format_monomial(m)
        mag = abs(c)
        if body and mag == 1:
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = str(mag)
        if not chunks:
            chunks.append(f"-{text}" if c < 0 else text)
        else:
            chunks.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(chunks)


def to_json_dict(f: BigradedElement) -> dict:
    return {
        "terms": [
            {"e4": m.e4, "e6": m.e6, "a": m.a, "b": m.b, "coeff": str(c)}
            for m, c in f.terms().items()
        ]
    }


def from_json_dict(data: Mapping) -> BigradedElement:
    terms = {}
    for entry in data["terms"]:
        m = Monomial(int(entry["e4"]), int(entry["e6"]), int(entry["a"]), int(entry["b"]))
        terms[m] = terms.get(m, Fraction(0)) + Fraction(entry["coeff"])
    return BigradedElement(terms)

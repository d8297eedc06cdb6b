"""Exact arithmetic in the bigraded algebra C[E4, E6, A^{+-1}, B].

The four generators carry (weight, index) bidegrees E4:(4,0), E6:(6,0),
A:(-2,1), B:(0,1).  A monomial E4^i * E6^j * A^k * B^l is homogeneous of
bidegree (4i + 6j - 2k, k + l); the exponent of A may be negative because
the algebra is localized at the powers of A.  Exponents are integers:
each is read through operator.index, so a float or a string is refused
with TypeError, never truncated.  The weight-two function F2 = B * A^-1
is not a stored generator: the parser can rewrite it away, so every
element has a single canonical monomial basis and equality is a
dictionary comparison.

Coefficients are exact rationals.  Internally an element keeps integer
numerators over one shared positive denominator, keyed by packed
monomials: E4^i E6^j A^k B^l is i*S^3 + j*S^2 + k*S + l for S = 2^23, so
integer order is the lexicographic order of exponent vectors, 1 is the
key 0, and a product of monomials is the sum of their keys.  Exponents
lie in [-2^21, 2^21), room for a product of two monomials of element text
(exponents up to 10^6) after hundreds of derivation steps; leaving it
raises BidegreeError, never carrying into the next field.  Only this
module knows the encoding; the rest of the package sees Monomials.

One loop, `_accumulate`, multiplies rows of integer numerators keyed by
integers: every sum and product of `linear_combination`, derivation
application and w-polynomials, and the part outside a subalgebra that
`escapes` forms to decide membership; under `work_budget` it counts its
multiply-adds, and q-series products, which multiply packed rows, count
what it would, which bounds the work of any computation.  One normaliser,
`_normalized`, reduces a list of rows (an element is one row) to lowest
terms, and `_numerators` is the one conversion from Fractions.  `power`
is the one square-and-multiply of elements, coefficients, series and
generator powers, and `parse_element` reads text in one loop over its
terms.
Values are immutable, so an element caches its split into homogeneous
components and, for the last subalgebra asked for, the rows by (A, B)
grade `escapes` reads.
The subalgebras M, Jtilde and Q are each defined once, by a monomial test
and generators, which `membership`, `monomial_basis` and the stability
check read.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
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


# Packed keys: one signed 23-bit field per exponent, E4 on top.  A field
# holds an exponent v as the digit v + _LIMIT of key + _OFFSET, which lies
# below the field's top bit, the guard, exactly when v is in range.
_BITS = 23
_LIMIT = 1 << (_BITS - 2)
_MASK = (1 << _BITS) - 1
_SHIFTS = (3 * _BITS, 2 * _BITS, _BITS, 0)
_GENERATOR_KEYS = tuple(1 << shift for shift in _SHIFTS)
_OFFSET = _LIMIT * sum(_GENERATOR_KEYS)
_GUARD = 2 * _OFFSET


def _key(m) -> int:
    """The packed key of a monomial exponent vector of integers."""
    e4, e6, a, b = map(operator.index, m)
    if min(e4, e6, b) < 0 or max(e4, e6, a, b) >= _LIMIT or a < -_LIMIT:
        raise BidegreeError(f"exponents of E4, E6, B must lie in [0, {_LIMIT}) and of A in [-{_LIMIT}, {_LIMIT}), got {tuple(m)}")
    return e4 * _GENERATOR_KEYS[0] + e6 * _GENERATOR_KEYS[1] + a * _GENERATOR_KEYS[2] + b


@lru_cache(maxsize=1 << 16)
def _exponents(key: int) -> tuple:
    """The exponent vector (e4, e6, a, b) of a packed key, memoised: the
    same few monomials are unpacked again and again."""
    d = key + _OFFSET
    return (d >> _SHIFTS[0]) - _LIMIT, (d >> _SHIFTS[1] & _MASK) - _LIMIT, (d >> _SHIFTS[2] & _MASK) - _LIMIT, (d & _MASK) - _LIMIT


def _numerators(rows):
    """Rows of rational values as rows of integer numerators over their
    least common denominator: the one conversion from Fractions."""
    den = math.lcm(*(c.denominator for row in rows for c in row.values()))
    return [{k: c.numerator * (den // c.denominator) for k, c in row.items()} for row in rows], den


def _normalized(rows, den: int):
    """Integer rows over the positive den without zero entries, in lowest
    terms: the one normaliser of elements (one row) and q-series.  A row
    needing no change is kept, not copied: the rows are the caller's."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = math.gcd(g, *row.values())
    if g > 1:
        return [{k: c // g for k, c in row.items() if c} for row in rows], den // g
    return [{k: c for k, c in row.items() if c} if 0 in row.values() else row for row in rows], den


def _check_product_keys(num) -> None:
    """Raise BidegreeError if a key of num, each a sum of two keys in range
    (one possibly less a generator's key), has an exponent out of range.

    An exponent v of such a sum gives the digit v + _LIMIT in
    [-_LIMIT - 1, 3 * _LIMIT), which sets its guard, or borrows past it,
    exactly when v is out of range."""
    for k in num:
        if (k + _OFFSET) & _GUARD:
            raise BidegreeError(f"an exponent leaves [-{_LIMIT}, {_LIMIT})")


class BudgetExceeded(Exception):
    """The allowance of work_budget is spent; not a ValueError, so no handler of bad input catches it."""


_allowance = None  # the multiply-adds the product loop may still perform; None, unbounded


@contextmanager
def work_budget(multiply_adds: int | None):
    """Allow the product loop multiply_adds multiply-adds in the body (None:
    no bound), a count the same on every machine; past it the loop raises
    BudgetExceeded before a product, its row as it was.  On leaving, the
    allowance is as before."""
    global _allowance
    saved, _allowance = _allowance, multiply_adds
    try:
        yield
    finally:
        _allowance = saved


def _accumulate(acc: dict, left: dict, right: dict, scale: int = 1) -> None:
    """acc += scale * left * right, for rows keyed by integers that add
    under multiplication (packed monomials, w exponents), their values
    integer numerators (Fractions in LaurentPolyW): the one product loop of
    elements, derivations and w-polynomials, which first charges its
    multiply-adds to the allowance of work_budget, if any."""
    global _allowance
    if _allowance is not None:  # None: unbounded, nothing to count
        _allowance -= len(left) * len(right)
        if _allowance < 0:
            raise BudgetExceeded
    get = acc.get
    for k1, c1 in left.items():
        c1 *= scale
        for k2, c2 in right.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


class BigradedElement:
    """A finite rational combination of monomials in E4, E6, A^{+-1}, B."""

    __slots__ = ("_num", "_den", "_hash", "_split", "_outside")

    def __init__(self, terms: Mapping | None = None):
        coeffs: dict = {}
        for m, c in (terms or {}).items():
            key = _key(m)
            coeffs[key] = coeffs.get(key, 0) + Fraction(c)
        (num,), den = _numerators([coeffs])
        (self._num,), self._den = _normalized([num], den)
        self._hash = self._split = self._outside = None

    @classmethod
    def _raw(cls, num: dict, den: int, product: bool = False) -> "BigradedElement":
        # trusted path: integer numerators over a positive den, on keys in
        # range or, for a product, on sums of two keys in range, which
        # _check_product_keys checks.
        if product:
            _check_product_keys(num)
        el = cls.__new__(cls)
        (el._num,), el._den = _normalized([num], den)
        el._hash = el._split = el._outside = None
        return el

    # ------------------------------------------------------------------ basics

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self) -> dict[Monomial, Fraction]:
        d = self._den
        return {Monomial(*_exponents(k)): Fraction(c, d) for k, c in sorted(self._num.items())}

    def coefficient(self, m) -> Fraction:
        try:
            return Fraction(self._num.get(_key(m), 0), self._den)
        except BidegreeError:  # no element has such a monomial
            return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = constant(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            num = self._num
            if num.keys() <= {0}:  # a constant equals its scalar, so hashes as it
                h = hash(Fraction(num.get(0, 0), self._den))
            else:
                h = hash((self._den, frozenset(num.items())))
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
        (k, c), = self._num.items()
        e4, e6, a, b = _exponents(k)
        if e4 or e6 or b:
            raise ValueError("only single-term pure A powers are invertible")
        return BigradedElement._raw({_key((0, 0, -a, 0)): self._den if c > 0 else -self._den}, abs(c))

    # ----------------------------------------------------------------- grading

    def _components(self) -> tuple:
        """(Bidegree, piece) pairs in bidegree order; a homogeneous element
        is its own single piece.  The split is cached in _split, for a
        homogeneous element as its Bidegree alone, so no element refers to
        itself."""
        split = self._split
        if split is None:
            buckets: dict = {}
            for k, c in self._num.items():
                e4, e6, a, b = _exponents(k)
                # (weight, index) as in bidegree(), without a Bidegree per monomial
                buckets.setdefault((4 * e4 + 6 * e6 - 2 * a, a + b), {})[k] = c
            parts = sorted(buckets.items())
            if len(parts) == 1:
                split = self._split = Bidegree(*parts[0][0])
            else:
                split = self._split = tuple((Bidegree(*d), BigradedElement._raw(num, self._den)) for d, num in parts)
        return ((split, self),) if type(split) is Bidegree else split

    def _outside_rows(self, test) -> "_OutsideRows":
        """Self's _OutsideRows for the monomial test: one cache, in
        _outside, replaced when another test is asked for."""
        rows = self._outside
        if rows is None or rows.test is not test:
            rows = self._outside = _OutsideRows(self._num, test)
        return rows

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
    """base ** n for an integer n >= 0 by square-and-multiply: the one
    power rule of elements, coefficients, series and the memoised powers
    of the series generators.  The unit one is returned for n = 0 and
    never multiplied in, so base ** 1 is base itself."""
    if n < 0:
        raise ValueError("negative powers are not supported")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def linear_combination(terms, divisor: int = 1) -> BigradedElement:
    """Sum of coeff * x over (coeff, x) terms and of coeff * x * y over
    (coeff, x, y) terms, divided by the positive integer divisor and
    normalised once.

    Each term goes through the product loop, a sum as a product with 1,
    into one row of integer numerators over a common denominator that grows
    as needed, so no product is built as an element of its own.  This is
    the one place that decides how sums and products of elements are
    normalised.
    """
    num: dict = {}
    den = 1
    multiplied = False
    for term in terms:
        c, x = term[0], term[1]
        y = term[2] if len(term) == 3 else ONE
        if not (c and x._num and y._num):
            continue
        d = c.denominator * x._den * y._den
        if den % d:  # grow the common denominator and rescale the sum so far
            grown = math.lcm(den, d)
            num = {k: v * (grown // den) for k, v in num.items()}
            den = grown
        _accumulate(num, x._num, y._num, c.numerator * (den // d))
        multiplied = multiplied or y is not ONE
    return BigradedElement._raw(num, den * divisor, product=multiplied)


class _OutsideRows(dict):
    """Grade g -> the numerators of an element's monomials whose grade plus
    g fails a subalgebra's monomial test, as one row, filled in as grades
    are asked for.  The rows attribute holds the numerators split by the A
    and B exponents of their monomials, as (grade, row) pairs, the grade of
    A^a B^b being its packed key, so that a product's grade is the sum of
    its factors'.  A grade's verdict, the indices of the rows it sends
    outside, keys its row in verdicts, so each verdict's row is built once;
    none failing is one empty row, all failing the element's numerators."""

    __slots__ = ("rows", "test", "verdicts")

    def __init__(self, num, test):  # dict.__new__ has made the empty dict
        rows: dict = {}
        for k, c in num.items():
            _, _, a, b = _exponents(k)
            rows.setdefault(a * _GENERATOR_KEYS[2] + b, {})[k] = c
        self.rows, self.test, self.verdicts = tuple(rows.items()), test, {(): {}, tuple(range(len(rows))): num}

    def __missing__(self, grade):
        _check_product_keys([grade + g for g, _ in self.rows])  # grades of products, as keys
        verdict = tuple(i for i, (g, _) in enumerate(self.rows) if not self.test(_exponents(grade + g)))
        if verdict not in self.verdicts:
            self.verdicts[verdict] = {k: c for i in verdict for k, c in self.rows[i][1].items()}
        part = self[grade] = self.verdicts[verdict]
        return part


def escapes(terms, algebra: str) -> bool:
    """Whether sum coeff * x * y over (coeff, x, y) terms has a monomial
    outside the named subalgebra of K, without forming the sum.

    A subalgebra's monomial test reads only the A and B exponents, which
    add under multiplication.  So the part of x * y outside the algebra is
    the sum, over the rows of x by grade, of each row times the monomials
    of y that its grade sends outside (both read from _outside_rows), and
    only those products are formed, over one common denominator as in
    linear_combination.  The sum lies inside exactly when that part is
    zero.  An exponent of that part out of range raises BidegreeError; the
    part inside is never formed, so its exponents are not checked."""
    test = _membership_test(algebra)  # an unknown name raises, with or without terms
    num: dict = {}
    den = 1
    for c, x, y in terms:
        y_outside = y._outside_rows(test)
        scale = 0  # set at the term's first product outside, if any
        for gx, x_row in x._outside_rows(test).rows:
            y_row = y_outside[gx]
            if y_row:
                if not scale:
                    d = c.denominator * x._den * y._den
                    if den % d:  # grow the common denominator and rescale the part so far
                        grown = math.lcm(den, d)
                        num = {k: v * (grown // den) for k, v in num.items()}
                        den = grown
                    scale = c.numerator * (den // d)
                _accumulate(num, x_row, y_row, scale)
    _check_product_keys(num)
    return any(num.values())


def rescaled(f: BigradedElement, factor) -> BigradedElement:
    """f with the coefficient of each monomial m multiplied by factor(m),
    in one pass over the monomials."""
    (num,), den = _numerators([{k: c * factor(Monomial(*_exponents(k))) for k, c in f._num.items()}])
    return BigradedElement._raw(num, f._den * den)


def leibniz_apply(f: BigradedElement, images) -> BigradedElement:
    """Apply the derivation with the given generator images to f.

    images is a 4-tuple of elements (values on E4, E6, A, B).  The Leibniz
    power rule c*e*x^{e-1}*image handles negative A exponents, which forces
    the localization rule D(A^-1) = -A^-2 D(A).  Each term is one call of
    the product loop, on the shifted key of x^{e-1} and the image of x.
    """
    l = math.lcm(*(img._den for img in images))
    out: dict = {}
    for k, c in f._num.items():
        for e, unit, img in zip(_exponents(k), _GENERATOR_KEYS, images):
            if e and img._num:
                _accumulate(out, {k - unit: e * c}, img._num, l // img._den)
    return BigradedElement._raw(out, f._den * l, product=True)


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

# The monomial test of each subalgebra of K, and each proper one's
# generators.  A test reads only the A and B exponents (escapes relies on it).
_MEMBERSHIP = {
    "M": lambda m: m[2] == 0 and m[3] == 0,
    "Jtilde": lambda m: m[2] >= 0,
    "Q": lambda m: m[2] == -m[3],
    "K": lambda m: True,
}
SUBALGEBRA_GENERATORS = {"M": (E4, E6), "Jtilde": GENERATORS, "Q": (E4, E6, F2)}


def _membership_test(algebra: str):
    """The named subalgebra's monomial test; ValueError for an unknown name."""
    try:
        return _MEMBERSHIP[algebra]
    except KeyError:
        raise ValueError(f"unknown algebra {algebra!r}, expected one of {tuple(_MEMBERSHIP)}")


def membership(f: BigradedElement, algebra: str) -> bool:
    """Whether every monomial of f lies in the named subalgebra of K.

    M is C[E4,E6]; Jtilde is C[E4,E6,A,B]; Q is C[E4,E6,F2] (monomials with
    the A exponent opposite to the B exponent); K is everything.
    """
    test = _membership_test(algebra)
    return all(test(_exponents(k)) for k in f._num)


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
# The most digits of a number in element text, and of the numerators and
# the common denominator of a parsed element: int() refuses more than 4300,
# and a coefficient of more than 4300 digits cannot be printed.
_MAX_DIGITS = 100

_TOKEN = re.compile(r"(?P<name>E4|E6|F2|A|B)|(?P<int>[0-9]+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastgroup == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        value = match.group()
        if match.lastgroup == "int":
            value = value.lstrip("0") or "0"
            if len(value) > _MAX_DIGITS:
                raise ParseError(f"number of more than {_MAX_DIGITS} digits", match.start())
        tokens.append((match.lastgroup, value, match.start()))
    return tokens


def parse_element(text: str, allow_f2: bool = False) -> BigradedElement:
    """Parse element text such as "E4^2*A^-1*B - 1/3*E6".

    F2 is rejected unless allow_f2 is set, in which case every F2^e is
    rewritten as B^e * A^-e so the result is in canonical coordinates.
    One loop reads a sign and a term per pass; the first sign is optional.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element text", 0)
    tokens.append(("end", "", len(text)))
    pos = 0

    def take(kind, values=None, message=None):
        # the next token, consumed, if it has the kind (and one of the
        # values); else None, or ParseError(message) at that token
        nonlocal pos
        tok = tokens[pos]
        if tok[0] == kind and (values is None or tok[1] in values):
            pos += 1
            return tok
        if message:
            raise ParseError(message, tok[2])
        return None

    total: dict = {}
    while True:
        sign = take("op", "+-", "expected '+' or '-' between terms" if total else None)
        if total and take("end"):
            raise ParseError("dangling sign", len(text))
        coeff = Fraction(-1 if sign and sign[1] == "-" else 1)
        exps = (0, 0, 0, 0)
        number = take("int")
        if number:
            coeff *= int(number[1])
            if take("op", "/"):
                den = take("int", message="expected a positive denominator")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                coeff /= int(den[1])
        more = not number or take("op", "*")
        while more:
            name = take("name", message="expected a generator name")
            exp = 1
            if take("op", "^"):
                minus = take("op", "-")
                digits = take("int", message="expected an integer")
                exp = -int(digits[1]) if minus else int(digits[1])
                if abs(exp) > _MAX_EXPONENT:
                    raise ParseError("exponent overflow", digits[2])
            if name[1] == "F2" and not allow_f2:
                raise ParseError("F2 is not a stored generator (pass allow_f2 to rewrite it)", name[2])
            unit = (0, 0, -1, 1) if name[1] == "F2" else tuple(int(slot == name[1]) for slot in GENERATOR_NAMES)
            exps = tuple(x + exp * u for x, u in zip(exps, unit))
            if max(map(abs, exps)) > _MAX_EXPONENT:
                raise ParseError("exponent overflow", name[2])
            more = take("op", "*")
        total[exps] = total.get(exps, 0) + coeff
        if take("end"):
            # terms add up, so the sums must keep to the digits of one number
            element = BigradedElement(total)
            if max([element._den, *map(abs, element._num.values())]) >= 10 ** _MAX_DIGITS:
                raise ParseError(f"coefficients of more than {_MAX_DIGITS} digits over a common denominator", 0)
            return element


def _format_monomial(m) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(GENERATOR_NAMES, m) if e)


def _format_sum(terms) -> str:
    """Text of a sum of (coefficient, monomial text) terms in the given
    order, the text empty for a constant term: "-E4 + 1/2*E6 - 3", or "0"
    for no terms.  The text form of elements and of w-polynomials."""
    chunks = []
    for c, body in terms:
        mag = abs(c)
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        if chunks:
            chunks.append(f"- {text}" if c < 0 else f"+ {text}")
        else:
            chunks.append(f"-{text}" if c < 0 else text)
    return " ".join(chunks) or "0"


def format_element(f: BigradedElement) -> str:
    """Canonical text form; monomials in descending lexicographic
    (e4, e6, a, b) order, so the leading monomial comes first."""
    den = f._den
    return _format_sum((Fraction(f._num[k], den), _format_monomial(_exponents(k))) for k in sorted(f._num, reverse=True))


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
        m = Monomial(*(operator.index(entry[x]) for x in Monomial._fields))
        terms[m] = terms.get(m, Fraction(0)) + Fraction(entry["coeff"])
    return BigradedElement(terms)

"""Exact truncated Fourier expansions for the weak Jacobi generators.

Series live in q up to a fixed order N; each q-coefficient is a Laurent
polynomial in w, where w^2 = xi is the elliptic variable (half-integer
xi powers hide in the theta factors, so w keeps everything polynomial).
The truncation order N is nonnegative, a series has at least its q^0 row,
and the exponents of w are integers (read through operator.index): a
negative order raises ValueError and a float exponent TypeError.

A series stores one row per power of q, a dict {w exponent: integer
numerator}, over one positive denominator shared by all rows: the rows of
the exact kernel of `elements`, whose normaliser, conversion from
Fractions and work budget series share with elements.  coefficient(n)
builds a LaurentPolyW of Fractions from a row 0 <= n <= N on demand.
Sums and products of series are folded by `combination` into one set of
rows over the lcm of the terms' denominators and normalised once, each
row of a factor packed into one integer (Kronecker substitution), so a
product of two rows is one integer product; `+`, `-`, `*` and the
evaluation maps are calls of it, and `**` of `elements.power`; both
evaluations are one substitution map, `_substituted`, on the memoised
powers of the bundle's series and the memoised index parts A^a B^b: only
A and B rows are wide, E4, E6 and E2 rows are one term, so the index part
is the one product worth keeping.

Every series is exact: each stored coefficient is the true one.  The
elliptic-zeta series J1 has no finite q^0 row, since xi/(xi-1) has an
infinite geometric tail, so the Fourier-side operator multiplies by
J1g = (w - w^{-1}) J1 instead, whose rows are finite, and divides the
other factor by w - w^{-1}; the quotient is exact because every row of
dz(f) of an f even in z is odd in w.  Only `expand --what J1` prints
J1's own rows, truncated (j1_series).

The index-one generators are built rather than tabulated, both exact:
A as (w - w^{-1})^2 times the square of a quotient of reduced theta and
eta-cube series, both sums over triangular powers of q, and B as 12
times the normalised Weierstrass function times A.  The Fourier-side
derivation is thus independent of B, which it is checked against.  A
product costs about N^2/2 integer products of rows, and the CLI's expand
accepts N <= 200.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm, prod

from . import elements
from .elements import (
    BigradedElement,
    BudgetExceeded,
    _accumulate,
    _format_sum,
    _normalized,
    _numerators,
    membership,
    power,
)


# ------------------------------------------------------- Laurent coefficients


class LaurentPolyW:
    """One q-coefficient: a finite Laurent polynomial in w, exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self._coeffs = {}
        if coeffs:
            for r, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self._coeffs[operator.index(r)] = c

    @classmethod
    def _raw(cls, coeffs: dict) -> "LaurentPolyW":
        poly = cls.__new__(cls)
        poly._coeffs = {r: c for r, c in coeffs.items() if c}
        return poly

    def items(self):
        return self._coeffs.items()

    def coefficient(self, r: int) -> Fraction:
        return self._coeffs.get(operator.index(r), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolyW):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolyW({0: other})
        elif not isinstance(other, LaurentPolyW):
            return NotImplemented
        out = dict(self._coeffs)
        _accumulate(out, other._coeffs, {0: 1})
        return LaurentPolyW._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolyW._raw({r: -c for r, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return LaurentPolyW()
            return LaurentPolyW._raw({r: v * c for r, v in self._coeffs.items()})
        if not isinstance(other, LaurentPolyW):
            return NotImplemented
        out: dict = {}
        _accumulate(out, self._coeffs, other._coeffs)
        return LaurentPolyW._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, LaurentPolyW({0: 1}))

    def __repr__(self):
        return f"<wpoly {format_wpoly(self)}>"


def format_wpoly(poly: LaurentPolyW) -> str:
    return _format_sum((poly._coeffs[r], f"w^{r}" if r else "") for r in sorted(poly._coeffs, reverse=True))


# ---------------------------------------------------------------- the series


class QSeries:
    """Truncated q-series; row n holds the q^n coefficient as integer
    numerators over the shared positive denominator.

    QSeries(coeffs) takes LaurentPolyW values or {w exponent: rational}
    dicts, one per power of q.
    """

    __slots__ = ("_rows", "_den", "_hash", "_shape", "_pack")

    def __init__(self, coeffs):
        polys = [c if isinstance(c, LaurentPolyW) else LaurentPolyW(c) for c in coeffs]
        if not polys:
            raise ValueError("a series has at least its q^0 row")
        rows, den = _numerators([p._coeffs for p in polys])
        rows, self._den = _normalized(rows, den)
        self._rows, self._hash = tuple(rows), None
        self._shape = self._pack = None

    @classmethod
    def _raw(cls, rows, den: int) -> "QSeries":
        # trusted path: integer numerators over a positive denominator
        series = cls.__new__(cls)
        rows, series._den = _normalized(rows, den)
        series._rows, series._hash = tuple(rows), None
        series._shape = series._pack = None
        return series

    @property
    def q_order(self) -> int:
        return len(self._rows) - 1

    @property
    def coeffs(self) -> tuple[LaurentPolyW, ...]:
        return tuple(self.coefficient(n) for n in range(len(self._rows)))

    def coefficient(self, n: int) -> LaurentPolyW:
        if not 0 <= n <= self.q_order:
            raise ValueError(f"q^{n} lies outside q^0..q^{self.q_order}")
        den = self._den
        return LaurentPolyW._raw({r: Fraction(c, den) for r, c in self._rows[n].items()})

    def __neg__(self):
        return combination(((-1, self),), self.q_order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant_series(other, self.q_order)
        elif not isinstance(other, QSeries):
            return NotImplemented
        return combination(((1, self), (1, other)), min(self.q_order, other.q_order))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant_series(other, self.q_order)
        elif not isinstance(other, QSeries):
            return NotImplemented
        return combination(((1, self), (-1, other)), min(self.q_order, other.q_order))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return combination(((1, constant_series(other, self.q_order)), (-1, self)), self.q_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return combination(((other, self),), self.q_order)
        if not isinstance(other, QSeries):
            return NotImplemented
        return combination(((1, self, other),), min(self.q_order, other.q_order))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, constant_series(1, self.q_order))

    def dtau(self) -> "QSeries":
        """q d/dq: multiply the q^n coefficient by n."""
        rows = [{r: c * n for r, c in row.items()} for n, row in enumerate(self._rows)]
        return QSeries._raw(rows, self._den)

    def dz(self) -> "QSeries":
        """Elliptic derivative: the w^r term picks up the factor r/2."""
        rows = [{r: c * r for r, c in row.items()} for row in self._rows]
        return QSeries._raw(rows, 2 * self._den)

    def gap_quotient(self) -> "QSeries":
        """The series divided by the theta gap w - w^{-1}, row by row.

        A row c is Q (w - w^{-1}) exactly when the top-down pass
        Q[r-1] = c[r] + Q[r+1] leaves nothing below the support of c, that
        is when c vanishes at w = 1 and w = -1, as every row of dz(f) does
        for an f even in z.  Raises ValueError on a row that does not
        divide.
        """
        rows = []
        for row in self._rows:
            quotient, low = {}, min(row, default=0)
            for r in range(max(row, default=0), low - 1, -1):
                quotient[r - 1] = row.get(r, 0) + quotient.get(r + 1, 0)
            if quotient.pop(low, 0) or quotient.pop(low - 1, 0):
                raise ValueError("a row does not divide by w - w^-1: the series was not even in z")
            rows.append(quotient)
        return QSeries._raw(rows, self._den)

    def agrees_with(self, other: "QSeries") -> bool:
        """Equality through the common q order."""
        order = min(self.q_order, other.q_order) + 1
        return QSeries._raw(self._rows[:order], self._den) == QSeries._raw(other._rows[:order], other._den)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, tuple(frozenset(row.items()) for row in self._rows)))
        return self._hash

    def __repr__(self):
        return f"<qseries through q^{self.q_order}>"


def combination(terms, q_order: int) -> QSeries:
    """Sum of coeff * x over (coeff, x) terms and of coeff * x * y over
    (coeff, x, y) terms through q^q_order, normalised once: the one place
    that decides how sums and products of series are normalised.

    Terms are summed over the lcm of their denominators, taken before any
    product, as packed integers (Kronecker substitution): every row of
    every factor is one integer (_packed), with slots wide enough for any
    coefficient of the sum, so a pair of rows is one integer product, a
    sum's term a product with the row 1, and each row of the sum is
    unpacked once.  Under work_budget each pair of rows is charged what
    the product loop of elements would perform, len(row1) * len(row2),
    before its product.  A zero coefficient drops its term; a term that
    stops short of q^q_order raises ValueError.
    """
    _rows(q_order)  # a negative order raises ValueError
    terms = [term for term in terms if term[0]]
    if any(s.q_order < q_order for term in terms for s in term[1:]):
        raise ValueError(f"a term does not reach q^{q_order}")
    dens = [term[0].denominator * prod(s._den for s in term[1:]) for term in terms]
    den = lcm(*dens)
    terms = [(c.numerator * (den // d), *series) for (c, *series), d in zip(terms, dens)]
    one = (0, False, (1,))  # the shape of the series 1 (one row), a sum's second factor
    shapes = [[_shape(s) for s in series] + [one] * (2 - len(series)) for _, *series in terms]
    bases = [x[0] + y[0] for x, y in shapes]  # the least w exponent of each term's product
    # stride 2 when the slots of odd or of even exponents alone are ever filled
    mixed = any(x[1] or y[1] for x, y in shapes) or len({base & 1 for base in bases}) > 1
    stride, low = 1 + (not mixed), min(bases, default=0)
    bound = [0] * (q_order + 1)  # of the sizes of the rows of the sum, so of its coefficients
    for (scale, *_), (x, y) in zip(terms, shapes):
        bound = [b + abs(scale) * sum(map(operator.mul, y[2][: n + 1], x[2][n::-1])) for n, b in enumerate(bound)]
    nbytes = 8 * ((_slot_bits(max(bound)) + 63) // 64)  # whole words: packs of nearby widths are shared
    sums = [0] * (q_order + 1)
    for (scale, x, *y), base in zip(terms, bases):
        if elements._allowance is not None:  # charged pair by pair, as the product loop would be
            for n1, row1 in enumerate(x._rows[: q_order + 1]):
                for row2 in (y[0]._rows if y else _ONE_ROWS)[: q_order + 1 - n1]:
                    elements._allowance -= len(row1) * len(row2)
                    if elements._allowance < 0:
                        raise BudgetExceeded
        shift = (base - low) // stride * 8 * nbytes
        left = [scale * p << shift for p in _packed(x, stride, nbytes)[: q_order + 1]]
        right = _packed(y[0], stride, nbytes) if y else (1,)
        sums = [v + sum(map(operator.mul, right[: n + 1], left[n::-1])) for n, v in enumerate(sums)]
    return QSeries._raw([_unpacked(v, low, stride, nbytes) for v in sums], den)


def _shape(series: QSeries) -> tuple:
    """(least w exponent, whether the w exponents mix parities, the sum of
    the sizes of the numerators of each row) of a series, kept on it."""
    if series._shape is None:
        exponents = set().union(*series._rows)
        sizes = tuple(sum(map(abs, row.values())) for row in series._rows)
        series._shape = min(exponents, default=0), len({r & 1 for r in exponents}) > 1, sizes
    return series._shape


def _slot_bits(bound: int) -> int:
    """Bits of a slot for integers of size at most bound, a sign bit included."""
    return bound.bit_length() + 1


def _packed(series: QSeries, stride: int, nbytes: int) -> tuple:
    """The rows of series as integers, each the sum of c * 2^(8 nbytes (r -
    lo) / stride) over its terms c w^r, lo the least w exponent of the
    series: exact for any c.  The last packing is kept on the series."""
    if series._pack is None or series._pack[0] != (stride, nbytes):
        lo, bits = _shape(series)[0], 8 * nbytes
        rows = tuple(sum(c << bits * ((r - lo) // stride) for r, c in row.items()) for row in series._rows)
        series._pack = (stride, nbytes), rows
    return series._pack[1]


def _unpacked(value: int, lo: int, stride: int, nbytes: int) -> dict:
    """The row that _packed packs as value, each coefficient of size below
    2^(8 nbytes - 1): with the bias added, each slot is an unsigned digit."""
    count, half = abs(value).bit_length() // (8 * nbytes) + 1, 1 << (8 * nbytes - 1)
    data = (value + int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")).to_bytes(count * nbytes, "little")
    if nbytes == 8:  # every digit in one call
        digits = struct.unpack(f"<{count}Q", data)
    else:
        digits = [int.from_bytes(data[at : at + nbytes], "little") for at in range(0, len(data), nbytes)]
    return {r: d - half for r, d in zip(range(lo, lo + stride * count, stride), digits) if d != half}


_ONE_ROWS = ({0: 1},)  # the series 1, by which combination multiplies a sum's term


def _rows(q_order: int, first: dict | None = None) -> list:
    """Rows for q^0 through q^q_order, empty but for the q^0 row first:
    the one place rows are laid out for a given truncation order, so the
    one check that it is nonnegative."""
    if q_order < 0:
        raise ValueError(f"the truncation order must be nonnegative, got {q_order}")
    return [first or {}] + [{} for _ in range(q_order)]


def constant_series(value, q_order: int) -> QSeries:
    c = Fraction(value)
    return QSeries._raw(_rows(q_order, {0: c.numerator}), c.denominator)


# ----------------------------------------------------------- number helpers


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k (B_1 = -1/2 convention)."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    values = [Fraction(1)]
    for m in range(1, k + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values[k]


def _divisors(n: int) -> list[int]:
    """The positive divisors of a positive n, in increasing order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def sigma(u: int, n: int) -> int:
    """Divisor power sum sigma_u(n) for positive n."""
    if n <= 0:
        raise ValueError("divisor sums need a positive argument")
    return sum(d ** u for d in _divisors(n))


def eisenstein(k: int, q_order: int) -> QSeries:
    """Weight-k Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 2")
    factor = Fraction(-2 * k) / bernoulli(k)
    rows = _rows(q_order, {0: factor.denominator})
    rows[1:] = [{0: factor.numerator * sigma(k - 1, n)} for n in range(1, q_order + 1)]
    return QSeries._raw(rows, factor.denominator)


# ----------------------------------------------------- index-one generators


def _triangular_series(q_order: int, row) -> QSeries:
    """sum_{n>=0} (-1)^n row(n) q^{n(n+1)/2} through q^q_order: the reduced
    theta series over w - w^{-1} for row(n) = w^{2n} + w^{2n-2} + ... +
    w^{-2n}, and the eta-cube without its q^{1/8} for row(n) = 2n+1."""
    rows = _rows(q_order)
    n = 0
    while n * (n + 1) // 2 <= q_order:
        rows[n * (n + 1) // 2] = {r: (-1) ** n * c for r, c in row(n).items()}
        n += 1
    return QSeries._raw(rows, 1)


def _inverted_unit(series: QSeries) -> QSeries:
    """Inverse of an exact integral q-series with constant term 1; the
    inverse is integral too."""
    rows = series._rows
    if series._den != 1 or rows[0] != {0: 1}:
        raise ValueError("series inversion requires integer coefficients and a leading term of 1")
    out = [{0: 1}]
    for n in range(1, len(rows)):
        acc: dict = {}
        for k in range(1, n + 1):
            if rows[k]:
                _accumulate(acc, rows[k], out[n - k])
        out.append({r: -c for r, c in acc.items()})
    return QSeries._raw(out, 1)


def _a_and_ratio_squared(q_order: int) -> tuple[QSeries, QSeries]:
    """(A, R^2) for the theta ratio R = theta~/eta^3, theta~ the reduced
    theta series over w - w^{-1} (the q^{1/8} prefactors cancel in R^2,
    keeping integer q powers): A = (w - w^{-1})^2 R^2."""
    theta = _triangular_series(q_order, lambda n: dict.fromkeys(range(-2 * n, 2 * n + 1, 2), 1))
    ratio = theta * _inverted_unit(_triangular_series(q_order, lambda n: {0: 2 * n + 1}))
    ratio_sq = ratio * ratio
    gap_sq = QSeries._raw(_rows(q_order, {2: 1, 0: -2, -2: 1}), 1)  # (w - w^{-1})^2
    return gap_sq * ratio_sq, ratio_sq


def _b_from(a: QSeries, ratio_sq: QSeries) -> QSeries:
    """B = 12 P A for the normalised Weierstrass function
    P = 1/12 + 1/(w - w^{-1})^2 + sum_n sum_{d|n} d (w^{2d} - 2 + w^{-2d}) q^n
    (Eichler-Zagier, The Theory of Jacobi Forms, 1985, section 9), so
    B = A + 12 R^2 + 12 P' A with P' the divisor-sum rows: exact on every
    row."""
    rows = [{}]
    for n in range(1, a.q_order + 1):
        row = {0: -2 * sigma(1, n)}
        for d in _divisors(n):
            row[2 * d] = row[-2 * d] = d
        rows.append(row)
    return combination(((1, a), (12, ratio_sq), (12, QSeries._raw(rows, 1), a)), a.q_order)


def theta_quotient_A(q_order: int) -> QSeries:
    """The weight -2, index 1 generator, (w - w^{-1})^2 times the squared
    theta ratio."""
    return _a_and_ratio_squared(q_order)[0]


def b_series(q_order: int) -> QSeries:
    """The weight 0, index 1 generator, 12 times the normalised Weierstrass
    function times the weight -2 one."""
    return _b_from(*_a_and_ratio_squared(q_order))


def j1_series(q_order: int, window: int) -> QSeries:
    """The rows of the odd elliptic-zeta combination J1 with the q^0 row
    truncated: this is not J1.

    J1's q^0 row -1/2 + xi/(xi-1) has no finite expansion; here it is
    expanded in the xi^{-1} direction and cut after xi^{-window}, so its
    w^r coefficients are J1's for r >= -2 window only.  The q^n row for
    n >= 1 is -(sum_{d|n} (xi^d - xi^{-d})).  Stored over the denominator 2.
    """
    if window < 1:
        raise ValueError("window must be positive")
    rows = _rows(q_order, {0: 1, **{-2 * d: 2 for d in range(1, window + 1)}})
    for n in range(1, q_order + 1):
        for d in _divisors(n):
            rows[n].update({2 * d: -2, -2 * d: 2})
    return QSeries._raw(rows, 2)


def j1g_series(q_order: int) -> QSeries:
    """Exact J1g = (w - w^{-1}) J1: the q^0 row is (w + w^{-1})/2, the q^n
    row -(sum_{d|n} (w^{2d} - w^{-2d}))(w - w^{-1}).  The gap times J1 cut
    after xi^{-1} is all of it but the -w^{-3} the telescoped q^0 row leaves."""
    gap = QSeries._raw(_rows(q_order, {1: 1, -1: -1}), 1)
    cut = QSeries._raw(_rows(q_order, {-3: 1}), 1)
    return gap * j1_series(q_order, 1) + cut


def j2_series(q_order: int) -> QSeries:
    """Exact expansion of the even elliptic companion: 1/6 minus
    2 sum_n sum_{d|n} (n/d)(xi^d + xi^{-d}) q^n.

    The even xi-combination is the one compatible with
    (w - w^{-1}) dz(J2) = 2 dtau(J1g) and with the evenness of the series
    in z; it is cross-checked against the weight-0 generator through the
    Fourier-side derivation of A.  Stored over the denominator 6.
    """
    rows = _rows(q_order, {0: 1})
    for n in range(1, q_order + 1):
        for d in _divisors(n):
            rows[n][2 * d] = rows[n][-2 * d] = -12 * (n // d)
    return QSeries._raw(rows, 6)


# -------------------------------------------------------------- the bundle


@dataclass(frozen=True)
class JacobiSeriesBundle:
    """All generator expansions through a common q order, exact."""

    q_order: int
    e2: QSeries
    e4: QSeries
    e6: QSeries
    a: QSeries
    b: QSeries
    j1g: QSeries
    j2: QSeries


def oberdieck_series(f: QSeries, k, p, bundle: JacobiSeriesBundle) -> QSeries:
    """Fourier-side weight-raising operator on an f even in z:
    dtau(f) - (k/12) f E2 - J1 dz(f) + p J2 f, exact, with J1 dz(f)
    computed as J1g (dz(f) / (w - w^{-1})).  Raises ValueError when f is
    not even in z."""
    terms = (
        (1, f.dtau()),
        (-Fraction(k, 12), f, bundle.e2),
        (-1, bundle.j1g, f.dz().gap_quotient()),
        (Fraction(p), bundle.j2, f),
    )
    return combination(terms, min(f.q_order, bundle.q_order))


def make_bundle(q_order: int = 10, window=None) -> JacobiSeriesBundle:
    """Every generator expansion through q^q_order; A and B share one theta
    ratio.  No series of the bundle is truncated in w, so window is
    ignored; it is accepted because the benchmark sweep passes it."""
    a, ratio_sq = _a_and_ratio_squared(q_order)
    e2, e4, e6 = (eisenstein(k, q_order) for k in (2, 4, 6))
    b = _b_from(a, ratio_sq)
    return JacobiSeriesBundle(q_order, e2, e4, e6, a, b, j1g_series(q_order), j2_series(q_order))


# -------------------------------------------------------------- evaluation


@lru_cache(maxsize=4096)
def _generator_power(bundle: JacobiSeriesBundle, field: str, exponent: int) -> QSeries:
    """The bundle's series named field (e4, e6, e2, a or b) to the power
    exponent, memoised across the monomials of every evaluation."""
    return getattr(bundle, field) ** exponent


def _power_product(bundle: JacobiSeriesBundle, x: str, i: int, y: str, j: int) -> QSeries:
    """X^i Y^j for the bundle's series named x and y, from their memoised
    powers; a product only when both exponents are nonzero, the series 1
    when neither is."""
    if i and j:
        return _generator_power(bundle, x, i) * _generator_power(bundle, y, j)
    return _generator_power(bundle, x, i) if i else _generator_power(bundle, y, j)


# A^a B^b, memoised per (bundle, a, b) and built once per bundle: its rows
# are wide, so forming it again for each monomial would cost N^2/2 w^2
_index_part = lru_cache(maxsize=4096)(_power_product)


def _substituted(f: BigradedElement, bundle: JacobiSeriesBundle, index_part) -> QSeries:
    """f with each monomial m = E4^i E6^j X replaced by its modular part
    E4^i E6^j times its index part index_part(m), the series of X, summed
    in one combination: the one substitution map.  Modular rows are one
    term wide, so the modular part costs about N^2/2 multiply-adds and its
    product with an index part of rows w wide about N^2/2 w."""
    terms = [(c, _power_product(bundle, "e4", m.e4, "e6", m.e6), index_part(m)) for m, c in f.terms().items()]
    return combination(terms, bundle.q_order)


def evaluate(f: BigradedElement, bundle: JacobiSeriesBundle) -> QSeries:
    """Substitution homomorphism C[E4,E6,A,B] -> exact q-series.

    Rejects negative A exponents; for an element of K with minimal A
    exponent -m, evaluate A^m * f instead.
    """
    if not membership(f, "Jtilde"):
        raise ValueError("element has negative A exponents; clear them before evaluating")
    return _substituted(f, bundle, lambda m: _index_part(bundle, "a", m.a, "b", m.b))


def evaluate_quasimodular(f: BigradedElement, bundle: JacobiSeriesBundle) -> QSeries:
    """Evaluate an index-zero element through F2 -> E2.

    Monomials must have opposite A and B exponents; B^s A^{-s} maps to
    E2^s, so the result is the expansion of the corresponding quasimodular
    form.
    """
    if not membership(f, "Q"):
        raise ValueError("element is not a polynomial in E4, E6, F2")
    return _substituted(f, bundle, lambda m: _generator_power(bundle, "e2", m.b))


def delta_series(bundle: JacobiSeriesBundle) -> QSeries:
    e4, e6 = bundle.e4, bundle.e6
    return combination(((Fraction(1, 1728), e4 * e4, e4), (Fraction(-1, 1728), e6, e6)), bundle.q_order)

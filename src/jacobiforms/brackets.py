"""Rankin-Cohen bracket families and the deformation engine.

A family pairs an admissible derivation D with a rational index weight c.
Its n-th bracket on homogeneous pieces of bidegrees (k, p) and (l, q) is

    sum_r (-1)^r binom(k+cp+n-1, n-r) binom(l+cq+n-1, r) D^r(f) D^{n-r}(g)

extended bilinearly over homogeneous components.  Binomials use the falling
factorial so rational and negative tops (c is a free parameter; A has weight
-2) need no special casing.  Every binomial in a row of the n-th bracket is
an integer over D(c, n) = den(c)^n * n!, because gbinom(T/d, j) has a
denominator dividing d^j * j!; so each row is memoised as integers, read
straight from `gbinom` once per (bidegree, c, n), each term's coefficient
is an integer product, and a bracket (or a signed sum of brackets,
`bracket_sum`) is one integer sum (`linear_combination`) divided once by
D(c, n)^2.  `escaping_orders` reads the same terms into `elements.escapes`,
which decides whether a bracket leaves a subalgebra without forming it.
The powers D^r of a component are its memoised power sequence
(`derivations.power_sequence`).  No element is built per product.  The
same sequence is also computable in the Connes-Moscovici Pochhammer form,
in Fractions and without the integer rows, kept as an independent route
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial

from .elements import (
    BigradedElement,
    InternalInvariantError,
    escapes,
    linear_combination,
    membership,
)
from .derivations import (
    Derivation,
    EulerWeighting,
    d_alpha,
    delta_beta,
    iterate,
    partial_u,
    pochhammer_apply,
    power_sequence,
    serre_ab,
)


@lru_cache(maxsize=1 << 14)
def gbinom(x, m: int) -> Fraction:
    """Generalized binomial x*(x-1)*...*(x-m+1)/m! with rational top."""
    if m < 0:
        raise ValueError("lower index must be nonnegative")
    x = Fraction(x)
    num = Fraction(1)
    for i in range(m):
        num *= x - i
    return num / factorial(m)


@dataclass(frozen=True)
class BracketFamily:
    """An admissible derivation together with the index weight c of
    kappa(k, p) = k + c*p."""

    derivation: Derivation
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not self.derivation.is_admissible():
            raise ValueError("bracket families require an admissible derivation")


@lru_cache(maxsize=1 << 14)
def _integer_row(k: int, p: int, c_num: int, c_den: int, n: int) -> tuple[int, ...]:
    """gbinom(k + c*p + n - 1, j) for j = 0..n, the binomials the n-th
    bracket takes from a component of bidegree (k, p), times
    D(c, n) = c_den^n * n!: integers, keyed on integers only."""
    top = k + Fraction(c_num, c_den) * p + n - 1
    scale = c_den ** n * factorial(n)
    return tuple(int(gbinom(top, j) * scale) for j in range(n + 1))


def _powers(d: Derivation, x: BigradedElement, order: int) -> list:
    """(bidegree, [D^0(x_i), ..., D^order(x_i), ...]) for every homogeneous
    component x_i of x: the memoised power sequence of each component."""
    return [(kp, power_sequence(d, order, xc)) for kp, xc in x._components()]


def _bracket_terms(c: Fraction, n: int, f_parts: list, g_parts: list, scale: int):
    """(scale * D(c, n)^2 * coefficient, D^r(f_i), D^(n-r)(g_j)) for every r
    and every pair of homogeneous components f_i of f and g_j of g, read
    from their _powers: the bracket formula, written once."""
    c_num, c_den = c.numerator, c.denominator
    for (k, p), f_pow in f_parts:
        row_f = _integer_row(k, p, c_num, c_den, n)
        for (l, q), g_pow in g_parts:
            row_g = _integer_row(l, q, c_num, c_den, n)
            for r in range(n + 1):
                coeff = scale * row_f[n - r] * row_g[r]
                if coeff:
                    yield (-coeff if r & 1 else coeff), f_pow[r], g_pow[n - r]


def bracket_sum(family: BracketFamily, terms) -> BigradedElement:
    """sum_i s_i * mu_{n_i}(x_i, y_i) over (s_i, n_i, x_i, y_i) terms with
    integer s_i, as one integer sum divided once by D(c, max n_i)^2."""
    terms = list(terms)
    if any(n < 0 for _, n, _, _ in terms):
        raise ValueError("bracket order must be nonnegative")
    d, c = family.derivation, family.c
    scale = {n: c.denominator ** n * factorial(n) for _, n, _, _ in terms}  # D(c, n)
    top = max(scale.values(), default=1)
    parts = (_bracket_terms(c, n, _powers(d, x, n), _powers(d, y, n), s * (top // scale[n]) ** 2) for s, n, x, y in terms)
    return linear_combination(chain.from_iterable(parts), top * top)


def bracket_n(family: BracketFamily, n: int, f: BigradedElement, g: BigradedElement) -> BigradedElement:
    """n-th bracket of the family, bilinear over homogeneous components."""
    return bracket_sum(family, ((1, n, f, g),))


def star_truncated(family: BracketFamily, order: int, f: BigradedElement, g: BigradedElement) -> list[BigradedElement]:
    """mu_0(f, g), ..., mu_order(f, g), the coefficients of hbar^0..hbar^order
    of the star product f * g: the powers of D of each component are read
    once for all orders, and each order is one integer sum."""
    if order < 0:
        raise ValueError("bracket order must be nonnegative")
    d, c = family.derivation, family.c
    f_parts, g_parts = _powers(d, f, order), _powers(d, g, order)
    return [
        linear_combination(_bracket_terms(c, n, f_parts, g_parts, 1), (c.denominator ** n * factorial(n)) ** 2)
        for n in range(order + 1)
    ]


def escaping_orders(family: BracketFamily, order: int, f: BigradedElement, g: BigradedElement, algebra: str) -> list[bool]:
    """For n = 0..order, whether mu_n(f, g) has a monomial outside the named
    subalgebra, read from the same terms as star_truncated by `escapes`,
    which forms only the products that can leave the algebra."""
    if order < 0:
        raise ValueError("bracket order must be nonnegative")
    d, c = family.derivation, family.c
    f_parts, g_parts = _powers(d, f, order), _powers(d, g, order)
    return [escapes(_bracket_terms(c, n, f_parts, g_parts, 1), algebra) for n in range(order + 1)]


def cm_bracket(v: Derivation, mu, n: int, f: BigradedElement, g: BigradedElement) -> BigradedElement:
    """Pochhammer-form bracket built from v and the mu-weighting.

    Independent of bracket_n: iterated shifted weightings are applied as
    operators, so agreement of the two routes is a real consistency check.
    """
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    w = EulerWeighting(Fraction(mu))
    return linear_combination(
        (
            Fraction((-1) ** r, factorial(r) * factorial(n - r)),
            iterate(v, r, pochhammer_apply(w, n - r, fc, shift=r)),
            iterate(v, n - r, pochhammer_apply(w, r, gc, shift=n - r)),
        )
        for fc in f.homogeneous_components().values()
        for gc in g.homogeneous_components().values()
        for r in range(n + 1)
    )


def rc_classical(n: int, f: BigradedElement, g: BigradedElement) -> BigradedElement:
    """Classical n-th Rankin-Cohen bracket of two modular elements.

    Derivatives are taken with the q-derivative transported into the
    index-zero subalgebra (rc_localized(0, 0), independent of the Serre
    derivation src() uses); the combination is guaranteed to land back in
    C[E4, E6], and a result outside it is an implementation bug.
    """
    if not membership(f, "M") or not membership(g, "M"):
        raise ValueError("classical brackets are defined on modular elements")
    total = bracket_n(rc_localized(0, 0), n, f, g)
    if not membership(total, "M"):
        raise InternalInvariantError(
            f"classical bracket escaped the modular subalgebra: {total}"
        )
    return total


# ------------------------------------------------------------ named families


def accol(a, b, c) -> BracketFamily:
    """Family of the two-parameter Serre extension on weak Jacobi forms."""
    return BracketFamily(serre_ab(a, b), Fraction(c))


def orc(mu) -> BracketFamily:
    """Oberdieck family: the (-1/6, -1/3) Serre extension with weight mu."""
    return accol(Fraction(-1, 6), Fraction(-1, 3), mu)


def src() -> BracketFamily:
    """Serre-Rankin-Cohen brackets on modular elements.

    On index-zero inputs the bracket does not depend on (a, b, c), so the
    zero parameters are a canonical choice.
    """
    return accol(0, 0, 0)


def crochet(alpha, c) -> BracketFamily:
    """Localized family built on d_alpha = sharp + alpha*pi."""
    return BracketFamily(d_alpha(alpha), Fraction(c))


def scal(beta, c) -> BracketFamily:
    """Localized family built on delta_beta = flat + beta*pi."""
    return BracketFamily(delta_beta(beta), Fraction(c))


def rc_localized(u, v) -> BracketFamily:
    """Extension of the classical Rankin-Cohen brackets to the localized
    algebra, built on the transported q-derivative."""
    return BracketFamily(partial_u(u), Fraction(v))


def mu1(family: BracketFamily):
    """First bracket of the family as a bilinear callable."""
    return lambda f, g: bracket_n(family, 1, f, g)


def clear_caches() -> None:
    gbinom.cache_clear()
    _integer_row.cache_clear()

"""Derivations of C[E4, E6, A^{+-1}, B] given by their generator images.

A derivation here is admissible when it preserves the index and raises the
weight by two, which pins the image bidegrees to E4 -> (6,0), E6 -> (8,0),
A -> (0,1), B -> (2,1).  The constructors below build the named derivations
the bracket families are made of: the Serre derivation and its two-parameter
extension to the index-carrying generators, the Oberdieck derivation, the
two localized Serre lifts (one sending F2 to -E4/12, one killing it), the
weighted F2-multiplication, and the transport of d/dq through F2 <-> E2.

Sums of derivations and scalar multiples are taken image-wise.  The
commutator of two admissible derivations raises the weight by four, so it
is returned as a plain (unchecked) Derivation.  `make_derivation` and
`BracketFamily` enforce admissibility, both through the one check behind
`Derivation.is_admissible`.

The powers D^0(f), D^1(f), ... of a derivation on an element are memoised
as one list per (D, f), extended in place when a deeper power is asked
for: the bracket engine reads a whole sequence with one memo lookup and no
recursion.  `iterate` needs one power, and keeps only the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .elements import (
    A,
    B,
    E4,
    E6,
    F2,
    GENERATORS,
    GENERATOR_NAMES,
    Bidegree,
    BidegreeError,
    BigradedElement,
    ZERO,
    bidegree,
    leibniz_apply,
    rescaled,
)

ADMISSIBLE_IMAGE_BIDEGREES = (Bidegree(6, 0), Bidegree(8, 0), Bidegree(0, 1), Bidegree(2, 1))


@dataclass(frozen=True)
class Derivation:
    on_e4: BigradedElement
    on_e6: BigradedElement
    on_a: BigradedElement
    on_b: BigradedElement

    @property
    def images(self):
        return (self.on_e4, self.on_e6, self.on_a, self.on_b)

    @cached_property
    def _hash(self) -> int:
        return hash(self.images)

    def __hash__(self) -> int:
        # hashed once per instance: every power_sequence lookup hashes its derivation
        return self._hash

    def is_admissible(self) -> bool:
        return _misfit(self.images) is None

    def __call__(self, f: BigradedElement) -> BigradedElement:
        return leibniz_apply(f, self.images)

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation(*(x + y for x, y in zip(self.images, other.images)))

    def __rmul__(self, c) -> "Derivation":
        c = Fraction(c)
        return Derivation(*(c * x for x in self.images))


def _misfit(images) -> str | None:
    """Why the generator images do not fit an index-preserving
    weight-raising derivation, naming the first misfit; None if they fit."""
    for name, img, expected in zip(GENERATOR_NAMES, images, ADMISSIBLE_IMAGE_BIDEGREES):
        if img and (not img.is_homogeneous or img.bidegree() != expected):
            return f"image of {name} must be homogeneous of bidegree {tuple(expected)}, got {img}"
    return None


def make_derivation(on_e4, on_e6, on_a, on_b) -> Derivation:
    """Checked constructor: the images must fit an index-preserving
    weight-raising derivation."""
    images = (on_e4, on_e6, on_a, on_b)
    misfit = _misfit(images)
    if misfit:
        raise BidegreeError(misfit)
    return Derivation(*images)


def apply(d: Derivation, f: BigradedElement) -> BigradedElement:
    return leibniz_apply(f, d.images)


@lru_cache(maxsize=1 << 16)
def _iterate(d: Derivation, f: BigradedElement) -> list[BigradedElement]:
    """The powers [D^0(f), D^1(f), ...] of d on f computed so far: one list
    per (d, f), which power_sequence extends in place."""
    return [f]


def power_sequence(d: Derivation, r: int, f: BigradedElement) -> list[BigradedElement]:
    """D^0(f), ..., D^s(f) for some s >= r, in one memo lookup.

    The list is the memo's own, extended in place as far as r by one
    thread at a time (the library is single-threaded); it may hold more
    powers than asked for, and callers read it without changing it.
    """
    powers = _iterate(d, f)
    while len(powers) <= r:
        powers.append(d(powers[-1]))
    return powers


def iterate(d: Derivation, r: int, f: BigradedElement) -> BigradedElement:
    """r-fold application of d, keeping only the last power (a deep power
    costs the memory of one, not of a sequence); iterate(d, 0, f) is f."""
    if r < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(r):
        f = d(f)
    return f


def commutator(d1: Derivation, d2: Derivation) -> Derivation:
    """d1 o d2 - d2 o d1, returned by its values on the generators.

    For admissible inputs the result raises weight by four, so it is not
    itself admissible.
    """
    return Derivation(*(d1(i2) - d2(i1) for i1, i2 in zip(d1.images, d2.images)))


@dataclass(frozen=True)
class EulerWeighting:
    """Scaling of each homogeneous component (k, p) by k + mu*p."""

    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))

    def __call__(self, f: BigradedElement) -> BigradedElement:
        mu = self.mu

        def factor(m):
            weight, index = bidegree(m)
            return weight + mu * index

        return rescaled(f, factor)


def euler_commutator_check(d: Derivation, mu) -> bool:
    """Whether W o d - d o W = 2d on the generators, W the mu-weighting.

    True for every admissible d and every mu since d shifts weight by two
    and preserves the index; checked by applying the operators.
    """
    w = EulerWeighting(Fraction(mu))
    for g, img in zip(GENERATORS, d.images):
        if w(d(g)) - d(w(g)) != 2 * img:
            return False
    return True


def pochhammer_apply(w: EulerWeighting, m: int, f: BigradedElement, shift=0) -> BigradedElement:
    """m-th Pochhammer power of F = W + shift*Id applied to f.

    F^<0> = Id and F^<m> = F^<m-1> o (F + (m-1) Id), evaluated by operator
    application, not through eigenvalues.
    """
    if m < 0:
        raise ValueError("Pochhammer order must be nonnegative")
    shift = Fraction(shift)
    g = f
    for j in range(1, m + 1):
        g = w(g) + (shift + m - j) * g
    return g


# --------------------------------------------------------------- constructors

_SE_E4 = Fraction(-1, 3) * E6
_SE_E6 = Fraction(-1, 2) * E4 ** 2


def serre_ab(a, b) -> Derivation:
    """Extension of the Serre derivation with A -> a*B and B -> b*E4*A."""
    return make_derivation(_SE_E4, _SE_E6, Fraction(a) * B, Fraction(b) * E4 * A)


def serre() -> Derivation:
    """Serre derivation, extended by zero on A and B."""
    return serre_ab(0, 0)


def oberdieck() -> Derivation:
    """The index-aware extension of the Serre derivation matching the
    Fourier-side operator built from the elliptic zeta function."""
    return serre_ab(Fraction(-1, 6), Fraction(-1, 3))


def sharp() -> Derivation:
    """Localized Serre lift killing A and sending F2 to -E4/12."""
    return make_derivation(_SE_E4, _SE_E6, ZERO, Fraction(-1, 12) * E4 * A)


def flat() -> Derivation:
    """Localized Serre lift killing both A and F2."""
    return make_derivation(_SE_E4, _SE_E6, ZERO, ZERO)


def pi() -> Derivation:
    """Weighted multiplication f -> k*f*F2 on weight-k components.

    On the generators: E4 -> 4*E4*F2, E6 -> 6*E6*F2, A -> -2*A*F2 = -2*B,
    B -> 0 (weight zero).  F2 has bidegree (2, 0), so pi is admissible.
    """
    return make_derivation(4 * E4 * F2, 6 * E6 * F2, Fraction(-2) * B, ZERO)


def d_alpha(alpha) -> Derivation:
    """sharp() + alpha * pi()."""
    return make_derivation(*(sharp() + Fraction(alpha) * pi()).images)


def delta_beta(beta) -> Derivation:
    """flat() + beta * pi()."""
    return make_derivation(*(flat() + Fraction(beta) * pi()).images)


def partial_u(u) -> Derivation:
    """Transport of q d/dq through F2 <-> E2, extended by A -> u*A*F2.

    The images of E4, E6 and F2 are the Ramanujan system with E2 renamed
    F2; the image of B follows from B = A*F2 by Leibniz.
    """
    u = Fraction(u)
    on_e4 = (E4 * F2 - E6) / 3
    on_e6 = (E6 * F2 - E4 ** 2) / 2
    on_a = u * B
    on_b = (u + Fraction(1, 12)) * B * F2 - Fraction(1, 12) * E4 * A
    return make_derivation(on_e4, on_e6, on_a, on_b)


def zero_derivation() -> Derivation:
    return Derivation(ZERO, ZERO, ZERO, ZERO)

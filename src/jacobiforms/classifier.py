"""Classification of admissible Poisson brackets on C[E4, E6, A, B].

An admissible bracket restricts to the first classical Rankin-Cohen bracket
on C[E4, E6], respects the bidegree law (k,p) x (l,q) -> (k+l+2, p+q), and
is therefore pinned by ten scalars:

    {A, E4} = alpha*E6*A + gamma*E4*B     {A, E6} = beta*E4^2*A + delta*E6*B
    {B, E4} = lam*E4^2*A + eps*E6*B       {B, E6} = mu*E4*E6*A + theta*E4^2*B
    {A, B}  = xi*E4*A^2 + eta*B^2         {E4, E6} = -2*E4^3 + 2*E6^2

The Jacobi identity reduces to thirteen scalar relations among the ten
parameters, whose solution set is the union of six families A, B, C1, C2,
D, E, one table of row builders whose signatures name each row's free
parameters.  One shape table, the display above, both builds the bracket
of ten scalars and reads the ten scalars off a first bracket.  A bracket
given by the ten scalars is a biderivation, evaluated as two derivation
applications.  Family B is exactly the locus of brackets with a
Rankin-Cohen shape kappa(f) f d(g) - kappa(g) g d(f); this module extracts
that (kappa, d) pair, and also decides when two of the derivation-built
deformations are conjugate under the automorphisms fixing E4, E6 and
scaling A and B.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .elements import (
    A,
    B,
    E4,
    E6,
    GENERATORS,
    GENERATOR_NAMES,
    BigradedElement,
    InternalInvariantError,
    Monomial,
    ZERO,
    leibniz_apply,
    rescaled,
)
from .derivations import Derivation, make_derivation, serre_ab

PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "lam", "mu", "theta", "epsilon", "xi", "eta")


@dataclass(frozen=True)
class PoissonParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    lam: Fraction
    mu: Fraction
    theta: Fraction
    epsilon: Fraction
    xi: Fraction
    eta: Fraction

    @classmethod
    def of(cls, *values) -> "PoissonParams":
        if len(values) != 10:
            raise ValueError("expected ten parameters")
        return cls(*(Fraction(v) for v in values))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, name) for name in PARAM_NAMES)


def relations_residual(p: PoissonParams) -> list[Fraction]:
    """Left minus right of the thirteen Jacobi relations; all zero iff the
    ten parameters define a Poisson bracket."""
    al, be, ga, de, la, mu, th, ep, xi, eta = p.as_tuple()
    return [
        mu * ga - la * de - (4 * be - 6 * al),
        ga * th - be * ga - (2 * de - 4 * ga),
        al * de - de * ep - (2 * de - 2 * ga),
        be * la - la * th - (2 * mu - 2 * la),
        mu * ep - mu * al - (2 * mu - 4 * la),
        mu * ga - la * de - (6 * ep - 4 * th),
        al * (2 * la - mu) - xi * (al - ep),
        xi * be - xi * th - 2 * xi - (mu * be - 2 * la * be),
        al * mu - 2 * xi,
        ep * (de - ga) - eta * (ep - al),
        2 * ga * th - th * de - eta * (th - be),
        ep * be - al * th + la * ga - 2 * xi * ga - 2 * eta * la,
        2 * al * th - 2 * be * ep + mu * ga - 2 * xi * de - 2 * eta * mu,
    ]


def is_admissible(p: PoissonParams) -> bool:
    return all(r == 0 for r in relations_residual(p))


# ----------------------------------------------------------------- the atlas


def family_a(gamma, epsilon) -> PoissonParams:
    gamma, ep = Fraction(gamma), Fraction(epsilon)
    if gamma == 0:
        raise ValueError("family A requires gamma != 0")
    return PoissonParams.of(
        ep,
        Fraction(3, 2) * ep + 1,
        gamma,
        gamma,
        4 / gamma,
        8 / gamma,
        Fraction(3, 2) * ep - 1,
        ep,
        (4 / gamma) * ep,
        (Fraction(1, 2) - Fraction(3, 4) * ep) * gamma,
    )


def family_b(gamma, lam, epsilon) -> PoissonParams:
    gamma, lam, ep = Fraction(gamma), Fraction(lam), Fraction(epsilon)
    return PoissonParams.of(
        ep + Fraction(2, 3),
        Fraction(3, 2) * ep + 1,
        gamma,
        Fraction(3, 2) * gamma,
        lam,
        Fraction(3, 2) * lam,
        Fraction(3, 2) * ep,
        ep,
        (Fraction(3, 4) * ep + Fraction(1, 2)) * lam,
        -Fraction(3, 4) * ep * gamma,
    )


def family_c1(gamma) -> PoissonParams:
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("family C1 requires gamma != 0")
    return PoissonParams.of(4, 6, gamma, -gamma, 0, 0, 0, 0, 0, 0)


def family_c2(lam) -> PoissonParams:
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("family C2 requires lam != 0")
    return PoissonParams.of(0, 0, 0, 0, lam, -2 * lam, 6, 4, 0, 0)


def family_d(epsilon, eta) -> PoissonParams:
    ep, eta = Fraction(epsilon), Fraction(eta)
    return PoissonParams.of(ep, Fraction(3, 2) * ep, 0, 0, 0, 0, Fraction(3, 2) * ep, ep, 0, eta)


def family_e(alpha, epsilon) -> PoissonParams:
    al, ep = Fraction(alpha), Fraction(epsilon)
    if al == ep + Fraction(2, 3):
        raise ValueError("family E requires alpha != epsilon + 2/3")
    return PoissonParams.of(al, Fraction(3, 2) * al, 0, 0, 0, 0, Fraction(3, 2) * ep, ep, 0, 0)


@dataclass(frozen=True)
class FamilyLabel:
    name: str
    free: tuple[tuple[str, Fraction], ...]


# Atlas rows in label order, each with its builder and free names.  The
# free names of a row are its builder's positional parameters, each named
# as the PoissonParams field it sets.
_ATLAS = {
    name: (build, tuple(inspect.signature(build).parameters))
    for name, build in {"A": family_a, "B": family_b, "C1": family_c1, "C2": family_c2, "D": family_d, "E": family_e}.items()
}


def classify(p: PoissonParams) -> list[FamilyLabel]:
    """All atlas rows the tuple fits; empty when the relations fail.

    Each row is rebuilt from the tuple's values of its free names; a row
    whose builder excludes those values does not fit.  Rows may overlap at
    boundary parameter values; every match is returned rather than
    arbitrating.
    """
    if not is_admissible(p):
        return []
    labels = []
    for name, (build, keys) in _ATLAS.items():
        values = [getattr(p, key) for key in keys]
        try:
            row = build(*values)
        except ValueError:
            continue
        if p == row:
            labels.append(FamilyLabel(name, tuple(zip(keys, values))))
    return labels


# ------------------------------------------------- biderivation from a tuple


class PoissonBracket:
    """Biderivation extension of generator-pair values.

    values maps generator index pairs (i, j), i != j, in the order
    (E4, E6, A, B) to {x_i, x_j}, with {x_j, x_i} = -{x_i, x_j}; a pair
    given in neither order brackets to zero.  The bracket of two
    elements is two derivation applications: row i of the table is the
    derivation x_j -> {x_i, x_j}, which takes g to {x_i, g}, and the
    derivation with those images takes f to sum_i df/dx_i * {x_i, g}.

    The images {x_i, g} of the 1024 most recent second arguments g are
    memoised per instance, so brackets with a common second argument apply
    the table to it once.  The memo holds the table, not the bracket, and
    is freed with it.
    """

    def __init__(self, values: dict[tuple[int, int], BigradedElement]):
        rows = [[ZERO] * 4 for _ in range(4)]
        for (i, j), value in values.items():
            rows[i][j], rows[j][i] = value, -value
        table = self._table = tuple(tuple(row) for row in rows)
        self._images = lru_cache(maxsize=1 << 10)(lambda g: tuple(leibniz_apply(g, row) for row in table))

    def pair(self, i: int, j: int) -> BigradedElement:
        return self._table[i][j]

    def __call__(self, f: BigradedElement, g: BigradedElement) -> BigradedElement:
        return leibniz_apply(f, self._images(g))


# The admissible shape of a first bracket on the generator pairs (x_i, x_j),
# indexed in the order (E4, E6, A, B): {E4, E6} is the first classical
# Rankin-Cohen bracket, and each other pair is two parameters times fixed
# monomials, as in the module docstring.
_MODULAR_PAIR = -2 * E4 ** 3 + 2 * E6 ** 2
_SHAPE = {
    (2, 0): (("alpha", Monomial(0, 1, 1, 0)), ("gamma", Monomial(1, 0, 0, 1))),  # {A, E4}: E6*A, E4*B
    (2, 1): (("beta", Monomial(2, 0, 1, 0)), ("delta", Monomial(0, 1, 0, 1))),  # {A, E6}: E4^2*A, E6*B
    (3, 0): (("lam", Monomial(2, 0, 1, 0)), ("epsilon", Monomial(0, 1, 0, 1))),  # {B, E4}: E4^2*A, E6*B
    (3, 1): (("mu", Monomial(1, 1, 1, 0)), ("theta", Monomial(2, 0, 0, 1))),  # {B, E6}: E4*E6*A, E4^2*B
    (2, 3): (("xi", Monomial(1, 0, 2, 0)), ("eta", Monomial(0, 0, 0, 2))),  # {A, B}: E4*A^2, B^2
}


def bracket_from_params(p: PoissonParams) -> PoissonBracket:
    """The candidate bracket with the ten generator-pair coefficients of p.

    The result satisfies skew-symmetry and Leibniz by construction; it
    satisfies the Jacobi identity exactly when relations_residual(p) is
    all zero.
    """
    values = {(0, 1): _MODULAR_PAIR}
    for pair, shape in _SHAPE.items():
        values[pair] = BigradedElement({m: getattr(p, name) for name, m in shape})
    return PoissonBracket(values)


def params_from_mu1(mu1) -> PoissonParams:
    """Read the ten parameters off a first bracket given as a callable.

    Raises ValueError when a generator-pair value has monomials outside the
    admissible shape (the bracket then does not preserve C[E4,E6,A,B]) or
    when the modular pair value is not the first Rankin-Cohen bracket.
    """
    if mu1(E4, E6) != _MODULAR_PAIR:
        raise ValueError("bracket does not restrict to the classical first bracket")
    params = {}
    for (i, j), shape in _SHAPE.items():
        value = mu1(GENERATORS[i], GENERATORS[j])
        extra = set(value.terms()) - {m for _, m in shape}
        if extra:
            raise ValueError(f"{{{GENERATOR_NAMES[i]},{GENERATOR_NAMES[j]}}} has terms outside the admissible shape: {value}")
        params.update((name, value.coefficient(m)) for name, m in shape)
    return PoissonParams(**params)


# ------------------------------------------------------- Rankin-Cohen shape


@dataclass(frozen=True)
class IndexWeight:
    """kappa(k, p) = weight_coef * k + index_coef * p."""

    weight_coef: Fraction
    index_coef: Fraction

    def __call__(self, weight, index) -> Fraction:
        return self.weight_coef * weight + self.index_coef * index


def rc_shape_extract(p: PoissonParams, u) -> tuple[IndexWeight, Derivation]:
    """(kappa, d) with {f,g} = kappa(f) f d(g) - kappa(g) g d(f), for a
    family-B tuple; u != 0 is the free scale of the factorization.

    The identity is verified on all generator pairs before returning.
    """
    u = Fraction(u)
    if u == 0:
        raise ValueError("the factorization scale u must be nonzero")
    if not any(label.name == "B" for label in classify(p)):
        raise ValueError("tuple is not in family B")
    gamma, lam, ep = p.gamma, p.lam, p.epsilon
    kappa = IndexWeight(u, -3 * ep * u)
    d = make_derivation(
        Fraction(-1, 3) / u * E6,
        Fraction(-1, 2) / u * E4 ** 2,
        -gamma / (4 * u) * B,
        -lam / (4 * u) * E4 * A,
    )
    bracket = bracket_from_params(p)
    for i, j in combinations(range(4), 2):
        f, g = GENERATORS[i], GENERATORS[j]
        kf, pf = f.bidegree()
        kg, pg = g.bidegree()
        shaped = kappa(kf, pf) * f * d(g) - kappa(kg, pg) * g * d(f)
        if shaped != bracket.pair(i, j):
            raise InternalInvariantError(
                f"shape factorization failed on ({GENERATOR_NAMES[i]}, {GENERATOR_NAMES[j]})"
            )
    return kappa, d


# -------------------------------------------------------------- isomorphisms


@dataclass(frozen=True)
class ScalingAutomorphism:
    """Algebra automorphism fixing E4, E6 with A -> lam*A and B -> mu*B."""

    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.lam == 0 or self.mu == 0:
            raise ValueError("scaling factors must be nonzero")

    def __call__(self, f: BigradedElement) -> BigradedElement:
        return rescaled(f, lambda m: self.lam ** m[2] * self.mu ** m[3])


def iso_condition(a, b, a2, b2, lam, mu) -> bool:
    """Whether scaling by (lam, mu) conjugates the (a2, b2) derivation to the
    (a, b) one: phi o Se_{a2,b2} = Se_{a,b} o phi.

    Holds iff a2*mu = a*lam and b2*lam = b*mu; when the scalar conditions
    hold, the conjugation is verified on all four generators before
    returning True.
    """
    a, b, a2, b2 = Fraction(a), Fraction(b), Fraction(a2), Fraction(b2)
    phi = ScalingAutomorphism(Fraction(lam), Fraction(mu))
    if not (a2 * phi.mu == a * phi.lam and b2 * phi.lam == b * phi.mu):
        return False
    d_from, d_to = serre_ab(a2, b2), serre_ab(a, b)
    for g in GENERATORS:
        if phi(d_from(g)) != d_to(phi(g)):
            raise InternalInvariantError("conjugation identity failed on a generator")
    return True


def normal_form(a, b, c) -> tuple[Fraction, Fraction, Fraction]:
    """Representative of the (a, b, c) family under generator scalings:
    (1, ab, c) if a != 0; (0, 1, c) if a = 0 != b; (0, 0, c) otherwise."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a != 0:
        return (Fraction(1), a * b, c)
    if b != 0:
        return (Fraction(0), Fraction(1), c)
    return (Fraction(0), Fraction(0), c)


def scaling_between(a, b, a2, b2):
    """A nonzero (lam, mu) with a2*mu = a*lam and b2*lam = b*mu, or None:
    one exists exactly when (a, b) and (a2, b2) share a normal form."""
    a, b, a2, b2 = Fraction(a), Fraction(b), Fraction(a2), Fraction(b2)
    if normal_form(a, b, 0) != normal_form(a2, b2, 0):
        return None
    if a != 0:
        return (a2, a)
    if b != 0:
        return (b, b2)
    return (Fraction(1), Fraction(1))


def modular_isomorphic(triple1, triple2):
    """Decide conjugacy of two (a, b, c) families under generator scalings:
    they are conjugate exactly when their normal forms, c included, agree.
    Returns (flag, scaling); a scaling is checked through iso_condition."""
    if normal_form(*triple1) != normal_form(*triple2):
        return False, None
    (a, b, _), (a2, b2, _) = triple1, triple2
    scaling = scaling_between(a, b, a2, b2)
    if not iso_condition(a, b, a2, b2, *scaling):
        raise InternalInvariantError("solved scaling failed the conjugation conditions")
    return True, scaling

"""Property verification for the bracket families.

Every identity checked here is multilinear in the inputs, so checking it
on a monomial spanning set within weight/index caps is conclusive within
those caps.  Checks report pass/fail rather than raising: each check,
the conjecture scan included, yields its failures as witnesses into
`_first_witness`, the one place a report is built, and a failed report
carries the first, with the inputs and both sides.  Stability and the
conjecture scan read one membership sweep, `_membership_rows`, which
decides each unordered basis pair once, from only the products that can
leave the algebra, forming no bracket, and yields the rows and the first
escape of the loop over all ordered pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .brackets import BracketFamily, accol, bracket_n, bracket_sum, escaping_orders, rc_localized, star_truncated
from .derivations import oberdieck
from .elements import (
    A,
    B,
    E4,
    E6,
    F2,
    GENERATORS,
    GENERATOR_NAMES,
    SUBALGEBRA_GENERATORS,
    BigradedElement,
    ZERO,
    linear_combination,
    membership,
    monomial_basis,
)
from .qseries import JacobiSeriesBundle, evaluate, oberdieck_series
from .report import VerificationReport


@lru_cache(maxsize=32)
def _capped_components(weight_cap: int, index_cap: int) -> tuple:
    """(bidegree, monomials) for each bidegree of the capped monomials of
    C[E4,E6,A,B], in bidegree order: built once per pair of caps."""
    by_degree: dict = {}
    for el in monomial_basis(weight_cap, index_cap):
        by_degree.setdefault(el.bidegree(), []).append(el)
    return tuple((degree, tuple(els)) for degree, els in sorted(by_degree.items()))


def random_homogeneous(rng: random.Random, weight_cap: int = 8, index_cap: int = 2) -> BigradedElement:
    """Random nonzero homogeneous combination of capped monomials."""
    _, component = rng.choice(_capped_components(weight_cap, index_cap))
    while True:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in component]
        if any(coeffs):
            break
    return linear_combination(zip(coeffs, component))


def _witness(identity: str, inputs: dict, lhs, rhs) -> dict:
    return {"identity": identity, "inputs": inputs, "lhs": lhs, "rhs": rhs}


def _first_witness(claim: str, witnesses, params: dict, details: list | None = None) -> VerificationReport:
    """Fail the claim with the first witness its check yields, else pass;
    details, when given, is the list of rows the check fills as it runs."""
    witness = next(witnesses, None)
    return VerificationReport(claim, "fail" if witness else "pass", witness, params, details)


def check_associativity(
    family: BracketFamily,
    n_max: int,
    basis: list[BigradedElement] | None = None,
    claim: str = "deformation.associativity",
) -> VerificationReport:
    """sum_r mu_{n-r}(mu_r(f,g),h) = sum_r mu_{n-r}(f,mu_r(g,h)) for all
    n <= n_max over ordered basis triples.

    Each identity is one bracket_sum of the lhs brackets minus the rhs
    brackets, tested against zero; the sides are summed alone only for a
    witness.

    Half the triples suffice.  With A_n(f,g,h) the lhs minus the rhs,
    A_n(f,g,h) = (-1)^(n+1) A_n(h,g,f): by mu_m(y,x) = (-1)^m mu_m(x,y) on
    both levels, mu_{n-r}(mu_r(f,g),h) = (-1)^n mu_{n-r}(h,mu_r(g,f)), so
    the lhs terms at (f,g,h) are (-1)^n times the rhs terms at (h,g,f), and
    likewise the rhs terms are (-1)^n times the lhs terms.  So only triples
    with i <= k are checked, and at i = k only odd n (for even n the
    associator is its own negative).  A failure at (i,j,k,n) with i > k
    implies one at (k,j,i,n), which comes first in the loop order, so the
    first witness is that of the loop over all ordered triples.  The inner
    star products are computed for i <= j only; for i > j the r-th entry
    is (-1)^r times that of (j, i), a sign carried in the bracket_sum term.
    """
    basis = list(GENERATORS) if basis is None else basis
    params = {"n_max": n_max, "c": family.c, "basis_size": len(basis)}
    inner = {}  # (i, j): (s_r, x_r) for r <= n_max, where s_r * x_r = mu_r(basis[i], basis[j])
    for i, f in enumerate(basis):
        for j in range(i, len(basis)):
            values = star_truncated(family, n_max, f, basis[j])
            inner[j, i] = [((-1) ** r, x) for r, x in enumerate(values)]
            inner[i, j] = [(1, x) for x in values]

    def witnesses():
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                fg = inner[i, j]
                for k in range(i, len(basis)):
                    h, gh = basis[k], inner[j, k]
                    for n in range(1, n_max + 1, 2 if i == k else 1):
                        lhs = [(s, n - r, x, h) for r, (s, x) in enumerate(fg[: n + 1])]
                        rhs = [(s, n - r, f, x) for r, (s, x) in enumerate(gh[: n + 1])]
                        if bracket_sum(family, lhs + [(-s, m, x, y) for s, m, x, y in rhs]) != ZERO:
                            sides = bracket_sum(family, lhs), bracket_sum(family, rhs)
                            yield _witness("associativity", {"f": f, "g": g, "h": h, "n": n}, *sides)

    return _first_witness(claim, witnesses(), params)


def check_poisson(
    mu1,
    basis: list[BigradedElement] | None = None,
    claim: str = "first-bracket.poisson",
) -> VerificationReport:
    """Skew-symmetry, Leibniz in each argument and the Jacobi identity for
    a bilinear first bracket, over basis tuples.

    Each distinct identity is checked once, from a table of the brackets
    of basis pairs: skew-symmetry first, then Leibniz, each walking the
    pairs i <= j once (f*g = g*f), and Jacobi at i < j < k only, as
    J = {f,{g,h}} - {g,{f,h}} + {h,{f,g}} from the upper triangle.  Once
    skew-symmetry holds on the basis, linearity in the second argument
    makes J the rotation sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}}, which
    rotating the arguments keeps and swapping f and g negates term by
    term.  So J is alternating, zero at a repeated index, and fails at a
    triple exactly when at the sorted one.  Every skipped copy comes later
    in the loop order than the copy checked, so the first witness is that
    of the loop over all ordered tuples.

    Each product f*g, i <= j, is formed once, and the Leibniz left sides
    {f*g, h} are read from a memo of rows keyed by the product's value: it
    starts with the table's rows, so a product that is a basis element
    costs no bracket, and pairs with equal products share a row.  An entry
    is bracketed only when the loop reaches it, so a failing check
    brackets nothing past its first witness, and a row is dropped after
    the last pair that forms its product.
    """
    basis = list(GENERATORS) if basis is None else basis
    table = [[mu1(f, g) for g in basis] for f in basis]
    products = {(i, j): f * basis[j] for i, f in enumerate(basis) for j in range(i, len(basis))}
    last_pair = {fg: ij for ij, fg in products.items()}
    rows = dict(zip(basis, table))  # rows[fg][k] = {fg, basis[k]}, None until needed

    def witnesses():
        for i, j in products:
            lhs, rhs = table[i][j], -table[j][i]
            if lhs != rhs:
                yield _witness("skew-symmetry", {"f": basis[i], "g": basis[j]}, lhs, rhs)
        for (i, j), fg in products.items():
            f, g = basis[i], basis[j]
            row = rows.setdefault(fg, [None] * len(basis))
            for k, h in enumerate(basis):
                if row[k] is None:
                    row[k] = mu1(fg, h)
                rhs = linear_combination(((1, f, table[j][k]), (1, table[i][k], g)))
                if row[k] != rhs:
                    yield _witness("leibniz", {"f": f, "g": g, "h": h}, row[k], rhs)
                if i < j < k:
                    jac = linear_combination(((1, mu1(f, table[j][k])), (-1, mu1(g, table[i][k])), (1, mu1(h, table[i][j]))))
                    if jac != ZERO:
                        yield _witness("jacobi", {"f": f, "g": g, "h": h}, jac, ZERO)
            if last_pair[fg] == (i, j):
                del rows[fg]

    return _first_witness(claim, witnesses(), {"basis_size": len(basis)})


def check_bidegree_law(
    family: BracketFamily,
    n_max: int,
    pairs: list[tuple[BigradedElement, BigradedElement]],
    claim: str = "bracket.bidegree",
) -> VerificationReport:
    """Homogeneous (k,p) x (l,q) inputs land in (k+l+2n, p+q)."""

    def witnesses():
        for f, g in pairs:
            kf, pf = f.bidegree()
            kg, pg = g.bidegree()
            for n, value in enumerate(star_truncated(family, n_max, f, g)):
                if value.is_zero:
                    continue
                expected = (kf + kg + 2 * n, pf + pg)
                if not value.is_homogeneous or tuple(value.bidegree()) != expected:
                    yield _witness("bidegree", {"f": f, "g": g, "n": n, "expected": expected}, value, None)

    return _first_witness(claim, witnesses(), {"n_max": n_max, "pairs": len(pairs)})


def _membership_rows(family: BracketFamily, algebra: str, n_max: int, basis: list[BigradedElement]):
    """(i, j, n, escape) for every ordered pair (i, j) of basis indices and
    every order n <= n_max, in loop order; escape is mu_n(basis[i], basis[j])
    when it lies outside the algebra, else None.

    Membership is decided by `escaping_orders`, which forms only the parts
    of products outside the algebra, and no bracket; an escape is built in
    full, by bracket_n, for its witness.  mu_n(g, f) = (-1)^n mu_n(f, g)
    and membership ignores sign, so the decision is made once per
    unordered pair i <= j and (i, j) with i > j reads the flags of (j, i);
    an escape there follows one at (j, i), which comes first (README).
    """
    flags = {}
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            if i <= j:
                flags[i, j] = escaping_orders(family, n_max, f, g, algebra)
            for n, escaped in enumerate(flags[min(i, j), max(i, j)]):
                yield i, j, n, bracket_n(family, n, f, g) if escaped else None


def check_stability(
    family: BracketFamily,
    algebra: str,
    n_max: int,
    basis: list[BigradedElement] | None = None,
    claim: str = "bracket.stability",
) -> VerificationReport:
    """All bracket values up to n_max of basis pairs stay inside the
    subalgebra; the basis defaults to the algebra's generators.

    On Q this cannot fail: Q = C[E4, E6, F2] is the index-zero part of K
    and every admissible family keeps the index (the bidegree law).  The
    paper's statement on Q is checked by the Cohen-formula test instead."""
    if basis is None and algebra not in SUBALGEBRA_GENERATORS:
        raise ValueError(f"the default basis needs a proper subalgebra of K, one of {tuple(SUBALGEBRA_GENERATORS)}, got {algebra!r}")
    basis = list(SUBALGEBRA_GENERATORS[algebra]) if basis is None else basis
    for f in basis:
        if not membership(f, algebra):
            raise ValueError("stability basis must lie inside the subalgebra")

    def witnesses():
        for i, j, n, escape in _membership_rows(family, algebra, n_max, basis):
            if escape is not None:
                yield _witness("stability", {"f": basis[i], "g": basis[j], "n": n, "algebra": algebra}, escape, None)

    params = {"algebra": algebra, "n_max": n_max, "basis_size": len(basis)}
    return _first_witness(claim, witnesses(), params)


# ------------------------------------------------------------ stability line


def _vinset_closed_forms(u: Fraction, v: Fraction) -> dict[tuple[str, str], BigradedElement]:
    """Closed forms of the first localized-family bracket on the index-
    carrying generator pairs, as functions of (u, v)."""
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    twelfth = Fraction(1, 12)
    return {
        ("A", "E4"): third * (-12 * u + v - 2) * E4 * B - third * (v - 2) * A * E6,
        ("A", "E6"): half * (-12 * u + v - 2) * E6 * B - half * (v - 2) * A * E4 ** 2,
        ("B", "E4"): third * (-12 * u + v - 1) * B * E4 * F2 - third * v * E6 * B + third * E4 ** 2 * A,
        ("B", "E6"): half * (-12 * u + v - 1) * B * E6 * F2 - half * v * E4 ** 2 * B + half * E4 * E6 * A,
        ("A", "B"): twelfth * (-24 * u + v - 2) * B ** 2 - twelfth * (v - 2) * E4 * A ** 2,
    }


def check_vinset(u_values) -> list[VerificationReport]:
    """The stability-line facts for the localized Rankin-Cohen family.

    Three claims per the module contract: the five closed-form generator
    values of the first bracket; stability of C[E4,E6,A,B] at n=1 exactly
    when v = 12u+1; and on that line, agreement with the (1/12, -1/12)
    Serre-extension family at index weight v.
    """
    u_values = [Fraction(u) for u in u_values]
    gens = dict(zip(GENERATOR_NAMES, GENERATORS))

    def displays():
        for u in u_values:
            for v in dict.fromkeys([12 * u + 1, Fraction(0), Fraction(2)]):
                family = rc_localized(u, v)
                for (fn, gn), expected in _vinset_closed_forms(u, v).items():
                    got = bracket_n(family, 1, gens[fn], gens[gn])
                    if got != expected:
                        yield _witness("closed-form", {"f": fn, "g": gn, "u": u, "v": v}, got, expected)

    def iff():
        for u in u_values:
            on_line = 12 * u + 1
            for v in dict.fromkeys([on_line, Fraction(0), Fraction(1), Fraction(2)]):
                stable = check_stability(rc_localized(u, v), "Jtilde", 1).passed
                if stable != (v == on_line):
                    yield _witness("iff", {"u": u, "v": v, "stable": stable}, None, None)

    # On the line the bracket is the Serre-extension family at (1/12, -1/12)
    # with index weight v itself (-v/3, the epsilon of the shape
    # factorization, does not match).  Both first brackets are antisymmetric,
    # so pairs f < g suffice and give the first witness of all ordered pairs.
    def line_identity():
        for u in u_values:
            v = 12 * u + 1
            local = rc_localized(u, v)
            reference = accol(Fraction(1, 12), Fraction(-1, 12), v)
            for f, g in combinations(GENERATORS, 2):
                lhs = bracket_n(local, 1, f, g)
                rhs = bracket_n(reference, 1, f, g)
                if lhs != rhs:
                    yield _witness("line-identity", {"f": f, "g": g, "u": u}, lhs, rhs)

    ident_params = {"u": u_values, "a": Fraction(1, 12), "b": Fraction(-1, 12), "c": "12u+1"}
    return [
        _first_witness("stability-line.displays", displays(), {"u": u_values}),
        _first_witness("stability-line.iff", iff(), {"u": u_values, "v": "12u+1, 0, 1, 2"}),
        _first_witness("stability-line.line-identity", line_identity(), ident_params),
    ]


def scan_conjecture(
    u_values,
    n_max: int,
    weight_cap: int,
    index_cap: int,
) -> VerificationReport:
    """Membership scan for the localized Rankin-Cohen family on the
    stability line v = 12u+1.

    For each u, every bracket of order <= n_max of two capped monomials of
    C[E4,E6,A,B] is tested for membership; for sampled v off the line, the
    known escaping first brackets are confirmed to escape.  A clean scan is
    coverage at the stated caps, not a proof.
    """
    u_values = [Fraction(u) for u in u_values]
    basis = monomial_basis(weight_cap, index_cap)
    names = [str(f) for f in basis]
    params = {
        "u": u_values,
        "n_max": n_max,
        "weight_cap": weight_cap,
        "index_cap": index_cap,
        "pairs": len(basis) ** 2,
    }
    rows = []

    def witnesses():
        for u in u_values:
            v = 12 * u + 1
            family = rc_localized(u, v)
            for i, j, n, escape in _membership_rows(family, "Jtilde", n_max, basis):
                rows.append((u, v, n, names[i], names[j], escape is None))
                if escape is not None:
                    yield _witness("scan", {"u": u, "v": v, "f": basis[i], "g": basis[j], "n": n}, escape, None)
            # negative direction: off the line the first bracket already escapes
            for v_off in (Fraction(0), Fraction(1), Fraction(2)):
                off = rc_localized(u, v_off)
                if v_off != v and all(membership(bracket_n(off, 1, B, g), "Jtilde") for g in (E4, E6)):
                    yield _witness("negative-direction", {"u": u, "v": v_off}, None, None)

    return _first_witness("conjecture.scan", witnesses(), params, rows)


# --------------------------------------------------------- series consistency


def series_consistency(
    bundle: JacobiSeriesBundle,
    elements: list[BigradedElement] | None = None,
) -> VerificationReport:
    """The symbolic weight-raising derivation matches the Fourier-side
    operator on the test set, exactly through the bundle's q order."""
    derivation = oberdieck()
    if elements is None:
        elements = [E4, E6, A, B, E4 * A, A * B]

    def witnesses():
        for f in elements:
            k, p = f.bidegree()
            symbolic = evaluate(derivation(f), bundle)
            analytic = oberdieck_series(evaluate(f, bundle), k, p, bundle)
            if not symbolic.agrees_with(analytic):
                yield _witness("series-consistency", {"f": f, "weight": k, "index": p}, None, None)

    params = {"q_order": bundle.q_order, "elements": [str(f) for f in elements]}
    return _first_witness("derivation.series-consistency", witnesses(), params)

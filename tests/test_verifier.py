import itertools
import json
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from jacobiforms import (
    A,
    B,
    E4,
    E6,
    GENERATORS,
    ZERO,
    PoissonParams,
    accol,
    bracket_from_params,
    bracket_n,
    bracket_sum,
    check_associativity,
    check_bidegree_law,
    check_poisson,
    check_stability,
    check_vinset,
    crochet,
    family_a,
    family_b,
    family_c1,
    family_c2,
    family_d,
    family_e,
    membership,
    monomial_basis,
    mu1,
    orc,
    random_homogeneous,
    rc_localized,
    scal,
    scan_conjecture,
    serre_ab,
)
from jacobiforms.derivations import Derivation
from jacobiforms.elements import BigradedElement, linear_combination, rescaled
from jacobiforms.report import VerificationReport
from jacobiforms.verifier import _first_witness, _witness


def test_monomial_basis_is_deterministic_and_capped():
    basis = monomial_basis(8, 2)
    assert basis == monomial_basis(8, 2)
    for el in basis:
        w, i = el.bidegree()
        assert w <= 8 and 0 <= i <= 2
        assert membership(el, "Jtilde")
    assert monomial_basis(4, 0, "M") == monomial_basis(4, 0, "Jtilde")
    for el in monomial_basis(6, 2, "Q"):
        assert membership(el, "Q")


def test_random_homogeneous_is_reproducible(rng):
    import random

    f1 = random_homogeneous(random.Random(7))
    f2 = random_homogeneous(random.Random(7))
    assert f1 == f2
    assert f1.is_homogeneous and not f1.is_zero


def _random_homogeneous_rebuilding_its_basis(rng, weight_cap=8, index_cap=2):
    # the sampler as it was when it rebuilt its basis on every call
    basis = monomial_basis(weight_cap, index_cap)
    by_degree: dict = {}
    for el in basis:
        by_degree.setdefault(el.bidegree(), []).append(el)
    component = by_degree[rng.choice(sorted(by_degree))]
    while True:
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in component]
        if any(coeffs):
            break
    return linear_combination(zip(coeffs, component))


@pytest.mark.parametrize("caps", [(8, 2), (6, 1)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_random_homogeneous_matches_the_sampler_rebuilding_its_basis(seed, caps):
    # the grouped basis is built once per pair of caps; the elements and
    # the random draws that make them stay the same
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert random_homogeneous(ours, *caps) == _random_homogeneous_rebuilding_its_basis(theirs, *caps)
    assert ours.getstate() == theirs.getstate()


def test_associativity_passes_for_families():
    assert check_associativity(accol(1, 1, 0), 3).passed
    assert check_associativity(crochet(F(1, 12), F(-1, 6)), 3).passed
    assert check_associativity(rc_localized(F(1), F(7, 5)), 3).passed


def test_associativity_on_monomial_basis():
    basis = monomial_basis(4, 1)
    assert check_associativity(orc(F(1)), 2, basis).passed


def test_associativity_negative_control():
    # wrong bidegree on the B image breaks the weighting compatibility
    corrupted = Derivation(F(-1, 3) * E6, F(-1, 2) * E4 ** 2, F(1) * B, E4 * B)
    assert not corrupted.is_admissible()
    fake = SimpleNamespace(derivation=corrupted, c=F(0))
    report = check_associativity(fake, 3)
    assert not report.passed
    witness = report.witness
    assert witness["identity"] == "associativity"
    # witness reproduces: both sides recomputed from the inputs disagree
    inputs = witness["inputs"]
    n = inputs["n"]
    f, g, h = inputs["f"], inputs["g"], inputs["h"]
    lhs = sum((bracket_n(fake, n - r, bracket_n(fake, r, f, g), h) for r in range(n + 1)), start=ZERO)
    rhs = sum((bracket_n(fake, n - r, f, bracket_n(fake, r, g, h)) for r in range(n + 1)), start=ZERO)
    assert lhs == witness["lhs"] and rhs == witness["rhs"] and lhs != rhs


def _associativity_reference(family, n_max, basis=None):
    """check_associativity as it was before its fold per identity: lhs and
    rhs built as sums of bracket_n and compared, in the same loop order."""
    basis = list(GENERATORS) if basis is None else basis
    params = {"n_max": n_max, "c": family.c, "basis_size": len(basis)}
    inner = {
        (i, j): [bracket_n(family, r, f, g) for r in range(n_max + 1)]
        for i, f in enumerate(basis)
        for j, g in enumerate(basis)
    }

    def witnesses():
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                for k, h in enumerate(basis):
                    for n in range(1, n_max + 1):
                        lhs = linear_combination((1, bracket_n(family, n - r, inner[(i, j)][r], h)) for r in range(n + 1))
                        rhs = linear_combination((1, bracket_n(family, n - r, f, inner[(j, k)][r])) for r in range(n + 1))
                        if lhs != rhs:
                            yield _witness("associativity", {"f": f, "g": g, "h": h, "n": n}, lhs, rhs)

    return _first_witness("deformation.associativity", witnesses(), params)


_FOUR_KINDS = [accol(1, F(-1, 2), F(7, 5)), crochet(F(1, 3), 2), scal(F(-1, 6), F(1, 12)), rc_localized(F(1, 12), 2)]


def _same_report(got, expected):
    assert json.dumps(got.to_json_dict(), sort_keys=True) == json.dumps(expected.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("family", _FOUR_KINDS, ids=["accol", "crochet", "scal", "rc_localized"])
def test_associativity_report_equals_the_sum_of_brackets_loop(family):
    for n_max, basis in ((3, None), (2, monomial_basis(4, 1))):
        got = check_associativity(family, n_max, basis)
        assert got.passed
        _same_report(got, _associativity_reference(family, n_max, basis))


def test_associativity_witness_equals_the_sum_of_brackets_loop(monkeypatch):
    # binomial rows off by one in one entry: still integers over D(c, n),
    # but no longer an associative deformation
    from jacobiforms import brackets, clear_caches

    true_gbinom = brackets.gbinom
    clear_caches()
    monkeypatch.setattr(brackets, "gbinom", lambda x, j: true_gbinom(x, j) + (j == 1))
    try:
        for family in _FOUR_KINDS:
            got = check_associativity(family, 2)
            assert not got.passed and got.witness["identity"] == "associativity"
            _same_report(got, _associativity_reference(family, 2))
    finally:
        monkeypatch.undo()
        clear_caches()


# serre_ab(1/3, 2/5) with the images of E6 and A mutated: not admissible,
# so its brackets are not an associative deformation, but they keep the
# skew rule mu_n(g, f) = (-1)^n mu_n(f, g), which the formula alone gives
_SERRE = serre_ab(F(1, 3), F(2, 5))
_MUTATED = SimpleNamespace(
    derivation=Derivation(_SERRE.on_e4, _SERRE.on_e6 + F(1, 5) * E4 ** 2, _SERRE.on_a + F(1, 7) * A, _SERRE.on_b),
    c=F(3, 7),
)
# the negative control's derivation: the wrong bidegree on the B image
_CORRUPTED = SimpleNamespace(derivation=Derivation(F(-1, 3) * E6, F(-1, 2) * E4 ** 2, F(1) * B, E4 * B), c=F(0))


def _associator(family, f, g, h, n):
    """A_n(f, g, h), the lhs minus the rhs of the order-n identity, as one
    bracket_sum over inner brackets computed by bracket_n."""
    lhs = [(1, n - r, bracket_n(family, r, f, g), h) for r in range(n + 1)]
    return bracket_sum(family, lhs + [(-1, n - r, f, bracket_n(family, r, g, h)) for r in range(n + 1)])


def test_associator_reversal_symmetry_on_a_non_admissible_family():
    # A_n(f, g, h) = (-1)^(n+1) A_n(h, g, f), the symmetry that lets
    # check_associativity skip the triples with i > k; the sign (-1)^n fails
    # on every nonzero associator, so the test sees the sign
    assert not _MUTATED.derivation.is_admissible()
    basis = monomial_basis(6, 1)
    values = {(f, g, h, n): _associator(_MUTATED, f, g, h, n) for f in basis for g in basis for h in basis for n in (1, 2, 3)}
    nonzero = 0
    for (f, g, h, n), value in values.items():
        mirror = values[h, g, f, n]
        assert value == (-1) ** (n + 1) * mirror
        if value:
            nonzero += 1
            assert value != (-1) ** n * mirror
    assert nonzero > 1000


@pytest.mark.parametrize(
    "family, basis, witness",
    [
        # a triple and its mirror both fail; the earlier, i < k, is reported
        (_CORRUPTED, list(GENERATORS), (E4, E4, A, 3)),
        (_MUTATED, list(GENERATORS), (E4, E4, A, 2)),
        # i = k at odd n, where only odd orders are checked
        (_CORRUPTED, [A, E4], (A, A, A, 3)),
        (_MUTATED, [B, E4], (B, B, B, 3)),
    ],
    ids=["corrupted-i<k", "mutated-i<k", "corrupted-i=k", "mutated-i=k"],
)
def test_associativity_witness_of_a_mirrored_triple_equals_the_full_loop(family, basis, witness):
    f, g, h, n = witness
    assert _associator(family, f, g, h, n) and _associator(family, h, g, f, n)
    got = check_associativity(family, 3, basis)
    inputs = got.witness["inputs"]
    assert (inputs["f"], inputs["g"], inputs["h"], inputs["n"]) == witness
    _same_report(got, _associativity_reference(family, 3, basis))


@pytest.mark.parametrize("basis, n_max", [(list(GENERATORS), 4), (list(GENERATORS), 3), (monomial_basis(4, 1), 2)])
def test_associativity_computes_half_the_identities(monkeypatch, basis, n_max):
    # b^2 ((b + 1) n_max / 2 - floor(n_max / 2)) identities: the triples
    # i < k at every order and i = k at odd orders; 128 on the generators
    # at n_max = 4, where the loop over all ordered triples computes 256
    from jacobiforms import verifier

    counts = {"star_truncated": 0, "bracket_sum": 0}

    def counted(name, call):
        def wrapper(*args):
            counts[name] += 1
            return call(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
    assert check_associativity(accol(1, F(-1, 2), F(7, 5)), n_max, basis).passed
    b = len(basis)
    assert counts["star_truncated"] == b * (b + 1) // 2
    assert counts["bracket_sum"] == b * b * (b + 1) * n_max // 2 - b * b * (n_max // 2)
    if (b, n_max) == (4, 4):
        assert counts == {"star_truncated": 10, "bracket_sum": 128}


@pytest.mark.parametrize("mu", [F(0), F(1), F(-3)])
def test_poisson_for_oberdieck_family(mu):
    assert check_poisson(mu1(orc(mu))).passed


def test_poisson_for_every_builtin_family():
    families = [
        accol(F(2), F(-1, 6), F(1, 12)),
        crochet(F(1, 3), F(-1)),
        scal(F(-1, 12), F(2)),
        rc_localized(F(1, 12), F(7, 5)),
    ]
    for fam in families:
        assert check_poisson(mu1(fam)).passed


def test_poisson_diagonal_vanishes():
    first = mu1(accol(F(1, 12), F(-1, 12), F(-1)))
    for g in GENERATORS:
        assert first(g, g) == ZERO


def test_poisson_jacobi_on_triple():
    fam = accol(F(1, 12), F(-1, 12), F(-1))
    first = mu1(fam)
    triple = (E4, A, B)
    jac = sum(
        (first(f, first(g, h)) for f, g, h in [(triple[0], triple[1], triple[2]),
                                               (triple[1], triple[2], triple[0]),
                                               (triple[2], triple[0], triple[1])]),
        start=ZERO,
    )
    assert jac == ZERO


def _poisson_all_ordered_tuples(mu1, basis):
    """check_poisson as one loop over all ordered pairs and triples,
    recomputing every bracket: the reference the deduplicated check must
    reproduce report for report."""
    params = {"basis_size": len(basis)}

    def witnesses():
        for f in basis:
            for g in basis:
                lhs, rhs = mu1(f, g), -mu1(g, f)
                if lhs != rhs:
                    yield _witness("skew-symmetry", {"f": f, "g": g}, lhs, rhs)
        for f in basis:
            for g in basis:
                for h in basis:
                    lhs = mu1(f * g, h)
                    rhs = linear_combination(((1, f, mu1(g, h)), (1, mu1(f, h), g)))
                    if lhs != rhs:
                        yield _witness("leibniz", {"f": f, "g": g, "h": h}, lhs, rhs)
                    jac = linear_combination((1, mu1(x, mu1(y, z))) for x, y, z in ((f, g, h), (g, h, f), (h, f, g)))
                    if jac != ZERO:
                        yield _witness("jacobi", {"f": f, "g": g, "h": h}, jac, ZERO)

    return _first_witness("first-bracket.poisson", witnesses(), params)


_ROW_BUILDERS = [(family_a, 2), (family_b, 3), (family_c1, 1), (family_c2, 1), (family_d, 2), (family_e, 2)]
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _poisson_params(draw):
    """An atlas row, or with equal odds ten free values (almost surely off the manifold)."""
    if draw(st.booleans()):
        return PoissonParams.of(*draw(st.lists(_small, min_size=10, max_size=10)))
    build, arity = draw(st.sampled_from(_ROW_BUILDERS))
    try:
        return build(*draw(st.lists(_small.filter(bool), min_size=arity, max_size=arity)))
    except ValueError:  # a value the family excludes
        reject()


def _weight(f):
    return rescaled(f, lambda m: 4 * m[0] + 6 * m[1] - 2 * m[2])


@st.composite
def _first_brackets(draw):
    """A candidate bracket: a PoissonBracket, or one plus a bilinear term
    that is symmetric (breaks skew-symmetry) or a skew non-derivation
    (breaks Leibniz)."""
    bracket = bracket_from_params(draw(_poisson_params()))
    kind = draw(st.sampled_from(["bracket", "symmetric", "not-leibniz"]))
    c = draw(_small.filter(bool))
    if kind == "symmetric":
        return lambda f, g: bracket(f, g) + c * rescaled(f * g, lambda m: m[3])
    if kind == "not-leibniz":
        return lambda f, g: bracket(f, g) + c * (_weight(f) * g - f * _weight(g))
    return bracket


@settings(max_examples=60, deadline=None)
@given(_first_brackets(), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_poisson_report_equals_the_all_ordered_tuples_loop(mu1, seed, size):
    # shuffled bases with repeated elements, so that equal elements sit at
    # different indices
    rng = random.Random(seed)
    basis = [rng.choice(monomial_basis(4, 1)) for _ in range(size)]
    expected = _poisson_all_ordered_tuples(mu1, basis).to_json_dict()
    got = check_poisson(mu1, basis).to_json_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _counting(bracket):
    """A copy of the bracket that records its calls and their values."""
    calls, values = [], []

    def counting(f, g):
        calls.append((f, g))
        values.append(bracket(f, g))
        return values[-1]

    return counting, calls, values


def test_poisson_brackets_each_basis_pair_once_and_each_identity_once():
    counting, calls, values = _counting(bracket_from_params(family_b(2, F(-1, 3), F(5, 7))))
    basis = monomial_basis(4, 1)
    n = len(basis)
    assert n == 7
    assert check_poisson(counting, basis).passed
    # n^2 table entries, n Leibniz left sides per distinct product of a
    # basis pair that is not a basis element (a basis element's are table
    # entries), 3 per Jacobi triple i < j < k, of which there are C(n, 3)
    products = {f * g for f, g in itertools.combinations_with_replacement(basis, 2)}
    assert (len(products), len(products - set(basis))) == (25, 18)
    assert len(calls) == n * n + n * 18 + 3 * math.comb(n, 3) == 280
    # the table is the first n^2 calls, row by row; a Jacobi call is one
    # whose second argument is not a basis element, and it reads the
    # upper triangle of the table only, each of its entries
    assert calls[: n * n] == [(f, g) for f in basis for g in basis]
    upper = {id(values[n * a + b]) for a in range(n) for b in range(a + 1, n)}
    jacobi = [g for _, g in calls[n * n :] if not any(g is h for h in basis)]
    assert len(jacobi) == 3 * math.comb(n, 3)
    assert {id(g) for g in jacobi} == upper and len(upper) == math.comb(n, 2)


def test_poisson_brackets_each_product_outside_the_basis_once_per_third_element():
    counting, calls, _ = _counting(bracket_from_params(family_a(2, F(1, 3))))
    basis = monomial_basis(4, 1)
    assert check_poisson(counting, basis).passed
    # a Leibniz left side is a call past the table whose second argument is
    # a basis element; its first is a product, never a basis element
    leibniz = [(fg, h) for fg, h in calls[len(basis) ** 2 :] if any(h is x for x in basis)]
    assert not {fg for fg, _ in leibniz} & set(basis)
    assert len(set(leibniz)) == len(leibniz) == 18 * len(basis)


def test_poisson_forms_each_product_once_per_pair_i_le_j(monkeypatch):
    # the zero bracket forms no product itself
    formed, mul = [], BigradedElement.__mul__

    def counting_mul(f, g):
        formed.append((f, g))
        return mul(f, g)

    basis = monomial_basis(4, 1)
    monkeypatch.setattr(BigradedElement, "__mul__", counting_mul)
    assert check_poisson(lambda f, g: ZERO, basis).passed
    assert formed == [(f, g) for i, f in enumerate(basis) for g in basis[i:]]


_OFF_MANIFOLD = [
    PoissonParams.of(1, 2, 3, 4, 5, 6, 7, 8, 9, F(1, 10)),
    PoissonParams.of(F(-1, 2), 0, 1, 0, F(2, 3), -1, 0, 3, F(1, 3), 0),
    PoissonParams.of(0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
]
_ATLAS_ROWS = [family_a(2, F(1, 3)), family_b(2, F(-1, 3), F(5, 7)), family_c1(3), family_c2(F(-1, 2)), family_d(F(1, 2), 2), family_e(1, F(1, 4))]


def _jacobi_sum(mu1, f, g, h):
    return linear_combination((1, mu1(x, mu1(y, z))) for x, y, z in ((f, g, h), (g, h, f), (h, f, g)))


def _sign(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


@pytest.mark.parametrize("row", _OFF_MANIFOLD)
def test_jacobi_sum_is_alternating_once_skew_symmetry_holds(row):
    # check_poisson reads Jacobi at i < j < k only: the sum at a permuted
    # triple is the sign of the permutation times the sum at the sorted one,
    # and a repeated index gives zero
    mu1 = bracket_from_params(row)
    basis = monomial_basis(4, 1)
    assert len(basis) == 7
    failing = 0
    for triple in itertools.combinations(basis, 3):
        sorted_sum = _jacobi_sum(mu1, *triple)
        failing += sorted_sum != ZERO
        for perm in itertools.permutations(range(3)):
            assert _jacobi_sum(mu1, *(triple[x] for x in perm)) == _sign(perm) * sorted_sum
    assert failing  # the row is off the manifold on this basis
    for f, h in itertools.product(basis, repeat=2):
        assert _jacobi_sum(mu1, f, f, h) == _jacobi_sum(mu1, f, h, f) == _jacobi_sum(mu1, h, f, f) == ZERO


@pytest.mark.parametrize("row", _OFF_MANIFOLD)
def test_a_failing_poisson_check_brackets_nothing_past_its_first_witness(row):
    # the witness is the Jacobi triple (B, A, E6*A) = basis[1:4]; a loop
    # bracketing {f*g, h} for every pair i <= j and every h took 157 calls
    # to reach it.  Here: 49 table entries, 45 for the Jacobi triples
    # (0, j, k), none for the products 1*g, 7 for B*B, 4 for B*A up to
    # h = E6*A, and 3 for the witness
    counting, calls, _ = _counting(bracket_from_params(row))
    basis = monomial_basis(4, 1)
    got = check_poisson(counting, basis)
    assert got.witness["identity"] == "jacobi"
    assert [got.witness["inputs"][x] for x in "fgh"] == basis[1:4]
    assert len(calls) == 49 + 45 + 7 + 4 + 3 == 108 < 157


@pytest.mark.parametrize("row", _ATLAS_ROWS + _OFF_MANIFOLD)
def test_poisson_report_on_the_full_basis_equals_the_all_ordered_tuples_loop(row):
    mu1 = bracket_from_params(row)
    basis = monomial_basis(4, 1)
    got = check_poisson(mu1, basis).to_json_dict()
    assert got == _poisson_all_ordered_tuples(mu1, basis).to_json_dict()
    assert got["status"] == ("fail" if row in _OFF_MANIFOLD else "pass")
    if row in _OFF_MANIFOLD:
        assert got["witness"]["identity"] == "jacobi"


def test_a_bracket_that_is_not_skew_fails_on_skew_symmetry_before_jacobi():
    # the control for the reduction to i < j < k, which holds only once
    # skew-symmetry does: the symmetric mutant of the hypothesis strategy
    bracket = bracket_from_params(_OFF_MANIFOLD[0])
    symmetric = lambda f, g: bracket(f, g) + rescaled(f * g, lambda m: m[3])
    basis = monomial_basis(4, 1)
    got = check_poisson(symmetric, basis).to_json_dict()
    assert got["status"] == "fail" and got["witness"]["identity"] == "skew-symmetry"
    assert got == _poisson_all_ordered_tuples(symmetric, basis).to_json_dict()


def test_bidegree_law_report(rng):
    pairs = [(random_homogeneous(rng), random_homogeneous(rng)) for _ in range(10)]
    assert check_bidegree_law(accol(1, 1, 1), 4, pairs).passed
    assert check_bidegree_law(rc_localized(F(1, 12), F(0)), 3, pairs).passed


def test_bidegree_law_fails_for_a_derivation_of_weight_four():
    # serre o oberdieck - oberdieck o serre raises the weight by four, so
    # BracketFamily refuses it; around it, mu_1(B, E4) lands in weight 8
    from jacobiforms import commutator, oberdieck, serre

    family = SimpleNamespace(derivation=commutator(serre(), oberdieck()), c=F(0))
    report = check_bidegree_law(family, 1, [(B, E4)])
    assert not report.passed
    assert report.witness == {
        "identity": "bidegree",
        "inputs": {"f": B, "g": E4, "n": 1, "expected": (6, 1)},
        "lhs": F(-4, 9) * E4 * E6 * A,
        "rhs": None,
    }


def test_stability_dichotomy_alpha():
    # stable exactly when alpha = 0
    assert check_stability(crochet(0, F(7, 5)), "Jtilde", 3).passed
    report = check_stability(crochet(F(1), F(1)), "Jtilde", 1)
    assert not report.passed
    value = bracket_n(crochet(F(1), F(1)), 1, B, E4)
    assert value == F(-1, 3) * B * E6 + F(1, 3) * A * E4 ** 2 + 4 * B * E4 * (B * A ** -1)
    # alpha != 0, c = 0: the failure appears at order two
    assert check_stability(crochet(F(1), F(0)), "Jtilde", 1).passed
    report = check_stability(crochet(F(1), F(0)), "Jtilde", 2)
    assert not report.passed
    value = bracket_n(crochet(F(1), F(0)), 2, E4, E6)
    assert value == (1 - 12) * E4 ** 2 * E6 + 144 * E4 * E6 * (B * A ** -1) ** 2


def test_stability_dichotomy_beta():
    assert check_stability(scal(0, F(7, 5)), "Jtilde", 3).passed
    assert not check_stability(scal(F(1, 12), F(1)), "Jtilde", 2).passed
    assert not check_stability(scal(F(1, 12), F(0)), "Jtilde", 2).passed


def test_modular_stability_of_serre_families():
    for a, b, c in [(1, 1, 1), (F(-1, 6), F(-1, 3), F(7, 5))]:
        assert check_stability(accol(a, b, c), "M", 4).passed


def test_quasimodular_stability_of_localized_families():
    assert check_stability(crochet(F(1, 12), F(2)), "Q", 3).passed
    assert check_stability(scal(F(-1, 6), F(2)), "Q", 3).passed
    assert check_stability(rc_localized(F(1), F(2)), "Q", 3).passed


def test_stability_rejects_basis_outside_subalgebra():
    with pytest.raises(ValueError):
        check_stability(accol(1, 1, 1), "M", 2, basis=[A])


def _stability_reference(family, algebra, n_max, basis=None, claim="bracket.stability"):
    """check_stability as it was before it read each unordered pair once:
    bracket_n for every ordered pair and every order, in the same loop
    order, with the generators of each algebra written out."""
    if basis is None:
        basis = {"M": [E4, E6], "Jtilde": [E4, E6, A, B], "Q": [E4, E6, B * A ** -1]}[algebra]
    params = {"algebra": algebra, "n_max": n_max, "basis_size": len(basis)}
    for f in basis:
        for g in basis:
            for n in range(n_max + 1):
                value = bracket_n(family, n, f, g)
                if not membership(value, algebra):
                    witness = _witness("stability", {"f": f, "g": g, "n": n, "algebra": algebra}, value, None)
                    return VerificationReport(claim, "fail", witness, params)
    return VerificationReport(claim, "pass", None, params)


# Q is the index-zero part of K and brackets keep the index, so no family
# escapes Q: its cases all pass
@pytest.mark.parametrize(
    "family, algebra, n_max, basis, passes",
    [
        (crochet(0, F(7, 5)), "Jtilde", 3, None, True),
        (rc_localized(F(1, 12), F(2)), "Jtilde", 2, monomial_basis(4, 1), True),
        (crochet(F(1), F(1)), "Jtilde", 1, None, False),
        (crochet(F(1), F(0)), "Jtilde", 2, None, False),
        (scal(F(1), F(1, 2)), "Jtilde", 2, monomial_basis(6, 1), False),
        (accol(1, 1, 1), "M", 4, None, True),
        (accol(F(-1, 6), F(-1, 3), F(7, 5)), "M", 3, monomial_basis(12, 0, "M"), True),
        (crochet(F(1), F(0)), "M", 2, None, False),
        (crochet(F(1), F(0)), "M", 2, monomial_basis(8, 0, "M"), False),
        (crochet(F(1, 12), F(2)), "Q", 3, None, True),
        (scal(F(-1, 6), F(2)), "Q", 2, monomial_basis(6, 2, "Q"), True),
        (crochet(F(1), F(1)), "Q", 2, monomial_basis(6, 2, "Q"), True),
    ],
    ids=[
        "Jtilde-pass", "Jtilde-capped-pass", "Jtilde-fail", "Jtilde-fail-order-2", "Jtilde-capped-fail",
        "M-pass", "M-capped-pass", "M-fail", "M-capped-fail", "Q-pass", "Q-capped-pass", "Q-capped-pass-alpha-1",
    ],
)
def test_stability_report_equals_the_loop_over_ordered_pairs(family, algebra, n_max, basis, passes):
    got = check_stability(family, algebra, n_max, basis)
    assert got.passed == passes
    _same_report(got, _stability_reference(family, algebra, n_max, basis))


def test_stability_witness_of_an_off_diagonal_pair_keeps_its_sign():
    # off the stability line and with E4 ahead of B, the first escape is
    # mu_1(E4, B), an off-diagonal pair of odd order: the witness is the
    # bracket in the pair's own order of arguments, not its negative
    family, basis = rc_localized(F(1, 12), F(3)), [E4, B, E6, A]
    got = check_stability(family, "Jtilde", 2, basis)
    assert not got.passed
    assert (got.witness["inputs"]["f"], got.witness["inputs"]["g"], got.witness["inputs"]["n"]) == (E4, B, 1)
    assert got.witness["lhs"] == bracket_n(family, 1, E4, B) != -got.witness["lhs"]
    _same_report(got, _stability_reference(family, "Jtilde", 2, basis))


def test_membership_rows_are_those_of_every_ordered_pair():
    # consumed to the end, past escapes at i > j that a check never reaches
    from jacobiforms.verifier import _membership_rows

    family, basis = rc_localized(F(1, 12), F(3)), [E4, B, E6, A]
    expected = []
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            for n in range(3):
                value = bracket_n(family, n, f, g)
                expected.append((i, j, n, None if membership(value, "Jtilde") else value))
    assert any(escape is not None for i, j, _, escape in expected if i > j)
    assert list(_membership_rows(family, "Jtilde", 2, basis)) == expected


def test_stability_computes_each_unordered_pair_once(monkeypatch):
    from jacobiforms import verifier

    calls = []
    true_orders = verifier.escaping_orders
    monkeypatch.setattr(verifier, "escaping_orders", lambda *args: calls.append(args[2:4]) or true_orders(*args))
    basis = monomial_basis(4, 1)
    assert check_stability(crochet(0, F(7, 5)), "Jtilde", 2, basis).passed
    assert len(calls) == len(set(calls)) == len(basis) * (len(basis) + 1) // 2


def test_vinset_reports():
    reports = check_vinset([F(0), F(1, 12), F(-1, 6), F(1)])
    assert [r.claim for r in reports] == [
        "stability-line.displays",
        "stability-line.iff",
        "stability-line.line-identity",
    ]
    assert all(r.passed for r in reports)


def test_vinset_displays_fail_with_the_wrong_closed_form(monkeypatch):
    from jacobiforms import verifier

    closed_forms = verifier._vinset_closed_forms

    def one_wrong(u, v):
        forms = closed_forms(u, v)
        forms[("A", "B")] = forms[("A", "B")] + B ** 2
        return forms

    monkeypatch.setattr(verifier, "_vinset_closed_forms", one_wrong)
    displays, iff, line_identity = check_vinset([F(0), F(1, 12)])
    assert not displays.passed and iff.passed and line_identity.passed
    assert displays.witness == {
        "identity": "closed-form",
        "inputs": {"f": "A", "g": "B", "u": F(0), "v": F(1)},
        "lhs": closed_forms(F(0), F(1))[("A", "B")],
        "rhs": one_wrong(F(0), F(1))[("A", "B")],
    }


def test_vinset_iff_fails_when_every_family_is_on_the_line(monkeypatch):
    from jacobiforms import verifier

    on_line = verifier.rc_localized
    monkeypatch.setattr(verifier, "rc_localized", lambda u, v: on_line(u, 12 * u + 1))
    displays, iff, line_identity = check_vinset([F(0)])
    assert line_identity.passed and not iff.passed
    assert iff.witness == {"identity": "iff", "inputs": {"u": F(0), "v": F(0), "stable": True}, "lhs": None, "rhs": None}


def test_vinset_line_identity_fails_with_the_wrong_index_weight(monkeypatch):
    from jacobiforms import verifier

    true_accol = verifier.accol
    monkeypatch.setattr(verifier, "accol", lambda a, b, c: true_accol(a, b, c + 1))
    displays, iff, line_identity = check_vinset([F(0)])
    assert displays.passed and iff.passed and not line_identity.passed
    witness = line_identity.witness
    assert witness["identity"] == "line-identity" and witness["inputs"]["u"] == F(0)
    f, g = witness["inputs"]["f"], witness["inputs"]["g"]
    assert witness["lhs"] == bracket_n(rc_localized(0, 1), 1, f, g) != witness["rhs"]


def test_vinset_line_identity_value_of_c():
    # on the line the matching index weight is v itself, not -v/3
    u = F(1)
    v = 12 * u + 1
    line = rc_localized(u, v)
    good = accol(F(1, 12), F(-1, 12), v)
    bad = accol(F(1, 12), F(-1, 12), -v / 3)
    for f in GENERATORS:
        for g in GENERATORS:
            assert bracket_n(line, 1, f, g) == bracket_n(good, 1, f, g)
    assert any(
        bracket_n(line, 1, f, g) != bracket_n(bad, 1, f, g)
        for f in GENERATORS
        for g in GENERATORS
    )


def test_scan_conjecture_small():
    report = scan_conjecture([F(0), F(1, 12)], 2, 8, 2)
    assert report.passed
    assert report.details
    assert all(row[-1] for row in report.details)
    assert report.params["pairs"] == len(monomial_basis(8, 2)) ** 2


def test_scan_conjecture_fails_when_the_off_line_brackets_stay_in_the_algebra(monkeypatch):
    # every family on the line: the scan rows pass, the negative direction does not
    from jacobiforms import verifier

    on_line = verifier.rc_localized
    monkeypatch.setattr(verifier, "rc_localized", lambda u, v: on_line(u, 12 * u + 1))
    report = scan_conjecture([F(0)], 1, 4, 1)
    assert not report.passed and all(row[-1] for row in report.details)
    assert report.witness == {"identity": "negative-direction", "inputs": {"u": F(0), "v": F(0)}, "lhs": None, "rhs": None}


def test_scan_conjecture_rows_name_their_monomials():
    report = scan_conjecture([F(0)], 1, 4, 1)
    basis = monomial_basis(4, 1)
    expected = [(str(f), str(g)) for f in basis for g in basis for _ in range(2)]
    assert [(row[3], row[4]) for row in report.details] == expected


def _scan_reference(u_values, n_max, weight_cap, index_cap, claim="conjecture.scan"):
    """scan_conjecture as it was before it read each unordered pair once:
    bracket_n for every ordered pair and every order, in the same loop
    order, with the basis and the family built by verifier's functions."""
    from jacobiforms import verifier

    u_values = [F(u) for u in u_values]
    basis = verifier.monomial_basis(weight_cap, index_cap)
    names = [str(f) for f in basis]
    params = {"u": u_values, "n_max": n_max, "weight_cap": weight_cap, "index_cap": index_cap, "pairs": len(basis) ** 2}
    rows = []
    for u in u_values:
        v = 12 * u + 1
        family = verifier.rc_localized(u, v)
        for f, f_name in zip(basis, names):
            for g, g_name in zip(basis, names):
                for n in range(n_max + 1):
                    value = bracket_n(family, n, f, g)
                    inside = membership(value, "Jtilde")
                    rows.append((u, v, n, f_name, g_name, inside))
                    if not inside:
                        witness = _witness("scan", {"u": u, "v": v, "f": f, "g": g, "n": n}, value, None)
                        return VerificationReport(claim, "fail", witness, params, rows)
        for v_off in (F(0), F(1), F(2)):
            if v_off == v:
                continue
            off = verifier.rc_localized(u, v_off)
            if not any(not membership(bracket_n(off, 1, B, g), "Jtilde") for g in (E4, E6)):
                witness = _witness("negative-direction", {"u": u, "v": v_off}, None, None)
                return VerificationReport(claim, "fail", witness, params, rows)
    return VerificationReport(claim, "pass", None, params, rows)


def _same_scan(got, expected):
    _same_report(got, expected)
    assert got.details == expected.details


@pytest.mark.parametrize(
    "u_values, n_max, weight_cap, index_cap",
    [([F(0), F(1, 12)], 2, 6, 2), ([F(-2), F(7, 5)], 4, 4, 1), ([F(-1, 6)], 0, 8, 0), ([F(1)], 3, 0, 3)],
    ids=["caps-6-2", "nmax-4", "nmax-0", "weight-cap-0"],
)
def test_scan_report_equals_the_loop_over_ordered_pairs(u_values, n_max, weight_cap, index_cap):
    got = scan_conjecture(u_values, n_max, weight_cap, index_cap)
    assert got.passed
    _same_scan(got, _scan_reference(u_values, n_max, weight_cap, index_cap))


@pytest.mark.parametrize("reordered", [False, True], ids=["monomial-basis", "E4-before-B"])
def test_scan_witness_equals_the_loop_over_ordered_pairs(monkeypatch, reordered):
    # move v off the stability line at the second u only, so that the first
    # u's rows are complete and the second u fails part way, after rows
    # read from the flags of swapped pairs.  On the monomial basis the first
    # escape is mu_2(B, B); with E4 ahead of B it is mu_1(E4, B), an
    # off-diagonal pair of odd order, whose witness has the sign of the
    # pair's own order of arguments
    from jacobiforms import brackets, verifier

    moved = F(1, 12)
    monkeypatch.setattr(verifier, "rc_localized", lambda u, v: brackets.rc_localized(u, v + (u == moved)))
    if reordered:
        monkeypatch.setattr(verifier, "monomial_basis", lambda weight_cap, index_cap: [E4, B, E6, A])
    got = scan_conjecture([F(0), moved], 2, 6, 2)
    expected = _scan_reference([F(0), moved], 2, 6, 2)
    assert not got.passed and got.witness["identity"] == "scan"
    assert got.witness["inputs"]["u"] == moved
    assert (got.witness["inputs"]["n"], got.witness["inputs"]["f"] == E4) == ((1, True) if reordered else (2, False))
    _same_scan(got, expected)


def test_scan_conjecture_reports_escape_for_off_line_value():
    # scanning the line with a deliberately wrong rule must fail fast:
    # emulate by checking the first bracket off the line escapes
    off = rc_localized(F(0), F(0))
    assert not membership(bracket_n(off, 1, B, E4), "Jtilde")
    value = bracket_n(off, 1, B, E4)
    f2 = B * A ** -1
    assert value == F(-1, 3) * B * E4 * f2 - F(0) * E6 * B + F(1, 3) * E4 ** 2 * A


@pytest.mark.parametrize(
    "check, status_at_one",
    [
        (lambda n_max: check_associativity(accol(1, 1, 0), n_max), "pass"),
        (lambda n_max: check_stability(crochet(1, 1), "Jtilde", n_max), "fail"),
        (lambda n_max: check_bidegree_law(accol(1, 1, 0), n_max, [(E4, A)]), "pass"),
        (lambda n_max: scan_conjecture([F(0)], n_max, 4, 1), "pass"),
    ],
    ids=["associativity", "stability", "bidegree", "scan"],
)
def test_negative_order_is_refused_not_passed(check, status_at_one):
    # n_max = -1 names no order, so a pass would check nothing: crochet(1, 1)
    # passed stability at -1 although it fails at 1
    with pytest.raises(ValueError, match="bracket order must be nonnegative"):
        check(-1)
    assert check(1).status == status_at_one


def _parent_iff_and_line_identity(u_values):
    """The iff and line-identity reports of the loops over every sampled v
    and every ordered generator pair, through the verifier module's names
    (so monkeypatches apply)."""
    from jacobiforms import verifier

    def iff():
        for u in u_values:
            on_line = 12 * u + 1
            for v in [on_line, F(0), F(1), F(2)]:
                stable = verifier.check_stability(verifier.rc_localized(u, v), "Jtilde", 1).passed
                if stable != (v == on_line):
                    yield verifier._witness("iff", {"u": u, "v": v, "stable": stable}, None, None)

    def line_identity():
        for u in u_values:
            v = 12 * u + 1
            local = verifier.rc_localized(u, v)
            reference = verifier.accol(F(1, 12), F(-1, 12), v)
            for f in GENERATORS:
                for g in GENERATORS:
                    lhs = verifier.bracket_n(local, 1, f, g)
                    rhs = verifier.bracket_n(reference, 1, f, g)
                    if lhs != rhs:
                        yield verifier._witness("line-identity", {"f": f, "g": g, "u": u}, lhs, rhs)

    return next(iff(), None), next(line_identity(), None)


VINSET_U = [F(0), F(-1, 12), F(1, 12), F(1)]  # on the line v = 1, 0, 2 and 13
VINSET_MUTATIONS = {
    "none": (None, None),
    "accol-c-plus-1": ("accol", lambda true: lambda a, b, c: true(a, b, c + 1)),
    "accol-b-zero": ("accol", lambda true: lambda a, b, c: true(a, 0, c)),
    "accol-a-doubled": ("accol", lambda true: lambda a, b, c: true(2 * a, b, c)),
    "every-v-on-the-line": ("rc_localized", lambda true: lambda u, v: true(u, 12 * u + 1)),
    "every-v-off-the-line": ("rc_localized", lambda true: lambda u, v: true(u, 12 * u + 2)),
    # failing only at a later u: where the line meets v = 0, and at v = 13
    "on-the-line-at-u-minus-1/12": ("rc_localized", lambda true: lambda u, v: true(u, 1 + 12 * u if u == F(-1, 12) else v)),
    "accol-c-plus-1-at-v-13": ("accol", lambda true: lambda a, b, c: true(a, b, c + 1 if c == 13 else c)),
}


@pytest.mark.parametrize("mutation", VINSET_MUTATIONS.values(), ids=VINSET_MUTATIONS.keys())
def test_vinset_reports_equal_the_loops_over_every_v_and_ordered_pair(monkeypatch, mutation):
    from jacobiforms import verifier

    name, wrap = mutation
    if name:
        monkeypatch.setattr(verifier, name, wrap(getattr(verifier, name)))
    _, iff, line_identity = check_vinset(VINSET_U)
    assert (iff.witness, line_identity.witness) == _parent_iff_and_line_identity(VINSET_U)
    assert (iff.passed and line_identity.passed) == (name is None)


def test_vinset_brackets_each_line_pair_once_and_checks_each_v_once(monkeypatch):
    from jacobiforms import verifier

    calls, stability, line_start = [], [], []
    true_bracket, true_stability, true_accol = verifier.bracket_n, verifier.check_stability, verifier.accol
    monkeypatch.setattr(verifier, "bracket_n", lambda *args: calls.append(args) or true_bracket(*args))
    monkeypatch.setattr(verifier, "check_stability", lambda *args: stability.append(args[0]) or true_stability(*args))
    # the line identity is checked last, and builds its reference first for each u
    monkeypatch.setattr(verifier, "accol", lambda *args: line_start.append(len(calls)) or true_accol(*args))
    assert all(report.passed for report in check_vinset(VINSET_U))
    # 6 unordered generator pairs, on each side, per u
    assert len(calls) - line_start[0] == 12 * len(VINSET_U)
    # v = 12u+1, 0, 1, 2, once each when distinct: 3 + 3 + 3 + 4
    assert len(stability) == 13

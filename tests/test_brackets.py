import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobiforms
from jacobiforms import (
    A,
    A_INV,
    B,
    BudgetExceeded,
    E4,
    E6,
    GENERATORS,
    InternalInvariantError,
    ZERO,
    accol,
    bracket_n,
    bracket_sum,
    cm_bracket,
    crochet,
    escaping_orders,
    gbinom,
    iterate,
    membership,
    monomial,
    orc,
    parse_element,
    rc_classical,
    rc_localized,
    scal,
    src,
    star_truncated,
    work_budget,
)
from jacobiforms import brackets
from jacobiforms.brackets import BracketFamily, _denominator, _integer_row
from jacobiforms.derivations import Derivation
from jacobiforms.verifier import random_homogeneous

SAMPLES = [F(0), F(1), F(-1, 2), F(7, 3)]


def test_gbinom():
    assert gbinom(5, 2) == 10
    assert gbinom(F(22, 7), 0) == 1
    assert gbinom(F(-1, 2), 2) == F(3, 8)
    assert gbinom(-2, 3) == -4
    assert gbinom(3, 5) == 0
    with pytest.raises(ValueError):
        gbinom(1, -1)


def test_bracket_families_require_admissible_derivations():
    bad = Derivation(E4, ZERO, ZERO, ZERO)
    with pytest.raises(ValueError):
        BracketFamily(bad, F(0))


def test_order_zero_is_the_product():
    fam = accol(1, 2, 3)
    f = E4 + A * B
    g = E6 - 2 * B
    assert bracket_n(fam, 0, f, g) == f * g


def test_first_bracket_closed_form_on_index_pairs():
    a, b, c = F(2), F(-5), F(7, 3)
    fam = accol(a, b, c)
    # (A, B): weights (-2,1) and (0,1)
    assert bracket_n(fam, 1, A, B) == b * (c - 2) * E4 * A ** 2 - a * c * B ** 2


def test_first_bracket_on_modular_pair_is_parameter_free():
    for a, b, c in itertools.product(SAMPLES, repeat=3):
        assert bracket_n(accol(a, b, c), 1, E4, E6) == 2 * (E6 ** 2 - E4 ** 3)


ORC_TABLE = {
    ("E4", "E6"): lambda mu: 2 * (E6 ** 2 - E4 ** 3),
    ("E4", "A"): lambda mu: F(-2, 3) * E4 * B + (mu - 2) / 3 * E6 * A,
    ("E4", "B"): lambda mu: mu / 3 * E6 * B - F(4, 3) * E4 ** 2 * A,
    ("E6", "A"): lambda mu: -E6 * B + (mu - 2) / 2 * E4 ** 2 * A,
    ("E6", "B"): lambda mu: mu / 2 * E4 ** 2 * B - 2 * E4 * E6 * A,
    ("A", "B"): lambda mu: mu / 6 * B ** 2 + (2 - mu) / 3 * E4 * A ** 2,
}


@pytest.mark.parametrize("mu", [F(0), F(1), F(-3), F(7, 2)])
def test_oberdieck_family_table(mu):
    fam = orc(mu)
    gens = dict(zip(("E4", "E6", "A", "B"), GENERATORS))
    for (fn, gn), expected in ORC_TABLE.items():
        assert bracket_n(fam, 1, gens[fn], gens[gn]) == expected(mu)
    for g in GENERATORS:
        assert bracket_n(fam, 1, g, g) == ZERO


def test_bidegree_law_on_random_pairs(rng):
    families = [accol(1, F(-1, 6), F(7, 5)), crochet(F(1, 12), 1), rc_localized(F(-1, 3), 0)]
    for fam in families:
        for _ in range(10):
            f = random_homogeneous(rng)
            g = random_homogeneous(rng)
            kf, pf = f.bidegree()
            kg, pg = g.bidegree()
            for n in range(4):
                value = bracket_n(fam, n, f, g)
                if not value.is_zero:
                    assert value.bidegree() == (kf + kg + 2 * n, pf + pg)


def test_sign_symmetry(rng):
    fam = accol(F(-1, 6), F(-1, 3), F(1, 12))
    for _ in range(10):
        f = random_homogeneous(rng)
        g = random_homogeneous(rng)
        for n in range(4):
            assert bracket_n(fam, n, f, g) == (-1) ** n * bracket_n(fam, n, g, f)


def test_bilinear_extension_over_components():
    f = E4 + A          # mixed bidegrees
    g = B + E6
    for fam in (orc(F(1)), accol(F(1, 2), F(-1, 3), F(7, 5))):
        for n in range(4):
            total = sum(
                (bracket_n(fam, n, fc, gc) for fc in (E4, A) for gc in (B, E6)),
                start=ZERO,
            )
            assert bracket_n(fam, n, f, g) == total
            assert bracket_n(fam, n, f, E6) == bracket_n(fam, n, E4, E6) + bracket_n(fam, n, A, E6)


def test_binomial_rows_are_the_bracket_binomials():
    jacobiforms.clear_caches()
    assert _integer_row.cache_info().currsize == 0
    fam = accol(F(1, 2), F(-1, 3), F(7, 5))
    parts = (E4 + A).homogeneous_components() | (B + E6).homogeneous_components()
    for n in range(5):
        bracket_n(fam, n, E4 + A, B + E6)
        for k, p in parts:
            row = _integer_row(k, p, fam.c.numerator, fam.c.denominator, n)
            denominator = _denominator(fam.c.denominator, n)
            assert tuple(F(x, denominator) for x in row) == tuple(gbinom(k + fam.c * p + n - 1, j) for j in range(n + 1))
    assert _integer_row.cache_info().currsize == 5 * len(parts)
    jacobiforms.clear_caches()
    assert _integer_row.cache_info().currsize == 0


# Index weights with denominators 1, 4, 5, 12 and 1000, so that D(c, n)
# takes on large prime-power factors.
INDEX_WEIGHTS = [F(0), F(-3, 4), F(7, 5), F(1, 12), F(997, 1000)]


def test_integer_rows_are_the_binomial_rows_over_the_row_denominator():
    for c in INDEX_WEIGHTS:
        for n in range(6):
            denominator = _denominator(c.denominator, n)
            for k in range(-6, 9):
                for p in range(-2, 4):
                    row = _integer_row(k, p, c.numerator, c.denominator, n)
                    assert all(type(x) is int for x in row)
                    assert tuple(F(x, denominator) for x in row) == tuple(gbinom(k + c * p + n - 1, j) for j in range(n + 1))


def _legendre(prime, n):
    """v_prime(n!), by Legendre's formula."""
    return sum(n // prime ** e for e in range(1, n.bit_length() + 1))


def test_row_denominator_is_den_c_to_the_n_times_the_primes_of_den_c_in_n_factorial():
    assert [_denominator(1, n) for n in (0, 1, 5, 300)] == [1, 1, 1, 1]
    assert _denominator(12, 6) == 12 ** 6 * 2 ** _legendre(2, 6) * 3 ** _legendre(3, 6)
    assert _denominator(1000, 10) == 1000 ** 10 * 2 ** _legendre(2, 10) * 5 ** _legendre(5, 10)
    assert _denominator(7, 6) == 7 ** 6
    # each order's scale divides the next one's, as bracket_sum needs
    for d in (1, 4, 12, 30, 1000):
        assert all(_denominator(d, n + 1) % _denominator(d, n) == 0 for n in range(20))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=360),
    st.integers(-12, 24),
    st.integers(-4, 6),
    st.integers(0, 12),
)
def test_every_row_entry_is_an_integer_over_the_smallest_scale(c, k, p, n):
    scale = _denominator(c.denominator, n)
    binomials = [gbinom(k + c * p + n - 1, j) for j in range(n + 1)]
    assert all((b * scale).denominator == 1 for b in binomials)
    assert _integer_row.__wrapped__(k, p, c.numerator, c.denominator, n) == tuple(int(b * scale) for b in binomials)


@pytest.mark.parametrize("prime", [2, 3])
def test_a_scale_without_one_prime_power_leaves_a_fraction(monkeypatch, prime):
    # c = 1/12, p = 1: the top's numerator is prime to 12, so the last
    # binomial of order 6 needs every factor of 12^6 * 2^4 * 3^2
    true_denominator = _denominator
    monkeypatch.setattr(brackets, "_denominator", lambda d, n: true_denominator(d, n) // prime ** _legendre(prime, n))
    scale = brackets._denominator(12, 6)
    assert (gbinom(F(1, 12) + 5, 6) * scale).denominator == prime ** _legendre(prime, 6)
    with pytest.raises(InternalInvariantError):
        _integer_row.__wrapped__(0, 1, 1, 12, 6)


@pytest.mark.parametrize("allowance", [30, 300, 1000])
def test_a_refusal_midway_leaves_the_library_as_it_was(allowance):
    # a work budget spent in the middle of a bracket, of a power and of a
    # membership sweep leaves the power memo, the escape rows (_OutsideRows)
    # and the split into components as a fresh computation has them: the
    # same calls without a budget give what they give after clear_caches()
    family = rc_localized(F(1, 12), 2)
    calls = (
        lambda: bracket_n(family, 12, f, g),
        lambda: iterate(family.derivation, 12, f),
        lambda: escaping_orders(family, 12, f, g, "Jtilde"),
    )
    jacobiforms.clear_caches()
    f, g = parse_element("E4*A + B^2"), parse_element("E6*A^-1 + B")
    for call in calls:
        with pytest.raises(BudgetExceeded), work_budget(allowance):
            call()
    after = [call() for call in calls]
    jacobiforms.clear_caches()
    f, g = parse_element("E4*A + B^2"), parse_element("E6*A^-1 + B")
    assert after == [call() for call in calls]


def test_clear_caches_empties_the_integer_rows():
    bracket_n(accol(1, 2, F(7, 5)), 2, E4 + A, B)
    assert _integer_row.cache_info().currsize > 0
    jacobiforms.clear_caches()
    assert _integer_row.cache_info().currsize == 0


def _reference_bracket(family, n, f, g):
    """The bracket formula in Fraction arithmetic: gbinom per pair of
    components, iterate for the powers of D, the terms summed with +."""
    d, c = family.derivation, family.c
    total = ZERO
    for (k, p), fc in f.homogeneous_components().items():
        for (l, q), gc in g.homogeneous_components().items():
            for r in range(n + 1):
                coeff = (-1) ** r * gbinom(k + c * p + n - 1, n - r) * gbinom(l + c * q + n - 1, r)
                total = total + coeff * iterate(d, r, fc) * iterate(d, n - r, gc)
    return total


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# a few monomials of mixed bidegrees, negative powers of A included
_elements = st.lists(
    st.tuples(_coefficients, st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2), st.integers(0, 2)),
    min_size=1,
    max_size=3,
).map(lambda terms: sum((c * monomial(*m) for c, *m in terms), start=ZERO))
_families = st.builds(
    lambda build, p, c: build(p, c),
    st.sampled_from([lambda p, c: accol(p, -2 * p, c), crochet, scal, rc_localized]),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.sampled_from(INDEX_WEIGHTS),
)


@settings(max_examples=60, deadline=None)
@given(_families, st.integers(0, 5), _elements, _elements)
def test_bracket_matches_the_fraction_reference(family, n, f, g):
    assert bracket_n(family, n, f, g) == _reference_bracket(family, n, f, g)


_parameters = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_index_weights = st.sampled_from(INDEX_WEIGHTS)
# every named family kind, each with rational parameters where it has any
_named_families = st.one_of(
    st.builds(accol, _parameters, _parameters, _index_weights),
    st.builds(orc, _index_weights),
    st.just(src()),
    st.builds(crochet, _parameters, _index_weights),
    st.builds(scal, _parameters, _index_weights),
    st.builds(rc_localized, _parameters, _index_weights),
)
# elements with at least two homogeneous components
_inhomogeneous = st.tuples(_elements, _elements).map(lambda xy: xy[0] + xy[1]).filter(lambda x: len(x.homogeneous_components()) > 1)


@settings(max_examples=60, deadline=None)
@given(_named_families, st.integers(0, 5), _inhomogeneous, _inhomogeneous)
def test_swapping_the_arguments_multiplies_the_bracket_by_its_order_sign(family, n, f, g):
    # mu_n(g, f) = (-1)^n mu_n(f, g): scan_conjecture computes each
    # unordered pair once on the strength of it
    assert bracket_n(family, n, g, f) == (-1) ** n * bracket_n(family, n, f, g)


@settings(max_examples=40, deadline=None)
@given(_named_families, st.integers(0, 5), _inhomogeneous, _inhomogeneous)
def test_star_truncated_is_the_list_of_brackets(family, order, f, g):
    got = star_truncated(family, order, f, g)
    assert got == [bracket_n(family, n, f, g) for n in range(order + 1)]
    assert got == [_reference_bracket(family, n, f, g) for n in range(order + 1)]


ALGEBRAS = ("M", "Jtilde", "Q", "K")
# random homogeneous elements, some divided by A, and sums of them
_homogeneous = st.builds(
    lambda seed, shift: random_homogeneous(random.Random(seed), 6, 2) * A_INV ** shift,
    st.integers(0, 2 ** 32),
    st.integers(0, 1),
)
_sums = st.lists(_homogeneous, min_size=1, max_size=3).map(lambda xs: sum(xs, start=ZERO))


@settings(max_examples=60, deadline=None)
@given(_named_families, st.integers(0, 4), st.one_of(_homogeneous, _sums), st.one_of(_homogeneous, _sums))
def test_escaping_orders_are_the_brackets_outside_each_algebra(family, order, f, g):
    expected = {algebra: [not membership(bracket_n(family, n, f, g), algebra) for n in range(order + 1)] for algebra in ALGEBRAS}
    assert {algebra: escaping_orders(family, order, f, g, algebra) for algebra in ALGEBRAS} == expected


@pytest.mark.parametrize("u", [F(0), F(1, 12), F(-1, 6), F(1)])
def test_escaping_orders_off_the_stability_line(u):
    # off v = 12u + 1 first brackets escape C[E4, E6, A, B], so the decision
    # is checked on escapes as well as on brackets that stay inside
    basis = [*GENERATORS, E4 * A, A * B]
    seen = set()
    for v in (F(0), F(2), F(7, 5)):
        family = rc_localized(u, v)
        for f in basis:
            for g in basis:
                for algebra in ALGEBRAS:
                    got = escaping_orders(family, 4, f, g, algebra)
                    assert got == [not membership(bracket_n(family, n, f, g), algebra) for n in range(5)]
                    seen.update((algebra, flag) for flag in got)
    assert {("Jtilde", True), ("Jtilde", False), ("K", False)} <= seen


@settings(max_examples=40, deadline=None)
@given(_families, st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 4), _elements, _elements), max_size=4))
def test_bracket_sum_is_the_sum_of_its_brackets(family, terms):
    expected = sum((s * bracket_n(family, n, x, y) for s, n, x, y in terms), start=ZERO)
    assert bracket_sum(family, terms) == expected


@pytest.mark.parametrize(
    "family_builder",
    [
        lambda p, c: accol(p, 2 * p, c),
        lambda p, c: crochet(p, c),
        lambda p, c: scal(p, c),
        lambda p, c: rc_localized(p, c),
    ],
)
def test_pochhammer_form_agrees_with_closed_form(family_builder):
    pairs = list(itertools.product(GENERATORS, repeat=2))
    for p in SAMPLES:
        for c in SAMPLES:
            fam = family_builder(p, c)
            for n in range(5):
                for f, g in pairs:
                    assert bracket_n(fam, n, f, g) == cm_bracket(fam.derivation, fam.c, n, f, g)


def test_cm_bracket_of_zero_derivation():
    from jacobiforms import zero_derivation

    z = zero_derivation()
    assert cm_bracket(z, F(1), 0, E4, E6) == E4 * E6
    for n in (1, 2, 3):
        assert cm_bracket(z, F(1), n, E4, E6) == ZERO


def test_modular_restriction_is_parameter_independent():
    reference = src()
    pairs = [(E4, E6), (E4, E4), (E6, E6), (E4 ** 2, E6)]
    for a, b, c in [(1, 1, 1), (F(-1, 6), F(-1, 3), F(7, 5)), (F(1, 12), 0, F(-3))]:
        fam = accol(a, b, c)
        for n in range(5):
            for f, g in pairs:
                assert bracket_n(fam, n, f, g) == bracket_n(reference, n, f, g)
                assert membership(bracket_n(fam, n, f, g), "M")


def test_classical_bracket_values():
    assert rc_classical(1, E4, E6) == -2 * E4 ** 3 + 2 * E6 ** 2
    assert rc_classical(1, E4, E4) == ZERO
    assert rc_classical(0, E4, E6) == E4 * E6


def test_classical_bracket_rejects_nonmodular_inputs():
    with pytest.raises(ValueError):
        rc_classical(1, A, E4)


def test_classical_bracket_is_f2_free(rng):
    for _ in range(5):
        f = random_homogeneous(rng, weight_cap=12, index_cap=0)
        g = random_homogeneous(rng, weight_cap=12, index_cap=0)
        for n in range(4):
            assert membership(rc_classical(n, f, g), "M")


def test_serre_vs_classical_bracket_relation():
    # order one agrees; order two differs by (1/288) k l (k+l+2) f g E4
    for f, g in [(E4, E4), (E4, E6), (E6, E6)]:
        k = f.bidegree().weight
        l = g.bidegree().weight
        assert bracket_n(src(), 1, f, g) == rc_classical(1, f, g)
        correction = F(1, 288) * k * l * (k + l + 2) * f * g * E4
        assert bracket_n(src(), 2, f, g) == rc_classical(2, f, g) + correction


def test_star_truncated():
    fam = orc(F(3))
    assert star_truncated(fam, 0, E4, A) == [E4 * A]
    coeffs = star_truncated(fam, 1, E4, A)
    assert coeffs[1] == F(-2, 3) * E4 * B + (F(3) - 2) / 3 * E6 * A
    fam2 = accol(0, 0, F(1, 2))
    for j, value in enumerate(star_truncated(fam2, 3, E4, E6)):
        assert value == cm_bracket(fam2.derivation, fam2.c, j, E4, E6)


def test_negative_orders_are_refused_by_every_bracket_route():
    # an empty list of orders would let a check over n <= -1 pass vacuously
    fam = crochet(1, 1)
    for route in (star_truncated, bracket_n):
        with pytest.raises(ValueError, match="bracket order must be nonnegative"):
            route(fam, -1, E4, A)
    with pytest.raises(ValueError, match="bracket order must be nonnegative"):
        escaping_orders(fam, -1, E4, A, "Jtilde")


def test_negative_binomial_tops_need_no_special_case():
    # A has weight -2, so tops go negative; the bracket still lands correctly
    fam = accol(1, 1, 0)
    value = bracket_n(fam, 3, A, A)
    if not value.is_zero:
        assert value.bidegree() == (2, 2)


def test_the_pochhammer_route_refuses_a_negative_order():
    fam = accol(0, 0, F(1, 2))
    with pytest.raises(ValueError, match="^bracket order must be nonnegative$"):
        cm_bracket(fam.derivation, fam.c, -1, E4, E6)

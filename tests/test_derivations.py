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
    BidegreeError,
    E4,
    E6,
    F2,
    GENERATORS,
    ZERO,
    EulerWeighting,
    commutator,
    d_alpha,
    delta_beta,
    euler_commutator_check,
    flat,
    iterate,
    make_derivation,
    monomial,
    oberdieck,
    partial_u,
    pi,
    pochhammer_apply,
    rc_localized,
    serre,
    serre_ab,
    sharp,
    zero_derivation,
)
from jacobiforms.brackets import bracket_n, star_truncated
from jacobiforms.derivations import _iterate, power_sequence
from jacobiforms.elements import leibniz_apply

BUILTINS = {
    "serre": serre(),
    "oberdieck": oberdieck(),
    "sharp": sharp(),
    "flat": flat(),
    "pi": pi(),
    "d_alpha(1/12)": d_alpha(F(1, 12)),
    "delta_beta(-1/6)": delta_beta(F(-1, 6)),
    "partial_u(7/5)": partial_u(F(7, 5)),
    "serre_ab(2,-3)": serre_ab(2, -3),
}


def test_serre_ab_images():
    d = serre_ab(F(1, 2), F(-5))
    assert d.on_e4 == F(-1, 3) * E6
    assert d.on_e6 == F(-1, 2) * E4 ** 2
    assert d.on_a == F(1, 2) * B
    assert d.on_b == -5 * E4 * A


def test_oberdieck_generator_values():
    ob = oberdieck()
    assert ob(E4) == F(-1, 3) * E6
    assert ob(E6) == F(-1, 2) * E4 ** 2
    assert ob(A) == F(-1, 6) * B
    assert ob(B) == F(-1, 3) * E4 * A


def test_serre_kills_discriminant():
    delta = (E4 ** 3 - E6 ** 2) / 1728
    assert serre()(delta) == ZERO
    assert serre()(delta ** 3) == ZERO


def test_pi_is_weighted_f2_multiplication():
    p = pi()
    for f in (E4, E6, A, B, E4 * B ** 2, A_INV):
        k = f.bidegree().weight
        assert p(f) == k * f * F2


def test_pi_values_on_generators():
    p = pi()
    assert p(E4) == 4 * E4 * F2
    assert p(E6) == 6 * E6 * F2
    assert p(A) == -2 * B
    assert p(B) == ZERO


def test_sharp_flat_restrictions():
    # sharp sends F2 to -E4/12 and kills A; flat kills both
    assert sharp()(F2) == F(-1, 12) * E4
    assert sharp()(A) == ZERO
    assert flat()(F2) == ZERO
    assert flat()(A) == ZERO
    # on the polynomial subalgebra sharp acts as serre_ab(0, -1/12)
    reference = serre_ab(0, F(-1, 12))
    for g in GENERATORS:
        assert sharp()(g) == reference(g)


def test_d_alpha_images():
    alpha = F(7, 3)
    d = d_alpha(alpha)
    assert d(F2) == F(-1, 12) * E4 + 2 * alpha * F2 ** 2
    assert d(E4) == F(-1, 3) * E6 + 4 * alpha * E4 * F2
    assert d(E6) == F(-1, 2) * E4 ** 2 + 6 * alpha * E6 * F2
    assert d(A) == -2 * alpha * B
    # the B image does not depend on alpha
    assert d(B) == F(-1, 12) * E4 * A


def test_delta_beta_images():
    beta = F(-2, 5)
    d = delta_beta(beta)
    assert d(F2) == 2 * beta * F2 ** 2
    assert d(E4) == F(-1, 3) * E6 + 4 * beta * E4 * F2
    assert d(E6) == F(-1, 2) * E4 ** 2 + 6 * beta * E6 * F2
    assert d(A) == -2 * beta * B
    assert d(B) == ZERO


def test_partial_u_images():
    u = F(3, 7)
    d = partial_u(u)
    assert d(E4) == (E4 * F2 - E6) / 3
    assert d(E6) == (E6 * F2 - E4 ** 2) / 2
    assert d(F2) == (F2 ** 2 - E4) / 12
    assert d(A) == u * B
    assert d(B) == (u + F(1, 12)) * B * F2 - F(1, 12) * E4 * A


def test_make_derivation_rejects_bad_bidegree():
    with pytest.raises(BidegreeError, match="A"):
        make_derivation(ZERO, ZERO, E4, ZERO)
    with pytest.raises(BidegreeError):
        make_derivation(E4, ZERO, ZERO, ZERO)
    with pytest.raises(BidegreeError):
        make_derivation(ZERO, ZERO, ZERO, E4 + B)


def _random_element(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2), rng.randint(0, 2))
        terms[m] = F(rng.randint(-6, 6), rng.randint(1, 4))
    from jacobiforms import BigradedElement

    return BigradedElement(terms)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_leibniz_on_random_pairs(name):
    d = BUILTINS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        f, g = _random_element(rng), _random_element(rng)
        assert d(f * g) == d(f) * g + f * d(g)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_bidegree_shift(name):
    d = BUILTINS[name]
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(25):
        f = _random_element(rng)
        for (k, p), comp in f.homogeneous_components().items():
            image = d(comp)
            if not image.is_zero:
                assert image.bidegree() == (k + 2, p)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_localization_rule(name):
    d = BUILTINS[name]
    assert d(A_INV) == -monomial(a=-2) * d.on_a
    assert d(A * A_INV) == ZERO


def test_iterate():
    assert iterate(serre(), 0, E4 + B) == E4 + B
    assert iterate(serre(), 2, E4) == E4 ** 2 / 6
    assert iterate(oberdieck(), 2, A) == F(1, 18) * E4 * A
    with pytest.raises(ValueError):
        iterate(serre(), -1, E4)


def test_iterate_at_any_depth():
    # deeper than one recursion of the memo can reach
    assert iterate(flat(), 1000, A) == ZERO


def test_equal_derivations_hash_alike_and_share_the_iterate_memo():
    d1 = rc_localized(1, 13).derivation
    d2 = rc_localized(1, 13).derivation
    assert d1 is not d2 and d1 == d2
    assert hash(rc_localized(1, 13).derivation) == hash(rc_localized(1, 13).derivation)
    f = E4 * A + B ** 2
    power_sequence(d1, 2, f)
    before = _iterate.cache_info()
    power_sequence(d2, 2, f)
    after = _iterate.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _applied(d, r, f):
    """r-fold leibniz_apply of d's images, with no memo."""
    for _ in range(r):
        f = leibniz_apply(f, d.images)
    return f


# a few monomials of mixed bidegrees, negative powers of A included
_elements = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2), st.integers(0, 2)),
    min_size=1,
    max_size=3,
).map(lambda terms: sum((c * monomial(*m) for c, *m in terms), start=ZERO))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BUILTINS)), _elements, st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_powers_read_in_any_order_are_the_applied_powers(name, f, orders):
    d = BUILTINS[name]
    jacobiforms.clear_caches()
    for r in orders:
        assert iterate(d, r, f) == _applied(d, r, f)
        assert power_sequence(d, r, f)[: r + 1] == [_applied(d, s, f) for s in range(r + 1)]


def test_deep_power_read_before_shallow_one():
    d, f = partial_u(F(7, 5)), E4 * A + B ** 2
    jacobiforms.clear_caches()
    assert power_sequence(d, 7, f)[7] == _applied(d, 7, f)
    before = _iterate.cache_info()
    assert power_sequence(d, 3, f)[3] == _applied(d, 3, f)
    after = _iterate.cache_info()
    # the shallow power is read from the sequence the deep one left behind
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)
    assert len(power_sequence(d, 3, f)) == 8


def test_bracket_reads_the_powers_a_longer_star_product_left():
    family = rc_localized(F(1, 12), 2)
    d, f, g = family.derivation, E4 * A + B, E6 + A * B
    jacobiforms.clear_caches()
    orders = star_truncated(family, 4, f, g)
    second = bracket_n(family, 2, f, g)
    jacobiforms.clear_caches()
    assert second == orders[2] == bracket_n(family, 2, f, g)
    for x in (E4 * A, B, E6, A * B):
        assert power_sequence(d, 4, x)[:5] == [_applied(d, r, x) for r in range(5)]


def test_equal_derivations_share_one_power_sequence():
    d1, d2 = rc_localized(1, 13).derivation, rc_localized(1, 13).derivation
    assert d1 is not d2
    f = E4 * A + B ** 2
    jacobiforms.clear_caches()
    assert iterate(d1, 5, f) == _applied(d1, 5, f)
    assert power_sequence(d2, 2, f) is power_sequence(d1, 5, f)
    assert iterate(d2, 6, f) == _applied(d2, 6, f)
    assert _iterate.cache_info().currsize == 1


def test_powers_after_clear_caches():
    d, f = oberdieck(), A * B + E4
    first = [power_sequence(d, r, f)[r] for r in range(5)]
    jacobiforms.clear_caches()
    assert _iterate.cache_info().currsize == 0
    assert [power_sequence(d, r, f)[r] for r in reversed(range(5))] == first[::-1] == [_applied(d, r, f) for r in reversed(range(5))]
    assert _iterate.cache_info().currsize == 1


def test_iterate_keeps_no_power_sequence():
    # a deep power costs the memory of one power: iterate leaves no memo behind
    d, f = partial_u(F(7, 5)), E4 * A + B ** 2
    jacobiforms.clear_caches()
    assert iterate(d, 6, f) == _applied(d, 6, f)
    assert _iterate.cache_info().currsize == 0


def test_commutator_basic():
    d = oberdieck()
    zero = zero_derivation()
    for img in commutator(zero, d).images:
        assert img == ZERO
    for img in commutator(d, d).images:
        assert img == ZERO


def test_commutator_matches_operator_bracket():
    d1, d2 = d_alpha(F(1, 3)), delta_beta(F(1, 3))
    bracket = commutator(d1, d2)
    for f in (E4 * A, B ** 2 * A_INV, E6 + A, F2 ** 2):
        assert bracket(f) == d1(d2(f)) - d2(d1(f))


@pytest.mark.parametrize("mu", [F(0), F(1), F(-3), F(7, 2)])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_euler_commutator(name, mu):
    assert euler_commutator_check(BUILTINS[name], mu)


def test_euler_commutator_zero_derivation():
    assert euler_commutator_check(zero_derivation(), F(5))


def test_euler_commutator_fails_for_a_derivation_of_weight_four():
    # W o d - d o W = 4d for the commutator of two admissible derivations
    assert not euler_commutator_check(commutator(serre(), oberdieck()), F(0))


def test_pochhammer():
    w = EulerWeighting(F(0))
    f = E4 * E6  # weight 10
    assert pochhammer_apply(w, 0, f) == f
    assert pochhammer_apply(w, 2, f) == 10 * 11 * f
    assert pochhammer_apply(w, 3, f, shift=2) == 12 * 13 * 14 * f
    w2 = EulerWeighting(F(1, 2))
    assert pochhammer_apply(w2, 1, A) == F(-3, 2) * A


def test_pochhammer_refuses_a_negative_order():
    with pytest.raises(ValueError, match="^Pochhammer order must be nonnegative$"):
        pochhammer_apply(EulerWeighting(F(0)), -1, E4)

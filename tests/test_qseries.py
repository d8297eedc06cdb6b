from dataclasses import replace
from fractions import Fraction as F
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforms import (
    A,
    A_INV,
    B,
    E4,
    E6,
    F2,
    InternalInvariantError,
    accol,
    b_series,
    bernoulli,
    bracket_n,
    delta_series,
    eisenstein,
    evaluate,
    evaluate_quasimodular,
    gbinom,
    iterate,
    j1_series,
    j1g_series,
    j2_series,
    make_bundle,
    monomial_basis,
    oberdieck,
    oberdieck_series,
    orc,
    parse_element,
    partial_u,
    rc_classical,
    rc_localized,
    sigma,
    theta_quotient_A,
)
from jacobiforms.qseries import LaurentPolyW, QSeries, _inverted_unit, combination, constant_series, format_wpoly


EDGE_ORDERS = (0, 1, 2, 30)  # the truncations at which every series is checked against an oracle


def wpoly(xi_pairs):
    """Laurent polynomial from {xi-exponent: coeff}."""
    return LaurentPolyW({2 * r: c for r, c in xi_pairs.items()})


XI_SQ = wpoly({1: 1, 0: -2, -1: 1})  # (xi^1/2 - xi^-1/2)^2


def mirror(poly):
    """poly with w -> w^{-1} substituted."""
    return LaurentPolyW({-r: c for r, c in poly.items()})


def w_width(series):
    """The largest size of a w exponent in the series."""
    return max((abs(r) for n in range(series.q_order + 1) for r in series.coefficient(n).support()), default=0)


def gap(order):
    """The theta gap w - w^{-1} as a series through q^order."""
    return QSeries([{1: 1, -1: -1}] + [{}] * order)


def divides_dz(series):
    """Whether dz(series) is gap times its gap quotient, as for a series even in z."""
    return gap(series.q_order) * series.dz().gap_quotient() == series.dz()


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(3) == 0


def test_sigma():
    assert sigma(3, 2) == 9
    assert sigma(1, 6) == 12
    assert sigma(0, 12) == 6
    assert sigma(5, 1) == 1
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_eisenstein_series():
    e2 = eisenstein(2, 4)
    assert [e2.coefficient(n).coefficient(0) for n in range(5)] == [1, -24, -72, -96, -168]
    e4 = eisenstein(4, 2)
    assert e4.coefficient(1).coefficient(0) == 240
    assert e4.coefficient(2).coefficient(0) == 240 * sigma(3, 2)
    e6 = eisenstein(6, 1)
    assert e6.coefficient(1).coefficient(0) == -504
    with pytest.raises(ValueError):
        eisenstein(3, 2)


def test_theta_quotient_reference_coefficients():
    a = theta_quotient_A(6)
    assert divides_dz(a)
    assert a.coefficient(0) == XI_SQ
    assert a.coefficient(1) == F(-2) * XI_SQ ** 2
    assert a.coefficient(2) == XI_SQ ** 2 * wpoly({1: 1, 0: -8, -1: 1})


@pytest.mark.parametrize("order", [0, 1, 2])
def test_b_series_reference_coefficients(order):
    b = b_series(order)
    assert divides_dz(b) and b.q_order == order
    expected = [
        wpoly({1: 1, 0: 10, -1: 1}),
        2 * XI_SQ * wpoly({1: 5, 0: -22, -1: 5}),
        XI_SQ * wpoly({2: 1, 1: 110, 0: -294, -1: 110, -2: 1}),
    ]
    assert list(b.coeffs) == expected[: order + 1]


def test_j1_series():
    j1 = j1_series(5, 3)
    # q^0: -1/2 + truncated geometric tail in xi^{-1}
    assert j1.coefficient(0) == LaurentPolyW({0: F(1, 2), -2: 1, -4: 1, -6: 1})
    assert j1.coefficient(1) == wpoly({1: -1, -1: 1})
    assert j1.coefficient(4) == wpoly({4: -1, 2: -1, 1: -1, -1: 1, -2: 1, -4: 1})
    # the gap times the truncated rows is J1g but for the cut: the telescoped
    # tail leaves -w^(-2G-1) in the q^0 row
    assert gap(5) * j1 == j1g_series(5) - QSeries([{-7: 1}] + [{}] * 5)


def test_j1g_series():
    j1g = j1g_series(4)
    assert j1g.coefficient(0) == LaurentPolyW({1: F(1, 2), -1: F(1, 2)})
    # -(w^2 - w^-2)(w - w^-1) at q^1; at q^2 the divisors 1 and 2 telescope
    assert j1g.coefficient(1) == LaurentPolyW({3: -1, 1: 1, -1: 1, -3: -1})
    assert j1g.coefficient(2) == LaurentPolyW({5: -1, 1: 1, -1: 1, -5: -1})


def test_j2_series():
    j2 = j2_series(4)
    assert divides_dz(j2)
    assert j2.coefficient(0) == LaurentPolyW({0: F(1, 6)})
    assert j2.coefficient(1) == wpoly({1: -2, -1: -2})
    # n=2: divisors 1 (n/d=2) and 2 (n/d=1)
    assert j2.coefficient(2) == wpoly({1: -4, -1: -4, 2: -2, -2: -2})


def test_j_series_parity(bundle):
    # J1 is odd in z and so is the gap: J1g is even, from its q^0 row on
    for n in range(bundle.q_order + 1):
        c1 = bundle.j1g.coefficient(n)
        assert mirror(c1) == c1
        c2 = bundle.j2.coefficient(n)
        assert mirror(c2) == c2


def test_dz_dtau():
    s = QSeries([LaurentPolyW({2: 1, -2: -1}), LaurentPolyW({0: 5})])
    assert s.dz().coefficient(0) == LaurentPolyW({2: 1, -2: 1})
    assert s.dz().coefficient(1).is_zero
    assert s.dtau().coefficient(0).is_zero
    assert s.dtau().coefficient(1) == LaurentPolyW({0: 5})


@pytest.mark.parametrize("bundle", [10, *EDGE_ORDERS], indirect=True)
def test_gap_times_dz_j2_equals_twice_dtau_j1g(bundle):
    assert gap(bundle.q_order) * bundle.j2.dz() == 2 * bundle.j1g.dtau()


def test_scalar_minus_series():
    s = eisenstein(4, 3)
    assert 1 - s == -(s - 1)
    half = F(1, 2) - s
    assert half == -(s - F(1, 2))
    assert half.coefficient(0) == LaurentPolyW({0: F(-1, 2)})
    j1 = j1_series(4, 10)
    assert 2 - j1 == -(j1 - 2) and (2 - j1).coefficient(1) == -j1.coefficient(1)
    with pytest.raises(TypeError):
        1.5 - s


def test_powers_square_only_the_factors_they_use(monkeypatch):
    # square-and-multiply skips its last squaring: the first power is the
    # series itself, and the fifth takes two squarings and one product
    j1 = j1_series(3, 4)
    assert j1 ** 1 is j1 and j1 ** 0 == constant_series(1, 3)
    fifth = j1 * j1 * j1 * j1 * j1
    products = []
    true_mul = QSeries.__mul__
    monkeypatch.setattr(QSeries, "__mul__", lambda x, y: products.append(1) or true_mul(x, y))
    assert j1 ** 5 == fifth and len(products) == 3
    assert LaurentPolyW({1: 2}) ** 3 == LaurentPolyW({3: 8})


@pytest.mark.parametrize("field", ["e4", "e6", "e2", "a", "b"])
def test_generator_powers_are_the_powers_of_the_bundle_series(bundle, field):
    from jacobiforms.qseries import _generator_power

    base = getattr(bundle, field)
    product = constant_series(1, bundle.q_order)
    for e in range(6):
        assert _generator_power(bundle, field, e) == base ** e == product
        product = product * base


def test_quasimodular_evaluation_reads_the_generator_power_memo(bundle):
    from jacobiforms.qseries import _generator_power

    f = E4 ** 2 * F2 - 3 * E6 * F2 ** 3
    first = evaluate_quasimodular(f, bundle)
    hits = _generator_power.cache_info().hits
    assert evaluate_quasimodular(f, bundle) == first
    assert _generator_power.cache_info().hits > hits
    # the memo holds the series the substitution reads: E2 for F2
    assert first == eisenstein(4, 10) ** 2 * eisenstein(2, 10) - 3 * eisenstein(6, 10) * eisenstein(2, 10) ** 3


# monomials that share the index parts A B and A^2 B, so evaluate reads each twice
SHARED_INDEX_PARTS = E4 ** 3 * A * B - 2 * E6 ** 2 * A * B + F(1, 3) * A * B + E4 * A ** 2 * B - E6 * A ** 2 * B


def _evaluation_mismatches(order):
    """The elements of monomial_basis(8, 3) and SHARED_INDEX_PARTS whose
    evaluation at q^order is not the plain sum of products of powers of
    the bundle's series, which reads no memo."""
    bundle = make_bundle(order)

    def plain(f):
        return sum(c * bundle.e4 ** m.e4 * bundle.e6 ** m.e6 * bundle.a ** m.a * bundle.b ** m.b for m, c in f.terms().items())

    return [str(f) for f in monomial_basis(8, 3) + [SHARED_INDEX_PARTS] if evaluate(f, bundle) != plain(f)]


@pytest.mark.parametrize("order", [6, 9])
def test_evaluation_is_the_plain_product_of_the_bundle_series(order):
    assert _evaluation_mismatches(order) == []


def test_evaluation_oracle_flags_an_index_part_with_swapped_exponents(monkeypatch):
    from jacobiforms import qseries

    true_index_part = qseries._index_part
    monkeypatch.setattr(qseries, "_index_part", lambda bundle, x, i, y, j: true_index_part(bundle, x, j, y, i))
    assert "A*B^2" in _evaluation_mismatches(6)


def test_the_index_part_is_formed_once_per_bundle_and_order():
    import jacobiforms
    from jacobiforms.qseries import _generator_power, _index_part

    jacobiforms.clear_caches()
    f = E4 * A * B ** 2 + E6 * A ** 2 * B
    bundle = make_bundle(7)
    first = evaluate(f, bundle)
    assert _index_part.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert evaluate(f, make_bundle(7)) == first and _index_part.cache_info()[:2] == (2, 2)
    evaluate(f, make_bundle(5))
    assert _index_part.cache_info()[:2] == (2, 4)
    assert _index_part(bundle, "a", 1, "b", 2) == bundle.a * bundle.b ** 2
    # a pure power is the generator power itself, and no index part is the series 1
    assert _index_part(bundle, "a", 0, "b", 3) is _generator_power(bundle, "b", 3)
    assert _index_part(bundle, "a", 0, "b", 0) == constant_series(1, 7)


# Elements of bidegree (4, 1), (0, 2) and (4, 2), as the qseries benchmark draws them.
GUARD_ELEMENTS = [E4 * B - 2 * E6 * A, B ** 2 + F(1, 3) * E4 * A ** 2, E4 * B ** 2 - E6 * A * B + F(5, 2) * E4 ** 2 * A ** 2]


def test_series_consistency_forms_each_index_part_once():
    # 24,592 multiply-adds when each monomial formed its A^a B^b again, as
    # a product of wide rows; 21,136 with the memoised index part
    import jacobiforms
    from jacobiforms import elements, series_consistency

    bundle = make_bundle(8)
    jacobiforms.clear_caches()
    with elements.work_budget(10 ** 9):
        assert series_consistency(bundle, GUARD_ELEMENTS).passed
        count = 10 ** 9 - elements._allowance
    assert count <= 21_136 < 24_592


def below_the_cut(exact, truncated, cut):
    """Whether exact and truncated differ, and only in w exponents below cut."""
    difference = exact - truncated
    supports = [difference.coefficient(n).support() for n in range(difference.q_order + 1)]
    return any(supports) and all(r < cut for support in supports for r in support)


def test_j1_times_a_through_the_gap_is_the_truncated_product_above_the_cut():
    # J1 A as J1g (A / gap) is exact; J1 cut after w^-20 times A differs from
    # it only below w^(-20 + width), and J1 times zero is zero either way
    a = theta_quotient_A(4)
    exact = j1g_series(4) * a.gap_quotient()
    assert below_the_cut(exact, j1_series(4, 10) * a, -20 + w_width(a))
    assert exact + exact == 2 * exact
    zero = constant_series(0, 4)
    assert j1g_series(4) * zero.gap_quotient() == j1_series(4, 10) * zero == zero


@pytest.mark.parametrize("depth", [10, 40])
def test_truncated_j1_products_converge_to_the_exact_route(depth):
    # the deeper the cut, the lower the exponents where a truncated product
    # of J1 differs from the exact one, after a second product and under dz
    a, small = theta_quotient_A(4), eisenstein(4, 4)
    exact = j1g_series(4) * a.gap_quotient()
    truncated = j1_series(4, depth) * a
    cut = -2 * depth + w_width(a)
    assert below_the_cut(exact, truncated, cut)
    assert below_the_cut(exact * small, truncated * small, cut)
    assert below_the_cut(exact.dz(), truncated.dz(), cut)
    assert below_the_cut(j1g_series(4) * a.dz().gap_quotient(), j1_series(4, depth) * a.dz(), cut)


def test_oberdieck_series_basics(bundle):
    one = constant_series(1, bundle.q_order)
    assert oberdieck_series(one, 0, 0, bundle) == constant_series(0, bundle.q_order)
    lhs = oberdieck_series(bundle.e4, 4, 0, bundle)
    rhs = F(-1, 3) * bundle.e6
    assert lhs == rhs


def test_oberdieck_series_defines_b(bundle):
    derived = (-6) * oberdieck_series(bundle.a, -2, 1, bundle)
    assert derived == bundle.b


@pytest.mark.parametrize("order", [10, 30])
def test_fourier_derivation_of_a_is_the_exact_b(order):
    # B is built from the Weierstrass function; -6 times the Fourier-side
    # operator on A derives it through J1g instead.  The two are equal, and
    # both vanish past the index-one support bound 2*isqrt(4N+1)
    bundle = make_bundle(order)
    derived = (-6) * oberdieck_series(bundle.a, -2, 1, bundle)
    assert derived == bundle.b
    bound = 2 * isqrt(4 * order + 1)
    for n in range(order + 1):
        assert all(abs(r) <= bound for r in derived.coefficient(n).support())


def test_series_consistency_catches_a_wrong_b_coefficient(bundle):
    # B does not come from the operator it is checked against, so one
    # changed coefficient of B fails the check on A
    from jacobiforms import series_consistency

    assert series_consistency(bundle, [A]).passed
    coeffs = list(bundle.b.coeffs)
    coeffs[3] = coeffs[3] + LaurentPolyW({2: 1})
    report = series_consistency(replace(bundle, b=QSeries(coeffs)), [A])
    assert not report.passed


def test_evaluate(bundle):
    assert evaluate(E4, bundle) == bundle.e4
    assert evaluate(B, bundle) == bundle.b
    delta = (E4 ** 3 - E6 ** 2) / 1728
    series = evaluate(delta, bundle)
    assert [series.coefficient(n).coefficient(0) for n in range(4)] == [0, 1, -24, 252]
    assert evaluate(E4 ** 3 - E6 ** 2, bundle).agrees_with(1728 * delta_series(bundle))
    with pytest.raises(ValueError):
        evaluate(A_INV, bundle)


def test_evaluate_is_a_ring_map(bundle):
    f = E4 * A + 2 * B
    g = E6 - A * B
    lhs = evaluate(f * g, bundle)
    rhs = evaluate(f, bundle) * evaluate(g, bundle)
    assert lhs.agrees_with(rhs)


@pytest.mark.parametrize("bundle", [10, *EDGE_ORDERS], indirect=True)
def test_quasimodular_bridge(bundle):
    # transported q-derivative: dtau on the E2-substituted expansion
    d = partial_u(0)
    for f in (E4, E6, B * A_INV, E4 * B * A_INV):
        lhs = evaluate_quasimodular(f, bundle).dtau()
        rhs = evaluate_quasimodular(d(f), bundle)
        assert lhs.agrees_with(rhs)
    with pytest.raises(ValueError):
        evaluate_quasimodular(B, bundle)


def test_support_law(bundle):
    # weak Jacobi support: xi-exponents r with r^2 <= 4nm + m^2
    for f in (A, B, A ** 2, A * B, B ** 2):
        m = f.bidegree().index
        series = evaluate(f, bundle)
        for n in range(series.q_order + 1):
            for w_exp in series.coefficient(n).support():
                r = F(w_exp, 2)
                assert r * r <= 4 * n * m + m * m, (str(f), n, w_exp)


def test_series_consistency_engine(bundle):
    from jacobiforms import series_consistency

    report = series_consistency(bundle)
    assert report.passed
    # leibniz through the operator on a product
    f = A * B
    k, p = f.bidegree()
    sym = evaluate(oberdieck()(f), bundle)
    ana = oberdieck_series(evaluate(f, bundle), k, p, bundle)
    assert sym == ana


def test_iterated_symbolic_matches_series(bundle):
    # second application: the first image is exact, so it is fed back in
    ob = oberdieck()
    first = oberdieck_series(bundle.a, -2, 1, bundle)
    assert first == evaluate(ob(A), bundle)
    second = oberdieck_series(first, 0, 1, bundle)
    assert evaluate(iterate(ob, 2, A), bundle) == second


def test_format_wpoly():
    assert format_wpoly(LaurentPolyW({})) == "0"
    assert format_wpoly(wpoly({1: 1, 0: -2, -1: 1})) == "w^2 - 2 + w^-2"


def test_operator_refuses_a_series_not_even_in_z(bundle):
    # w^2 - w^-2 is odd in z: its dz row w^2 + w^-2 does not vanish at w = 1
    odd = QSeries([{2: 1, -2: -1}] + [{}] * bundle.q_order)
    with pytest.raises(ValueError, match="not even in z"):
        odd.dz().gap_quotient()
    with pytest.raises(ValueError, match="not even in z"):
        oberdieck_series(odd, 0, 1, bundle)
    assert oberdieck_series(odd * odd, 0, 2, bundle).q_order == bundle.q_order  # its square is even


def test_bundle_j1g_is_the_gap_times_j1(bundle):
    # J1 cut after xi^-24: the gap times it is J1g but for -w^-49 at q^0
    order = bundle.q_order
    assert gap(order) * j1_series(order, 24) == bundle.j1g - QSeries([{-49: 1}] + [{}] * order)


def test_generator_specialization_at_z_zero(bundle):
    # setting w = 1 (z = 0) kills the index-one weight -2 generator and
    # collapses the weight-0 one to the constant 12, at every q order
    for n in range(bundle.q_order + 1):
        assert sum((c for _, c in bundle.a.coefficient(n).items()), start=F(0)) == 0
        expected = 12 if n == 0 else 0
        assert sum((c for _, c in bundle.b.coefficient(n).items()), start=F(0)) == expected


def test_generator_expansions_are_even_in_z(bundle):
    for series in (bundle.a, bundle.b):
        for n in range(series.q_order + 1):
            c = series.coefficient(n)
            assert mirror(c) == c


# --------------------------------------------- integer kernel vs Fractions


def rows_of(series):
    """The stored coefficients as {w exponent: Fraction} dicts, via coefficient(n)."""
    return [dict(series.coefficient(n).items()) for n in range(series.q_order + 1)]


def ref_clean(rows):
    return [{r: c for r, c in row.items() if c} for row in rows]


def ref_add(x, y):
    out = []
    for a, b in zip(x, y):
        row = dict(a)
        for r, c in b.items():
            row[r] = row.get(r, 0) + c
        out.append(row)
    return ref_clean(out)


def ref_mul(x, y):
    order = min(len(x), len(y))
    out = [{} for _ in range(order)]
    for n1 in range(order):
        for n2 in range(order - n1):
            for r1, c1 in x[n1].items():
                for r2, c2 in y[n2].items():
                    out[n1 + n2][r1 + r2] = out[n1 + n2].get(r1 + r2, 0) + c1 * c2
    return ref_clean(out)


def ref_agrees(x, y):
    for a, b in zip(x, y):
        for r in a.keys() | b.keys():
            if a.get(r, 0) != b.get(r, 0):
                return False
    return True


def ref_divides(rows):
    """Whether every row vanishes at w = 1 and at w = -1."""
    return all(sum(row.values()) == 0 and sum((-1) ** r * v for r, v in row.items()) == 0 for row in rows)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
q_rows = st.dictionaries(st.integers(-6, 6), rationals, max_size=4)


@st.composite
def series(draw):
    order = draw(st.integers(0, 4))
    return QSeries(draw(st.lists(q_rows, min_size=order + 1, max_size=order + 1)))


@settings(max_examples=200, deadline=None)
@given(series(), series(), rationals)
def test_integer_kernel_matches_fraction_reference(x, y, c):
    rx, ry = rows_of(x), rows_of(y)
    neg_y = [{r: -v for r, v in row.items()} for row in ry]

    assert rows_of(x + y) == ref_add(rx, ry)
    assert rows_of(x - y) == ref_add(rx, neg_y)
    assert rows_of(-x) == ref_clean([{r: -v for r, v in row.items()} for row in rx])
    assert rows_of(x * c) == ref_clean([{r: v * c for r, v in row.items()} for row in rx])
    assert rows_of(x.dz()) == ref_clean([{r: v * F(r, 2) for r, v in row.items()} for row in rx])
    assert rows_of(x.dtau()) == ref_clean([{r: v * n for r, v in row.items()} for n, row in enumerate(rx)])
    assert rows_of(x * y) == ref_mul(rx, ry)

    power = [{0: F(1)}] + [{}] * x.q_order
    for k in range(4):
        assert rows_of(x ** k) == ref_clean(power)
        power = ref_mul(power, rx)

    # the gap quotient undoes the gap, and divides exactly the rows that
    # vanish at w = 1 and w = -1
    assert (gap(x.q_order) * x).gap_quotient() == x
    if ref_divides(rx):
        assert gap(x.q_order) * x.gap_quotient() == x
    else:
        with pytest.raises(ValueError):
            x.gap_quotient()

    assert x.agrees_with(y) == ref_agrees(rx, ry)
    assert x.agrees_with(QSeries(x.coeffs)) and not x.agrees_with(x + 1)
    assert QSeries(x.coeffs) == x and hash(QSeries(x.coeffs)) == hash(x)
    assert x * 2 == x + x


@settings(max_examples=50, deadline=None)
@given(series(), series())
def test_gap_quotient_of_a_product_with_a_gap_factor(x, y):
    # J1 dz(f) is J1g (dz(f) / gap): a gap factor anywhere in a product divides out
    order = max(x.q_order, y.q_order)
    assert (gap(order) * x * y).gap_quotient() == x * y == (x * (gap(order) * y)).gap_quotient()


def test_gap_quotient_refuses_rows_that_do_not_vanish_at_w_pm1():
    narrow = QSeries([{0: 1, -2: F(1, 3)}])
    wide = QSeries([{4: F(2, 5)}])
    for refused in (narrow, wide, narrow * wide):
        with pytest.raises(ValueError, match="not even in z"):
            refused.gap_quotient()
    # w^2 - w^-2 = (w - w^-1)(w + w^-1); w^3 + w^-3 vanishes at w = 1 only
    assert QSeries([{2: 1, -2: -1}]).gap_quotient() == QSeries([{1: 1, -1: 1}])
    with pytest.raises(ValueError):
        QSeries([{3: 1, -3: 1}]).gap_quotient()


coefficients = st.one_of(st.just(0), rationals)
fold_terms = st.lists(
    st.one_of(st.tuples(coefficients, series()), st.tuples(coefficients, series(), series())), max_size=3
)


@settings(max_examples=100, deadline=None)
@given(fold_terms, st.integers(0, 4))
def test_combination_matches_fraction_reference(terms, empty_order):
    # the q order of a sum or product is the least q order among its operands
    order = min((s.q_order for term in terms for s in term[1:]), default=empty_order)
    expected = [{} for _ in range(order + 1)]
    for c, *factors in terms:
        if not c:
            continue  # a zero coefficient contributes no rows
        rows = rows_of(factors[0]) if len(factors) == 1 else ref_mul(*map(rows_of, factors))
        expected = ref_add(expected, [{r: v * c for r, v in row.items()} for row in rows[: order + 1]])
    result = combination(terms, order)
    assert rows_of(result) == ref_clean(expected)
    assert result.q_order == order
    assert result == QSeries(expected)  # the same rows over the same least denominator
    with pytest.raises(ValueError, match=f"a term does not reach q\\^{order + 1}"):
        combination(terms + [(1, constant_series(1, order))], order + 1)


def test_combination_of_no_terms_is_the_exact_zero():
    assert combination([], 3) == constant_series(0, 3)
    assert combination([(0, j1_series(3, 4))], 3) == constant_series(0, 3)


# ------------------------------------------- packed rows: sizes and budget


def assert_fold_matches_reference(terms, order):
    """combination(terms, order) against the Fraction reference, row by row."""
    expected = [{} for _ in range(order + 1)]
    for c, *factors in terms:
        rows = rows_of(factors[0]) if len(factors) == 1 else ref_mul(*map(rows_of, factors))
        expected = ref_add(expected, [{r: v * c for r, v in row.items()} for row in rows[: order + 1]])
    assert rows_of(combination(terms, order)) == ref_clean(expected)


huge = st.integers(-(10 ** 300), 10 ** 300).filter(bool)


@st.composite
def huge_series(draw):
    """Series with numerators of up to 300 digits over a shared denominator:
    w exponents all even, all odd or mixed, in a narrow range or in one of
    about -300..300, whose packed rows are hundreds of slots wide; rows
    empty, terms at one or both ends of the w range, or up to five terms."""
    parity, half_span = draw(st.sampled_from([0, 1, None])), draw(st.sampled_from([4, 150]))
    if parity is None:
        exponents, ends = st.integers(-2 * half_span - 1, 2 * half_span + 1), [-2 * half_span - 1, 2 * half_span + 1]
    else:
        exponents = st.integers(-half_span, half_span).map(lambda k: 2 * k + parity)
        ends = [parity - 2 * half_span, parity + 2 * half_span]
    ends = st.dictionaries(st.sampled_from(ends), huge, min_size=1, max_size=2)
    row = st.one_of(st.just({}), ends, st.dictionaries(exponents, huge, max_size=5))
    den = draw(st.sampled_from([1, 3, 10 ** 40 + 7]))
    rows = draw(st.lists(row, min_size=1, max_size=5))
    return QSeries([{r: F(c, den) for r, c in row.items()} for row in rows])


@settings(max_examples=150, deadline=None)
@given(huge_series(), huge_series(), huge_series(), huge, huge, st.integers(0, 4))
def test_packed_products_of_huge_numerators_match_the_fraction_reference(x, y, z, c1, c2, cut):
    # sum and product terms in one fold, through a q order at most both factors'
    order = min(x.q_order, y.q_order, z.q_order, cut)
    assert_fold_matches_reference([(c1, x, y), (F(c2, 7), z), (-1, y, z)], order)
    assert_fold_matches_reference([(1, x, y)], min(x.q_order, y.q_order))


def tight_folds():
    """(terms, q order) of folds whose largest coefficient has the size of
    the bound the slots are made for, 64, 128 and 320 bits, of both signs:
    one bit less in a slot, with its sign bit, halves what it holds.  The
    last fold's row is 301 slots wide, and its first factor has a row of
    300-digit numerators past the truncation."""
    for bits in (64, 128, 320):
        root = 2 ** (bits // 2) - 1  # root^2 has exactly bits bits, root^2 + root too
        for sign in (1, -1):
            one = QSeries([{3: sign * root}, {}])
            yield [(1, one, QSeries([{-5: root}, {1: 1}]))], 0
            yield [(1, QSeries([{-3: sign * root ** 2}]))], 0
            yield [(1, one, one), (sign, QSeries([{6: 1}, {-2: 4}]))], 0
            wide = QSeries([{-301: sign * root, 299: 1}, {-301: 10 ** 300, 301: -(10 ** 300)}])
            yield [(1, wide, QSeries([{-5: root}]))], 0


@pytest.mark.parametrize("terms, order", list(tight_folds()))
def test_packed_slots_hold_a_coefficient_as_large_as_their_bound(terms, order):
    assert_fold_matches_reference(terms, order)


def test_a_slot_narrowed_by_one_bit_fails_the_reference(monkeypatch):
    # the mutation control of the two tests above
    from jacobiforms import qseries

    slot_bits = qseries._slot_bits
    monkeypatch.setattr(qseries, "_slot_bits", lambda bound: slot_bits(bound) - 1)
    for terms, order in tight_folds():
        with pytest.raises(AssertionError):
            assert_fold_matches_reference(terms, order)


def test_rows_outside_the_bound_of_the_slots_still_pack_exactly():
    # a factor's rows past the truncation, or meeting only empty rows of
    # the other factor, are not in the bound the slots are sized by
    wide = {r: 2 ** 70 for r in range(300)}  # 300 slots of 2^70
    x = QSeries([{0: 1}, wide])
    assert x + QSeries([{0: 1}]) == QSeries([{0: 2}])
    assert x * QSeries([{}, {0: 1}]) == QSeries([{}, {0: 1}])
    assert_fold_matches_reference([(1, x, QSeries([{}, {1: -(10 ** 300)}])), (1, QSeries([{}, {0: 1}]))], 1)


def product_loop_charge(terms, order):
    """What the row-pair product loop charges for combination(terms, order):
    len(row1) * len(row2) over the row pairs through q^order, a sum's term
    as a product with the row 1."""
    total = 0
    for c, x, *y in terms:
        if c:
            right = [len(y[0].coefficient(n).support()) for n in range(order + 1)] if y else [1] + [0] * order
            total += sum(len(x.coefficient(n1).support()) * right[n2] for n1 in range(order + 1) for n2 in range(order + 1 - n1))
    return total


def drawn(compute):
    """compute() and the multiply-adds it drew from a work budget."""
    from jacobiforms import elements

    with elements.work_budget(10 ** 12):
        result = compute()
        return result, 10 ** 12 - elements._allowance


@settings(max_examples=100, deadline=None)
@given(fold_terms, st.integers(0, 4))
def test_combination_charges_the_row_pairs_of_the_product_loop(terms, empty_order):
    order = min((s.q_order for term in terms for s in term[1:]), default=empty_order)
    assert drawn(lambda: combination(terms, order))[1] == product_loop_charge(terms, order)


def test_a_bundle_and_an_evaluation_charge_what_the_product_loop_did(monkeypatch):
    # without the charge, test_series_consistency_forms_each_index_part_once
    # would pass with a count of 0
    import jacobiforms
    from jacobiforms import elements, qseries

    folds = []

    def counted(terms, q_order):
        terms = list(terms)
        before = elements._allowance
        result = combination(terms, q_order)
        folds.append((before - elements._allowance, product_loop_charge(terms, q_order)))
        return result

    jacobiforms.clear_caches()
    monkeypatch.setattr(qseries, "combination", counted)
    drawn(lambda: [evaluate(f, make_bundle(12)) for f in GUARD_ELEMENTS + [A ** 2 * B]])
    assert len(folds) > 20 and all(got == charge > 0 for got, charge in folds)


def test_expand_keeps_its_budget_verdict_to_the_multiply_add(capsys, monkeypatch):
    # A^2*B through q^12 costs the product loop 19,572 multiply-adds
    import jacobiforms
    from jacobiforms import cli

    argv = ["expand", "--what", "element", "--element", "A^2*B", "--N", "12"]
    for budget, code in ((19_571, 2), (19_572, 0)):
        jacobiforms.clear_caches()
        monkeypatch.setitem(cli.WORK_BUDGET, "expand", budget)
        assert cli.main(argv) == code
        assert capsys.readouterr().err == ("" if code == 0 else f"error: expand exceeds its work budget of {budget} multiply-adds\n")


def test_coefficients_outside_the_series_are_refused():
    series = eisenstein(4, 3)
    assert series.coefficient(3) == LaurentPolyW({0: 6720})
    for n in (-1, 4):
        with pytest.raises(ValueError, match=r"^q\^%d lies outside q\^0..q\^3$" % n):
            series.coefficient(n)


@pytest.mark.parametrize("r", [1.0, 0.5, "1"])
def test_a_w_coefficient_is_read_at_an_integer_exponent(r):
    poly = LaurentPolyW({1: 5, 0: 2})
    assert poly.coefficient(1) == 5 and poly.coefficient(True) == 5 and poly.coefficient(2) == 0
    with pytest.raises(TypeError):
        poly.coefficient(r)


# ------------------------------------------------- oracles at any truncation


def eichler_zagier_violation(series, m):
    """Where an index-m weak Jacobi form's coefficients break Eichler-Zagier.

    c(n, r) depends only on 4nm - r^2 and r mod 2m, and vanishes when
    4nm - r^2 < -m^2; stored w exponents are 2r.  Returns None if none.
    """
    seen = {}
    for n in range(series.q_order + 1):
        poly = series.coefficient(n)
        for w in poly.support():
            if w % 2 or (w // 2) ** 2 > 4 * n * m + m * m:
                return (n, w, "outside the support")
        bound = isqrt(4 * n * m + m * m)
        for r in range(-bound, bound + 1):
            key = (4 * n * m - r * r, r % (2 * m))
            c = poly.coefficient(2 * r)
            if seen.setdefault(key, c) != c:
                return (n, r, key)
    return None


def ramanujan_delta(count):
    """q * prod_{n>=1} (1 - q^n)^24 through q^(count-1), in plain integers."""
    product = [1] + [0] * (count - 1)
    for n in range(1, count):
        for _ in range(24):
            for k in range(count - 1, n - 1, -1):
                product[k] -= product[k - n]
    return [0] + product[: count - 1]


def series_rows(series):
    """The rows of a series as {w exponent: coefficient} dicts."""
    return [dict(series.coefficient(n).items()) for n in range(series.q_order + 1)]


def _nonzero(rows):
    return [{r: c for r, c in row.items() if c} for row in rows]


def _times_one_minus(rows, n, s):
    """rows times 1 - q^n w^s, in place, through their last power of q."""
    for k in range(len(rows) - 1, n - 1, -1):
        for r, c in rows[k - n].items():
            rows[k][r + s] = rows[k].get(r + s, 0) - c


def _over_one_minus(rows, n):
    """rows over 1 - q^n, in place: times 1 + q^n + q^2n + ..."""
    for k in range(n, len(rows)):
        for r, c in rows[k - n].items():
            rows[k][r] = rows[k].get(r, 0) + c


def a_oracle(order, factors=(2, 2, -2, -2)):
    """phi_{-2,1} through q^order by Jacobi's triple product, in plain integers:

        (zeta - 2 + zeta^-1) prod_{n>=1} (1 - q^n zeta)^2 (1 - q^n zeta^-1)^2 / (1 - q^n)^4

    with zeta = w^2; factors are the w exponents s of the factors 1 - q^n w^s.
    """
    rows = [{2: 1, 0: -2, -2: 1}] + [{} for _ in range(order)]
    for n in range(1, order + 1):
        for s in factors:
            _times_one_minus(rows, n, s)
        for _ in range(4):
            _over_one_minus(rows, n)
    return _nonzero(rows)


def _product(x, y):
    """x * y through the last row of x."""
    out = [{} for _ in x]
    for i, row in enumerate(x):
        for j in range(len(x) - i):
            for r, c in row.items():
                for s, d in y[j].items():
                    out[i + j][r + s] = out[i + j].get(r + s, 0) + c * d
    return _nonzero(out)


def _quotient(x, y):
    """x / y through the last row of x, for y with a constant leading row;
    asserts that every coefficient of the quotient is an integer."""
    (lead,) = y[0].values()
    out = []
    for k, row in enumerate(x):
        acc = dict(row)
        for j in range(1, k + 1):
            for r, c in out[k - j].items():
                for s, d in y[j].items():
                    acc[r + s] = acc.get(r + s, 0) - c * d
        assert all(c % lead == 0 for c in acc.values()), (k, lead)
        out.append({r: c // lead for r, c in acc.items() if c})
    return out


def _theta(i, count, z=True):
    """theta_i(tau, z) for i = 2, 3, 4 through h^(count-1), in h = q^(1/2)
    and w with w^2 = zeta, theta_2 without its common factor h^(1/4); at
    z = 0 if not z."""
    rows = [{} for _ in range(count)]
    for m in range(-count, count):
        e = m * m + m if i == 2 else m * m
        if e < count:
            w = (2 * m + (i == 2)) * z
            rows[e][w] = rows[e].get(w, 0) + (-1 if i == 4 and m % 2 else 1)
    return rows


def b_oracle(order, pairs=((2, 2), (3, 3), (4, 4))):
    """phi_{0,1} through q^order as 4 sum_i theta_i(tau, z)^2 / theta_i(tau, 0)^2
    (Eichler-Zagier, The Theory of Jacobi Forms, 1985, section 9), in plain
    integers; pairs are the (i, j) of the quotients theta_i(z)^2 / theta_j(0)^2.
    """
    count = 2 * order + 1
    total = [{} for _ in range(count)]
    for i, j in pairs:
        num = _product(_theta(i, count), _theta(i, count))
        den = _product(_theta(j, count, z=False), _theta(j, count, z=False))
        # theta_2(0) starts at 2: its quotient carries 1/4, which the factor 4 cancels
        assert j != 2 or den[0] == {0: 4}
        for k, row in enumerate(_quotient([{r: 4 * c for r, c in row.items()} for row in num], den)):
            for r, c in row.items():
                total[k][r] = total[k].get(r, 0) + c
    total = _nonzero(total)
    assert not any(total[1::2]), "odd powers of h = q^(1/2) must cancel"
    return total[::2]


def eisenstein_oracle(scale, u, order):
    """1 + scale * sum_{n>=1} sigma_u(n) q^n through q^order."""
    return [{0: 1}] + [{0: scale * sigma(u, n)} for n in range(1, order + 1)]


@pytest.fixture(scope="module")
def bundle30():
    return make_bundle(30)


@pytest.mark.parametrize(
    "text, index",
    [("A", 1), ("B", 1), ("A*B - 3*E4*A^2", 2), ("B^2*E6", 2), ("A^3*E4^2", 3)],
)
def test_eichler_zagier_invariance_through_q30(bundle30, text, index):
    series = evaluate(parse_element(text), bundle30)
    assert series.q_order == 30
    assert eichler_zagier_violation(series, index) is None


def test_eichler_zagier_oracle_flags_a_corrupted_coefficient(bundle30):
    coeffs = list(bundle30.b.coeffs)
    coeffs[17] = coeffs[17] + LaurentPolyW({4: 1})
    assert eichler_zagier_violation(QSeries(coeffs), 1) is not None


def test_delta_matches_ramanujan_product_through_q30(bundle30):
    tau = ramanujan_delta(31)
    assert tau[:4] == [0, 1, -24, 252]
    delta = delta_series(bundle30)
    assert [dict(delta.coefficient(n).items()) for n in range(31)] == [
        {0: t} if t else {} for t in tau
    ]


@pytest.mark.parametrize("bundle", EDGE_ORDERS, indirect=True)
def test_a_is_jacobis_triple_product(bundle):
    oracle = a_oracle(bundle.q_order)
    assert series_rows(theta_quotient_A(bundle.q_order)) == series_rows(bundle.a) == oracle


@pytest.mark.parametrize("bundle", EDGE_ORDERS, indirect=True)
def test_b_is_the_sum_of_theta_quotients(bundle):
    oracle = b_oracle(bundle.q_order)
    assert series_rows(b_series(bundle.q_order)) == series_rows(bundle.b) == oracle


def test_a_oracle_without_one_factor_fails(bundle30):
    assert a_oracle(30, factors=(2, -2, -2)) != series_rows(bundle30.a)


def test_b_oracle_with_crossed_theta_quotients_fails(bundle30):
    # theta_3 and theta_4 swapped throughout is no control: the sum is symmetric in them
    assert b_oracle(30, pairs=((2, 2), (3, 4), (4, 3))) != series_rows(bundle30.b)


def test_a_oracle_catches_a_triangular_row_wrong_at_q3(monkeypatch):
    from jacobiforms import qseries

    triangular = qseries._triangular_series

    def corrupted(q_order, row):
        # the w^0 coefficient of the q^3 row doubled: 1 in the theta series and
        # 5 in the eta cube, so the two errors do not cancel in their quotient
        coeffs = list(triangular(q_order, row).coeffs)
        coeffs[3] = coeffs[3] + LaurentPolyW({0: coeffs[3].coefficient(0)})
        return QSeries(coeffs)

    monkeypatch.setattr(qseries, "_triangular_series", corrupted)
    rows, oracle = series_rows(theta_quotient_A(30)), a_oracle(30)
    assert rows[:3] == oracle[:3] and rows[3] != oracle[3]


@pytest.mark.parametrize("bundle", EDGE_ORDERS, indirect=True)
def test_e4_and_e6_give_e8_and_e10(bundle):
    order = bundle.q_order
    assert series_rows(bundle.e4 * bundle.e4) == eisenstein_oracle(480, 7, order)
    assert series_rows(bundle.e4 * bundle.e6) == eisenstein_oracle(-264, 9, order)


def test_e8_oracle_with_240_for_480_fails(bundle30):
    assert series_rows(bundle30.e4 * bundle30.e4) != eisenstein_oracle(240, 7, 30)


# Cohen's brackets (Math. Ann. 217, 1975) on q-expansions: the n-th bracket
# of forms of weights k and l is
#     sum_r (-1)^r C(k+n-1, n-r) C(l+n-1, r) f^(r) g^(n-r)
# with f^(r) the r-th power of q d/dq.  The symbolic brackets must expand to
# it: rc_classical on M, and the localized family on Q through F2 -> E2,
# where neither u nor v enters (Q has index 0).
_COHEN_M = [E4, E6, E4 ** 2, E4 * E6]
_COHEN_Q = [E4, E6, F2, E4 * F2, F2 ** 2]


def cohen_bracket(n, f, k, g, l):
    """Cohen's n-th bracket of the series f and g of weights k and l."""
    f_powers, g_powers = [f], [g]
    for _ in range(n):
        f_powers.append(f_powers[-1].dtau())
        g_powers.append(g_powers[-1].dtau())
    terms = (((-1) ** r * comb(k + n - 1, n - r) * comb(l + n - 1, r), f_powers[r], g_powers[n - r]) for r in range(n + 1))
    return combination(terms, f.q_order)


def cohen_mismatches(bundle, orders):
    """(brackets checked, brackets whose expansion is not Cohen's) over
    ordered pairs and the given orders; a classical bracket that leaves M
    is a mismatch."""
    sides = [(_COHEN_M, evaluate, None)]
    sides += [(_COHEN_Q, evaluate_quasimodular, rc_localized(u, 12 * u + 1)) for u in (F(0), F(1, 12))]
    checked = mismatched = 0
    for basis, expand, family in sides:
        for f in basis:
            for g in basis:
                for n in orders:
                    checked += 1
                    try:
                        value = rc_classical(n, f, g) if family is None else bracket_n(family, n, f, g)
                    except InternalInvariantError:
                        mismatched += 1
                        continue
                    k, l = f.bidegree().weight, g.bidegree().weight
                    mismatched += expand(value, bundle) != cohen_bracket(n, expand(f, bundle), k, expand(g, bundle), l)
    return checked, mismatched


@pytest.fixture(scope="module")
def bundle12():
    return make_bundle(12)


def test_brackets_expand_to_cohens_formula(bundle12):
    assert cohen_mismatches(bundle12, range(5)) == (330, 0)


def test_cohen_oracle_catches_a_wrong_binomial_row(bundle12, monkeypatch):
    # entry j = 1 of every binomial row off by one; the rows are memoised,
    # so they are dropped before and after
    from jacobiforms import brackets

    true_gbinom = brackets.gbinom
    brackets._integer_row.cache_clear()
    monkeypatch.setattr(brackets, "gbinom", lambda x, j: true_gbinom(x, j) + (j == 1))
    try:
        checked, mismatched = cohen_mismatches(bundle12, (1, 2))
    finally:
        monkeypatch.undo()
        brackets._integer_row.cache_clear()
    assert mismatched >= checked // 2


def test_cohen_oracle_catches_a_wrong_derivation_image(bundle12, monkeypatch):
    # an extra E4*A/12 in the image of B: the F2 it carries is no longer
    # E2 under q d/dq
    from jacobiforms import brackets, make_derivation

    true_partial_u = brackets.partial_u

    def corrupted(u):
        d = true_partial_u(u)
        return make_derivation(d.on_e4, d.on_e6, d.on_a, d.on_b + E4 * A / 12)

    monkeypatch.setattr(brackets, "partial_u", corrupted)
    checked, mismatched = cohen_mismatches(bundle12, (1, 2))
    assert mismatched >= checked // 2


# The Fourier-side operator D is exact, so it iterates, and brackets on J~
# get a Fourier oracle as those on M and Q have Cohen's: the n-th bracket of
# the Oberdieck family orc(mu) on f and g of bidegrees (k, p) and (l, s) is
#     sum_r (-1)^r C(kf+n-1, n-r) C(kg+n-1, r) D^r f D^(n-r) g
# with kf = k + mu p, kg = l + mu s, D raising the weight by 2 at each step.
_D_INPUTS = [E4, E6, A, B, E4 * A, A * B, B ** 2, E6 * A ** 2]
_JTILDE_PAIRS = [(A, B), (E4, A), (A, A), (B, E6), (E4 * A, B)]
_JTILDE_MUS = [F(0), F(1), F(-3), F(7, 5)]


@pytest.fixture(scope="module")
def bundle8():
    return make_bundle(8)


def fourier_powers(f, bundle, count):
    """[f, D f, ..., D^count f] for an element f, as exact series."""
    k, p = f.bidegree()
    powers = [evaluate(f, bundle)]
    for j in range(count):
        powers.append(oberdieck_series(powers[-1], k + 2 * j, p, bundle))
    return powers


def fourier_bracket(mu, n, f, g, powers, bundle):
    """The Fourier-side n-th bracket of orc(mu), from the D powers of f and g."""
    (k, p), (l, s) = f.bidegree(), g.bidegree()
    kf, kg = k + mu * p, l + mu * s
    terms = (
        ((-1) ** r * gbinom(kf + n - 1, n - r) * gbinom(kg + n - 1, r), powers[f][r], powers[g][n - r])
        for r in range(n + 1)
    )
    return combination(terms, bundle.q_order)


def jtilde_mismatches(bundle, family, orders):
    """(brackets checked, brackets of family(mu) whose expansion is not the
    Fourier-side bracket of orc(mu)); a bracket that leaves J~ is a mismatch."""
    top = max(orders)
    powers = {f: fourier_powers(f, bundle, top) for pair in _JTILDE_PAIRS for f in pair}
    checked = mismatched = 0
    for mu in _JTILDE_MUS:
        for f, g in _JTILDE_PAIRS:
            for n in orders:
                checked += 1
                try:
                    symbolic = evaluate(bracket_n(family(mu), n, f, g), bundle)
                except ValueError:
                    mismatched += 1
                    continue
                mismatched += symbolic != fourier_bracket(mu, n, f, g, powers, bundle)
    return checked, mismatched


@pytest.mark.parametrize("f", _D_INPUTS, ids=[str(f) for f in _D_INPUTS])
def test_iterated_fourier_operator_is_the_iterated_derivation(bundle8, f):
    powers = fourier_powers(f, bundle8, 5)
    for r in range(1, 6):
        assert powers[r] == evaluate(iterate(oberdieck(), r, f), bundle8), r


def test_jtilde_brackets_expand_to_the_fourier_bracket(bundle8):
    assert jtilde_mismatches(bundle8, orc, range(5)) == (100, 0)


def test_jtilde_oracle_catches_a_wrong_family(bundle8):
    # the (1/12, -1/12) Serre extension is not the Oberdieck derivation
    checked, mismatched = jtilde_mismatches(bundle8, lambda mu: accol(F(1, 12), F(-1, 12), mu), range(1, 5))
    assert mismatched >= checked // 2


def test_jtilde_oracle_catches_a_flipped_j1g_term(bundle8):
    flipped = replace(bundle8, j1g=-bundle8.j1g)
    checked, mismatched = jtilde_mismatches(flipped, orc, range(1, 5))
    assert mismatched >= checked // 2


@pytest.mark.parametrize("r", [0.5, 2.0, "3"])
def test_w_exponents_must_be_integers(r):
    # int() would read 0.5 as the constant term and "3" as w^3
    with pytest.raises(TypeError):
        LaurentPolyW({r: 1})


@pytest.mark.parametrize("operand", [1.5, "x"])
@pytest.mark.parametrize("op", ["+", "-", "*", "**"])
@pytest.mark.parametrize("value", [E4 + A, eisenstein(4, 3), LaurentPolyW({2: 1})], ids=["element", "series", "wpoly"])
def test_a_foreign_operand_is_refused_with_type_error(value, op, operand):
    # every operator takes an int or a Fraction, or a value of its own type
    for left, right in ((value, operand), (operand, value)):
        with pytest.raises(TypeError):
            eval(f"left {op} right")


def test_a_scalar_adds_to_a_w_polynomial_as_its_constant():
    assert LaurentPolyW({2: 1}) + 1 == LaurentPolyW({2: 1, 0: 1}) == 1 + LaurentPolyW({2: 1})
    assert LaurentPolyW({2: 1}) + F(-1, 2) == LaurentPolyW({2: 1, 0: F(-1, 2)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: eisenstein(4, -1),
        lambda: j2_series(-1),
        lambda: j1g_series(-1),
        lambda: j1_series(-1, 1),
        lambda: constant_series(1, -1),
        lambda: theta_quotient_A(-1),
        lambda: b_series(-1),
        lambda: make_bundle(-1),
        lambda: combination((), -1),
    ],
    ids=["eisenstein", "j2", "j1g", "j1", "constant", "A", "B", "bundle", "combination"],
)
def test_a_negative_truncation_order_is_refused(build):
    # never a series through q^0 nor an IndexError from an empty row list
    with pytest.raises(ValueError, match="^the truncation order must be nonnegative, got -1$"):
        build()


def test_a_series_has_at_least_its_q0_row():
    with pytest.raises(ValueError, match=r"^a series has at least its q\^0 row$"):
        QSeries([])


def test_a_w_polynomial_times_zero_is_zero():
    assert (LaurentPolyW({2: 1}) * 0).is_zero
    assert LaurentPolyW({2: 1}) * 0 == LaurentPolyW()


def test_refusals_of_a_negative_bernoulli_index_and_an_empty_window():
    with pytest.raises(ValueError, match="^Bernoulli index must be nonnegative$"):
        bernoulli(-1)
    with pytest.raises(ValueError, match="^window must be positive$"):
        j1_series(3, 0)


def test_a_w_polynomial_against_a_foreign_operand():
    poly = LaurentPolyW({1: 1, -1: 2})
    assert poly.__eq__({1: 1, -1: 2}) is NotImplemented
    assert poly != {1: 1, -1: 2} and poly != 1
    series = eisenstein(4, 2)
    assert series.__eq__(poly) is NotImplemented and series != 1


def test_equal_w_polynomials_hash_alike():
    poly, same = LaurentPolyW({1: 1, -1: F(2)}), LaurentPolyW({-1: 2, 1: F(1)})
    assert poly == same and hash(poly) == hash(same)
    assert len({poly, same, LaurentPolyW({1: 1})}) == 2


@pytest.mark.parametrize(
    "series",
    [F(1, 2) * eisenstein(4, 3), 2 * eisenstein(4, 3), eisenstein(4, 3) - 1],
    ids=["fractional", "leading-2", "leading-0"],
)
def test_only_a_unit_is_inverted(series):
    with pytest.raises(ValueError, match="^series inversion requires integer coefficients and a leading term of 1$"):
        _inverted_unit(series)
    assert _inverted_unit(eisenstein(4, 3)) * eisenstein(4, 3) == constant_series(1, 3)

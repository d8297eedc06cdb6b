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
    WindowError,
    b_series,
    bernoulli,
    bracket_n,
    delta_series,
    eisenstein,
    evaluate,
    evaluate_quasimodular,
    iterate,
    j1_series,
    j2_series,
    make_bundle,
    oberdieck,
    oberdieck_series,
    parse_element,
    partial_u,
    rc_classical,
    rc_localized,
    sigma,
    theta_quotient_A,
)
from jacobiforms.qseries import LaurentPolyW, QSeries, combination, constant_series, format_wpoly


def wpoly(xi_pairs):
    """Laurent polynomial from {xi-exponent: coeff}."""
    return LaurentPolyW({2 * r: c for r, c in xi_pairs.items()})


XI_SQ = wpoly({1: 1, 0: -2, -1: 1})  # (xi^1/2 - xi^-1/2)^2


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
    assert a.is_exact
    assert a.coefficient(0) == XI_SQ
    assert a.coefficient(1) == F(-2) * XI_SQ ** 2
    assert a.coefficient(2) == XI_SQ ** 2 * wpoly({1: 1, 0: -8, -1: 1})


@pytest.mark.parametrize("order", [0, 1, 2])
def test_b_series_reference_coefficients(order):
    b = b_series(order)
    assert b.is_exact and b.q_order == order
    expected = [
        wpoly({1: 1, 0: 10, -1: 1}),
        2 * XI_SQ * wpoly({1: 5, 0: -22, -1: 5}),
        XI_SQ * wpoly({2: 1, 1: 110, 0: -294, -1: 110, -2: 1}),
    ]
    assert list(b.coeffs) == expected[: order + 1]


def test_j1_series():
    j1 = j1_series(5, 3)
    assert j1.window == 3
    # q^0: -1/2 + truncated geometric tail in xi^{-1}
    assert j1.coefficient(0) == LaurentPolyW({0: F(1, 2), -2: 1, -4: 1, -6: 1})
    assert j1.coefficient(1) == wpoly({1: -1, -1: 1})
    assert j1.coefficient(4) == wpoly({4: -1, 2: -1, 1: -1, -1: 1, -2: 1, -4: 1})


def test_j2_series():
    j2 = j2_series(4)
    assert j2.is_exact
    assert j2.coefficient(0) == LaurentPolyW({0: F(1, 6)})
    assert j2.coefficient(1) == wpoly({1: -2, -1: -2})
    # n=2: divisors 1 (n/d=2) and 2 (n/d=1)
    assert j2.coefficient(2) == wpoly({1: -4, -1: -4, 2: -2, -2: -2})


def test_j_series_parity(bundle):
    for n in range(1, bundle.q_order + 1):
        c1 = bundle.j1.coefficient(n)
        assert c1.mirror() == -c1
        c2 = bundle.j2.coefficient(n)
        assert c2.mirror() == c2


def test_dz_dtau():
    s = QSeries([LaurentPolyW({2: 1, -2: -1}), LaurentPolyW({0: 5})])
    assert s.dz().coefficient(0) == LaurentPolyW({2: 1, -2: 1})
    assert s.dz().coefficient(1).is_zero
    assert s.dtau().coefficient(0).is_zero
    assert s.dtau().coefficient(1) == LaurentPolyW({0: 5})


def test_dz_j2_equals_twice_dtau_j1(bundle):
    assert bundle.j2.dz().agrees_with(2 * bundle.j1.dtau())


def test_scalar_minus_series():
    s = eisenstein(4, 3)
    assert 1 - s == -(s - 1)
    half = F(1, 2) - s
    assert half == -(s - F(1, 2))
    assert half.coefficient(0) == LaurentPolyW({0: F(-1, 2)})
    windowed = j1_series(4, 10)
    assert (2 - windowed).window == windowed.window
    with pytest.raises(TypeError):
        1.5 - s


def test_powers_square_only_the_factors_they_use():
    # square-and-multiply skips its last squaring: a windowed series has a
    # first power, while its square multiplies two windowed series
    j1 = j1_series(3, 4)
    assert j1 ** 1 == j1 and j1 ** 0 == constant_series(1, 3)
    with pytest.raises(WindowError):
        j1 ** 2
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


def test_window_arithmetic():
    exact = theta_quotient_A(4)          # width 6 at this order
    windowed = j1_series(4, 10)
    product = windowed * exact
    assert product.window == 10 - exact.w_width()
    assert (windowed + windowed).window == 10
    assert (windowed + exact).window == 10
    with pytest.raises(WindowError):
        windowed * windowed
    with pytest.raises(WindowError):
        j1_series(4, 2) * exact  # window smaller than the factor width
    zero = constant_series(0, 4)
    assert (windowed * zero).is_exact


def test_window_claims_are_sound_against_deeper_truncations():
    # a much deeper tail is closer to the true series; inside the claimed
    # window of the shallow product the two must agree, including after a
    # second product and additions
    shallow = j1_series(4, 10)
    deep = j1_series(4, 40)
    factor = theta_quotient_A(4)
    small = eisenstein(4, 4)
    prod_shallow = shallow * factor
    prod_deep = deep * factor
    assert prod_shallow.window == 10 - factor.w_width()
    assert prod_shallow.agrees_with(prod_deep)
    again_shallow = prod_shallow * small + shallow
    again_deep = prod_deep * small + deep
    assert again_shallow.agrees_with(again_deep)
    assert again_shallow.dz().agrees_with(again_deep.dz())


def test_oberdieck_series_basics(bundle):
    one = constant_series(1, bundle.q_order)
    assert oberdieck_series(one, 0, 0, bundle).agrees_with(constant_series(0, bundle.q_order))
    lhs = oberdieck_series(bundle.e4, 4, 0, bundle)
    rhs = F(-1, 3) * bundle.e6
    assert lhs.agrees_with(rhs)


def test_oberdieck_series_defines_b(bundle):
    derived = (-6) * oberdieck_series(bundle.a, -2, 1, bundle)
    assert derived.agrees_with(bundle.b)


@pytest.mark.parametrize("order", [10, 30])
def test_fourier_derivation_of_a_is_the_exact_b(order):
    # B is built from the Weierstrass function; -6 times the Fourier-side
    # operator on A derives it through the windowed J1 instead.  Inside the
    # window the two agree, and from the index-one support bound 2*isqrt(4N+1)
    # down to the floor where the truncated J1 tail enters the derived series
    # vanishes, as B does
    bundle = make_bundle(order, 3 * order)
    derived = (-6) * oberdieck_series(bundle.a, -2, 1, bundle)
    assert derived.window is not None and derived.agrees_with(bundle.b)
    bound = 2 * isqrt(4 * order + 1)
    floor = -2 * bundle.window + bundle.a.w_width()
    assert floor < -bound
    for n in range(order + 1):
        assert not [r for r, _ in derived.coefficient(n).items() if r > bound or floor <= r < -bound]
        assert all(abs(r) <= bound for r in bundle.b.coefficient(n).support())


def test_series_consistency_catches_a_wrong_b_coefficient(bundle):
    # B does not come from the operator it is checked against, so one
    # changed coefficient of B fails the check on A
    from dataclasses import replace

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
    assert sym.agrees_with(ana)


def test_iterated_symbolic_matches_series(bundle):
    # second application: the first image is a weight-0 index-1 form with
    # support well inside the window, so it can be promoted and fed back in
    ob = oberdieck()
    first = oberdieck_series(bundle.a, -2, 1, bundle)
    assert first.agrees_with(evaluate(ob(A), bundle))
    second = oberdieck_series(first.as_exact(), 0, 1, bundle)
    assert evaluate(iterate(ob, 2, A), bundle).agrees_with(second)


def test_format_wpoly():
    assert format_wpoly(LaurentPolyW({})) == "0"
    assert format_wpoly(wpoly({1: 1, 0: -2, -1: 1})) == "w^2 - 2 + w^-2"


def test_as_exact_requires_window_truncation():
    j1 = j1_series(3, 4)
    exact = j1.as_exact()
    assert exact.is_exact
    assert all(abs(r) <= 4 for r in exact.coefficient(0).support())


def test_bundle_records_expansion_direction(bundle):
    assert bundle.j1_direction == "xi-inverse"


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
            assert c.mirror() == c


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


def ref_window_of_product(x, y, rx, ry):
    """(window of x*y, whether x*y must raise WindowError), from the reference rows."""
    if x.window is None and y.window is None:
        return None, False
    if x.window is not None and y.window is not None:
        return None, True
    windowed, finite = (x, ry) if x.window is not None else (y, rx)
    if not any(finite):
        return None, False
    window = windowed.window - max(abs(r) for row in finite for r in row)
    return window, window < 0


def ref_agrees(x, y, window):
    for a, b in zip(x, y):
        for r in a.keys() | b.keys():
            if (window is None or abs(r) <= window) and a.get(r, 0) != b.get(r, 0):
                return False
    return True


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
q_rows = st.dictionaries(st.integers(-6, 6), rationals, max_size=4)


@st.composite
def series(draw, windowed=None):
    order = draw(st.integers(0, 4))
    rows = draw(st.lists(q_rows, min_size=order + 1, max_size=order + 1))
    if windowed is None:
        windowed = draw(st.booleans())
    return QSeries(rows, draw(st.integers(0, 14)) if windowed else None)


def lesser(w1, w2):
    return w2 if w1 is None else w1 if w2 is None else min(w1, w2)


@settings(max_examples=200, deadline=None)
@given(series(), series(), rationals)
def test_integer_kernel_matches_fraction_reference(x, y, c):
    rx, ry = rows_of(x), rows_of(y)
    neg_y = [{r: -v for r, v in row.items()} for row in ry]
    window = lesser(x.window, y.window)

    assert rows_of(x + y) == ref_add(rx, ry) and (x + y).window == window
    assert rows_of(x - y) == ref_add(rx, neg_y) and (x - y).window == window
    assert rows_of(-x) == ref_clean([{r: -v for r, v in row.items()} for row in rx])
    scaled = x * c
    assert rows_of(scaled) == ref_clean([{r: v * c for r, v in row.items()} for row in rx])
    assert scaled.window == (x.window if c else None)
    assert rows_of(x.dz()) == ref_clean([{r: v * F(r, 2) for r, v in row.items()} for row in rx])
    assert rows_of(x.dtau()) == ref_clean([{r: v * n for r, v in row.items()} for n, row in enumerate(rx)])

    product_window, raises = ref_window_of_product(x, y, rx, ry)
    if raises:
        with pytest.raises(WindowError):
            x * y
    else:
        assert rows_of(x * y) == ref_mul(rx, ry) and (x * y).window == product_window

    if x.window is None:
        power = [{0: F(1)}] + [{}] * x.q_order
        for k in range(4):
            assert rows_of(x ** k) == ref_clean(power)
            power = ref_mul(power, rx)
    else:
        exact = x.as_exact()
        assert exact.is_exact
        assert rows_of(exact) == ref_clean([{r: v for r, v in row.items() if abs(r) <= x.window} for row in rx])

    assert x.agrees_with(y) == ref_agrees(rx, ry, window)
    assert x.agrees_with(QSeries(x.coeffs, x.window)) and not x.agrees_with(x + 1)
    assert QSeries(x.coeffs, x.window) == x and hash(QSeries(x.coeffs, x.window)) == hash(x)
    assert x * 2 == x + x


@settings(max_examples=50, deadline=None)
@given(series(windowed=True), series(windowed=True))
def test_windowed_times_windowed_is_refused(x, y):
    with pytest.raises(WindowError):
        x * y


def test_window_too_small_for_a_factor_is_refused():
    narrow = QSeries([{0: 1, -2: F(1, 3)}], window=3)
    wide = QSeries([{4: F(2, 5)}])
    with pytest.raises(WindowError):
        narrow * wide
    with pytest.raises(WindowError):
        wide * narrow
    assert (narrow * QSeries([{2: 1}])).window == 1


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
    window, raises = None, False
    for c, *factors in terms:
        if not c:
            continue  # a zero coefficient contributes neither rows nor a window
        if len(factors) == 1:
            (x,) = factors
            rows, term_window = rows_of(x), x.window
        else:
            x, y = factors
            term_window, term_raises = ref_window_of_product(x, y, rows_of(x), rows_of(y))
            raises = raises or term_raises
            rows = ref_mul(rows_of(x), rows_of(y))
        window = lesser(window, term_window)
        expected = ref_add(expected, [{r: v * c for r, v in row.items()} for row in rows[: order + 1]])
    if raises:
        with pytest.raises(WindowError):
            combination(terms, order)
        return
    result = combination(terms, order)
    assert rows_of(result) == ref_clean(expected)
    assert result.window == window and result.q_order == order
    assert result == QSeries(expected, window)  # the same rows over the same least denominator
    with pytest.raises(WindowError):
        combination(terms + [(1, constant_series(1, order))], order + 1)


def test_combination_of_no_terms_is_the_exact_zero():
    assert combination([], 3) == constant_series(0, 3)
    assert combination([(0, j1_series(3, 4))], 3).is_exact


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


@pytest.fixture(scope="module")
def bundle30():
    return make_bundle(30, 90)


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
    return make_bundle(12, 36)


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

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforms import (
    A,
    A_INV,
    B,
    E4,
    E6,
    GENERATORS,
    ZERO,
    BigradedElement,
    InternalInvariantError,
    PoissonParams,
    ScalingAutomorphism,
    accol,
    bracket_from_params,
    bracket_n,
    check_poisson,
    classify,
    family_a,
    family_b,
    family_c1,
    family_c2,
    family_d,
    family_e,
    iso_condition,
    modular_isomorphic,
    monomial_basis,
    mu1,
    normal_form,
    orc,
    params_from_mu1,
    rc_shape_extract,
    relations_residual,
    scaling_between,
)
from jacobiforms.classifier import PARAM_NAMES

SAMPLES = [F(1), F(-2), F(7, 5)]


def _rows_at_samples():
    rows = []
    for x in SAMPLES:
        for y in SAMPLES:
            rows.append(("A", family_a(x, y)))
            rows.append(("D", family_d(x, y)))
            rows.append(("E", family_e(x + y + 1, y)))
            for z in SAMPLES:
                rows.append(("B", family_b(x, z, y)))
        rows.append(("C1", family_c1(x)))
        rows.append(("C2", family_c2(x)))
    return rows


def test_all_rows_satisfy_the_thirteen_relations():
    for name, row in _rows_at_samples():
        assert all(r == 0 for r in relations_residual(row)), name


def test_all_rows_classify_to_their_label():
    for name, row in _rows_at_samples():
        assert name in [label.name for label in classify(row)]


def test_known_tuples():
    row = family_b(1, 1, 0)
    assert row.as_tuple() == (F(2, 3), 1, 1, F(3, 2), 1, F(3, 2), 0, 0, F(1, 2), 0)
    assert [l.name for l in classify(row)] == ["B"]

    zero = PoissonParams.of(*([0] * 10))
    assert all(r == 0 for r in relations_residual(zero))
    assert [l.name for l in classify(zero)] == ["D", "E"]

    c1 = PoissonParams.of(4, 6, 2, -2, 0, 0, 0, 0, 0, 0)
    assert [l.name for l in classify(c1)] == ["C1"]


def test_perturbed_row_has_nonzero_residual():
    row = family_a(2, F(1, 3))
    params = dict(zip(PARAM_NAMES, row.as_tuple()))
    params["theta"] += 1
    perturbed = PoissonParams(**params)
    assert any(r != 0 for r in relations_residual(perturbed))
    assert classify(perturbed) == []


def test_admissible_rows_give_poisson_brackets():
    for name, row in _rows_at_samples()[::3]:
        bracket = bracket_from_params(row)
        assert check_poisson(bracket).passed, name


def test_off_manifold_tuple_fails_jacobi():
    row = family_b(1, 1, 0)
    params = dict(zip(PARAM_NAMES, row.as_tuple()))
    params["xi"] += 1
    bad = PoissonParams(**params)
    assert any(r != 0 for r in relations_residual(bad))
    report = check_poisson(bracket_from_params(bad))
    assert not report.passed
    assert report.witness["identity"] == "jacobi"


def partial(f, slot):
    """Formal partial derivative of f by generator number slot (E4, E6, A, B)."""
    terms = {}
    for m, c in f.terms().items():
        if m[slot]:
            lowered = tuple(e - (i == slot) for i, e in enumerate(m))
            terms[lowered] = terms.get(lowered, 0) + m[slot] * c
    return BigradedElement(terms)


def test_poisson_bracket_is_the_partial_derivative_formula():
    # {f, g} = sum_{i,j} df/dx_i * dg/dx_j * {x_i, x_j}, written out term by term
    basis = monomial_basis(4, 1)
    inputs = [E4 * A_INV - 3 * B * A_INV ** 2] + basis + [f * g for f in basis for g in basis[::3]]
    off_manifold = PoissonParams.of(1, 2, 3, 4, 5, 6, 7, 8, 9, F(1, 10))
    for row in (family_b(2, F(-1, 3), F(5, 7)), family_a(3, F(1, 2)), off_manifold):
        bracket = bracket_from_params(row)
        for f, g in itertools.product(inputs[::2], inputs[::3]):
            expected = ZERO
            for i, j in itertools.product(range(4), repeat=2):
                expected = expected + partial(f, i) * partial(g, j) * bracket.pair(i, j)
            assert bracket(f, g) == expected, (str(f), str(g))


def test_poisson_bracket_memo_is_per_instance():
    # two brackets with different tables, called in turn on the same second
    # arguments, each give their own partial-derivative formula
    brackets = [bracket_from_params(family_b(2, F(-1, 3), F(5, 7))), bracket_from_params(family_c2(F(3)))]
    basis = monomial_basis(4, 1)
    for g in basis + [E4 * A - B]:
        for f in basis[::2]:
            for bracket in brackets:
                expected = ZERO
                for i, j in itertools.product(range(4), repeat=2):
                    expected = expected + partial(f, i) * partial(g, j) * bracket.pair(i, j)
                assert bracket(f, g) == expected, (str(f), str(g))


def test_bracket_from_params_zero_tuple():
    bracket = bracket_from_params(PoissonParams.of(*([0] * 10)))
    assert bracket(E4, E6) == -2 * E4 ** 3 + 2 * E6 ** 2
    assert bracket(A, E4).is_zero
    assert bracket(A, B).is_zero
    assert check_poisson(bracket).passed


def _written_out_pairs(p):
    """{x_i, x_j} for i < j in the order (E4, E6, A, B), each value typed
    out from the module docstring's display."""
    e4, e6, a, b = range(4)
    return {
        (e4, e6): -2 * E4 ** 3 + 2 * E6 ** 2,
        (e4, a): -(p.alpha * E6 * A + p.gamma * E4 * B),
        (e4, b): -(p.lam * E4 ** 2 * A + p.epsilon * E6 * B),
        (e6, a): -(p.beta * E4 ** 2 * A + p.delta * E6 * B),
        (e6, b): -(p.mu * E4 * E6 * A + p.theta * E4 ** 2 * B),
        (a, b): p.xi * E4 * A ** 2 + p.eta * B ** 2,
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=10, max_size=10))
def test_bracket_from_params_pairs_are_the_written_out_values(values):
    p = PoissonParams.of(*values)
    bracket = bracket_from_params(p)
    for (i, j), value in _written_out_pairs(p).items():
        assert bracket.pair(i, j) == value
        assert bracket.pair(j, i) == -value
        assert bracket(GENERATORS[i], GENERATORS[j]) == value
    for i in range(4):
        assert bracket.pair(i, i).is_zero
    assert params_from_mu1(bracket) == p


def test_params_from_mu1_round_trip():
    row = family_b(F(2, 3), F(4, 3), F(-1, 3))
    assert params_from_mu1(bracket_from_params(row)) == row


def test_params_from_mu1_rejects_escaping_brackets():
    from jacobiforms import crochet

    with pytest.raises(ValueError):
        params_from_mu1(mu1(crochet(F(1), F(1))))


def test_params_from_mu1_rejects_a_bracket_off_the_classical_one():
    from jacobiforms import src

    classical = mu1(src())
    with pytest.raises(ValueError, match="^bracket does not restrict to the classical first bracket$"):
        params_from_mu1(lambda f, g: 2 * classical(f, g))


@pytest.mark.parametrize("mu", [F(0), F(1), F(-3), F(7, 2)])
def test_oberdieck_bracket_sits_in_family_b(mu):
    p = params_from_mu1(mu1(orc(mu)))
    labels = classify(p)
    assert [l.name for l in labels] == ["B"]
    free = dict(labels[0].free)
    assert free["gamma"] == F(2, 3)
    assert free["lam"] == F(4, 3)
    assert free["epsilon"] == -mu / 3


@pytest.mark.parametrize("u", [F(1), F(2), F(-1, 3)])
def test_rc_shape_round_trip(u):
    row = family_b(F(1, 2), F(-3), F(2, 7))
    kappa, d = rc_shape_extract(row, u)
    bracket = bracket_from_params(row)
    # rebuild the bracket from the factorization on all generator pairs
    for f, g in itertools.combinations(GENERATORS, 2):
        kf, pf = f.bidegree()
        kg, pg = g.bidegree()
        rebuilt = kappa(kf, pf) * f * d(g) - kappa(kg, pg) * g * d(f)
        assert rebuilt == bracket(f, g)
    # scale covariance: kappa doubles, d halves
    kappa2, d2 = rc_shape_extract(row, 2 * u)
    assert kappa2.weight_coef == 2 * kappa.weight_coef
    assert d2.on_a == d.on_a / 2


def test_rc_shape_extract_errors():
    with pytest.raises(ValueError):
        rc_shape_extract(family_b(1, 1, 0), 0)
    with pytest.raises(ValueError):
        rc_shape_extract(family_c1(2), 1)


def test_shape_parameters_translate_both_ways():
    # first bracket of the (a, b, c) family is the B row at (-4a, -4b, -c/3)
    for a, b, c in [(F(1, 12), F(-1, 12), F(-1)), (F(0), F(1), F(2)), (F(-1, 6), F(-1, 3), F(7, 5))]:
        fam = accol(a, b, c)
        assert params_from_mu1(mu1(fam)) == family_b(-4 * a, -4 * b, -c / 3)
        # and back: the B row factorization recovers a derivation with A -> a*B
        row = family_b(-4 * a, -4 * b, -c / 3)
        kappa, d = rc_shape_extract(row, 1)
        assert d.on_a == a * B
        assert d.on_b == b * E4 * A
        assert kappa.index_coef == c


def test_scaling_automorphism():
    phi = ScalingAutomorphism(F(2), F(3))
    assert phi(A) == 2 * A
    assert phi(B ** 2) == 9 * B ** 2
    assert phi(E4 * A ** -1) == F(1, 2) * E4 * A ** -1
    assert phi(E4 + E6) == E4 + E6
    with pytest.raises(ValueError):
        ScalingAutomorphism(F(0), F(1))
    # plain integer factors stay exact on negative exponents
    assert ScalingAutomorphism(3, 1)(A ** -2) == F(1, 9) * A ** -2


def test_iso_condition_conjugation_displays():
    # a' != 0 conjugates to (1, a'b'); a' = 0 != b' conjugates to (0, 1)
    for a2, b2 in [(F(2), F(3)), (F(-1, 6), F(5)), (F(7, 5), F(0))]:
        assert iso_condition(1, a2 * b2, a2, b2, a2, 1)
    for b2 in [F(3), F(-1, 2)]:
        assert iso_condition(0, 1, 0, b2, 1, b2)
    assert iso_condition(1, 1, 1, 1, 1, 1)
    assert not iso_condition(1, 1, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        iso_condition(1, 1, 1, 1, 0, 1)


def test_normal_form():
    assert normal_form(2, 3, 5) == (1, 6, 5)
    assert normal_form(0, -7, 1) == (0, 1, 1)
    assert normal_form(0, 0, F(7, 5)) == (0, 0, F(7, 5))
    assert normal_form(F(-1, 6), F(-1, 3), 2) == (1, F(1, 18), 2)


def test_conjugation_transports_the_deformation(rng):
    # when the scalar conditions hold, phi intertwines every bracket order
    for a2, b2, c in [(F(2), F(3), F(1)), (F(0), F(-7), F(1, 2)), (F(1, 6), F(0), F(-1))]:
        a, b, _ = normal_form(a2, b2, c)
        lam_mu = scaling_between(a, b, a2, b2)
        assert lam_mu is not None
        phi = ScalingAutomorphism(*lam_mu)
        source = accol(a2, b2, c)
        target = accol(a, b, c)
        for j in range(4):
            for f, g in itertools.product(GENERATORS, repeat=2):
                assert phi(bracket_n(source, j, f, g)) == bracket_n(target, j, phi(f), phi(g))


def test_separation_necessary_conditions():
    # different index weight: no scaling automorphism can transport
    assert modular_isomorphic((1, 1, 0), (1, 1, 1)) == (False, None)
    # zero patterns must match
    assert modular_isomorphic((1, 0, 0), (1, 1, 0)) == (False, None)
    assert modular_isomorphic((0, 1, 0), (1, 1, 0)) == (False, None)
    # with all four nonzero the product ab is a scaling invariant
    assert modular_isomorphic((1, 1, 0), (2, 1, 0)) == (False, None)
    assert scaling_between(1, 1, 2, 1) is None
    flag, scaling = modular_isomorphic((1, 6, 0), (2, 3, 0))
    assert flag and scaling == (2, 1)


def test_distinct_index_weights_break_transport():
    # identity scaling, c != c': transport fails on an index-carrying pair
    phi = ScalingAutomorphism(F(1), F(1))
    source = accol(1, 1, 0)
    target = accol(1, 1, 1)
    f, g = E4 * A, E6
    assert phi(bracket_n(source, 1, f, g)) != bracket_n(target, 1, phi(f), phi(g))


def test_poisson_params_take_exactly_ten_values():
    with pytest.raises(ValueError, match="^expected ten parameters$"):
        PoissonParams.of(*range(9))


def _parent_scaling_between(a, b, a2, b2):
    # the case analysis scaling_between made before it read normal forms
    a, b, a2, b2 = F(a), F(b), F(a2), F(b2)
    if (a == 0) != (a2 == 0) or (b == 0) != (b2 == 0):
        return None
    if a != 0:
        lam, mu = a2, a
        if b2 * lam != b * mu:
            return None
        return (lam, mu)
    if b != 0:
        return (b, b2)
    return (F(1), F(1))


def _parent_modular_isomorphic(triple1, triple2):
    a, b, c = (F(x) for x in triple1)
    a2, b2, c2 = (F(x) for x in triple2)
    if c != c2:
        return False, None
    scaling = _parent_scaling_between(a, b, a2, b2)
    if scaling is None:
        return False, None
    assert iso_condition(a, b, a2, b2, *scaling)
    return True, scaling


ISO_GRID = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(6), F(3)]


def test_conjugacy_by_normal_forms_matches_the_case_analysis():
    # every (a, b, a2, b2) of the grid, zeros included; the conjugate pairs
    # once more with an unequal index weight
    conjugate = 0
    for a, b, a2, b2 in itertools.product(ISO_GRID, repeat=4):
        expected = _parent_scaling_between(a, b, a2, b2)
        assert scaling_between(a, b, a2, b2) == expected
        assert modular_isomorphic((a, b, F(1, 2)), (a2, b2, F(1, 2))) == (expected is not None, expected)
        if expected is not None:
            conjugate += 1
            assert modular_isomorphic((a, b, 0), (a2, b2, 1)) == (False, None)
    # a = b = a2 = b2 = 0 once; a = a2 = 0 with b, b2 nonzero 7 * 7 times;
    # a, a2 nonzero with a*b = a2*b2 166 times
    assert conjugate == 1 + 49 + 166


@pytest.mark.parametrize("c, c2", [(0, 0), (0, 1), (F(1, 2), F(-1, 2)), (3, 3)], ids=["0-0", "0-1", "half-minus-half", "3-3"])
def test_modular_isomorphic_matches_the_case_analysis_on_a_row(c, c2):
    for a, b, a2, b2 in itertools.product([F(0), F(1), F(-3, 4)], repeat=4):
        got = modular_isomorphic((a, b, c), (a2, b2, c2))
        assert got == _parent_modular_isomorphic((a, b, c), (a2, b2, c2))
        assert got[0] == (normal_form(a, b, c) == normal_form(a2, b2, c2))


def test_a_failed_shape_factorization_is_an_internal_error(monkeypatch):
    from jacobiforms import classifier

    true_bracket = classifier.bracket_from_params
    p = family_b(1, 2, F(1, 3))
    monkeypatch.setattr(classifier, "bracket_from_params", lambda q: true_bracket(family_b(q.gamma + 1, q.lam, q.epsilon)))
    with pytest.raises(InternalInvariantError, match=r"^shape factorization failed on \(E4, A\)$"):
        rc_shape_extract(p, 1)


def test_a_failed_conjugation_on_a_generator_is_an_internal_error(monkeypatch):
    from jacobiforms import classifier

    assert iso_condition(1, 6, 2, 3, 2, 1)
    true_serre_ab = classifier.serre_ab
    monkeypatch.setattr(classifier, "serre_ab", lambda a, b: true_serre_ab(a, b + 1))
    with pytest.raises(InternalInvariantError, match="^conjugation identity failed on a generator$"):
        iso_condition(1, 6, 2, 3, 2, 1)


def test_a_solved_scaling_that_fails_the_conditions_is_an_internal_error(monkeypatch):
    from jacobiforms import classifier

    monkeypatch.setattr(classifier, "scaling_between", lambda a, b, a2, b2: (F(1), F(1)))
    with pytest.raises(InternalInvariantError, match="^solved scaling failed the conjugation conditions$"):
        modular_isomorphic((1, 6, 0), (2, 3, 0))
    assert modular_isomorphic((1, 6, 0), (1, 6, 0)) == (True, (1, 1))

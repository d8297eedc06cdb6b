import gc
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforms import (
    A,
    A_INV,
    B,
    Bidegree,
    BidegreeError,
    BigradedElement,
    E4,
    E6,
    EulerWeighting,
    F2,
    Monomial,
    ONE,
    ParseError,
    ScalingAutomorphism,
    ZERO,
    bidegree,
    format_element,
    from_json_dict,
    iterate,
    membership,
    monomial,
    monomial_basis,
    parse_element,
    rc_localized,
    serre,
    to_json_dict,
)
from jacobiforms.elements import _LIMIT, _MEMBERSHIP, _OutsideRows, _exponents, _key, escapes, linear_combination, power


def test_generator_bidegrees():
    assert E4.bidegree() == Bidegree(4, 0)
    assert E6.bidegree() == Bidegree(6, 0)
    assert A.bidegree() == Bidegree(-2, 1)
    assert B.bidegree() == Bidegree(0, 1)
    assert (A ** -1).bidegree() == Bidegree(2, -1)
    assert (E4 * E6 * A * B ** 2).bidegree() == Bidegree(8, 3)


def test_bidegree_function_on_monomials():
    assert bidegree(Monomial(1, 0, 0, 0)) == (4, 0)
    assert bidegree(Monomial(0, 0, -1, 0)) == (2, -1)
    assert bidegree(Monomial(1, 1, 1, 2)) == (8, 3)


def test_localization_unit():
    assert A * A_INV == ONE
    assert B * A_INV * A == B
    assert E4 + (-1) * E4 == ZERO
    assert not (E4 - E4)


def test_arithmetic_laws():
    f = 2 * E4 - F(1, 3) * B * A_INV
    g = E6 * A + 5
    h = F2 ** 2 - E4
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f * (g * h) == (f * g) * h


def test_scalar_coercion_and_division():
    assert E4 / 2 == F(1, 2) * E4
    assert (3 * ONE).coefficient(Monomial(0, 0, 0, 0)) == 3
    assert 1 - ONE == ZERO


def test_a_constant_hashes_as_the_scalar_it_equals():
    from jacobiforms.elements import constant

    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
    assert hash(constant(F(1, 2))) == hash(F(1, 2))
    assert {1: "x"}[ONE] == "x" and ONE in {1} and F(1, 2) in {constant(F(1, 2))}


def test_negative_powers_limited_to_a():
    assert A ** -3 == monomial(a=-3)
    assert (2 * A) ** -1 == F(1, 2) * A_INV
    with pytest.raises(ValueError):
        E4 ** -1
    with pytest.raises(ValueError):
        (E4 + A) ** -1


def test_power_never_multiplies_by_the_unit():
    x = E4 + A
    assert power(x, 1, ONE) is x
    assert power(x, 0, ONE) is ONE
    assert power(x, 5, ONE) == x * x * x * x * x
    with pytest.raises(ValueError):
        power(x, -1, ONE)


def test_monomial_validation():
    with pytest.raises(BidegreeError):
        BigradedElement({Monomial(-1, 0, 0, 0): 1})
    with pytest.raises(BidegreeError):
        monomial(b=-2)


def test_homogeneous_components():
    parts = (E4 + A).homogeneous_components()
    assert parts == {Bidegree(4, 0): E4, Bidegree(-2, 1): A}
    assert ZERO.homogeneous_components() == {}
    # both monomials share bidegree (4, 1): a single component
    f = E4 * B + E6 * A
    assert f.homogeneous_components() == {Bidegree(4, 1): f}
    assert f.homogeneous_components()[Bidegree(4, 1)] is f
    assert f.is_homogeneous


def test_homogeneous_components_are_a_new_dict_on_each_call():
    for f in (E4 + A, E4 * B + E6 * A, ZERO):
        first = f.homogeneous_components()
        expected = dict(first)
        first.clear()
        first[Bidegree(0, 0)] = ONE
        assert f.homogeneous_components() == expected


def test_cached_bidegree_split_holds_no_reference_to_its_element():
    # the split is cached on the element; a cycle through it would keep
    # elements alive until a garbage collection
    for f in (E4 * A, E4 + A, ZERO):
        f.homogeneous_components(), f.is_homogeneous
        seen, frontier = [], gc.get_referents(f)
        while frontier:
            seen += frontier
            frontier = [x for y in frontier if isinstance(y, tuple) for x in gc.get_referents(y)]
        assert all(x is not f for x in seen)
    assert (E4 * A).bidegree() == Bidegree(2, 1) and not (E4 + A).is_homogeneous and ZERO.is_homogeneous


def test_linear_combination_divides_by_its_divisor():
    assert linear_combination([(3, E4), (F(1, 2), A, B)], 6) == F(1, 2) * E4 + F(1, 12) * A * B
    assert linear_combination([(4, E4, E6)], 2) == 2 * E4 * E6
    assert linear_combination([], 5) == ZERO


def test_membership():
    assert membership(B * A_INV, "Q")
    assert not membership(A_INV, "Jtilde")
    assert membership(E4 ** 3 - E6 ** 2, "M")
    assert membership(A_INV, "K")
    assert not membership(E4 * B, "Q")
    assert membership(E4 * B, "Jtilde")
    with pytest.raises(ValueError):
        membership(E4, "bogus")


@pytest.mark.parametrize("algebra", sorted(_MEMBERSHIP))
def test_each_membership_test_reads_only_the_a_and_b_exponents(algebra):
    # escapes decides membership on the (A, B) grade of a product alone
    test = _MEMBERSHIP[algebra]
    for a in range(-4, 5):
        for b in range(5):
            assert {test((e4, e6, a, b)) for e4 in (0, 1, 7) for e6 in (0, 2, 5)} == {test((0, 0, a, b))}


def test_parse_basic():
    assert parse_element("-1/3*E6") == F(-1, 3) * E6
    assert parse_element("E4^2*A^-1*B") == monomial(2, 0, -1, 1)
    assert parse_element("E4 - E6 + 2") == E4 - E6 + 2
    assert parse_element("5/3") == F(5, 3) * ONE
    assert parse_element("2*E4*B^2") == 2 * E4 * B ** 2


def test_parse_f2_flag():
    with pytest.raises(ParseError):
        parse_element("2*F2")
    assert parse_element("2*F2", allow_f2=True) == 2 * F2
    assert parse_element("F2^2*A^2", allow_f2=True) == B ** 2


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_element("E4 + ")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_element("")
    with pytest.raises(ParseError):
        parse_element("E4 ? E6")
    with pytest.raises(ParseError):
        parse_element("E4^9999999")
    with pytest.raises(ParseError):
        parse_element("1/0*E4")
    # numbers are ASCII digits: a regex \d and int() would read the Arabic-Indic two as 2
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_element("E4^\u0662")
    assert info.value.position == 3


def test_parse_bounds_the_summed_exponent_of_a_term():
    # each factor within 10^6 is not enough: the error names the factor
    # that takes an exponent of the term past it, here the second E4
    with pytest.raises(ParseError, match="exponent overflow") as info:
        parse_element("E4^1000000*E4^1000000")
    assert info.value.position == 11
    with pytest.raises(ParseError, match="exponent overflow") as info:
        parse_element("E4 + A^-999999*B*A^-2")
    assert info.value.position == 17
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_element("F2^1000000*B", allow_f2=True)
    assert parse_element("E4^999999*E4*A^-999999*A^-1") == monomial(10 ** 6, 0, -(10 ** 6), 0)
    assert parse_element("F2^1000000*A^1000000", allow_f2=True) == B ** 1000000


# The parser as it was before it became one loop over terms, kept as the
# reference that parse_element must agree with on every input.
_REFERENCE_TOKEN = re.compile(r"(?P<name>E4|E6|F2|A|B)|(?P<int>\d+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def _reference_parse(text, allow_f2=False):
    tokens = []
    for match in _REFERENCE_TOKEN.finditer(text):
        if match.lastgroup == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    pos = 0

    def peek(kind=None):
        if pos < len(tokens) and (kind is None or tokens[pos][0] == kind):
            return tokens[pos]
        return None

    def error(message):
        at = tokens[pos][2] if pos < len(tokens) else len(text)
        raise ParseError(message, at)

    def take_int():
        nonlocal pos
        sign = 1
        if peek("op") and tokens[pos][1] == "-":
            sign = -1
            pos += 1
        tok = peek("int")
        if tok is None:
            error("expected an integer")
        pos += 1
        value = sign * int(tok[1])
        if abs(value) > 10 ** 6:
            raise ParseError("exponent overflow", tok[2])
        return value

    def take_rational():
        nonlocal pos
        tok = peek("int")
        pos += 1
        value = F(int(tok[1]))
        if peek("op") and tokens[pos][1] == "/":
            pos += 1
            den = peek("int")
            if den is None:
                error("expected a positive denominator")
            pos += 1
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value /= int(den[1])
        return value

    def take_factor():
        nonlocal pos
        tok = peek("name")
        if tok is None:
            error("expected a generator name")
        pos += 1
        exp = 1
        if peek("op") and tokens[pos][1] == "^":
            pos += 1
            exp = take_int()
        name = tok[1]
        if name == "F2":
            if not allow_f2:
                raise ParseError("F2 is not a stored generator (pass allow_f2 to rewrite it)", tok[2])
            return (0, 0, -exp, exp)
        return tuple(exp if slot == name else 0 for slot in ("E4", "E6", "A", "B"))

    def take_term():
        nonlocal pos
        coeff = F(1)
        exps = [0, 0, 0, 0]
        if peek("int"):
            coeff = take_rational()
            if not (peek("op") and tokens[pos][1] == "*"):
                return coeff, tuple(exps)
            pos += 1
        while True:
            at = pos
            exps = [x + y for x, y in zip(exps, take_factor())]
            if max(map(abs, exps)) > 10 ** 6:
                raise ParseError("exponent overflow", tokens[at][2])
            if peek("op") and tokens[pos][1] == "*":
                pos += 1
                continue
            break
        return coeff, tuple(exps)

    if not tokens:
        raise ParseError("empty element text", 0)

    total: dict = {}
    sign = F(1)
    if peek("op") and tokens[pos][1] in "+-":
        sign = F(-1) if tokens[pos][1] == "-" else F(1)
        pos += 1
    while True:
        coeff, exps = take_term()
        total[exps] = total.get(exps, F(0)) + sign * coeff
        if pos >= len(tokens):
            break
        tok = peek("op")
        if tok is None or tokens[pos][1] not in "+-":
            error("expected '+' or '-' between terms")
        sign = F(-1) if tokens[pos][1] == "-" else F(1)
        pos += 1
        if pos >= len(tokens):
            error("dangling sign")
    return BigradedElement(total)


def _outcome(parse, text, allow_f2):
    """The element text parse gives, or its exception's type, message and position."""
    try:
        return format_element(parse(text, allow_f2=allow_f2))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_PARSER_TOKENS = ["E4", "E6", "F2", "A", "B", "0", "12", "999999", "1000000", "1000001", *"-+*/^", " ", "?"]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_PARSER_TOKENS), max_size=14).map("".join), st.booleans())
def test_parser_agrees_with_the_reference_parser(text, allow_f2):
    assert _outcome(parse_element, text, allow_f2) == _outcome(_reference_parse, text, allow_f2)


@pytest.mark.parametrize(
    "text",
    ["", " ", "-", "+E4", "E4 -", "E4 + ", "E4 E6", "--E4", "2*3", "1/", "1/0*E4", "1/-3", "2/3/4", "E4^", "E4^-",
     "E4^2^3", "F2^x", "F2^1000001", "0*E4 - 0", "12/999999*F2^-12*A^12 + B", "E4^1000000*E4", "E4^999999*E4^12",
     "A^-999999*F2^12", "?E4", "E4*"],
)
@pytest.mark.parametrize("allow_f2", [False, True])
def test_parser_agrees_with_the_reference_parser_on_edge_cases(text, allow_f2):
    assert _outcome(parse_element, text, allow_f2) == _outcome(_reference_parse, text, allow_f2)


def test_format_canonical():
    assert format_element(ZERO) == "0"
    assert format_element(-E4) == "-E4"
    assert format_element(E4 - E6) == "E4 - E6"
    assert format_element(F(1, 2) * ONE) == "1/2"
    f = F(-1, 3) * E6 + monomial(2, 0, -1, 1)
    assert parse_element(format_element(f)) == f


def test_json_round_trip():
    f = F(22, 7) * E4 * A_INV - B ** 2
    data = to_json_dict(f)
    assert data["terms"][0].keys() == {"e4", "e6", "a", "b", "coeff"}
    assert from_json_dict(data) == f


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# Exponents small or up to 10^6, the largest that element text accepts, and
# A exponents of either sign: a product of two such monomials comes within
# 5% of the range [-2^21, 2^21) that a packed field holds.
_large = st.integers(10 ** 6 - 2, 10 ** 6)
_exponent = st.one_of(st.integers(0, 3), _large)
monomials = st.tuples(
    _exponent, _exponent, st.one_of(st.integers(-3, 3), _large, _large.map(lambda e: -e)), _exponent
).map(lambda t: Monomial(*t))
elements = st.dictionaries(monomials, coeffs, max_size=4).map(BigradedElement)
# Rescaling raises coefficients to the power of the A and B exponents, so its
# test keeps to small exponents.
small_monomials = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3)
).map(lambda t: Monomial(*t))
small_elements = st.dictionaries(small_monomials, coeffs, max_size=4).map(BigradedElement)


@given(monomials, monomials)
def test_bidegree_additive_on_monomials(m1, m2):
    product = Monomial(*(x + y for x, y in zip(m1, m2)))
    w1, i1 = bidegree(m1)
    w2, i2 = bidegree(m2)
    assert bidegree(product) == (w1 + w2, i1 + i2)


@settings(max_examples=60)
@given(elements, elements)
def test_product_of_homogeneous_is_homogeneous(f, g):
    for d1, fc in f.homogeneous_components().items():
        for d2, gc in g.homogeneous_components().items():
            value = fc * gc
            if not value.is_zero:
                assert value.bidegree() == (d1.weight + d2.weight, d1.index + d2.index)


@settings(max_examples=60)
@given(elements, elements)
def test_membership_multiplicative(f, g):
    for algebra in ("M", "Jtilde", "Q", "K"):
        if membership(f, algebra) and membership(g, algebra):
            assert membership(f * g, algebra)


@settings(max_examples=60)
@given(elements)
def test_format_parse_round_trip(f):
    assert parse_element(format_element(f)) == f
    assert format_element(parse_element(format_element(f))) == format_element(f)


@given(elements)
def test_terms_are_in_increasing_monomial_order(f):
    assert list(f.terms()) == sorted(f.terms())


def test_exponents_outside_the_packed_range_raise_instead_of_aliasing():
    edge = 2 ** 21  # exponents lie in [-edge, edge)
    assert monomial(e4=edge - 1).coefficient(Monomial(edge - 1, 0, 0, 0)) == 1
    assert monomial(a=-edge) * E4 == monomial(e4=1, a=-edge)
    for e4, e6, a, b in [(edge, 0, 0, 0), (0, edge, 0, 0), (0, 0, edge, 0), (0, 0, -edge - 1, 0), (0, 0, 0, edge)]:
        with pytest.raises(BidegreeError):
            monomial(e4, e6, a, b)
    half = 2 ** 20
    # products: a field that overflows, or underflows, never carries into its neighbour
    with pytest.raises(BidegreeError):
        monomial(e4=half) * monomial(e4=half)
    with pytest.raises(BidegreeError):
        monomial(e6=half, b=3) * (monomial(e6=half) + E4)
    with pytest.raises(BidegreeError):
        monomial(b=half) * B ** 3 * monomial(b=half)
    with pytest.raises(BidegreeError):
        linear_combination([(1, A_INV, monomial(e6=1, a=-edge))])
    assert monomial(a=-half) * monomial(a=-half) == monomial(a=-edge)
    # powers
    with pytest.raises(BidegreeError):
        monomial(a=half) ** 2
    with pytest.raises(BidegreeError):
        monomial(a=-half) ** 3
    with pytest.raises(BidegreeError):
        monomial(a=half) ** -3
    assert (E4 * monomial(a=-half)) ** 2 == monomial(e4=2, a=-edge)
    # a derivation step: D(E6) = -E4^2/2 under the Serre derivation
    with pytest.raises(BidegreeError):
        serre()(monomial(e4=edge - 1, e6=1))


def test_clear_caches_empties_the_unpacked_monomials():
    import jacobiforms
    from jacobiforms.elements import _exponents

    (E4 * A_INV).terms()
    assert _exponents.cache_info().currsize > 0
    jacobiforms.clear_caches()
    assert _exponents.cache_info().currsize == 0


def test_clear_caches_empties_every_module_level_memo():
    # every lru_cache defined at the top level of a module of the package,
    # found by walking the package, each filled by one small call of its layer
    import importlib
    import pkgutil
    import random

    import jacobiforms
    from jacobiforms import accol, bracket_n, evaluate, make_bundle, qseries, verifier

    memos = {}
    for info in pkgutil.iter_modules(jacobiforms.__path__):
        module = importlib.import_module(f"jacobiforms.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = value
    verifier.random_homogeneous(random.Random(0))
    qseries.bernoulli(4)
    bracket_n(accol(1, 2, F(7, 5)), 2, E4 + A, B)
    evaluate(E4 * B, make_bundle(2))
    assert len(memos) >= 7
    assert [name for name, memo in memos.items() if not memo.cache_info().currsize] == []
    jacobiforms.clear_caches()
    assert [name for name, memo in memos.items() if memo.cache_info().currsize] == []


def _fold(pairs):
    total = ZERO
    for c, el in pairs:
        total = total + c * el
    return total


@settings(max_examples=150)
@given(st.lists(st.tuples(coeffs, elements), max_size=6))
def test_linear_combination_matches_fold_of_add_and_scale(pairs):
    # the strategy covers empty input, zero coefficients, mixed denominators
    # and negative A exponents; appending the negated sum forces cancellation
    value = linear_combination(pairs)
    assert value == _fold(pairs)
    assert linear_combination(pairs + [(-1, value)]) == ZERO


def _reference_sum(terms):
    """Sum of coeff * x [* y] written out on Fraction coefficient dicts."""
    total: dict = {}
    for coeff, *factors in terms:
        product = {Monomial(0, 0, 0, 0): F(coeff)}
        for factor in factors:
            expanded: dict = {}
            for m1, c1 in product.items():
                for m2, c2 in factor.terms().items():
                    m = Monomial(*(a + b for a, b in zip(m1, m2)))
                    expanded[m] = expanded.get(m, F(0)) + c1 * c2
            product = expanded
        for m, c in product.items():
            total[m] = total.get(m, F(0)) + c
    return {m: c for m, c in total.items() if c}


@settings(max_examples=100)
@given(st.lists(st.one_of(st.tuples(coeffs, elements, elements), st.tuples(coeffs, elements)), max_size=6))
def test_linear_combination_expands_products_exactly(terms):
    # mixed denominators, zero factors and coefficients, negative A
    # exponents, and terms of both lengths in one sum
    value = linear_combination(terms)
    assert value.terms() == _reference_sum(terms)
    negated = [(-coeff, *factors) for coeff, *factors in terms]
    assert linear_combination(terms + negated) == ZERO


@settings(max_examples=150)
@given(st.lists(st.tuples(coeffs, small_elements, small_elements), max_size=5), st.sampled_from(sorted(_MEMBERSHIP)))
def test_escapes_is_non_membership_of_the_sum(terms, algebra):
    # mixed denominators, zero coefficients and negative A exponents; the
    # negated terms cancel the part outside the algebra as well
    assert escapes(terms, algebra) == (not membership(linear_combination(terms), algebra))
    assert not escapes(terms + [(-c, x, y) for c, x, y in terms], algebra)


def test_escapes_edge_cases():
    assert not escapes([], "Jtilde")
    assert escapes([(1, A_INV, E4)], "Jtilde") and not escapes([(1, A_INV, E4)], "K")
    # each product escapes, their sum does not
    assert not escapes([(F(1, 2), A_INV, B), (F(-1, 3), B, A_INV), (F(-1, 6), F2, ONE)], "Jtilde")
    assert escapes([(1, F2, F2)], "M") and not escapes([(1, F2, F2)], "Q")
    with pytest.raises(ValueError, match="unknown algebra"):
        escapes([(1, E4, E4)], "bogus")
    # the part outside leaves the packed range, in a grade and in a key
    half = 2 ** 20
    with pytest.raises(BidegreeError):
        escapes([(1, monomial(a=-half), monomial(a=-half - 1))], "Jtilde")
    with pytest.raises(BidegreeError):
        escapes([(1, monomial(e4=half, a=-1), monomial(e4=half))], "Jtilde")


def test_grades_with_one_verdict_share_one_row():
    # D^3(B) of a deformation has rows at the A exponents 1, 0, -1 and -3; a
    # grade A^a B^b sends outside Jtilde the rows whose A exponent is below -a
    x = iterate(rc_localized(F(1, 12), 2).derivation, 3, B)
    test = _MEMBERSHIP["Jtilde"]
    outside = x._outside_rows(test)
    assert len(outside.rows) == 4
    by_verdict: dict = {}
    for a in range(-2, 5):
        for b in range(3):
            grade = _key((0, 0, a, b))
            verdict = frozenset(k for k in x._num if not test(_exponents(k + grade)))
            assert outside[grade] == {k: x._num[k] for k in verdict}
            by_verdict.setdefault(verdict, []).append(outside[grade])
    # a = -2, -1, 0 send out 4, 3, 2 rows; a = 1, 2 one; a = 3, 4 none
    assert sorted(len(rows) for rows in by_verdict.values()) == [3, 3, 3, 6, 6]
    for rows in by_verdict.values():
        assert all(row is rows[0] for row in rows)  # one row per verdict, shared by its grades
    assert len({id(rows[0]) for rows in by_verdict.values()}) == 5
    assert by_verdict[frozenset()][0] == {} and by_verdict[frozenset(x._num)][0] is x._num
    assert x._outside_rows(test) is outside


ALGEBRA_TURNS = ("Jtilde", "M", "Jtilde", "Q", "K", "Jtilde")


def _turns():
    """Pairs x, y, new on each call, with escapes of x * y for each algebra
    of ALGEBRA_TURNS as fresh equal elements answer it, each asked once:
    A * B leaves M and Q, F2 * E4*F2 leaves M and Jtilde."""
    pairs = [(monomial(a=1), monomial(b=1)), (monomial(a=-1, b=1), E4 * monomial(a=-1, b=1))]
    for x, y in pairs:
        yield x, y, [escapes([(1, BigradedElement(x.terms()), BigradedElement(y.terms()))], algebra) for algebra in ALGEBRA_TURNS]


def test_an_element_asked_for_another_algebra_answers_as_a_fresh_one():
    for x, y, fresh in _turns():
        assert fresh == [not membership(x * y, algebra) for algebra in ALGEBRA_TURNS]
        assert [escapes([(1, x, y)], algebra) for algebra in ALGEBRA_TURNS] == fresh
        assert x._outside.test is y._outside.test is _MEMBERSHIP["Jtilde"]  # one cache each, the last test's


def test_a_cache_that_keeps_the_first_algebras_rows_fails_the_turns(monkeypatch):
    # mutation control of the test above: a cache kept for Jtilde answers
    # every later algebra as Jtilde
    def first_rows(self, test):
        if self._outside is None:
            self._outside = _OutsideRows(self._num, test)
        return self._outside

    monkeypatch.setattr(BigradedElement, "_outside_rows", first_rows)
    for x, y, fresh in _turns():
        assert [escapes([(1, x, y)], algebra) for algebra in ALGEBRA_TURNS] != fresh


def test_linear_combination_edge_cases():
    assert linear_combination([]) == ZERO
    assert linear_combination([(0, E4), (F(3, 2), ZERO)]) == ZERO
    assert linear_combination([(F(1, 2), A_INV), (F(-1, 3), A_INV)]) == F(1, 6) * A_INV
    assert linear_combination([(F(2, 3), E4 - B), (F(2, 3), B)]) == F(2, 3) * E4
    assert linear_combination(iter([(1, E4), (1, E6)])) == E4 + E6
    assert linear_combination([(F(1, 2), A, A_INV), (F(-1, 2), ONE)]) == ZERO
    assert linear_combination([(3, E4, ZERO), (F(1, 3), B, E6), (1, E6)]) == F(1, 3) * B * E6 + E6


def _componentwise_weighting(mu, f):
    total = ZERO
    for deg, comp in f.homogeneous_components().items():
        total = total + (deg.weight + mu * deg.index) * comp
    return total


def _termwise_scaling(lam, mu, f):
    total = ZERO
    for m, c in f.terms().items():
        total = total + BigradedElement({m: c * lam ** m.a * mu ** m.b})
    return total


@settings(max_examples=100)
@given(small_elements, coeffs, coeffs.filter(bool), coeffs.filter(bool))
def test_one_pass_rescalings_match_componentwise_reference(f, mu, lam, nu):
    assert EulerWeighting(mu)(f) == _componentwise_weighting(mu, f)
    assert ScalingAutomorphism(lam, nu)(f) == _termwise_scaling(lam, nu, f)


def test_the_work_budget_counts_multiply_adds_and_refuses_before_the_product():
    from jacobiforms import elements
    from jacobiforms.elements import BudgetExceeded, _accumulate, work_budget

    assert not issubclass(BudgetExceeded, ValueError)
    left, right = {1: 2, 2: 3}, {10: 5, 20: 7, 30: 11}
    acc = {}
    with work_budget(10):
        _accumulate(acc, left, right)  # 2 * 3 multiply-adds
        assert elements._allowance == 4
        before = dict(acc)
        with pytest.raises(BudgetExceeded):
            _accumulate(acc, left, right)
        assert acc == before
        with pytest.raises(BudgetExceeded):  # once spent, spent
            _accumulate(acc, {0: 1}, {0: 1})
    assert elements._allowance is None
    # a budget inside a budget hands the outer allowance back on leaving
    with work_budget(100):
        with work_budget(1):
            pass
        assert elements._allowance == 100
    f = E4 * A + B
    with work_budget(8):
        assert f * f == linear_combination([(1, f, f)])  # two products of 2 * 2
        with pytest.raises(BudgetExceeded):
            f * f


@pytest.mark.parametrize("m", [(1.0, 0, 0, 0), (0, 0, "1", 0), (0, 0, 0, 0.5)])
def test_monomial_exponents_must_be_integers(m):
    # a float key would compare equal to E4's yet break str() and terms()
    with pytest.raises(TypeError):
        BigradedElement({m: 1})


@pytest.mark.parametrize("exponent", [1.5, 1.0, "1"])
def test_json_exponents_must_be_integers(exponent):
    # int() would read 1.5 as 1, so the element would come back as E4
    data = to_json_dict(E4)
    data["terms"][0]["e4"] = exponent
    with pytest.raises(TypeError):
        from_json_dict(data)


def test_a_float_json_coefficient_is_refused():
    # the float 0.1 is 3602879701896397/36028797018963968, not 1/10
    data = json.loads('{"terms": [{"e4": 1, "e6": 0, "a": 0, "b": 0, "coeff": 0.1}]}')
    with pytest.raises(TypeError, match="float"):
        from_json_dict(data)


@pytest.mark.parametrize("coeff, value", [(3, 3), (F(1, 3), F(1, 3)), ("1/3", F(1, 3)), ("0.1", F(1, 10)), ("-2", -2)])
def test_json_coefficients_read_exactly(coeff, value):
    data = {"terms": [{"e4": 1, "e6": 0, "a": 0, "b": 0, "coeff": coeff}]}
    assert from_json_dict(data) == value * E4


def test_every_element_made_from_raw_rows_has_its_keys_checked():
    # the key of A^(_LIMIT - 1) * A, a sum of two keys in range, leaves the
    # range of A's exponent, whichever caller hands it to _raw
    with pytest.raises(BidegreeError):
        BigradedElement._raw({_key((0, 0, _LIMIT - 1, 0)) + _key((0, 0, 1, 0)): 1}, 1)
    assert BigradedElement._raw({_key((0, 0, _LIMIT - 1, 0)): 2}, 4) == monomial(a=_LIMIT - 1, coeff=F(1, 2))


def test_a_fraction_scales_an_element_from_the_right():
    assert E4 * F(1, 2) == monomial(e4=1, coeff=F(1, 2)) == F(1, 2) * E4


def test_refusals_of_a_basis_outside_the_subalgebras_and_of_a_mixed_bidegree():
    with pytest.raises(ValueError, match="^basis enumeration needs a proper subalgebra of K$"):
        monomial_basis(4, 1, "K")
    with pytest.raises(ValueError, match="^element is zero or not homogeneous$"):
        (E4 + A).bidegree()


def test_a_monomial_outside_the_packed_range_has_coefficient_zero():
    edge = 2 ** 21  # exponents lie in [-edge, edge): no element holds such a monomial
    assert E4.coefficient((edge, 0, 0, 0)) == 0
    assert (E4 + A).coefficient(Monomial(0, 0, -edge - 1, 0)) == 0


def test_an_element_against_a_foreign_operand():
    assert E4.__eq__("E4") is NotImplemented and E4.__eq__(1.0) is NotImplemented
    assert E4 != "E4" and not (ONE == 1.0)
    assert E4.__truediv__(E4) is NotImplemented
    with pytest.raises(TypeError):
        E4 / 2.0


def test_an_element_minus_a_scalar():
    assert E4 - 1 == E4 + (-1) == linear_combination(((1, E4), (-1, ONE)))
    assert E4 - F(1, 2) - E4 == F(-1, 2)

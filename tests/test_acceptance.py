"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Toleranced values do not appear anywhere: all arithmetic is exact, so every
comparison is equality, and the only numeric limits are wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction as F

from jacobiforms import (
    A,
    B,
    E4,
    E6,
    GENERATORS,
    ZERO,
    accol,
    bracket_n,
    check_associativity,
    check_bidegree_law,
    check_poisson,
    check_stability,
    check_vinset,
    crochet,
    iso_condition,
    mu1,
    normal_form,
    orc,
    params_from_mu1,
    random_homogeneous,
    rc_classical,
    rc_localized,
    rc_shape_extract,
    relations_residual,
    scal,
    scan_conjecture,
    series_consistency,
    src,
)
from jacobiforms.classifier import (
    PoissonParams,
    bracket_from_params,
    family_a,
    family_b,
    family_c1,
    family_c2,
    family_d,
    family_e,
)
from jacobiforms.qseries import LaurentPolyW, b_series, make_bundle, theta_quotient_A
from test_qseries import a_oracle, b_oracle, series_rows

PARAM_SAMPLES = [F(0), F(1), F(-1, 6), F(-1, 3), F(1, 12), F(7, 5)]


def _stamp(number: int, description: str, ok: bool, elapsed: float | None = None) -> bool:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {status}{timing} {description}")
    return ok


def _xi(pairs: dict) -> LaurentPolyW:
    return LaurentPolyW({2 * r: c for r, c in pairs.items()})


def test_criterion_01_generator_expansion_golden_match():
    start = time.perf_counter()
    a = theta_quotient_A(10)
    b = b_series(10)
    elapsed = time.perf_counter() - start
    xi_sq = _xi({1: 1, 0: -2, -1: 1})
    expected_a = [xi_sq, F(-2) * xi_sq ** 2, xi_sq ** 2 * _xi({1: 1, 0: -8, -1: 1})]
    expected_b = [
        _xi({1: 1, 0: 10, -1: 1}),
        2 * xi_sq * _xi({1: 5, 0: -22, -1: 5}),
        xi_sq * _xi({2: 1, 1: 110, 0: -294, -1: 110, -2: 1}),
    ]
    ok = all(a.coefficient(n) == expected_a[n] for n in range(3))
    ok = ok and all(b.coefficient(n) == expected_b[n] for n in range(3))
    ok = ok and series_rows(a) == a_oracle(10) and series_rows(b) == b_oracle(10)
    ok = ok and elapsed < 5.0
    assert _stamp(1, "index-one generator expansions match the q^0..q^2 rows and the product formulas to q^10", ok, elapsed)


def test_criterion_02_series_consistency_of_the_weight_raising_derivation():
    start = time.perf_counter()
    bundle = make_bundle(10)
    report = series_consistency(bundle)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 10.0
    assert _stamp(2, "symbolic derivation matches the Fourier-side operator through q^10", ok, elapsed)


def test_criterion_03_first_bracket_table_of_the_oberdieck_family():
    table = {
        ("E4", "E6"): lambda mu: 2 * (E6 ** 2 - E4 ** 3),
        ("E4", "A"): lambda mu: F(-2, 3) * E4 * B + (mu - 2) / 3 * E6 * A,
        ("E4", "B"): lambda mu: mu / 3 * E6 * B - F(4, 3) * E4 ** 2 * A,
        ("E6", "A"): lambda mu: -E6 * B + (mu - 2) / 2 * E4 ** 2 * A,
        ("E6", "B"): lambda mu: mu / 2 * E4 ** 2 * B - 2 * E4 * E6 * A,
        ("A", "B"): lambda mu: mu / 6 * B ** 2 + (2 - mu) / 3 * E4 * A ** 2,
    }
    gens = dict(zip(("E4", "E6", "A", "B"), GENERATORS))
    ok = True
    for mu in (F(0), F(1), F(-3), F(7, 2)):
        family = orc(mu)
        for (fn, gn), expected in table.items():
            ok = ok and bracket_n(family, 1, gens[fn], gens[gn]) == expected(mu)
        for g in GENERATORS:
            ok = ok and bracket_n(family, 1, g, g) == ZERO
    assert _stamp(3, "all displayed first-bracket generator values reproduced exactly", ok)


def _criterion_4_families():
    for a, b, c in itertools.product(PARAM_SAMPLES, repeat=3):
        yield accol(a, b, c)
    for x, c in itertools.product(PARAM_SAMPLES, repeat=2):
        yield crochet(x, c)
    for x, c in itertools.product(PARAM_SAMPLES, repeat=2):
        yield scal(x, c)
    for u, v in itertools.product(PARAM_SAMPLES, repeat=2):
        yield rc_localized(u, v)


def test_criterion_04_associativity_of_every_family():
    start = time.perf_counter()
    ok = True
    count = 0
    for family in _criterion_4_families():
        report = check_associativity(family, 4)
        ok = ok and report.passed
        count += 1
    elapsed = time.perf_counter() - start
    ok = ok and count == 6 ** 3 + 3 * 6 ** 2 and elapsed < 120.0
    assert _stamp(4, f"associativity for n <= 4 over {count} parameter choices", ok, elapsed)


def test_criterion_05_bidegree_law_on_random_pairs():
    rng = random.Random(5)
    ok = True
    for family in (
        accol(F(1), F(-1, 6), F(7, 5)),
        crochet(F(1, 12), F(1)),
        scal(F(-1, 3), F(-1, 6)),
        rc_localized(F(1, 12), F(7, 5)),
    ):
        pairs = [(random_homogeneous(rng), random_homogeneous(rng)) for _ in range(50)]
        ok = ok and check_bidegree_law(family, 4, pairs).passed
    assert _stamp(5, "bracket bidegree law on 50 random homogeneous pairs per family", ok)


def test_criterion_06_serre_vs_classical_bracket_relation():
    ok = True
    for f, g in ((E4, E4), (E4, E6), (E6, E6)):
        k = f.bidegree().weight
        l = g.bidegree().weight
        ok = ok and bracket_n(src(), 1, f, g) == rc_classical(1, f, g)
        correction = F(1, 288) * k * l * (k + l + 2) * f * g * E4
        ok = ok and bracket_n(src(), 2, f, g) == rc_classical(2, f, g) + correction
    assert _stamp(6, "order-two bracket correction (1/288) k l (k+l+2) f g E4 holds exactly", ok)


def test_criterion_07_poisson_atlas():
    samples = [F(1), F(-2), F(7, 5)]
    rows = []
    for x in samples:
        rows.append(family_c1(x))
        rows.append(family_c2(x))
        for y in samples:
            rows.append(family_a(x, y))
            rows.append(family_d(y, x))
            rows.append(family_e(x + y + 1, y))
            for z in samples:
                rows.append(family_b(x, z, y))
    ok = all(all(r == 0 for r in relations_residual(row)) for row in rows)
    ok = ok and all(check_poisson(bracket_from_params(row)).passed for row in rows)

    rng = random.Random(7)
    off_manifold = 0
    while off_manifold < 5:
        tuple_ = PoissonParams.of(*(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(10)))
        if all(r == 0 for r in relations_residual(tuple_)):
            continue
        off_manifold += 1
        report = check_poisson(bracket_from_params(tuple_))
        ok = ok and not report.passed and report.witness["identity"] == "jacobi"
    assert _stamp(7, "atlas rows are Poisson; off-manifold tuples fail Jacobi with witness", ok)


def test_criterion_08_rankin_cohen_shape_round_trip():
    ok = True
    rows = [family_b(1, 1, 0), family_b(F(1, 2), F(-3), F(2, 7)), family_b(F(2, 3), F(4, 3), F(-1, 3))]
    for row in rows:
        bracket = bracket_from_params(row)
        for u in (F(1), F(2), F(-1, 3)):
            kappa, d = rc_shape_extract(row, u)
            for f, g in itertools.combinations(GENERATORS, 2):
                kf, pf = f.bidegree()
                kg, pg = g.bidegree()
                rebuilt = kappa(kf, pf) * f * d(g) - kappa(kg, pg) * g * d(f)
                ok = ok and rebuilt == bracket(f, g)
    # parameter translation, both directions
    for a, b, c in ((F(1, 12), F(-1, 12), F(-1)), (F(-1, 6), F(-1, 3), F(7, 5)), (F(0), F(1), F(1))):
        ok = ok and params_from_mu1(mu1(accol(a, b, c))) == family_b(-4 * a, -4 * b, -c / 3)
        kappa, d = rc_shape_extract(family_b(-4 * a, -4 * b, -c / 3), 1)
        ok = ok and d.on_a == a * B and d.on_b == b * E4 * A and kappa.index_coef == c
    assert _stamp(8, "family-B brackets factor as kappa(f) f d(g) - kappa(g) g d(f), both directions", ok)


def test_criterion_09_stability_dichotomies():
    ok = check_stability(crochet(0, F(7, 5)), "Jtilde", 3).passed
    ok = ok and check_stability(scal(0, F(7, 5)), "Jtilde", 3).passed
    # alpha != 0, c != 0 escapes at order one with the known witness
    ok = ok and not check_stability(crochet(F(1), F(1)), "Jtilde", 1).passed
    f2 = B * A ** -1
    witness1 = bracket_n(crochet(F(1), F(1)), 1, B, E4)
    ok = ok and witness1 == F(-1, 3) * B * E6 + F(1, 3) * A * E4 ** 2 + 4 * B * E4 * f2
    # alpha != 0, c = 0 escapes at order two with the known witness
    ok = ok and not check_stability(crochet(F(1), F(0)), "Jtilde", 2).passed
    witness2 = bracket_n(crochet(F(1), F(0)), 2, E4, E6)
    ok = ok and witness2 == -11 * E4 ** 2 * E6 + 144 * E4 * E6 * f2 ** 2
    # beta != 0 escapes in both regimes
    ok = ok and not check_stability(scal(F(1, 12), F(1)), "Jtilde", 2).passed
    ok = ok and not check_stability(scal(F(1, 12), F(0)), "Jtilde", 2).passed
    # modular subalgebra is stable for the polynomial families
    for a, b, c in ((F(1), F(1), F(1)), (F(-1, 6), F(-1, 3), F(7, 5)), (F(0), F(1, 12), F(0))):
        ok = ok and check_stability(accol(a, b, c), "M", 4).passed
    assert _stamp(9, "polynomial-subalgebra stability holds exactly when the pi component vanishes", ok)


def test_criterion_10_stability_line_facts():
    reports = check_vinset([F(0), F(1, 12), F(-1, 6), F(1)])
    ok = all(r.passed for r in reports) and len(reports) == 3
    # the matching index weight on the line is v = 12u+1 itself
    u = F(1, 12)
    v = 12 * u + 1
    line = rc_localized(u, v)
    matched = accol(F(1, 12), F(-1, 12), v)
    for f in GENERATORS:
        for g in GENERATORS:
            ok = ok and bracket_n(line, 1, f, g) == bracket_n(matched, 1, f, g)
    assert _stamp(10, "stability-line displays, iff grid, and the line identity all hold", ok)


def test_criterion_11_conjecture_scan():
    start = time.perf_counter()
    report = scan_conjecture([F(0), F(1, 12), F(-1, 6), F(1), F(-2)], 3, 12, 2)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 300.0
    pairs = report.params["pairs"]
    assert _stamp(11, f"stability-line scan over {pairs} monomial pairs, n <= 3, stays polynomial", ok, elapsed)


def test_criterion_12_isomorphism_normal_forms():
    rng = random.Random(12)
    ok = True
    for _ in range(5):
        a2 = F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        b2 = F(rng.randint(-9, 9), rng.randint(1, 5))
        c = F(rng.randint(-9, 9), rng.randint(1, 5))
        # a' != 0: conjugate to (1, a'b') by scaling A by a'
        ok = ok and iso_condition(1, a2 * b2, a2, b2, a2, 1)
        ok = ok and normal_form(a2, b2, c) == (1, a2 * b2, c)
        # a' = 0 != b': conjugate to (0, 1) by scaling B by b'
        b3 = b2 if b2 != 0 else F(1)
        ok = ok and iso_condition(0, 1, 0, b3, 1, b3)
        ok = ok and normal_form(0, b3, c) == (0, 1, c)
    ok = ok and normal_form(0, 0, F(3)) == (0, 0, 3)
    assert _stamp(12, "scaling conjugations reach the three normal forms, verified on generators", ok)

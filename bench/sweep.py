"""One sweep of a benchmark workload, run in a fresh process.

A sweep imports jacobiforms, generates the workload's inputs from the
seed, runs its ops one after another (the timed phase), then checks every
output against an answer known independently of the code under test and
runs the independent oracles (outside the timed phase).  It prints one
JSON object describing the sweep.  run.py starts one sweep per process, so
the library's memo caches start empty, as they do for each CLI call.

    python3 bench/sweep.py --workload assoc --seed 1 [--trace] [--quick]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("assoc", "scan", "qseries", "atlas")

# Known answers.  The negative control in test_bench.py flips one of them and
# expects failed ops.
ASSOC_EXPECTED_PASS = True
SCAN_EXPECTED_LAST_LINE = "[PASS] conjecture.scan"
SERIES_EXPECTED_PASS = True
ATLAS_EXPECTED_PASS = True

# Family parameters, atlas parameters and element coefficients are drawn
# from these.  Zero is left out: it deletes terms and makes an op cheaper,
# which would make the work of a sweep depend more on the seed.
PARAM_POOL = tuple(
    Fraction(x) for x in ("1", "-1", "2", "1/2", "-1/2", "1/3", "-1/3", "1/6", "-1/6", "1/12", "-1/12", "7/5", "-3/4")
)
# The stability-line u values of the acceptance scan (criterion 11).
SCAN_U_POOL = (Fraction(0), Fraction(1, 12), Fraction(-1, 6), Fraction(1), Fraction(-2))


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # Returns None when the output matches the known answer, else why not.
    verdict: Callable[[Any], Optional[str]]
    checks: int  # identities or coefficients the verdict rests on
    oracles: list = field(default_factory=list)  # callables result -> None | reason
    prepare: Optional[Callable[[], None]] = None  # runs just before run, untimed


@dataclass
class Sizes:
    families_per_kind: int = 4
    assoc_nmax: int = 4
    scan_u: int = 5
    scan_weight_cap: int = 10
    scan_nmax: int = 3
    q_orders: tuple = (8, 12, 16)
    atlas_rows_per_family: int = 2
    atlas_off_rows: int = 3


QUICK = Sizes(
    families_per_kind=1,
    assoc_nmax=2,
    scan_u=3,
    scan_weight_cap=6,
    scan_nmax=2,
    q_orders=(6,),
    atlas_rows_per_family=1,
    atlas_off_rows=1,
)


def _import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import jacobiforms

    import_ns = time.perf_counter_ns() - start
    location = Path(jacobiforms.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"jacobiforms was imported from {location}, not from {SRC}")
    return import_ns


def _draw(rng: random.Random) -> Fraction:
    return rng.choice(PARAM_POOL)


def _memos() -> dict:
    from jacobiforms import brackets, derivations, qseries

    return {
        "derivations.iterate": derivations._iterate,
        "brackets.gbinom": brackets.gbinom,
        "qseries.generator_power": qseries._generator_power,
    }


# Per memo: hits, misses and largest size, summed over the times
# _clear_memos() emptied it (clearing also resets cache_info()).
_retired: dict = {}


def _memo_stats() -> dict:
    """Hits, misses and largest size of each memo over the whole sweep."""
    stats = {}
    for name, memo in _memos().items():
        info = memo.cache_info()
        hits, misses, largest = _retired.get(name, (0, 0, 0))
        stats[name] = (hits + info.hits, misses + info.misses, max(largest, info.currsize))
    return stats


def _clear_memos() -> None:
    """Empty the library's memos, as a fresh jacobiforms process has them,
    keeping their statistics for the per-layer metrics."""
    import jacobiforms

    _retired.update(_memo_stats())
    jacobiforms.clear_caches()


# ------------------------------------------------------------------ assoc


def assoc_ops(rng: random.Random, sizes: Sizes) -> list[Op]:
    """check_associativity on the generators for seeded families.

    Known answer: every family passes, since Connes-Moscovici associativity
    holds for any admissible derivation.  Oracle: bracket_n agrees with the
    Pochhammer-form cm_bracket on sampled generator pairs.
    """
    import jacobiforms as jf

    kinds = {
        "accol": (jf.accol, 3),
        "crochet": (jf.crochet, 2),
        "scal": (jf.scal, 2),
        "rc_localized": (jf.rc_localized, 2),
    }
    draws = [kind for kind in kinds for _ in range(sizes.families_per_kind)]
    rng.shuffle(draws)
    nmax = sizes.assoc_nmax
    generators = len(jf.GENERATORS)
    ops = []
    for kind in draws:
        build, arity = kinds[kind]
        params = [_draw(rng) for _ in range(arity)]
        family = build(*params)
        pairs = [(rng.randrange(generators), rng.randrange(generators)) for _ in range(3)]

        def bracket_routes_agree(_result, family=family, pairs=pairs):
            for i, j in pairs:
                f, g = jf.GENERATORS[i], jf.GENERATORS[j]
                for n in range(nmax + 1):
                    if jf.bracket_n(family, n, f, g) != jf.cm_bracket(family.derivation, family.c, n, f, g):
                        return f"bracket_n != cm_bracket at n={n} on ({f}, {g})"
            return None

        ops.append(
            Op(
                name=f"{kind}({','.join(map(str, params))})",
                run=lambda family=family: jf.check_associativity(family, nmax),
                verdict=lambda report: None if report.passed == ASSOC_EXPECTED_PASS else f"status {report.status}",
                checks=generators ** 3 * nmax,
                oracles=[bracket_routes_agree],
            )
        )
    return ops


# ------------------------------------------------------------------- scan


def jtilde_monomial_count(weight_cap: int, index_cap: int) -> int:
    """Monomials E4^i E6^j A^a B^b (a, b >= 0) with a + b <= index_cap and
    weight 4i + 6j - 2a <= weight_cap, counted directly."""
    count = 0
    for a in range(index_cap + 1):
        for b in range(index_cap - a + 1):
            budget = weight_cap + 2 * a
            count += sum(1 for i in range(budget // 4 + 1) for j in range((budget - 4 * i) // 6 + 1))
    return count


def scan_ops(rng: random.Random, sizes: Sizes) -> list[Op]:
    """The scan-conjecture CLI command, in process, one op per u.

    Each op is one CLI invocation, so it starts from empty memos, as a
    fresh jacobiforms process does; this also makes an op's cost the same
    whatever the seeded order of the u values.

    Known answer: on the stability line v = 12u + 1 every bracket of two
    capped monomials stays in C[E4,E6,A,B], so every row reads
    in_Jtilde=true, the row count is (monomials)^2 * (nmax + 1), and the
    scan passes.
    """
    from jacobiforms import cli

    u_values = list(SCAN_U_POOL)
    rng.shuffle(u_values)
    cap, nmax = sizes.scan_weight_cap, sizes.scan_nmax
    rows = jtilde_monomial_count(cap, 2) ** 2 * (nmax + 1)
    ops = []
    for u in u_values[: sizes.scan_u]:
        argv = ["scan-conjecture", f"--u={u}", "--nmax", str(nmax), "--weight-cap", str(cap), "--index-cap", "2"]

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def verdict(result, u=u):
            code, text = result
            lines = text.splitlines()
            if code != 0:
                return f"exit code {code}"
            if not lines or lines[-1] != SCAN_EXPECTED_LAST_LINE:
                return f"last line {lines[-1:]!r}"
            body = lines[:-1]
            if len(body) != rows:
                return f"{len(body)} rows, expected {rows}"
            prefix = f"u={u} v={12 * u + 1} n="
            for line in body:
                if not line.startswith(prefix) or not line.endswith(" in_Jtilde=true"):
                    return f"row {line!r}"
            return None

        ops.append(Op(name=f"u={u}", run=run, verdict=verdict, checks=rows, prepare=_clear_memos))
    return ops


# ---------------------------------------------------------------- qseries


def ramanujan_tau(count: int) -> list[int]:
    """Coefficients of q^0..q^(count-1) of q * prod_{n>=1} (1 - q^n)^24,
    in plain integers."""
    prod = [1] + [0] * (count - 1)
    for n in range(1, count):
        for _ in range(24):
            for k in range(count - 1, n - 1, -1):
                prod[k] -= prod[k - n]
    return [0] + prod[: count - 1]


def eichler_zagier_mismatch(series, index: int) -> Optional[str]:
    """c(n, r) of an index-m Jacobi form depends only on 4nm - r^2 and on
    r mod 2m, and vanishes when 4nm - r^2 < -m^2 (weak forms).

    Coefficients are stored by w-exponent with w^2 = xi, so r = exponent/2.
    """
    m = index
    seen: dict = {}
    for n in range(series.q_order + 1):
        poly = series.coefficient(n)
        for w, c in poly.items():
            if w % 2 or (w // 2) ** 2 > 4 * n * m + m * m:
                return f"c({n}, w^{w}) = {c} outside the index-{m} support"
        r = 0
        while r * r <= 4 * n * m + m * m:
            for rr in {r, -r}:
                key = (4 * n * m - rr * rr, rr % (2 * m))
                c = poly.coefficient(2 * rr)
                if seen.setdefault(key, (c, n, rr))[0] != c:
                    return f"c({n}, {rr}) = {c} but c{seen[key][1:]} = {seen[key][0]}"
            r += 1
    return None


def _homogeneous(rng: random.Random, weight: int, index: int):
    """Seeded combination of every monomial of C[E4,E6,A,B] of the bidegree."""
    from jacobiforms import BigradedElement

    terms = {}
    for a in range(index + 1):
        rest = weight + 2 * a
        for i in range(rest // 4 + 1):
            if (rest - 4 * i) % 6 == 0:
                terms[(i, (rest - 4 * i) // 6, a, index - a)] = _draw(rng)
    return BigradedElement(terms)


# Bidegrees (weight, index) of the elements evaluated at each truncation.
SERIES_BIDEGREES = ((4, 1), (0, 2), (4, 2))


def qseries_ops(rng: random.Random, sizes: Sizes) -> list[Op]:
    """Bundles, evaluation, series consistency and Delta at seeded orders.

    Known answers: the Oberdieck derivation matches the Fourier-side
    operator (series_consistency passes); Delta equals Ramanujan's product.
    Oracle: Eichler-Zagier invariance on every evaluated series and on the
    bundle's A and B.
    """
    import jacobiforms as jf

    orders = list(sizes.q_orders)
    rng.shuffle(orders)
    ops = []
    for order in orders:
        state = {}

        def make(order=order, state=state):
            state["bundle"] = jf.make_bundle(order, 3 * order)
            return state["bundle"]

        def generators_invariant(bundle):
            return eichler_zagier_mismatch(bundle.a, 1) or eichler_zagier_mismatch(bundle.b, 1)

        ops.append(Op(f"make_bundle({order})", make, lambda bundle: None, 0, [generators_invariant]))
        for weight, index in SERIES_BIDEGREES:
            f = _homogeneous(rng, weight, index)
            ops.append(
                Op(
                    f"series_consistency({f})@{order}",
                    lambda f=f, state=state: jf.series_consistency(state["bundle"], elements=[f]),
                    lambda report: None if report.passed == SERIES_EXPECTED_PASS else f"status {report.status}",
                    order + 1,
                )
            )
            ops.append(
                Op(
                    f"evaluate({f})@{order}",
                    lambda f=f, state=state: jf.evaluate(f, state["bundle"]),
                    lambda series, order=order: None if series.q_order == order else "wrong q order",
                    0,
                    [lambda series, index=index: eichler_zagier_mismatch(series, index)],
                )
            )

        def delta_matches(series, order=order):
            tau = ramanujan_tau(order + 1)
            for n in range(order + 1):
                poly = series.coefficient(n)
                if dict(poly.items()) != ({0: tau[n]} if tau[n] else {}):
                    return f"q^{n} coefficient differs from tau({n}) = {tau[n]}"
            return None

        ops.append(
            Op(f"delta_series@{order}", lambda state=state: jf.delta_series(state["bundle"]), lambda s: None, 0, [delta_matches])
        )
    return ops


# ------------------------------------------------------------------ atlas


def _atlas_row(rng: random.Random, label: str):
    from jacobiforms import classifier as cl

    build, arity = {
        "A": (cl.family_a, 2),
        "B": (cl.family_b, 3),
        "C1": (cl.family_c1, 1),
        "C2": (cl.family_c2, 1),
        "D": (cl.family_d, 2),
        "E": (cl.family_e, 2),
    }[label]
    while True:
        try:
            return build(*(_draw(rng) for _ in range(arity)))
        except ValueError:
            continue  # a parameter value the family excludes: draw again


ATLAS_LABELS = ("A", "B", "C1", "C2", "D", "E")


def atlas_ops(rng: random.Random, sizes: Sizes) -> list[Op]:
    """Residuals, classification and the Poisson check for one row per op.

    Known answers: rows of families A..E satisfy the thirteen relations,
    carry their family label and are Poisson.  Off-manifold rows are atlas
    rows with xi moved by a nonzero amount, which breaks the relation
    alpha*mu = 2*xi: their residuals are nonzero, no label fits, and the
    Poisson check fails on the Jacobi identity.
    """
    from jacobiforms import classifier, verifier

    basis = verifier.monomial_basis(4, 1)
    rows = [(label, _atlas_row(rng, label), True) for label in ATLAS_LABELS for _ in range(sizes.atlas_rows_per_family)]
    for _ in range(sizes.atlas_off_rows):
        label = rng.choice(ATLAS_LABELS)
        values = list(_atlas_row(rng, label).as_tuple())
        values[8] += _draw(rng)
        rows.append((label, classifier.PoissonParams.of(*values), False))
    rng.shuffle(rows)
    identities = len(basis) ** 2 + 2 * len(basis) ** 3
    ops = []
    for label, row, on_manifold in rows:

        def run(row=row):
            return (
                classifier.relations_residual(row),
                classifier.classify(row),
                verifier.check_poisson(classifier.bracket_from_params(row), basis),
            )

        def verdict(result, label=label, on_manifold=on_manifold):
            residuals, labels, report = result
            names = [x.name for x in labels]
            if on_manifold:
                if any(residuals) or label not in names or report.passed != ATLAS_EXPECTED_PASS:
                    return f"row {label}: residuals {residuals}, labels {names}, status {report.status}"
            elif not any(residuals) or names or report.passed or report.witness["identity"] != "jacobi":
                return f"off-manifold near {label}: labels {names}, status {report.status}"
            return None

        name = f"{label}{'' if on_manifold else '-off'}{tuple(map(str, row.as_tuple()))}"
        ops.append(Op(name, run, verdict, 13 + (identities if on_manifold else 1)))
    return ops


BUILDERS = {"assoc": assoc_ops, "scan": scan_ops, "qseries": qseries_ops, "atlas": atlas_ops}


# ------------------------------------------------------------------ sweep


def _layer_metrics(snapshot: dict, import_ns: int) -> dict:
    """Per-layer metrics of the timed phase; memo statistics are read from
    the caches' cache_info() as the phase ends, plus what _clear_memos()
    kept of them."""
    memos = _memo_stats()

    def ratio(name):
        hits, misses, _ = memos[name]
        return hits / (hits + misses) if hits + misses else 0.0

    out = {}
    for name, (calls, total_ns, self_ns) in snapshot["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.ms"] = total_ns / 1e6
        out[f"{name}.self_ms"] = self_ns / 1e6
    out.update(snapshot["counters"])
    out["derivations.iterate.hit_ratio"] = ratio("derivations.iterate")
    out["derivations.iterate.cache_entries"] = memos["derivations.iterate"][2]
    out["brackets.gbinom.hit_ratio"] = ratio("brackets.gbinom")
    out["qseries.generator_power.hit_ratio"] = ratio("qseries.generator_power")
    out["import.ms"] = import_ns / 1e6
    return out


def run_sweep(workload: str, seed: int, trace: bool = False, quick: bool = False) -> dict:
    import_ns = _import_library()
    _retired.clear()
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng, QUICK if quick else Sizes())
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = time.perf_counter_ns
    results = []
    first_op = time.monotonic_ns()
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        begin = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op; the sweep goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        results.append((result, error, clock() - begin))
    wall_ns = sum(lat for _, _, lat in results)  # prepare steps are not part of it
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = _layer_metrics(tracer.snapshot(), import_ns) if tracer else None

    failures = []
    stdout_sha = {}
    stdout_bytes = 0
    for op, (result, error, _) in zip(ops, results):
        reason = error
        if reason is None:
            reason = op.verdict(result)
            for oracle in op.oracles:
                reason = reason or oracle(result)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
        if workload == "scan" and error is None:
            data = result[1].encode()
            stdout_bytes += len(data)
            stdout_sha[op.name] = hashlib.sha256(data).hexdigest()

    out = {
        "first_op_monotonic_ns": first_op,
        "wall_ns": wall_ns,
        "op_ns": [lat for _, _, lat in results],
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "checks": sum(op.checks for op in ops),
        "peak_rss_kib": rss_kib,
        "stdout_sha256": stdout_sha,
    }
    if tracer:
        layers["cli.stdout_bytes"] = stdout_bytes
        # cm_bracket runs only in the assoc oracle, after the timed phase.
        layers["brackets.cm_bracket.ms"] = tracer.spans["brackets.cm_bracket"][1] / 1e6
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_sweep(args.workload, args.seed, args.trace, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: expand, bracket, deriv, verify, classify, iso, scan-conjecture.
All numbers on the command line are exact rationals written p/q; nothing is
ever parsed as floating point.  Output is deterministic for a fixed
configuration and seed.  Exit codes: 0 all checks passed, 1 a check failed,
2 usage error, 3 an internal invariant was violated.  expand accepts
truncation orders 0 <= N <= 200, windows 1 <= G <= 1000 and element
exponents of size at most 8; bracket accepts orders 0 <= n <= 300 and deriv
powers 0 <= power <= 300, the depth of one power sequence; verify
and scan-conjecture bound their sizes by VERIFY_LIMITS and SCAN_LIMITS, the
associativity suite its basis size times nmax by MAX_ASSOCIATIVITY_SIZE, and
scan-conjecture its rows, basis pairs times (nmax + 1) per u, by
MAX_SCAN_SIZE.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import brackets, classifier, derivations, qseries, verifier
from .elements import (
    SUBALGEBRA_GENERATORS,
    BidegreeError,
    BigradedElement,
    InternalInvariantError,
    ParseError,
    format_element,
    parse_element,
    to_json_dict,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(Exception):
    """An input out of range; not a ValueError, so argparse passes it on."""


def _rational(text: str) -> Fraction:
    try:
        if not text.isascii():  # Fraction reads any Unicode decimal digit
            raise ValueError(text)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational: {text!r}")


def _integer(text: str) -> int:
    """The type of the integer options: int, which reads any Unicode decimal
    digit, of ASCII text only; argparse's own line for non-integers."""
    if not text.isascii():
        raise UsageError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip() != ""]


def _u_values(text: str) -> list[Fraction]:
    """The --u list, which must name at least one value."""
    u_values = _rational_list(text)
    if not u_values:
        raise UsageError("--u needs at least one value")
    return u_values


def _element(text: str, allow_f2: bool) -> BigradedElement:
    try:
        return parse_element(text, allow_f2=allow_f2)
    except (ParseError, BidegreeError) as exc:
        raise UsageError(f"bad element {text!r}: {exc}")


def _emit_element(value: BigradedElement, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_json_dict(value), sort_keys=True))
    else:
        print(format_element(value))


def _with_reproduce(reports, argv):
    """Add to each witness the command line that reproduces it; return the
    reports."""
    for r in reports:
        if r.witness is not None:
            r.witness.setdefault("reproduce", "jacobiforms " + " ".join(argv))
    return reports


def _emit_reports(reports, as_json: bool) -> bool:
    if as_json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            data = r.to_json_dict()
            print(f"[{r.status.upper():4s}] {r.claim} {json.dumps(data['params'], sort_keys=True)}")
            if r.witness is not None:
                print(f"        witness: {json.dumps(data['witness'], sort_keys=True)}")
    return all(r.passed for r in reports)


# ------------------------------------------------- families and derivations

# Name -> builder; a builder's positional parameters are the values the
# name takes.  "Crochet" is rc_localized, distinct from "crochet".
_FAMILIES = {
    "accol": brackets.accol,
    "orc": brackets.orc,
    "src": brackets.src,
    "crochet": brackets.crochet,
    "scal": brackets.scal,
    "Crochet": brackets.rc_localized,
}

_DERIVATIONS = {
    name: getattr(derivations, name)
    for name in ("serre", "oberdieck", "sharp", "flat", "pi", "d_alpha", "delta_beta", "partial_u", "serre_ab")
}


def _build(kind: str, table: dict, name: str, params: list[Fraction]):
    """The named family or derivation, checking the parameter count."""
    if name not in table:
        raise UsageError(f"unknown {kind} {name!r}")
    builder = table[name]
    arity = len(inspect.signature(builder).parameters)
    if len(params) != arity:
        raise UsageError(f"{kind} {name} takes {arity} parameters, got {len(params)}")
    return builder(*params)


# -------------------------------------------------------------- subcommands


def _check_sizes(args, limits: dict, low: int = 0) -> None:
    """The one bound rule of size options: reject one above its bound or
    below low (0, where a negative size would make the checks vacuous)."""
    for name, limit in limits.items():
        value = getattr(args, name)
        if value is not None and not low <= value <= limit:
            raise UsageError(f"--{name.replace('_', '-')} must be between {low} and {limit}, got {value}")


def _check_product(command: str, limit: int, factors: dict) -> None:
    """The bound rule of sizes that multiply: reject a product of the named
    factors above limit."""
    if math.prod(factors.values()) > limit:
        names, values = " * ".join(factors), " * ".join(map(str, factors.values()))
        raise UsageError(f"{command} needs {names} <= {limit}, got {values}")


# Largest truncation order and window expand accepts; a series product costs
# about N^2 times the squared row width, so larger values run for minutes.
# The row width grows with the index, so --element exponents are bounded too.
MAX_Q_ORDER = 200
MAX_WINDOW = 1000
MAX_ELEMENT_EXPONENT = 8

# Named expand targets -> series at truncation order N and window G.  Every
# target is exact but J1, whose q^0 row is cut after w^(-2G): expand prints
# that truncation after its rows.
_EXPANSIONS = {
    "E2": lambda n, window: qseries.eisenstein(2, n),
    "E4": lambda n, window: qseries.eisenstein(4, n),
    "E6": lambda n, window: qseries.eisenstein(6, n),
    "A": lambda n, window: qseries.theta_quotient_A(n),
    "B": lambda n, window: qseries.b_series(n),
    "J1": qseries.j1_series,
    "J2": lambda n, window: qseries.j2_series(n),
    "Delta": lambda n, window: Fraction(1, 1728) * (qseries.eisenstein(4, n) ** 3 - qseries.eisenstein(6, n) ** 2),
}


def _cmd_expand(args) -> int:
    _check_sizes(args, {"N": MAX_Q_ORDER})
    _check_sizes(args, {"G": MAX_WINDOW}, low=1)
    n, window = args.N, args.G
    f = None
    if args.what == "element":
        if not args.element:
            raise UsageError("--what element requires --element")
        f = _element(args.element, args.allow_f2)
        if any(abs(e) > MAX_ELEMENT_EXPONENT for m in f.terms() for e in m):
            raise UsageError(f"--element exponents must be at most {MAX_ELEMENT_EXPONENT} in size, got {args.element!r}")
    if f is None:
        series = _EXPANSIONS[args.what](n, window)
    else:
        try:
            series = qseries.evaluate(f, qseries.make_bundle(n, window))
        except ValueError as exc:  # negative A exponents
            raise UsageError(str(exc)) from exc
    if args.json:
        payload = {
            str(order): [
                {"w": r, "coeff": str(c)} for r, c in sorted(series.coefficient(order).items())
            ]
            for order in range(series.q_order + 1)
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for order in range(series.q_order + 1):
            print(f"q^{order}: {qseries.format_wpoly(series.coefficient(order))}")
        if args.what == "J1":
            print(f"# window: coefficients exact for |w-exponent| <= {window}")
    return 0


# Largest --n of bracket and --power of deriv: each sets the depth of one
# power sequence, one more application of the derivation per step, and the
# terms of a power grow with it.
MAX_POWER = 300


def _cmd_bracket(args) -> int:
    params = _rational_list(args.params)
    _check_sizes(args, {"n": MAX_POWER})
    f = _element(args.f, args.allow_f2)
    g = _element(args.g, args.allow_f2)
    if args.family == "rc":
        if len(params):
            raise UsageError("family rc takes no parameters")
        try:
            value = brackets.rc_classical(args.n, f, g)
        except ValueError as exc:  # an input outside C[E4, E6]
            raise UsageError(str(exc)) from exc
    else:
        value = brackets.bracket_n(_build("family", _FAMILIES, args.family, params), args.n, f, g)
    _emit_element(value, args.json)
    return 0


def _cmd_deriv(args) -> int:
    params = _rational_list(args.param)
    _check_sizes(args, {"power": MAX_POWER})
    d = _build("derivation", _DERIVATIONS, args.name, params)
    f = _element(args.input, args.allow_f2)
    value = derivations.iterate(d, args.power, f)
    _emit_element(value, args.json)
    return 0


# Largest sizes verify and scan-conjecture accept: one at its bound, the
# others at their defaults, runs in at most about a minute and a half (README).
VERIFY_LIMITS = {"nmax": 16, "pairs": 1000, "weight_cap": 12, "index_cap": 3}
SCAN_LIMITS = {"nmax": 12, "weight_cap": 32, "index_cap": 6}
# Sizes multiply: the associativity suite costs about (basis size * nmax)^3,
# so that product is bounded too, at the 53 monomials of --index-cap 3 times
# the default --nmax 3.  The suite checks about half the ordered triples, which
# halves the cost but not its growth.  The Poisson suite ignores --nmax.
MAX_ASSOCIATIVITY_SIZE = 53 * 3
# The scan prints a row per basis pair, order and u, so their product is
# bounded, at the 193 monomials of --weight-cap 32 (or --index-cap 6) squared
# times the default --nmax 2 plus one, for one u.  A row costs more at a
# larger --nmax: the slowest accepted shapes run about 17 s (README).
MAX_SCAN_SIZE = 193 ** 2 * 3


def _cmd_verify(args) -> int:
    _check_sizes(args, VERIFY_LIMITS)
    params = _rational_list(args.params)
    rng = random.Random(args.seed)
    if args.suite == "vinset":
        u_values = _u_values(args.u) if args.u else [Fraction(0), Fraction(1, 12), Fraction(-1, 6), Fraction(1)]
        reports = verifier.check_vinset(u_values)
    else:
        if not args.family:
            raise UsageError(f"suite {args.suite} requires --family")
        fam = _build("family", _FAMILIES, args.family, params)
        tag = f"{args.family}[{','.join(str(p) for p in params)}]"
        weight_cap = args.weight_cap if args.weight_cap is not None else 8
        index_cap = args.index_cap if args.index_cap is not None else 2
        capped = args.weight_cap is not None or args.index_cap is not None
        # --algebra names the subalgebra of the stability suite only
        algebra = args.algebra if args.suite == "stability" else "Jtilde"
        basis = verifier.monomial_basis(weight_cap, index_cap, algebra) if capped else None
        if args.suite == "associativity":
            size = len(basis or verifier.GENERATORS)
            _check_product("associativity", MAX_ASSOCIATIVITY_SIZE, {"basis size": size, "--nmax": args.nmax})
            report = verifier.check_associativity(fam, args.nmax, basis, claim=f"associativity.{tag}")
        elif args.suite == "poisson":
            report = verifier.check_poisson(brackets.mu1(fam), basis, claim=f"poisson.{tag}")
        elif args.suite == "bidegree":
            pairs = [
                (
                    verifier.random_homogeneous(rng, weight_cap, index_cap),
                    verifier.random_homogeneous(rng, weight_cap, index_cap),
                )
                for _ in range(args.pairs)
            ]
            report = verifier.check_bidegree_law(fam, args.nmax, pairs, claim=f"bidegree.{tag}")
        else:
            report = verifier.check_stability(fam, args.algebra, args.nmax, basis, claim=f"stability.{args.algebra}.{tag}")
        reports = [report]
    return 0 if _emit_reports(_with_reproduce(reports, args._argv), args.json) else 1


def _cmd_classify(args) -> int:
    values = _rational_list(args.params)
    if len(values) != 10:
        raise UsageError("classify takes ten comma-separated rationals")
    p = classifier.PoissonParams.of(*values)
    residuals = classifier.relations_residual(p)
    labels = classifier.classify(p)
    payload = {
        "residuals": [str(r) for r in residuals],
        "admissible": all(r == 0 for r in residuals),
        "families": [
            {"name": label.name, "free": {k: str(v) for k, v in label.free}} for label in labels
        ],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"admissible: {payload['admissible']}")
        print(f"families: {', '.join(f['name'] for f in payload['families']) or '(none)'}")
        if not payload["admissible"]:
            nonzero = [f"r{i + 1}={r}" for i, r in enumerate(residuals) if r != 0]
            print(f"nonzero residuals: {', '.join(nonzero)}")
    return 0


def _cmd_iso(args) -> int:
    src_triple = _rational_list(args.from_params)
    dst_triple = _rational_list(args.to_params)
    if len(src_triple) != 3 or len(dst_triple) != 3:
        raise UsageError("iso takes --from a,b,c and --to a2,b2,c2")
    flag, scaling = classifier.modular_isomorphic(dst_triple, src_triple)
    payload = {
        "isomorphic": flag,
        "scaling": [str(s) for s in scaling] if scaling else None,
        "normal_form_from": [str(x) for x in classifier.normal_form(*src_triple)],
        "normal_form_to": [str(x) for x in classifier.normal_form(*dst_triple)],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        scaling_text = f"(lam, mu) = ({payload['scaling'][0]}, {payload['scaling'][1]})" if scaling else "none"
        print(f"isomorphic: {str(flag).lower()}")
        print(f"scaling: {scaling_text}")
    return 0


def _cmd_scan(args) -> int:
    _check_sizes(args, SCAN_LIMITS)
    u_values = _u_values(args.u)
    pairs = len(verifier.monomial_basis(args.weight_cap, args.index_cap)) ** 2
    _check_product("scan-conjecture", MAX_SCAN_SIZE, {"basis pairs": pairs, "(--nmax + 1)": args.nmax + 1, "--u values": len(u_values)})
    report = verifier.scan_conjecture(u_values, args.nmax, args.weight_cap, args.index_cap)
    _with_reproduce([report], args._argv)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        write = sys.stdout.write  # one call per row, where print makes two
        last_u = last_v = prefix = None
        for u, v, n, f, g, inside in report.details or []:
            if u is not last_u or v is not last_v:  # the rows of one u share its u and v
                last_u, last_v, prefix = u, v, f"u={u} v={v}"
            write(f"{prefix} n={n} f=({f}) g=({g}) in_Jtilde={'true' if inside else 'false'}\n")
        print(f"[{report.status.upper():4s}] {report.claim}")
    return 0 if report.passed else 1


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobiforms",
        description="Exact Rankin-Cohen deformations on weak Jacobi forms",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=_integer, default=0, help="seed for random sampling")
    common.add_argument("--allow-f2", action="store_true", help="accept F2 in element text, rewriting it as B*A^-1")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="q-expansions of the generators")
    p.add_argument("--what", required=True, choices=[*_EXPANSIONS, "element"])
    p.add_argument("--element", default=None)
    p.add_argument("--N", type=_integer, default=10)
    p.add_argument("--G", type=_integer, default=24)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bracket", parents=[common], help="evaluate one bracket of a family")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES) + ["rc"])
    p.add_argument("--params", default="")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("deriv", parents=[common], help="apply a named derivation")
    p.add_argument("--name", required=True, choices=sorted(_DERIVATIONS))
    p.add_argument("--param", default="")
    p.add_argument("--input", required=True)
    p.add_argument("--power", type=_integer, default=1)
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["associativity", "poisson", "bidegree", "stability", "vinset"])
    p.add_argument("--family", default=None, choices=sorted(_FAMILIES))
    p.add_argument("--params", default="")
    p.add_argument("--nmax", type=_integer, default=3)
    p.add_argument("--pairs", type=_integer, default=50)
    p.add_argument("--weight-cap", type=_integer, default=None)
    p.add_argument("--index-cap", type=_integer, default=None)
    p.add_argument("--algebra", default="Jtilde", choices=list(SUBALGEBRA_GENERATORS))
    p.add_argument("--u", default="")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="classify a ten-parameter bracket")
    p.add_argument("--params", required=True, help="alpha,beta,gamma,delta,lambda,mu,theta,epsilon,xi,eta")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("iso", parents=[common], help="decide conjugacy of two (a,b,c) families")
    p.add_argument("--from", dest="from_params", required=True)
    p.add_argument("--to", dest="to_params", required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("scan-conjecture", parents=[common], help="membership scan on the stability line")
    p.add_argument("--u", required=True)
    p.add_argument("--nmax", type=_integer, default=2)
    p.add_argument("--weight-cap", type=_integer, default=8)
    p.add_argument("--index-cap", type=_integer, default=2)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = list(argv) if argv is not None else sys.argv[1:]
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except (UsageError, BidegreeError) as exc:  # an input, or a result of one, out of range
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


class _StdoutUntilClosed:
    """stdout until its reader closes early (`| head`); from then on file
    descriptor 1 is os.devnull, as the Python docs on SIGPIPE advise, so
    the command finishes quietly with its own exit status."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def _quietly(self, method, *args):
        try:
            method(*args)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), self._stream.fileno())

    def write(self, text):
        self._quietly(self._stream.write, text)

    def flush(self):
        self._quietly(self._stream.flush)


def entrypoint() -> None:
    sys.stdout = _StdoutUntilClosed(sys.stdout)
    code = main()
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

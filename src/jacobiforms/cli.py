"""Command line front end.

Subcommands: expand, bracket, deriv, verify, classify, iso, scan-conjecture.
Every command takes --json; verify alone takes --seed, the seed of its
bidegree suite; expand, bracket and deriv, the commands that read element
text, take --allow-f2.  All numbers on the command line are exact rationals
written p or p/q, at most MAX_DIGITS digits above and below the line (100 in
element text); nothing is ever parsed as floating point.  Output is
deterministic for a fixed configuration and seed.  Exit codes: 0 all checks
passed, 1 a check failed, 2 usage error, 3 an internal invariant was
violated.  main checks every size option against its (least, largest) range
in SIZE_RANGES, and runs expand, bracket and deriv, whose cost depends on
their element text, under WORK_BUDGET, a count of the multiply-adds of the
kernel's product loop: past it a command exits 2 with nothing on stdout.
Sizes that multiply are bounded by the commands: in bracket and deriv, the
depth of one power sequence times the digits of the parameters and of the
largest input exponent, by MAX_PARAMETER_SIZE; in the associativity suite,
its basis size times nmax, by MAX_ASSOCIATIVITY_SIZE; in scan-conjecture,
its rows, basis pairs times (nmax + 1) per u, by MAX_SCAN_SIZE.  The
vinset suite accepts at most MAX_VINSET_U_VALUES --u values, and expand
element exponents of size at most MAX_ELEMENT_EXPONENT.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import math
import os
import random
import re
import shlex
import sys
from fractions import Fraction

from . import brackets, classifier, derivations, qseries, verifier
from .elements import (
    SUBALGEBRA_GENERATORS,
    BidegreeError,
    BigradedElement,
    BudgetExceeded,
    InternalInvariantError,
    ParseError,
    format_element,
    parse_element,
    to_json_dict,
    work_budget,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(Exception):
    """An input out of range; not a ValueError, so argparse passes it on."""


# The most digits above and below the line of a rational option: at 12
# the slowest verify run took twice as long as with small parameters, at 21
# over three times (README).
MAX_DIGITS = 12
# p or p/q in ASCII digits, q not zero; Fraction also reads any Unicode
# digit, decimals and exponents ("1e999999999", a billion digits)
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?")
# An error line quotes at most this many characters of command-line text
MAX_ECHO = 240


def _echo(text: str) -> str:
    return repr(text) if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def _rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise UsageError(f"not a rational: {_echo(text)}")
    # the digits of the numbers, not of the text: leading zeros go first
    sign, num, den = match.groups()
    num, den = num.lstrip("0") or "0", (den or "1").lstrip("0")
    digits = max(len(num), len(den))
    if digits > MAX_DIGITS:
        raise UsageError(f"a numerator or denominator has at most {MAX_DIGITS} digits, got {digits}")
    return Fraction(int(sign + num), int(den))


def _integer(text: str) -> int:
    """The type of the integer options: [+-]?[0-9]+ in ASCII digits, read
    and bounded by _rational (int also reads other Unicode digits and
    underscores); argparse's own line for other ASCII text."""
    if not text.isascii():
        raise UsageError(f"not an integer: {_echo(text)}")
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}")
    return int(_rational(text))


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip() != ""]


def _u_values(text: str) -> list[Fraction]:
    """The --u list, which must name at least one value."""
    u_values = _rational_list(text)
    if not u_values:
        raise UsageError("--u needs at least one value")
    return u_values


def _largest_exponent(*elements: BigradedElement) -> int:
    """The largest size of an exponent in the monomials of the elements."""
    return max((abs(e) for f in elements for m in f.terms() for e in m), default=0)


def _element(text: str, allow_f2: bool) -> BigradedElement:
    try:
        return parse_element(text, allow_f2=allow_f2)
    except (ParseError, BidegreeError) as exc:
        raise UsageError(f"bad element {_echo(text)}: {exc}")


def _emit_element(value: BigradedElement, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_json_dict(value), sort_keys=True))
    else:
        print(format_element(value))


def _with_reproduce(reports, argv):
    """Add to each witness the command line that reproduces it, quoted for
    a POSIX shell; return the reports."""
    for r in reports:
        if r.witness is not None:
            r.witness.setdefault("reproduce", shlex.join(["jacobiforms", *argv]))
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
    builder = table[name]
    arity = len(inspect.signature(builder).parameters)
    if len(params) != arity:
        raise UsageError(f"{kind} {name} takes {arity} parameters, got {len(params)}")
    return builder(*params)


# -------------------------------------------------------------- subcommands


def _check_sizes(args, ranges: dict) -> None:
    """The one bound rule of size options: reject one outside its
    (least, largest) range."""
    for name, (low, high) in ranges.items():
        value = getattr(args, name)
        if value is not None and not low <= value <= high:
            raise UsageError(f"--{name.replace('_', '-')} must be between {low} and {high}, got {value}")


def _check_product(command: str, limit: int, factors: dict) -> None:
    """The bound rule of sizes that multiply: reject a product of the named
    factors above limit."""
    if math.prod(factors.values()) > limit:
        names, values = " * ".join(factors), " * ".join(map(str, factors.values()))
        raise UsageError(f"{command} needs {names} <= {limit}, got {values}")


# Largest truncation order and window expand accepts; a series product costs
# about N^2 times the squared row width, so larger values run for minutes.
# --element exponents are bounded apart from the work budget, which does not
# see coefficient digits: "A^1000000" at --N 10 ran for over 300 s (README).
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
    if args.what != "element":
        for option in ("element", "allow_f2"):
            if getattr(args, option):
                raise UsageError(f"--what {args.what} does not read --{option.replace('_', '-')}")
        series = _EXPANSIONS[args.what](args.N, args.G)
    elif not args.element:
        raise UsageError("--what element requires --element")
    else:
        f = _element(args.element, args.allow_f2)
        if _largest_exponent(f) > MAX_ELEMENT_EXPONENT:
            raise UsageError(f"--element exponents must be at most {MAX_ELEMENT_EXPONENT} in size, got {_echo(args.element)}")
        try:
            series = qseries.evaluate(f, qseries.make_bundle(args.N))
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
            print(f"# window: coefficients exact for |w-exponent| <= {args.G}")
    return 0


# Largest --n of bracket and --power of deriv, the depth p of one power
# sequence.  The p-th power holds a parameter up to its p-th power and an
# input exponent e as about e^p, and p times the digits of the parameters
# and of the largest exponent is bounded so that every accepted result can
# be printed (README).
MAX_POWER = 300
MAX_PARAMETER_SIZE = 2400


def _check_digits(command: str, option: str, p: int, params: list, *inputs: BigradedElement) -> None:
    """Reject p times the digits of params and of the inputs' largest exponent above MAX_PARAMETER_SIZE."""
    digits = sum(len(str(max(abs(x.numerator), x.denominator))) for x in params) + len(str(_largest_exponent(*inputs)))
    _check_product(command, MAX_PARAMETER_SIZE, {option: p, "(parameter digits + exponent digits)": digits})


def _cmd_bracket(args) -> int:
    f = _element(args.f, args.allow_f2)
    g = _element(args.g, args.allow_f2)
    if args.family == "rc":  # the classical bracket on C[E4, E6]
        if args.params:
            raise UsageError("family rc takes no parameters")
        bracket = brackets.rc_classical
    else:
        bracket = functools.partial(brackets.bracket_n, _build("family", _FAMILIES, args.family, args.params))
    _check_digits("bracket", "--n", args.n, args.params, f, g)
    try:
        value = bracket(args.n, f, g)
    except ValueError as exc:  # an input outside C[E4, E6], or an exponent out of range
        raise UsageError(str(exc)) from exc
    _emit_element(value, args.json)
    return 0


def _cmd_deriv(args) -> int:
    d = _build("derivation", _DERIVATIONS, args.name, args.param)
    f = _element(args.input, args.allow_f2)
    _check_digits("deriv", "--power", args.power, args.param, f)
    value = derivations.iterate(d, args.power, f)
    _emit_element(value, args.json)
    return 0


# Sizes multiply: the associativity suite costs about (basis size * nmax)^3,
# so that product is bounded too, at the 53 monomials of --index-cap 3 times
# the default --nmax 3.  The suite checks about half the ordered triples, which
# halves the cost but not its growth.
MAX_ASSOCIATIVITY_SIZE = 53 * 3
# The scan prints a row per basis pair, order and u, so their product is
# bounded, at the 193 monomials of --weight-cap 32 (or --index-cap 6) squared
# times the default --nmax 2 plus one, for one u.  A row costs more at a
# larger --nmax: the slowest accepted shapes run about 17 s (README).
MAX_SCAN_SIZE = 193 ** 2 * 3
# The vinset suite takes 2.6-3.9 ms per --u value, and each distinct value
# keeps about 13 KiB in the memos: 5,000 values of 12 digits took 15-17 s
# and 85 MiB (README).
MAX_VINSET_U_VALUES = 5000

# The options each verify suite reads.  A suite refuses any other verify
# option whose parsed value is not its default: the values are compared, not
# the argv text, since argparse also accepts abbreviations such as --weight.
_CAPPED_SUITE_OPTIONS = ("family", "params", "nmax", "weight_cap", "index_cap")
SUITE_OPTIONS = {
    "associativity": _CAPPED_SUITE_OPTIONS,
    "poisson": ("family", "params", "weight_cap", "index_cap"),
    "bidegree": (*_CAPPED_SUITE_OPTIONS, "pairs", "seed"),
    "stability": (*_CAPPED_SUITE_OPTIONS, "algebra"),
    "vinset": ("u",),
}


def _cmd_verify(args) -> int:
    for name in dict.fromkeys(o for options in SUITE_OPTIONS.values() for o in options):
        if name not in SUITE_OPTIONS[args.suite] and getattr(args, name) != getattr(_VERIFY_DEFAULTS, name):
            raise UsageError(f"--suite {args.suite} does not read --{name.replace('_', '-')}")
    rng = random.Random(args.seed)
    if args.suite == "vinset":
        u_values = _u_values(args.u) if args.u else [Fraction(0), Fraction(1, 12), Fraction(-1, 6), Fraction(1)]
        _check_product("vinset", MAX_VINSET_U_VALUES, {"--u values": len(u_values)})
        reports = verifier.check_vinset(u_values)
    else:
        if not args.family:
            raise UsageError(f"suite {args.suite} requires --family")
        fam = _build("family", _FAMILIES, args.family, args.params)
        tag = f"{args.family}[{','.join(str(p) for p in args.params)}]"
        weight_cap = args.weight_cap if args.weight_cap is not None else 8
        index_cap = args.index_cap if args.index_cap is not None else 2
        capped = args.weight_cap is not None or args.index_cap is not None
        basis = verifier.monomial_basis(weight_cap, index_cap, args.algebra) if capped else None
        if args.suite == "associativity":
            size = len(basis or verifier.GENERATORS)
            _check_product("associativity", MAX_ASSOCIATIVITY_SIZE, {"basis size": size, "--nmax": args.nmax})
            report = verifier.check_associativity(fam, args.nmax, basis, claim=f"associativity.{tag}")
        elif args.suite == "poisson":
            report = verifier.check_poisson(brackets.mu1(fam), basis, claim=f"poisson.{tag}")
        elif args.suite == "bidegree":
            draw = lambda: verifier.random_homogeneous(rng, weight_cap, index_cap)
            pairs = [(draw(), draw()) for _ in range(args.pairs)]
            report = verifier.check_bidegree_law(fam, args.nmax, pairs, claim=f"bidegree.{tag}")
        else:
            report = verifier.check_stability(fam, args.algebra, args.nmax, basis, claim=f"stability.{args.algebra}.{tag}")
        reports = [report]
    return 0 if _emit_reports(_with_reproduce(reports, args._argv), args.json) else 1


def _cmd_classify(args) -> int:
    if len(args.params) != 10:
        raise UsageError("classify takes ten comma-separated rationals")
    p = classifier.PoissonParams.of(*args.params)
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
    if len(args.src_triple) != 3 or len(args.dst_triple) != 3:
        raise UsageError("iso takes --from a,b,c and --to a2,b2,c2")
    flag, scaling = classifier.modular_isomorphic(args.dst_triple, args.src_triple)
    payload = {
        "isomorphic": flag,
        "scaling": [str(s) for s in scaling] if scaling else None,
        "normal_form_from": [str(x) for x in classifier.normal_form(*args.src_triple)],
        "normal_form_to": [str(x) for x in classifier.normal_form(*args.dst_triple)],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        scaling_text = f"(lam, mu) = ({payload['scaling'][0]}, {payload['scaling'][1]})" if scaling else "none"
        print(f"isomorphic: {str(flag).lower()}")
        print(f"scaling: {scaling_text}")
    return 0


def _cmd_scan(args) -> int:
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

# The least and largest value of each size option, by command.  A negative
# size is vacuous; a window holds a w exponent and a bidegree check a pair,
# so --G and --pairs start at 1.  verify and scan-conjecture run
# in at most about a minute and a half with one size at its largest and the
# others at their defaults (README).
SIZE_RANGES = {
    "expand": {"N": (0, MAX_Q_ORDER), "G": (1, MAX_WINDOW)},
    "bracket": {"n": (0, MAX_POWER)},
    "deriv": {"power": (0, MAX_POWER)},
    "verify": {"nmax": (0, 16), "pairs": (1, 1000), "weight_cap": (0, 12), "index_cap": (0, 3)},
    "scan-conjecture": {"nmax": (0, 12), "weight_cap": (0, 32), "index_cap": (0, 6)},
}
# The multiply-adds of the product loop (elements.work_budget) that each
# command whose cost depends on its element text may spend (README).
WORK_BUDGET = {"expand": 200_000_000, "bracket": 3_000_000, "deriv": 10_000_000}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobiforms",
        description="Exact Rankin-Cohen deformations on weak Jacobi forms",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # the commands that read element text
    element_text = argparse.ArgumentParser(add_help=False, parents=[common])
    element_text.add_argument("--allow-f2", action="store_true", help="accept F2 in element text, rewriting it as B*A^-1")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[element_text], help="q-expansions of the generators")
    p.add_argument("--what", required=True, choices=[*_EXPANSIONS, "element"])
    p.add_argument("--element", default=None)
    p.add_argument("--N", type=_integer, default=10)
    p.add_argument("--G", type=_integer, default=24)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bracket", parents=[element_text], help="evaluate one bracket of a family")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES) + ["rc"])
    p.add_argument("--params", type=_rational_list, default="")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("deriv", parents=[element_text], help="apply a named derivation")
    p.add_argument("--name", required=True, choices=sorted(_DERIVATIONS))
    p.add_argument("--param", type=_rational_list, default="")
    p.add_argument("--input", required=True)
    p.add_argument("--power", type=_integer, default=1)
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_OPTIONS))
    p.add_argument("--family", default=None, choices=sorted(_FAMILIES))
    p.add_argument("--params", type=_rational_list, default="")
    p.add_argument("--seed", type=_integer, default=0, help="seed of the bidegree suite's random pairs")
    p.add_argument("--nmax", type=_integer, default=3)
    p.add_argument("--pairs", type=_integer, default=50)
    p.add_argument("--weight-cap", type=_integer, default=None)
    p.add_argument("--index-cap", type=_integer, default=None)
    p.add_argument("--algebra", default="Jtilde", choices=list(SUBALGEBRA_GENERATORS))
    p.add_argument("--u", default="")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="classify a ten-parameter bracket")
    p.add_argument("--params", type=_rational_list, required=True, help="alpha,beta,gamma,delta,lambda,mu,theta,epsilon,xi,eta")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("iso", parents=[common], help="decide conjugacy of two (a,b,c) families")
    p.add_argument("--from", dest="src_triple", type=_rational_list, required=True)
    p.add_argument("--to", dest="dst_triple", type=_rational_list, required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("scan-conjecture", parents=[common], help="membership scan on the stability line")
    p.add_argument("--u", required=True)
    p.add_argument("--nmax", type=_integer, default=2)
    p.add_argument("--weight-cap", type=_integer, default=8)
    p.add_argument("--index-cap", type=_integer, default=2)
    p.set_defaults(func=_cmd_scan)

    return parser


_PARSER = build_parser()  # once per process: parsing leaves it as it was
# The values of verify's options left unset, as parsed: argparse reads the
# string default of --params through its type, to []
_VERIFY_DEFAULTS = _PARSER.parse_args(["verify", "--suite", "vinset"])


def main(argv=None) -> int:
    """Run one command; its stdout reaches the caller's stdout in one write
    when it returns, so a refused or failed command prints nothing there."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = _PARSER.parse_args(argv)
            args._argv = list(argv) if argv is not None else sys.argv[1:]
            _check_sizes(args, SIZE_RANGES.get(args.command, {}))
            with work_budget(WORK_BUDGET.get(args.command)):
                code = args.func(args)
    except SystemExit as exc:  # argparse has printed its usage error (to stderr) or help
        code = USAGE_ERROR if exc.code not in (0, None) else 0
    except (UsageError, BidegreeError) as exc:  # an input, or a result of one, out of range
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceeded:
        print(f"error: {args.command} exceeds its work budget of {WORK_BUDGET[args.command]} multiply-adds", file=sys.stderr)
        return USAGE_ERROR
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    if sys.stdout is None:  # fd 1 was closed when Python started: the output has nowhere to go
        return code
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:  # `| head` closed early: fd 1 becomes os.devnull, as the Python docs on SIGPIPE advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

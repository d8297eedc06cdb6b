"""CLI stdout and exit codes against golden data.

`tests/golden/cli.json` holds, for every command of the README and a few
failing and capped `verify` runs, in text and `--json` form, the exit code
and stdout (its sha256 when stdout is longer than 64 KiB).  A refactor
that keeps the CLI output byte-identical keeps this test passing.  When an
output is meant to change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from jacobiforms.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
MAX_INLINE = 1 << 16

COMMANDS = [
    # the README examples
    ["expand", "--what", "A", "--N", "10", "--G", "24"],
    ["expand", "--what", "element", "--element", "E4*A - 2*B", "--N", "6"],
    ["bracket", "--family", "orc", "--params", "-3", "--n", "1", "--f", "A", "--g", "B"],
    ["bracket", "--family", "rc", "--n", "2", "--f", "E4", "--g", "E6"],
    ["deriv", "--name", "serre_ab", "--param", "1/12,-1/12", "--input", "E4*A", "--power", "2"],
    ["verify", "--suite", "associativity", "--family", "accol", "--params", "1,1,0", "--nmax", "3"],
    ["verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--nmax", "1"],
    ["verify", "--suite", "vinset", "--u", "0,1/12,-1/6,1"],
    ["classify", "--params", "2/3,1,1,3/2,1,3/2,0,0,1/2,0"],
    ["iso", "--from", "2,3,5", "--to", "1,6,5"],
    ["scan-conjecture", "--u", "0,1/12,-1/6,1,-2", "--nmax", "3", "--weight-cap", "12", "--index-cap", "2"],
    # failing verify runs: each report carries a witness and a reproduce command
    # (the Q run passes: Q is the index-zero part of K, and brackets keep the index)
    ["verify", "--suite", "stability", "--family", "Crochet", "--params", "0,2"],
    ["verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--algebra", "Q"],
    ["verify", "--suite", "stability", "--family", "scal", "--params", "1,1/2", "--nmax", "2"],
    # a failing M run, its first escape at (E6, E6, n = 2)
    ["verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--algebra", "M", "--weight-cap", "8", "--nmax", "2"],
    # the other suites, with and without caps
    ["verify", "--suite", "associativity", "--family", "crochet", "--params", "1/3,997/1000", "--weight-cap", "4", "--index-cap", "1", "--nmax", "2"],
    ["verify", "--suite", "poisson", "--family", "orc", "--params", "7/5"],
    ["verify", "--suite", "poisson", "--family", "Crochet", "--params", "1/12,2", "--weight-cap", "4", "--index-cap", "1"],
    # the default caps spelled out: 29 monomials, 3,654 Jacobi triples
    ["verify", "--suite", "poisson", "--family", "accol", "--params", "1,1,0", "--weight-cap", "8", "--index-cap", "2"],
    ["verify", "--suite", "bidegree", "--family", "scal", "--params", "1,-3/4", "--pairs", "5", "--seed", "7"],
    ["verify", "--suite", "bidegree", "--family", "accol", "--params", "1,2,3", "--pairs", "3", "--weight-cap", "6", "--index-cap", "1"],
    ["verify", "--suite", "stability", "--family", "accol", "--params", "1,1,1", "--algebra", "M"],
    ["scan-conjecture", "--u", "1/12", "--nmax", "1", "--weight-cap", "4", "--index-cap", "1"],
    # stability on capped monomial bases, failing and passing, on each algebra
    ["verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--weight-cap", "4", "--index-cap", "1", "--nmax", "1"],
    ["verify", "--suite", "stability", "--family", "scal", "--params", "1,1/2", "--weight-cap", "6", "--index-cap", "2", "--nmax", "2"],
    ["verify", "--suite", "stability", "--family", "Crochet", "--params", "1/12,2", "--weight-cap", "6", "--index-cap", "2", "--nmax", "2"],
    ["verify", "--suite", "stability", "--family", "crochet", "--params", "1/12,2", "--algebra", "Q", "--weight-cap", "6", "--index-cap", "2", "--nmax", "3"],
    ["verify", "--suite", "stability", "--family", "accol", "--params", "1,1,1", "--algebra", "M", "--weight-cap", "12", "--nmax", "4"],
    ["verify", "--suite", "vinset"],
    # expand targets the README commands do not reach
    ["expand", "--what", "J1"],
    # J1's text output ends with its truncation line; a small G and an
    # element at G = 1 pin that the other targets ignore G
    ["expand", "--what", "J1", "--N", "5", "--G", "3"],
    ["expand", "--what", "J1", "--G", "1"],
    ["expand", "--what", "element", "--element", "E4*A^2", "--N", "6", "--G", "1"],
    ["expand", "--what", "Delta"],
    ["expand", "--what", "B", "--N", "12", "--G", "36"],
    # B and an element of high B degree well past q^12, pinned on the route
    # that derived B through the Fourier-side operator
    ["expand", "--what", "B", "--N", "60", "--G", "180"],
    ["expand", "--what", "element", "--element", "A^2*B^3 - 3*E6*A*B", "--N", "24", "--G", "72"],
    # negative A exponents and exponents near a million: the output order
    # follows the monomial order, whatever the key encoding of the terms
    ["bracket", "--family", "crochet", "--params", "1/3,2", "--n", "3", "--f", "A^-3*B^2*E6", "--g", "E4*A^-1*B"],
    ["bracket", "--family", "Crochet", "--params", "1/12,2", "--n", "4", "--f", "A^-1*B", "--g", "E6*A^2"],
    ["deriv", "--name", "partial_u", "--param", "1/5", "--input", "A^-2*B^3+E4^2*A^-1", "--power", "6"],
    ["deriv", "--name", "serre_ab", "--param", "1/3,2/5", "--input", "E4^1000000*A^-999999", "--power", "2"],
    # an inadmissible tuple, whose text form lists its nonzero residuals
    ["classify", "--params", "1,2,3,4,5,6,7,8,9,10"],
    # a = b = 0 on both sides: the identity scaling
    ["iso", "--from", "0,0,1/2", "--to", "0,0,1/2"],
]

VARIANTS = [command + extra for command in COMMANDS for extra in ([], ["--json"])]


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    if len(text) > MAX_INLINE:
        return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {"argv": argv, "exit": code, "stdout": text}


def _golden() -> dict:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in VARIANTS)


@pytest.mark.parametrize("argv", VARIANTS, ids=[" ".join(argv) for argv in VARIANTS])
def test_cli_output_matches_golden(argv):
    assert _run(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in VARIANTS], indent=1, sort_keys=True) + "\n")

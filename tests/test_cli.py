import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jacobiforms
from jacobiforms import E4, cli
from jacobiforms.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "--what", "A", "--N", "2", "--G", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q^0: w^2 - 2 + w^-2"
    assert lines[1].startswith("q^1:")


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "--what", "E4", "--N", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["0"] == [{"w": 0, "coeff": "1"}]
    assert data["1"] == [{"w": 0, "coeff": "240"}]


def test_expand_element_and_window_note(capsys):
    code, out, _ = run(capsys, "expand", "--what", "element", "--element", "E4*A", "--N", "1")
    assert code == 0
    code, out, _ = run(capsys, "expand", "--what", "J1", "--N", "1", "--G", "4")
    assert code == 0
    assert "window" in out


def test_bracket_subcommand(capsys):
    code, out, _ = run(
        capsys, "bracket", "--family", "orc", "--params", "0", "--n", "1", "--f", "E4", "--g", "E6"
    )
    assert code == 0
    assert out.strip() == "-2*E4^3 + 2*E6^2"
    code, out, _ = run(
        capsys, "bracket", "--family", "rc", "--n", "1", "--f", "E4", "--g", "E6", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert {"e4": 3, "e6": 0, "a": 0, "b": 0, "coeff": "-2"} in data["terms"]


def test_bracket_usage_errors(capsys):
    code, _, err = run(capsys, "bracket", "--family", "orc", "--params", "1,2", "--n", "1", "--f", "E4", "--g", "E6")
    assert code == 2
    code, _, err = run(capsys, "bracket", "--family", "orc", "--params", "1", "--n", "1", "--f", "E4+", "--g", "E6")
    assert code == 2


def test_deriv_subcommand(capsys):
    code, out, _ = run(capsys, "deriv", "--name", "oberdieck", "--input", "A")
    assert code == 0
    assert out.strip() == "-1/6*B"
    code, out, _ = run(
        capsys, "deriv", "--name", "serre_ab", "--param", "0,0", "--input", "E4", "--power", "2"
    )
    assert code == 0
    assert out.strip() == "1/6*E4^2"
    code, out, _ = run(capsys, "deriv", "--name", "partial_u", "--param", "1/12", "--input", "B")
    assert code == 0


def test_deriv_allow_f2(capsys):
    code, out, _ = run(capsys, "deriv", "--name", "sharp", "--input", "F2", "--allow-f2")
    assert code == 0
    assert out.strip() == "-1/12*E4"
    code, _, _ = run(capsys, "deriv", "--name", "sharp", "--input", "F2")
    assert code == 2


def test_verify_associativity(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "associativity", "--family", "accol", "--params", "1,1,0", "--nmax", "3",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_associativity_with_caps_uses_monomial_basis(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "associativity", "--family", "orc", "--params", "1",
        "--nmax", "2", "--weight-cap", "4", "--index-cap", "1", "--json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["params"]["basis_size"] > 4


def test_verify_poisson_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "poisson", "--family", "orc", "--params", "1", "--json"
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["status"] == "pass"
    assert set(reports[0]) == {"claim", "status", "witness", "params"}


def test_verify_stability_failure_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--nmax", "1", "--json",
    )
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["status"] == "fail"
    assert reports[0]["witness"] is not None


def test_verify_bidegree_deterministic(capsys):
    args = ["verify", "--suite", "bidegree", "--family", "Crochet", "--params", "1/12,0",
            "--nmax", "2", "--pairs", "5", "--seed", "11", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_vinset(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vinset", "--u", "0,1/12", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    assert all(r["status"] == "pass" for r in reports)


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--params", "4,6,2,-2,0,0,0,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert [f["name"] for f in data["families"]] == ["C1"]
    code, out, _ = run(capsys, "classify", "--params", "4,6,2,-2,0,0,1,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is False
    assert data["families"] == []


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--params", "1,2,3")
    assert code == 2


def test_iso_subcommand(capsys):
    code, out, _ = run(capsys, "iso", "--from", "2,3,5", "--to", "1,6,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["scaling"] == ["2", "1"]
    assert data["normal_form_from"] == ["1", "6", "5"]
    code, out, _ = run(capsys, "iso", "--from", "2,3,5", "--to", "1,5,5", "--json")
    data = json.loads(out)
    assert data["isomorphic"] is False


def test_scan_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "scan-conjecture", "--u", "0,1/12", "--nmax", "1", "--weight-cap", "4", "--index-cap", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("[PASS]")
    assert any("in_Jtilde=true" in line for line in lines)


def test_scan_json_deterministic(capsys):
    args = ["scan-conjecture", "--u", "0", "--nmax", "1", "--weight-cap", "4", "--index-cap", "1", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["status"] == "pass"


def test_unknown_arguments_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "expand", "--what", "XX")[0] == 2


BAD_INPUTS = {
    "negative-N": ["expand", "--what", "A", "--N", "-1"],
    "negative-A-exponent": ["expand", "--what", "element", "--element", "B*A^-1"],
    "huge-N": ["expand", "--what", "E4", "--N", "100000000"],
    "N-above-limit": ["expand", "--what", "E4", "--N", "201"],
    "zero-window": ["expand", "--what", "J1", "--G", "0"],
    "G-above-limit": ["expand", "--what", "J1", "--G", "1001"],
    "expand-negative-B-exponent": ["expand", "--what", "element", "--element", "B^-1"],
    "bracket-negative-n": ["bracket", "--family", "orc", "--params", "1", "--n", "-1", "--f", "A", "--g", "B"],
    "bracket-rc-negative-n": ["bracket", "--family", "rc", "--n", "-1", "--f", "E4", "--g", "E6"],
    "bracket-rc-not-modular": ["bracket", "--family", "rc", "--n", "1", "--f", "A", "--g", "E4"],
    "bracket-rc-params": ["bracket", "--family", "rc", "--params", "1", "--n", "1", "--f", "E4", "--g", "E6"],
    "bracket-negative-B-exponent": ["bracket", "--family", "src", "--n", "1", "--f", "B^-1", "--g", "E4"],
    # the order sets the depth of one power sequence, as --power does for deriv
    "bracket-n-above-limit": ["bracket", "--family", "orc", "--params", "1", "--n", "301", "--f", "1", "--g", "1"],
    "bracket-rc-n-above-limit": ["bracket", "--family", "rc", "--n", "301", "--f", "1", "--g", "1"],
    "bracket-family-arity": ["bracket", "--family", "orc", "--params", "1,2", "--n", "1", "--f", "B", "--g", "E4"],
    "deriv-negative-power": ["deriv", "--name", "serre", "--input", "E4", "--power", "-1"],
    "deriv-power-above-limit": ["deriv", "--name", "serre", "--input", "E4", "--power", "301"],
    "deriv-negative-B-exponent": ["deriv", "--name", "serre", "--input", "B^-1"],
    # each factor within 10^6, their sum in one term not
    "deriv-summed-exponent-above-limit": ["deriv", "--name", "serre", "--input", "E4^1000000*E4^1000000"],
    "deriv-three-factors-above-limit": ["deriv", "--name", "serre", "--input", "E4^1000000*E4^1000000*E4^1000000"],
    "deriv-arity": ["deriv", "--name", "serre_ab", "--param", "1", "--input", "B"],
    # numbers in element text and options are ASCII digits: an Arabic-Indic
    # two is no exponent, no order and no parameter
    "deriv-unicode-digit": ["deriv", "--name", "serre", "--input", "E4^\u0662"],
    "expand-unicode-N": ["expand", "--what", "A", "--N", "\u0662"],
    "bracket-unicode-params": ["bracket", "--family", "orc", "--params", "\u0663", "--n", "1", "--f", "A", "--g", "B"],
    "verify-needs-family": ["verify", "--suite", "associativity", "--nmax", "1"],
    "verify-bad-rational": ["verify", "--suite", "vinset", "--u", "x"],
    "classify-wrong-count": ["classify", "--params", "1,2"],
    "iso-wrong-count": ["iso", "--from", "1,2", "--to", "1,2,3"],
    "scan-bad-rational": ["scan-conjecture", "--u", "q"],
    "scan-no-u-values": ["scan-conjecture", "--u="],
    "vinset-no-u-values": ["verify", "--suite", "vinset", "--u=,"],
    "vinset-blank-u-values": ["verify", "--suite", "vinset", "--u= , "],
    "verify-negative-nmax": ["verify", "--suite", "associativity", "--family", "accol", "--params", "1,1,0", "--nmax", "-1"],
    "verify-negative-pairs": ["verify", "--suite", "bidegree", "--family", "src", "--pairs", "-1"],
    # no pairs, no check: it would pass without checking anything
    "verify-zero-pairs": ["verify", "--suite", "bidegree", "--family", "src", "--nmax", "0", "--pairs", "0"],
    "verify-negative-weight-cap": ["verify", "--suite", "poisson", "--family", "src", "--weight-cap", "-4"],
    "verify-negative-index-cap": ["verify", "--suite", "poisson", "--family", "src", "--index-cap", "-1"],
    "scan-negative-nmax": ["scan-conjecture", "--u", "0", "--nmax", "-1"],
    "scan-negative-weight-cap": ["scan-conjecture", "--u", "0", "--weight-cap", "-4"],
    "scan-negative-index-cap": ["scan-conjecture", "--u", "0", "--index-cap", "-1"],
    "expand-exponent-above-limit": ["expand", "--what", "element", "--element", "A^20*B^20", "--N", "200"],
    "expand-E4-exponent-above-limit": ["expand", "--what", "element", "--element", "E4 + E4^9"],
    "verify-nmax-above-limit": ["verify", "--suite", "associativity", "--family", "src", "--nmax", "17"],
    "verify-pairs-above-limit": ["verify", "--suite", "bidegree", "--family", "src", "--pairs", "1001"],
    "verify-weight-cap-above-limit": ["verify", "--suite", "poisson", "--family", "src", "--weight-cap", "13"],
    "verify-index-cap-above-limit": ["verify", "--suite", "poisson", "--family", "src", "--index-cap", "4"],
    "scan-nmax-above-limit": ["scan-conjecture", "--u", "0", "--nmax", "13"],
    "scan-weight-cap-above-limit": ["scan-conjecture", "--u", "0", "--weight-cap", "33"],
    "scan-index-cap-above-limit": ["scan-conjecture", "--u", "0", "--index-cap", "7"],
    # 53 monomials at caps (8, 3), 16 at (4, 2), 84 at (12, 3): basis size * nmax of 212, 160, 1344
    "verify-associativity-size-above-limit": ["verify", "--suite", "associativity", "--family", "src", "--index-cap", "3", "--nmax", "4"],
    "verify-associativity-size-just-above-limit": [
        "verify", "--suite", "associativity", "--family", "src", "--weight-cap", "4", "--index-cap", "2", "--nmax", "10",
    ],
    "verify-associativity-every-size-at-its-limit": [
        "verify", "--suite", "associativity", "--family", "src", "--weight-cap", "12", "--index-cap", "3", "--nmax", "16",
    ],
    # 1033 monomials at caps (32, 6), 120 at (16, 3), 93 at (32, 1), 193 at (32, 2):
    # basis pairs * (nmax + 1) * u values of 4268356, 187200, 112437, 223494
    "scan-size-above-limit": ["scan-conjecture", "--u", "0", "--nmax", "3", "--weight-cap", "32", "--index-cap", "6"],
    "scan-size-above-limit-at-nmax-12": ["scan-conjecture", "--u", "0", "--nmax", "12", "--weight-cap", "16", "--index-cap", "3"],
    "scan-size-just-above-limit": ["scan-conjecture", "--u", "0", "--nmax", "12", "--weight-cap", "32", "--index-cap", "1"],
    "scan-size-above-limit-by-u-values": ["scan-conjecture", "--u", "0,1", "--weight-cap", "32"],
    # numbers too long for int() or str(): at most 100 digits in element text
    # and 12 in a rational option, and the power (or order) times the digits
    # of the parameters and of the largest exponent bounded
    "deriv-long-coefficient": ["deriv", "--name", "serre", "--input", "7" * 5000 + "*E4"],
    # terms on one monomial add up: 50 distinct 100-digit denominators make one of over 4300 digits
    "deriv-summed-coefficients": ["deriv", "--name", "serre", "--input", " + ".join(f"1/{10 ** 99 + 2 * k + 1}*E4" for k in range(50))],
    "deriv-long-parameter": ["deriv", "--name", "serre_ab", "--param", "1/1" + "0" * 100 + ",1", "--input", "A", "--power", "300"],
    "deriv-parameter-digits-above-limit": ["deriv", "--name", "serre_ab", "--param", "1/1" + "0" * 20 + ",1", "--input", "A", "--power", "300"],
    "bracket-long-coefficients": ["bracket", "--family", "accol", "--params", "1,1,0", "--n", "1", "--f", "7" * 3000 + "*E4", "--g", "7" * 3000 + "*E6"],
    "iso-long-numbers": ["iso", "--from", "7" * 3000 + "," + "7" * 3000 + ",1", "--to", "1,1,1"],
    "bracket-long-parameter": [
        "bracket", "--family", "accol", "--params", "1,1,1/1000000000000000000000000000057", "--f", "E4^3*A*B^2", "--g", "E6^2*B^3", "--n", "300",
    ],
    "bracket-parameter-digits-above-limit": [
        "bracket", "--family", "accol", "--params", "1,1,1/1000000007", "--f", "E4^3*A*B^2", "--g", "E6^2*B^3", "--n", "300",
    ],
    "verify-long-parameter": ["verify", "--suite", "poisson", "--family", "orc", "--params", "1/1234567890123"],
    "scan-long-u": ["scan-conjecture", "--u", "1/1234567890123", "--nmax", "0"],
    "expand-long-exponent": ["expand", "--what", "element", "--element", "E4^" + "1" * 5000],
    # an integer option has at most 12 digits, as a rational one: int() reads 4,300
    "expand-long-N": ["expand", "--what", "A", "--N", "9" * 4000],
    # expand reads element text and --allow-f2 only with --what element
    "expand-E4-element": ["expand", "--what", "E4", "--N", "2", "--element", "A^-1"],
    "expand-J1-allow-f2": ["expand", "--what", "J1", "--N", "2", "--allow-f2"],
}


# B is exact at every window, so a small --G neither fails nor changes B or an
# element of A and B: each prints what it prints at the widest window
SMALL_WINDOWS = {
    "B-window-2": ["expand", "--what", "B", "--G", "2"],
    "B-window-3-at-N5": ["expand", "--what", "B", "--N", "5", "--G", "3"],
    "element-window-3-at-N5": ["expand", "--what", "element", "--element", "A", "--N", "5", "--G", "3"],
}


@pytest.mark.parametrize("argv", SMALL_WINDOWS.values(), ids=SMALL_WINDOWS.keys())
def test_expand_output_does_not_depend_on_a_small_window(capsys, argv):
    code, out, err = run(capsys, *argv)
    widest = argv[: argv.index("--G")] + ["--G", "1000"]
    assert (code, err) == (0, "")
    assert run(capsys, *widest) == (0, out, "")


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_expand_bad_sizes_are_usage_errors(capsys, argv):
    # every subcommand, not only expand: input errors exit 2 with an error line
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["expand", "--what", "E4", "--N", "-1"], "--N must be between 0 and 200, got -1"),
        (["expand", "--what", "E4", "--N", "201"], "--N must be between 0 and 200, got 201"),
        (["expand", "--what", "J1", "--G", "0"], "--G must be between 1 and 1000, got 0"),
        (["expand", "--what", "J1", "--G", "1001"], "--G must be between 1 and 1000, got 1001"),
        (["expand", "--what", "J1", "--N", "-1", "--G", "0"], "--N must be between 0 and 200, got -1"),
        (["bracket", "--family", "orc", "--params", "1", "--n", "-1", "--f", "A", "--g", "B"], "--n must be between 0 and 300, got -1"),
        (["bracket", "--family", "rc", "--n", "301", "--f", "1", "--g", "1"], "--n must be between 0 and 300, got 301"),
        (["bracket", "--family", "rc", "--params", "1", "--n", "1", "--f", "E4", "--g", "E6"], "family rc takes no parameters"),
        (["deriv", "--name", "serre", "--input", "E4", "--power", "-1"], "--power must be between 0 and 300, got -1"),
        (["deriv", "--name", "serre", "--input", "E4", "--power", "301"], "--power must be between 0 and 300, got 301"),
        # the parameter list is read before the bound is checked
        (["bracket", "--family", "orc", "--params", "x", "--n", "-1", "--f", "A", "--g", "B"], "not a rational: 'x'"),
        (["deriv", "--name", "serre_ab", "--param", "x", "--input", "E4", "--power", "-1"], "not a rational: 'x'"),
        # int and Fraction read any Unicode decimal digit; the options do not
        (["expand", "--what", "A", "--N", "\u0662"], "not an integer: '\u0662'"),
        (["bracket", "--family", "orc", "--params", "\u0663", "--n", "1", "--f", "A", "--g", "B"], "not a rational: '\u0663'"),
        # sizes that multiply: each name its factors, the bound and their values
        (
            ["verify", "--suite", "associativity", "--family", "src", "--index-cap", "3", "--nmax", "4"],
            "associativity needs basis size * --nmax <= 159, got 53 * 4",
        ),
        (
            ["scan-conjecture", "--u", "0", "--nmax", "3", "--weight-cap", "32", "--index-cap", "6"],
            "scan-conjecture needs basis pairs * (--nmax + 1) * --u values <= 111747, got 1067089 * 4 * 1",
        ),
        (
            ["scan-conjecture", "--u", "0,1", "--weight-cap", "32"],
            "scan-conjecture needs basis pairs * (--nmax + 1) * --u values <= 111747, got 37249 * 3 * 2",
        ),
        (["verify", "--suite", "vinset", "--u", ",".join(["0"] * 5001)], "vinset needs --u values <= 5000, got 5001"),
        (["verify", "--suite", "bidegree", "--family", "src", "--nmax", "0", "--pairs", "0"], "--pairs must be between 1 and 1000, got 0"),
        # exponents of 10^6 have 7 digits, and 1,1,0 three: 300 * 10 above 2400
        (
            ["bracket", "--family", "accol", "--params", "1,1,0", "--n", "300", "--f", "E4^1000000*A^1000000*B^1000000", "--g", "E6^1000000*B^1000000"],
            "bracket needs --n * (parameter digits + exponent digits) <= 2400, got 300 * 10",
        ),
        (["expand", "--what", "element"], "--what element requires --element"),
        (["expand", "--what", "E4", "--N", "2", "--element", "A^-1"], "--what E4 does not read --element"),
        (["expand", "--what", "Delta", "--allow-f2"], "--what Delta does not read --allow-f2"),
        (["expand", "--what", "J1", "--G", "3", "--allow-f2", "--element", "F2"], "--what J1 does not read --element"),
        (["deriv", "--name", "serre", "--input", "7" * 101 + "*E4"], f"bad element '{'7' * 101}*E4': number of more than 100 digits (at position 0)"),
        (["iso", "--from", "7" * 3000 + ",1,1", "--to", "1,1,1"], "a numerator or denominator has at most 12 digits, got 3000"),
        (
            ["deriv", "--name", "serre", "--input", f"1/{10 ** 99 + 1}*E4 + 1/{10 ** 99 + 3}*E4"],
            f"bad element '1/{10 ** 99 + 1}*E4 + 1/{10 ** 99 + 3}*E4': coefficients of more than 100 digits over a common denominator (at position 0)",
        ),
        (
            ["deriv", "--name", "serre_ab", "--param", "1/1000000007,1", "--input", "A", "--power", "300"],
            "deriv needs --power * (parameter digits + exponent digits) <= 2400, got 300 * 12",
        ),
        (
            ["bracket", "--family", "accol", "--params", "1,1,1/1000000007", "--f", "E4^3*A*B^2", "--g", "E6^2*B^3", "--n", "300"],
            "bracket needs --n * (parameter digits + exponent digits) <= 2400, got 300 * 13",
        ),
        # a bad rational is read in parsing, before any bound
        (["verify", "--suite", "poisson", "--family", "orc", "--params", "x", "--nmax", "17"], "not a rational: 'x'"),
    ],
    ids=[
        "N-negative", "N-above", "G-zero", "G-above", "N-before-G", "n-negative", "rc-n-above", "rc-params", "power-negative", "power-above",
        "bracket-params-first", "deriv-params-first", "N-unicode", "params-unicode", "associativity-size", "scan-size", "scan-size-u-values",
        "vinset-u-values", "pairs-zero", "bracket-exponent-digits", "element-needs-text", "E4-element", "Delta-allow-f2", "J1-both",
        "element-long-number", "rational-long-number", "element-summed-coefficients", "deriv-parameter-digits", "bracket-parameter-digits", "verify-params-first",
    ],
)
def test_size_bounds_name_the_option_and_its_range(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["deriv", "--name", "serre", "--input", "7" * 5000 + "*E4"], "number of more than 100 digits (at position 0)"),
        (["expand", "--what", "element", "--element", "*".join(["E4^8"] * 1000)], None),
        (["bracket", "--family", "orc", "--params", "x" * 5000, "--n", "1", "--f", "A", "--g", "B"], None),
    ],
    ids=["element-text", "element-exponents", "rational"],
)
def test_an_error_line_repeats_long_text_cut_with_its_length(capsys, argv, reason):
    text = max(argv, key=len)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{text[:cli.MAX_ECHO]!r}... ({len(text)} characters)" in err
    assert len(err) < cli.MAX_ECHO + 120
    if reason:
        assert err.endswith(f": {reason}\n")


def test_a_bad_integer_option_is_quoted_cut_with_its_length(capsys):
    text = "9" * 5000 + "x"
    code, out, err = run(capsys, "expand", "--what", "A", "--N", text)
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert last.endswith(f"argument --N: invalid int value: {text[:cli.MAX_ECHO]!r}... (5001 characters)")
    assert len(err) < 1000


@pytest.mark.parametrize("text", ["1_0", "0x10", "1e2", "10.0"])
def test_an_integer_option_reads_what_a_rational_option_reads(capsys, text):
    # int() reads digit-group underscores, which --params does not; other
    # text gets argparse's own line, as any option that is not an integer
    code, out, err = run(capsys, "expand", "--what", "E4", "--N", text)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"argument --N: invalid int value: {text!r}")
    assert run(capsys, "bracket", "--family", "orc", "--params", text, "--n", "1", "--f", "A", "--g", "B")[::2] == (2, f"error: not a rational: {text!r}\n")


def test_a_long_integer_option_is_refused_on_one_short_line(capsys):
    # leading zeros do not count, and the line does not repeat the digits
    assert run(capsys, "expand", "--what", "A", "--N", "+" + "0" * 5000 + "2", "--G", "2")[0] == 0
    code, out, err = run(capsys, "expand", "--what", "A", "--N", "9" * 4000)
    assert (code, out, err) == (2, "", "error: a numerator or denominator has at most 12 digits, got 4000\n")


def test_vinset_empty_u_keeps_the_default_values(capsys):
    assert run(capsys, "verify", "--suite", "vinset", "--u", "") == run(capsys, "verify", "--suite", "vinset")


@pytest.mark.parametrize(
    "argv", [["--what", "E4", "--N", "200"], ["--what", "J1", "--N", "0", "--G", "1000"]], ids=["N-200", "G-1000"]
)
def test_expand_size_limits_are_inclusive(capsys, argv):
    assert run(capsys, "expand", *argv)[0] == 0


@pytest.mark.parametrize("power", ["0", "300"])
def test_deriv_power_limit_is_inclusive(capsys, power):
    code, out, _ = run(capsys, "deriv", "--name", "serre", "--input", "E4", "--power", power)
    assert code == 0
    assert out.strip()


def test_expand_element_exponent_limit_is_inclusive(capsys):
    code, out, _ = run(capsys, "expand", "--what", "element", "--element", "E4^8*E6^8*A^8*B^8", "--N", "0")
    assert code == 0
    assert out.strip()


# each size option at its bound, the others small enough for a quick run
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "associativity", "--family", "src", "--nmax", "16"],
        ["verify", "--suite", "bidegree", "--family", "src", "--nmax", "0", "--pairs", "1000"],
        ["verify", "--suite", "bidegree", "--family", "src", "--nmax", "0", "--pairs", "1"],
        ["verify", "--suite", "bidegree", "--family", "src", "--pairs", "2", "--weight-cap", "12", "--index-cap", "3"],
        ["scan-conjecture", "--u", "0", "--nmax", "12", "--weight-cap", "0", "--index-cap", "0"],
        ["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "32", "--index-cap", "0"],
        ["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "0", "--index-cap", "6"],
        # basis pairs * (nmax + 1) * u values at MAX_SCAN_SIZE: 193^2 * 3 * 1
        ["scan-conjecture", "--u", "0", "--weight-cap", "32"],
    ],
    ids=["verify-nmax-16", "verify-pairs-1000", "verify-pairs-1", "verify-caps-12-3", "scan-nmax-12", "scan-weight-cap-32", "scan-index-cap-6", "scan-size-at-its-limit"],
)
def test_verify_and_scan_size_limits_are_inclusive(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "[PASS]" in out


@pytest.mark.parametrize(
    "caps, nmax, size",
    [(["--index-cap", "3"], "3", 53), (["--weight-cap", "4", "--index-cap", "2"], "9", 16), (["--weight-cap", "12", "--index-cap", "3"], "0", 84)],
    ids=["53x3", "16x9", "84x0"],
)
def test_verify_associativity_size_limit_is_inclusive(capsys, monkeypatch, caps, nmax, size):
    # the check itself would run for about a minute at 53 x 3; the bound is
    # what is tested, so the suite is replaced by a stub that records its sizes
    from jacobiforms import verifier
    from jacobiforms.report import VerificationReport

    seen = []
    monkeypatch.setattr(
        verifier, "check_associativity", lambda family, n_max, basis, claim: seen.append((len(basis), n_max)) or VerificationReport(claim, "pass")
    )
    code, out, _ = run(capsys, "verify", "--suite", "associativity", "--family", "src", *caps, "--nmax", nmax)
    assert code == 0
    assert "[PASS]" in out
    assert seen == [(size, int(nmax))]


def test_vinset_u_values_limit_is_inclusive(capsys, monkeypatch):
    # 5,000 values would take about 13 s; the bound is what is tested, so the
    # suite is replaced by a stub that records how many values it was given
    from jacobiforms import verifier
    from jacobiforms.report import VerificationReport

    seen = []
    monkeypatch.setattr(verifier, "check_vinset", lambda u_values: seen.append(len(u_values)) or [VerificationReport("vinset", "pass")])
    code, out, _ = run(capsys, "verify", "--suite", "vinset", "--u", ",".join(["0"] * cli.MAX_VINSET_U_VALUES))
    assert code == 0
    assert "[PASS]" in out
    assert seen == [5000]


# Shapes the static bounds accept, each measured within its work budget in
# a fresh process (multiply-adds, seconds; README): deep powers of inputs
# with many terms, large exponents, long coefficients or many-digit
# parameters, and deep powers of one or two small inputs
ACCEPTED = {
    "bracket-300x3": ["bracket", "--family", "accol", "--params", "1,1,0", "--f", "E4^3*A*B^2", "--g", "E6^2*B^3", "--n", "300"],  # 2.6e6, 5.4 s
    "bracket-localizing-30x30": ["bracket", "--family", "Crochet", "--params", "1/12,2", "--f", "A", "--g", "B", "--n", "30"],  # 2.7e4, 0.03 s
    "bracket-rc-30x30": ["bracket", "--family", "rc", "--f", "E4^1000000", "--g", "E6", "--n", "30"],  # 6.8e4, 0.06 s
    "deriv-300x30": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^30*E6^30*A^30*B^30", "--power", "300"],  # 3.4e6, 9.5 s
    "deriv-94x94": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^1000000*A^-999999", "--power", "94"],  # 2.9e5, 0.9 s
    "deriv-localizing-94x94": ["deriv", "--name", "partial_u", "--param", "0", "--input", "A", "--power", "94"],  # 17, 0.0 s
    "bracket-300x1x3x1": ["bracket", "--family", "accol", "--params", "1,1,0", "--f", "E4*A*B + E6 + A", "--g", "E6*B", "--n", "300"],  # 1.8e6, 4.0 s
    "deriv-300x15x2": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^15*A + E6^15*B", "--power", "300"],  # 1.1e5, 0.2 s
    # the README's slowest bracket and its deriv: 300 * (6 + 1) and 300 * (5 + 2)
    "bracket-300-digits-6": [
        "bracket", "--family", "accol", "--params", "355/113,-17/19,7/5", "--f", "E4^3*A*B^2", "--g", "E6^2*B^3", "--n", "300",
    ],  # 2.6e6, 23.6 s
    "deriv-300-digits-5": [
        "deriv", "--name", "serre_ab", "--param", "355/113,-17/19", "--input", "E4^30*E6^30*A^30*B^30", "--power", "300",
    ],  # 3.4e6, 12.7 s
    # parameters of 12 digits: 75 * (24 + 7) and 128 * (14 + 1)
    "deriv-75-digits-24": [
        "deriv", "--name", "serre_ab", "--param", "1/100000000007,1/100000000007", "--input", "E4^1000000*A^-999999", "--power", "75",
    ],  # 1.5e5, 0.6 s
    "bracket-128-digits-14": ["bracket", "--family", "accol", "--params", "0,0,1/100000000007", "--f", "E4^3", "--g", "E6^2", "--n", "128"],  # 2.0e4, 0.1 s
    # a long coefficient enters once, not per power
    "bracket-long-coefficients-300x3": [
        "bracket", "--family", "accol", "--params", "1,1,0", "--f", "7" * 100 + "*E4^3*A*B^2", "--g", "7" * 100 + "*E6^2*B^3", "--n", "300",
    ],  # 2.6e6, 7.6 s
    "deriv-power-times-exponent": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^31*A", "--power", "300"],  # 6.3e4, 0.1 s
    "deriv-power-squared": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^1000000", "--power", "95"],  # 4.6e3, 0.01 s
    "deriv-localizing-power": ["deriv", "--name", "partial_u", "--param", "0", "--input", "A", "--power", "95"],  # 17, 0.0 s
    "bracket-n-times-exponent": ["bracket", "--family", "accol", "--params", "1,1,0", "--n", "300", "--f", "E4^4", "--g", "B"],  # 3.5e5, 0.6 s
    "bracket-localizing-n": ["bracket", "--family", "Crochet", "--params", "1/12,2", "--n", "31", "--f", "A", "--g", "B"],  # 3.1e4, 0.02 s
    "bracket-rc-n-times-exponent": ["bracket", "--family", "rc", "--n", "31", "--f", "E4", "--g", "E6"],  # 3.8e4, 0.02 s
    "deriv-terms": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^16*A + E6^16*B", "--power", "300"],  # 1.1e5, 0.3 s
    "bracket-terms": ["bracket", "--family", "accol", "--params", "1,1,0", "--n", "300", "--f", "E4*A*B + E6", "--g", "B + A"],  # 2.3e6, 2.7 s
}


@pytest.mark.parametrize("argv", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_power_times_digits_limit_is_inclusive(capsys, monkeypatch, argv):
    # the commands themselves would run for seconds; the static bounds are
    # what is tested, so the power sequence and the bracket are stubs
    from jacobiforms import brackets, derivations

    seen = []
    monkeypatch.setattr(derivations, "iterate", lambda d, r, f: seen.append(r) or f)
    monkeypatch.setattr(brackets, "bracket_n", lambda family, n, f, g: seen.append(n) or f)
    monkeypatch.setattr(brackets, "rc_classical", lambda n, f, g: seen.append(n) or f)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.strip()
    assert seen == [int(argv[argv.index("--n" if "--n" in argv else "--power") + 1])]


@pytest.mark.parametrize("name", ["bracket-localizing-n", "bracket-rc-n-times-exponent", "deriv-localizing-power", "deriv-terms"])
def test_cheap_deep_shapes_run_within_the_budget(capsys, name):
    code, out, err = run(capsys, *ACCEPTED[name])
    assert (code, err) == (0, "")
    assert out.strip()


# One shape per command that its work budget refuses (README).  Each runs
# for seconds before the real budget is spent, so here the budget is
# lowered and the refusal comes at once.
BUDGET_REFUSALS = {
    "deriv": ["deriv", "--name", "serre_ab", "--param", "1,1", "--input", "E4^100*E6^100*A^100*B^100", "--power", "300"],
    "bracket": ["bracket", "--family", "Crochet", "--params", "1/12,2", "--n", "300", "--f", "A", "--g", "B"],
    "expand": ["expand", "--what", "element", "--element", "A^8*B^8", "--N", "200"],
}


@pytest.mark.parametrize("argv", BUDGET_REFUSALS.values(), ids=BUDGET_REFUSALS.keys())
def test_past_its_work_budget_a_command_prints_one_error_line(capsys, monkeypatch, argv):
    from jacobiforms import elements

    monkeypatch.setitem(cli.WORK_BUDGET, argv[0], 20_000)
    first = run(capsys, *argv)
    assert first == (2, "", f"error: {argv[0]} exceeds its work budget of 20000 multiply-adds\n")
    assert run(capsys, *argv) == first
    assert elements._allowance is None


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bracket", "--family", "rc", "--n", "2", "--f", "E4", "--g", "E6"], 0),
        (BUDGET_REFUSALS["bracket"], 2),
        (["bracket", "--family", "rc", "--n", "2", "--f", "A", "--g", "E6"], 2),
        (["bracket", "--family", "rc", "--n", "2", "--f", "E4^2", "--g", "E6"], 3),
        (["verify", "--suite", "stability", "--family", "crochet", "--params", "1,1", "--nmax", "1"], 1),
    ],
    ids=["passed", "past-the-budget", "usage-error", "internal-error", "failed-check"],
)
def test_main_leaves_the_allowance_unbounded_after_every_command(capsys, monkeypatch, argv, code):
    # so an in-process scan-conjecture that follows, as the benchmark's scan
    # op runs, is never charged
    from jacobiforms import brackets, elements, verifier
    from jacobiforms.elements import InternalInvariantError

    def broken(n, f, g):
        if f == E4 ** 2:
            raise InternalInvariantError("a stand-in for a broken invariant")
        return real_rc(n, f, g)

    real_rc, real_scan = brackets.rc_classical, verifier.scan_conjecture
    monkeypatch.setattr(brackets, "rc_classical", broken)
    monkeypatch.setitem(cli.WORK_BUDGET, "bracket", 20_000)
    assert run(capsys, *argv)[0] == code
    assert elements._allowance is None
    seen = []
    monkeypatch.setattr(verifier, "scan_conjecture", lambda *args: seen.append(elements._allowance) or real_scan(*args))
    assert run(capsys, "scan-conjecture", "--u", "0", "--nmax", "1", "--weight-cap", "4", "--index-cap", "1")[0] == 0
    assert seen == [None]


@pytest.mark.parametrize(
    "algebra, family, caps",
    [
        ("Jtilde", ["Crochet", "--params", "0,2"], ["--weight-cap", "2", "--index-cap", "0"]),
        ("Jtilde", ["accol", "--params", "1,1,0"], ["--weight-cap", "6", "--index-cap", "1"]),
        ("Jtilde", ["accol", "--params", "1,1,0"], ["--index-cap", "1"]),
        ("M", ["src"], ["--weight-cap", "12"]),
        ("Q", ["scal", "--params", "0,1"], ["--weight-cap", "4", "--index-cap", "2"]),
    ],
)
def test_verify_stability_basis_follows_the_caps(capsys, algebra, family, caps):
    from jacobiforms import monomial_basis

    argv = ["verify", "--suite", "stability", "--algebra", algebra, "--family", *family, "--nmax", "2", "--json"]
    code, out, _ = run(capsys, *argv, *caps)
    (report,) = json.loads(out)
    weight_cap = int(caps[caps.index("--weight-cap") + 1]) if "--weight-cap" in caps else 8
    index_cap = int(caps[caps.index("--index-cap") + 1]) if "--index-cap" in caps else 2
    assert report["params"]["basis_size"] == len(monomial_basis(weight_cap, index_cap, algebra))
    assert code == (0 if report["status"] == "pass" else 1)
    # without caps the suite keeps its default basis
    code, out, _ = run(capsys, *argv)
    assert json.loads(out)[0]["params"]["basis_size"] == {"Jtilde": 4, "M": 2, "Q": 3}[algebra]


def test_negative_rationals_via_equals_form(capsys):
    # a separate "-1/6,..." token parses as a flag; the = form avoids that
    code, out, _ = run(capsys, "deriv", "--name", "serre_ab", "--param=-1/6,-1/3", "--input", "A")
    assert code == 0
    assert out.strip() == "-1/6*B"
    code, out, _ = run(capsys, "iso", "--from=-1,2,3", "--to=1,-2,3", "--json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_leading_zeros_do_not_count_as_digits(capsys):
    # the digit bounds are on the numbers, not on the text
    code, out, _ = run(capsys, "deriv", "--name", "serre_ab", "--param=-00000000000001/0000000000006,1/" + "0" * 5000 + "3", "--input", "A")
    assert (code, out) == (0, "-1/6*B\n")
    code, out, _ = run(capsys, "deriv", "--name", "serre", "--input", "0" * 5000 + "7/" + "0" * 200 + "3*E4")
    assert (code, out) == (0, "-7/9*E6\n")


def test_a_reader_that_closes_early_gets_no_traceback():
    # `| head -1` on a scan of about 2 MB of rows: the closed pipe ends the
    # output, not the scan, which exits with its own status and a quiet stderr
    src = str(Path(jacobiforms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["scan-conjecture", "--u", "0", "--nmax", "2", "--weight-cap", "16", "--index-cap", "3"]
    with subprocess.Popen(
        [sys.executable, "-m", "jacobiforms.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")
    assert first == b"u=0 v=1 n=0 f=(1) g=(1) in_Jtilde=true\n"


def test_a_closed_stdout_exits_with_the_commands_own_code():
    # `>&-`: with fd 1 closed at startup sys.stdout is None, and the output
    # is dropped as for a reader that closed early
    src = str(Path(jacobiforms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "jacobiforms.cli", "expand", "--what", "A", "--N", "2"],
        stderr=subprocess.PIPE, env=env, preexec_fn=lambda: os.close(1), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "error, code, line",
    [
        (cli.UsageError("out of range"), 2, "error: out of range"),
        (jacobiforms.elements.BudgetExceeded(), 2, "error: expand exceeds its work budget of 200000000 multiply-adds"),
        (jacobiforms.elements.InternalInvariantError("broken"), 3, "internal invariant violated: broken"),
    ],
    ids=["usage", "budget", "internal"],
)
def test_a_command_that_fails_after_printing_prints_nothing(capsys, monkeypatch, error, code, line):
    # expand prints a row per power of q; the third row raises, after two are printed
    from jacobiforms import qseries

    format_wpoly, rows = qseries.format_wpoly, []

    def third_row_raises(poly):
        rows.append(poly)
        if len(rows) == 3:
            raise error
        return format_wpoly(poly)

    monkeypatch.setattr(qseries, "format_wpoly", third_row_raises)
    assert run(capsys, "expand", "--what", "A", "--N", "4") == (code, "", line + "\n")
    assert len(rows) == 3


# each command takes the options it reads: --json everywhere, --seed for the
# bidegree suite of verify, --allow-f2 where element text is read
OPTIONS = {
    "expand": ["--json", "--allow-f2", "--what", "--element", "--N", "--G"],
    "bracket": ["--json", "--allow-f2", "--family", "--params", "--n", "--f", "--g"],
    "deriv": ["--json", "--allow-f2", "--name", "--param", "--input", "--power"],
    "verify": ["--json", "--suite", "--family", "--params", "--seed", "--nmax", "--pairs", "--weight-cap", "--index-cap", "--algebra", "--u"],
    "classify": ["--json", "--params"],
    "iso": ["--json", "--from", "--to"],
    "scan-conjecture": ["--json", "--u", "--nmax", "--weight-cap", "--index-cap"],
}


def test_each_command_takes_only_the_options_it_reads():
    import argparse

    from jacobiforms.cli import _PARSER

    (commands,) = [action for action in _PARSER._actions if isinstance(action, argparse._SubParsersAction)]
    got = {name: sorted(s for action in p._actions for s in action.option_strings) for name, p in commands.choices.items()}
    assert got == {name: sorted(["-h", "--help", *options]) for name, options in OPTIONS.items()}


SEED, ALLOW_F2 = ["--seed", "1"], ["--allow-f2"]
DROPPED_OPTIONS = {
    "expand-seed": (["expand", "--what", "A", "--N", "1"], SEED),
    "bracket-seed": (["bracket", "--family", "rc", "--n", "1", "--f", "E4", "--g", "E6"], SEED),
    "deriv-seed": (["deriv", "--name", "serre", "--input", "E4"], SEED),
    "classify-seed": (["classify", "--params", "4,6,2,-2,0,0,0,0,0,0"], SEED),
    "iso-seed": (["iso", "--from", "2,3,5", "--to", "1,6,5"], SEED),
    "scan-seed": (["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "0"], SEED),
    "verify-allow-f2": (["verify", "--suite", "vinset", "--u", "0"], ALLOW_F2),
    "classify-allow-f2": (["classify", "--params", "4,6,2,-2,0,0,0,0,0,0"], ALLOW_F2),
    "iso-allow-f2": (["iso", "--from", "2,3,5", "--to", "1,6,5"], ALLOW_F2),
    "scan-allow-f2": (["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "0"], ALLOW_F2),
}


@pytest.mark.parametrize("argv, dropped", DROPPED_OPTIONS.values(), ids=DROPPED_OPTIONS.keys())
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv, dropped):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *dropped)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(dropped)}\n")



# suite -> (a run it accepts, an option it does not read, that option at its default)
UNREAD_SUITE_OPTIONS = {
    "associativity": (["--family", "accol", "--params", "1,1,0", "--nmax", "1"], ["--u", "5"], ["--u", ""]),
    "poisson": (["--family", "accol", "--params", "1,1,0", "--weight-cap", "2", "--index-cap", "1"], ["--nmax", "16"], ["--nmax", "3"]),
    "bidegree": (["--family", "accol", "--params", "1,1,0", "--nmax", "1", "--pairs", "2"], ["--algebra", "M"], ["--algebra", "Jtilde"]),
    "stability": (["--family", "accol", "--params", "1,1,0", "--nmax", "1", "--algebra", "M"], ["--seed", "3"], ["--seed", "0"]),
    "vinset": (["--u", "0"], ["--weight-cap", "4"], ["--params", ""]),
}


@pytest.mark.parametrize("suite", UNREAD_SUITE_OPTIONS)
def test_a_verify_suite_refuses_an_option_it_does_not_read(capsys, suite):
    argv, unread, at_default = UNREAD_SUITE_OPTIONS[suite]
    assert run(capsys, "verify", "--suite", suite, *argv)[0] == 0
    assert run(capsys, "verify", "--suite", suite, *argv, *at_default)[0] == 0
    assert run(capsys, "verify", "--suite", suite, *argv, *unread) == (2, "", f"error: --suite {suite} does not read {unread[0]}\n")


def test_expand_reads_allow_f2_with_what_element(capsys):
    code, out, err = run(capsys, "expand", "--what", "element", "--element", "F2*A", "--N", "2", "--allow-f2")
    assert (code, err) == (0, "")
    assert out == run(capsys, "expand", "--what", "element", "--element", "B", "--N", "2")[1]


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_a_reproduce_line_pasted_into_a_shell_gives_back_the_argv(capsys, extra):
    argv = ["verify", "--suite", "stability", "--family", "crochet", "--params", "1, 1", "--nmax", "1", *extra]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    line = json.loads(out)[0]["witness"]["reproduce"] if extra else json.loads(out.split("witness: ", 1)[1])["reproduce"]
    assert line == "jacobiforms verify --suite stability --family crochet --params '1, 1' --nmax 1" + (" --json" if extra else "")
    program, *words = shlex.split(line)
    assert (program, words) == ("jacobiforms", argv)
    assert run(capsys, *words) == (code, out, err)

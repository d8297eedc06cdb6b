import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobiforms
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
    ],
    ids=[
        "N-negative", "N-above", "G-zero", "G-above", "N-before-G", "n-negative", "rc-n-above", "power-negative", "power-above",
        "bracket-params-first", "deriv-params-first", "N-unicode", "params-unicode", "associativity-size", "scan-size", "scan-size-u-values",
    ],
)
def test_size_bounds_name_the_option_and_its_range(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


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
        ["verify", "--suite", "bidegree", "--family", "src", "--pairs", "2", "--weight-cap", "12", "--index-cap", "3"],
        ["scan-conjecture", "--u", "0", "--nmax", "12", "--weight-cap", "0", "--index-cap", "0"],
        ["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "32", "--index-cap", "0"],
        ["scan-conjecture", "--u", "0", "--nmax", "0", "--weight-cap", "0", "--index-cap", "6"],
        # basis pairs * (nmax + 1) * u values at MAX_SCAN_SIZE: 193^2 * 3 * 1
        ["scan-conjecture", "--u", "0", "--weight-cap", "32"],
    ],
    ids=["verify-nmax-16", "verify-pairs-1000", "verify-caps-12-3", "scan-nmax-12", "scan-weight-cap-32", "scan-index-cap-6", "scan-size-at-its-limit"],
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


def test_a_reader_that_closes_early_gets_no_traceback():
    # `| head -1` on a scan of about 2 MB of rows: the closed pipe ends the
    # output, not the scan, which exits with its own status and a quiet stderr
    src = str(Path(jacobiforms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["scan-conjecture", "--u", "0", "--nmax", "2", "--weight-cap", "16", "--index-cap", "3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "jacobiforms.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert first == b"u=0 v=1 n=0 f=(1) g=(1) in_Jtilde=true\n"

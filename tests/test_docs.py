"""The README's command-line limits, its tables and its prose, against cli."""

import re
from pathlib import Path

import pytest

from jacobiforms import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SIZE_HEADER = "| Command | Option | Least | Largest |"
BUDGET_HEADER = "| Command | Work budget (multiply-adds) |"
# The sentence of the README that states each limit of cli, with the number
# as its group; the text is read with its line breaks as spaces
PROSE = {
    "MAX_ASSOCIATIVITY_SIZE": r"basis size times `--nmax` to be at most ([\d,]+)",
    "MAX_SCAN_SIZE": r"number of `--u` values to be at most ([\d,]+)",
    "MAX_PARAMETER_SIZE": r"and of the largest exponent of the inputs at ([\d,]+)",
    "MAX_ELEMENT_EXPONENT": r"`expand --element` accepts exponents of size at most ([\d,]+)",
    "MAX_VINSET_U_VALUES": r"`verify --suite vinset` accepts at most ([\d,]+) `--u` values",
}


def _table(text: str, header: str) -> list[list[str]]:
    """The cells of the rows of the markdown table under header, without
    backticks; the rows end at the first line that is not a table line."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip().strip("|").split("|")])
    return rows


def _size_ranges(text: str) -> dict:
    ranges: dict = {}
    for command, option, least, largest in _table(text, SIZE_HEADER):
        ranges.setdefault(command, {})[option.removeprefix("--").replace("-", "_")] = (int(least), int(largest))
    return ranges


def _work_budget(text: str) -> dict:
    return {command: int(budget.replace(",", "")) for command, budget in _table(text, BUDGET_HEADER)}


def _prose_limits(text: str) -> dict:
    """Each limit of PROSE as the list of the numbers its sentence states."""
    flat = " ".join(text.split())
    return {name: [int(n.replace(",", "")) for n in re.findall(pattern, flat)] for name, pattern in PROSE.items()}


CLI_LIMITS = {name: [getattr(cli, name)] for name in PROSE}


def test_the_readme_size_ranges_are_cli_size_ranges():
    assert _size_ranges(README.read_text()) == cli.SIZE_RANGES


def test_the_readme_work_budgets_are_cli_work_budgets():
    assert _work_budget(README.read_text()) == cli.WORK_BUDGET


@pytest.mark.parametrize(
    "old, new",
    [("| `deriv` | `--power` | 0 | 300 |", "| `deriv` | `--power` | 0 | 301 |"), ("| `scan-conjecture` | `--nmax` | 0 | 12 |\n", "")],
    ids=["edited-bound", "dropped-row"],
)
def test_an_edited_size_range_row_is_seen(old, new):
    text = README.read_text()
    assert old in text
    assert _size_ranges(text.replace(old, new)) != cli.SIZE_RANGES


def test_an_edited_budget_row_is_seen():
    text = README.read_text()
    (row,) = [line for line in text.splitlines() if line.startswith("| `bracket` | ") and line.count("|") == 3]
    assert _work_budget(text.replace(row, "| `bracket` | 1 |")) != cli.WORK_BUDGET


def test_the_readme_prose_limits_are_cli_limits():
    assert _prose_limits(README.read_text()) == CLI_LIMITS


@pytest.mark.parametrize(
    "old, new",
    [
        ("to be at most 159,", "to be at most 160,"),
        ("to be at most 111,747:", "to be at most 111,748:"),
        ("of the inputs at 2,400,", "of the inputs at 2,300,"),
        ("exponents of size at most 8,", "exponents of size at most 9,"),
        ("accepts at most 5,000 `--u` values", "accepts at most 50,000 `--u` values"),
    ],
    ids=["associativity-size", "scan-size", "parameter-size", "element-exponent", "vinset-u-values"],
)
def test_an_edited_prose_limit_is_seen(old, new):
    text = " ".join(README.read_text().split())
    assert text.count(old) == 1
    assert _prose_limits(text.replace(old, new)) != CLI_LIMITS

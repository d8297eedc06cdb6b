"""The README's tables of command-line limits against the tables in cli."""

from pathlib import Path

import pytest

from jacobiforms import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SIZE_HEADER = "| Command | Option | Least | Largest |"
BUDGET_HEADER = "| Command | Work budget (multiply-adds) |"


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

"""Every default figure table is pinned byte for byte.

``benchmarks/goldens/<command>.txt`` holds the stdout of
``python -m repro <command>`` at its defaults. Each case reruns the
command in-process (figures with ``--no-cache --no-journal --jobs 1``)
and, on any difference, names the command, the first differing row and
the column it falls in. fig7 and fig8 take seconds each, so they run
with the ``smoke`` marker (``pytest -m smoke``); the rest are tier-1.
A deliberate change to a table is recorded by regenerating its file::

    PYTHONPATH=src python -m repro fig7 > benchmarks/goldens/fig7.txt
"""

import os
import re

import pytest

from repro.cli import main

GOLDENS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                       "goldens")

#: Commands that take no sweep options (no cache, journal or jobs).
PLAIN = {"table1", "logp"}

COMMANDS = [
    "table1", "logp", "fig6",
    pytest.param("fig7", marks=pytest.mark.smoke),
    pytest.param("fig8", marks=pytest.mark.smoke),
    "fig9", "fig10", "fig11", "fig12",
]


def _is_rule(line):
    """A table's dash rule: only dashes and the spaces between columns."""
    return "-" in line and not line.strip(" -")


def first_difference(command, expected, actual):
    """Describe where ``actual`` first departs from ``expected``, or
    return None when they are equal."""
    if actual == expected:
        return None
    want, got = expected.splitlines(), actual.splitlines()
    row = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
               min(len(want), len(got)))
    if len(want) == len(got) == row:
        return f"{command}: equal lines, different line endings"
    if row >= len(want) or row >= len(got):
        missing = "missing" if row >= len(got) else "unexpected"
        line = want[row] if row < len(want) else got[row]
        return f"{command}: line {row + 1} {missing}: {line!r}"
    old, new = want[row], got[row]
    col = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
               min(len(old), len(new)))
    column, label = "?", old.split()[0] if old.split() else ""
    rule = next((i for i in range(row - 1, 0, -1) if _is_rule(want[i])),
                None)
    if rule is not None:
        starts = [m.start() for m in re.finditer(r"-+", want[rule])]
        at = max((i for i, s in enumerate(starts) if s <= col), default=0)
        end = starts[at + 1] if at + 1 < len(starts) else None
        column = want[rule - 1][starts[at]:end].strip()
        label = old[:starts[1] if len(starts) > 1 else None].strip()
    return (f"{command}: line {row + 1}, row {label!r}, column {column!r}: "
            f"expected {old!r}, got {new!r}")


@pytest.mark.parametrize("command", COMMANDS)
def test_default_table_matches_golden(command, capsys):
    argv = [command] if command in PLAIN else [
        command, "--no-cache", "--no-journal", "--jobs", "1"]
    assert main(argv) in (0, None)
    actual = capsys.readouterr().out
    with open(os.path.join(GOLDENS, f"{command}.txt"),
              encoding="utf-8") as handle:
        expected = handle.read()
    difference = first_difference(command, expected, actual)
    assert difference is None, difference


def test_first_difference_names_row_and_column():
    with open(os.path.join(GOLDENS, "fig7.txt"), encoding="utf-8") as handle:
        golden = handle.read()
    moved = golden.replace("96  33.2        17.9", "96  33.2        18.0")
    assert moved != golden
    message = first_difference("fig7", golden, moved)
    assert message.startswith("fig7: line 7, row '96', column 'sun'")
    assert first_difference("fig7", golden, golden) is None
    assert "missing" in first_difference("fig7", golden,
                                         golden.split("\n\n")[0] + "\n")

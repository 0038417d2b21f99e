"""Byte-for-byte regression of whole reports.

`golden/commands.json` maps a name to an argv (each with --no-timings), or to
`{"argv": …, "exit": code}` for a command that must exit with a nonzero code,
and `golden/<name>.json` holds the report that argv printed when it was
recorded.
A change that alters any report byte fails here; when the change is meant,
rerun `PYTHONPATH=src python tests/test_golden.py [NAME ...]` to re-record
the named reports (all of them when no name is given), and review their
diff.  It refuses an unknown name and prints the name of each report whose
bytes changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hesse_lab.cli import main
from hesse_lab.reports import SCHEMA

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def command(entry):
    """(argv, expected exit code) of one commands.json entry."""
    if isinstance(entry, dict):
        return entry["argv"], entry["exit"]
    return entry, 0


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    argv, expected = command(COMMANDS[name])
    code, text = report(argv)
    assert code == expected
    assert text == (GOLDEN / f"{name}.json").read_text()


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def test_no_report_carries_a_mode():
    # one verdict path: schema hesse-lab/5 dropped every mode key
    for name in COMMANDS:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert doc["schema"] == SCHEMA
        assert not {"mode", "hessian_mode", "mode_requested"} & set(_keys(doc)), name


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        sys.exit(f"unknown golden: {', '.join(unknown)}")
    for name in names:
        argv, expected = command(COMMANDS[name])
        code, text = report(argv)
        if code != expected:
            sys.exit(f"{name}: exit {code}")
        path = GOLDEN / f"{name}.json"
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(f"changed: {name}")

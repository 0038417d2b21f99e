"""Byte-for-byte regression of whole reports.

`golden/commands.json` maps a name to an argv (each with --no-timings), or to
`{"argv": …, "exit": code}` for a command that must exit with a nonzero code,
and `golden/<name>.json` holds the report that argv printed when it was
recorded.
A change that alters any report byte fails here; when the change is meant,
rerun `PYTHONPATH=src python tests/test_golden.py [NAME ...]` to re-record
the named reports (all of them when no name is given), and review their
diff.  It refuses an unknown name, and prints the name of each report whose
bytes changed, then each JSON key path in it that was added, removed or
changed.
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


def test_no_report_carries_a_second_span_check():
    # the normal form alone decides whether ψ_g's image spans Π: schema
    # hesse-lab/8 dropped the curve's span_rank and the p4 suite's guard
    for name in COMMANDS:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert not {"span_rank", "degenerate_image_guard"} & set(_keys(doc)), name


def test_no_report_carries_a_curve_point_count():
    # the P^4 curve is one exact kernel per degree on ψ_g's binary image,
    # which reads no point: schema hesse-lab/9 dropped plane_curve.points_used
    for name in COMMANDS:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert "points_used" not in set(_keys(doc)), name


def test_no_report_carries_an_image_sample():
    # the battery proves ψ_g's image in P(W) and g(∇f) ≡ 0 symbolically, so
    # a sample of either image certifies nothing: schema hesse-lab/10
    # dropped the `image` and `polar_image` blocks
    for name in COMMANDS:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert not {"image", "polar_image"} & set(_keys(doc)), name


def _moved(old, new, path="$"):
    """(mark, path) for each JSON key path where new differs from old."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            if key not in new:
                yield "removed", f"{path}.{key}"
            elif key not in old:
                yield "added", f"{path}.{key}"
            else:
                yield from _moved(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            if i >= len(new):
                yield "removed", f"{path}[{i}]"
            elif i >= len(old):
                yield "added", f"{path}[{i}]"
            else:
                yield from _moved(old[i], new[i], f"{path}[{i}]")
    elif old != new:
        yield "changed", path


def test_the_rerecord_lists_each_key_path_that_moved():
    old = {"schema": "a", "r": {"x": 1, "gone": 2}, "l": [1, {"k": 1}]}
    new = {"schema": "b", "r": {"x": 1, "new": 3}, "l": [1, {"k": 2}, 3]}
    assert list(_moved(old, new)) == [
        ("changed", "$.schema"), ("removed", "$.r.gone"), ("added", "$.r.new"),
        ("changed", "$.l[1].k"), ("added", "$.l[2]"),
    ]


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
        old = path.read_text() if path.exists() else None
        if old != text:
            path.write_text(text)
            print(f"changed: {name}")
            for mark, moved in _moved(json.loads(old) if old else None, json.loads(text)):
                print(f"  {mark} {moved}")

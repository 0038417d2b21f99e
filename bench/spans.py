"""Span tracer that wraps public functions of the hesse_lab layers from outside.

`install(tracer)` replaces each target function by a wrapper that records a
span (op, parent span, name, start, end) and puts the wrapper in every
hesse_lab module namespace that holds the original, because names bound by
`from .x import y` (for example `psi.gcd_list`, `gn.symbolic_determinant`,
`cli.build_psi`) are separate bindings.  A target that cannot be found raises
`LookupError`.  Spans stay in memory until `write_spans` or `summary`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (home module, qualified name, span name); span names are "<layer>.<function>"
TARGETS = (
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.compose", "poly.compose"),
    ("poly", "gcd", "poly.gcd"),
    ("poly", "gcd_list", "poly.gcd_list"),
    ("linalg", "kernel", "linalg.kernel"),
    ("hessian", "symbolic_determinant", "hessian.symbolic_determinant"),
    ("hessian", "hessian_vanishes", "hessian.hessian_vanishes"),
    ("hessian", "polar_image_dim", "hessian.polar_image_dim"),
    ("cones", "cone_test", "cones.cone_test"),
    ("gn", "build_f", "gn.build_f"),
    ("gn", "random_instance", "gn.random_instance"),
    ("psi", "find_polar_relation", "psi.find_polar_relation"),
    ("psi", "build_psi", "psi.build_psi"),
    ("psi", "check_invariance", "psi.check_invariance"),
    ("psi", "sample_image", "psi.sample_image"),
    ("psi", "sample_polar_image", "psi.sample_polar_image"),
    ("psi", "check_fiber_lines", "psi.check_fiber_lines"),
    ("classify", "low_dim_hesse_suite", "classify.low_dim_hesse_suite"),
    ("classify", "p4_plane_curve_check", "classify.p4_plane_curve_check"),
    ("classify", "p4_section_check", "classify.p4_section_check"),
    ("reports", "psi_identity_battery", "reports.psi_identity_battery"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_catalog", "cli.catalog"),
)


class Tracer:
    """In-memory span store; spans of one op share the op id."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.op_ids = array("l")
        self.name_ids = array("l")
        self.parents = array("l")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self._op_counts = Counter()
        self._op = 0
        self._op_first_span = 0
        self._stack = []
        self._open = [0] * len(self.names)

    def start_op(self, op):
        self._op = op
        self._op_first_span = len(self.starts)
        self._stack = []
        self._open = [0] * len(self.names)
        self._op_counts = Counter()

    def drop_op(self):
        """Forget the spans and counts of the current op (an overrun)."""
        keep = self._op_first_span
        for column in (self.op_ids, self.name_ids, self.parents, self.nested, self.starts, self.ends):
            del column[keep:]
        self._stack = []
        self._op_counts = Counter()

    def end_op(self):
        self.counts.update(self._op_counts)
        self._op_counts = Counter()

    def count(self, key, n=1):
        self._op_counts[key] += n

    def wrap(self, fn, name, probe=None):
        name_id = self._name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = len(self.starts)
            self.op_ids.append(self._op)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.nested.append(1 if self._open[name_id] else 0)
            self.ends.append(0.0)
            self._open[name_id] += 1
            stack.append(sid)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = perf_counter()
                stack.pop()
                self._open[name_id] -= 1
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    def absorb(self, exported, op):
        """Append spans and counts exported by a child process as op `op`."""
        base = len(self.starts)
        for name, parent, nested, start, end in zip(*exported["spans"]):
            self.op_ids.append(op)
            self.name_ids.append(self._name_id[name])
            self.parents.append(parent + base if parent >= 0 else -1)
            self.nested.append(nested)
            self.starts.append(start)
            self.ends.append(end)
        self.counts.update(exported["counts"])

    def export(self):
        names = self.names
        return {
            "spans": [
                [names[i] for i in self.name_ids],
                list(self.parents),
                list(self.nested),
                list(self.starts),
                list(self.ends),
            ],
            "counts": dict(self.counts),
        }

    def summary(self):
        """Per span name: calls, self_s (duration minus direct children) and
        total_s (outermost spans of that name only, so recursion is not
        counted twice)."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        rows = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            row = rows[self.names[self.name_ids[i]]]
            dur = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self.nested[i]:
                row["total_s"] += dur
        return rows

    def write_spans(self, path):
        """One line per span: op, span id, parent id, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.op_ids[i]}\t{i}\t{self.parents[i]}\t"
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )


def _kernel_probe(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.count("linalg.kernel.entries", matrix.rows * matrix.cols)


def _hessian_probe(tracer, args, kwargs, verdict):
    tracer.count(f"hessian.hessian_vanishes.{verdict.mode}_calls")


def _instance_probe(tracer, args, kwargs, instance):
    tracer.count("gn.random_instance.returned")


PROBES = {
    "linalg.kernel": _kernel_probe,
    "hessian.hessian_vanishes": _hessian_probe,
    "gn.random_instance": _instance_probe,
}


def install(tracer):
    """Wrap every target; return a function that restores the originals."""
    for module in {m for m, _, _ in TARGETS}:
        importlib.import_module(f"hesse_lab.{module}")
    modules = [
        mod for key, mod in sys.modules.items()
        if key == "hesse_lab" or key.startswith("hesse_lab.")
    ]
    undo = []
    try:
        for module, qualname, span_name in TARGETS:
            owner = importlib.import_module(f"hesse_lab.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                raise LookupError(f"trace target hesse_lab.{module}.{qualname} not found")
            wrapper = tracer.wrap(original, span_name, PROBES.get(span_name))
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)

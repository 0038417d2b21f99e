"""hesse-lab benchmark: verify-all, analyze-ladder and catalog-large.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]

Each op is one call of `hesse_lab.cli.main` in a closed loop with one client.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
the ops once untraced and once traced and prints per-layer metrics taken
from spans around the layers' public functions.  The last line of stdout is
a JSON object with the keys correct, attempted, failed and metrics.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import spans
    import workloads
except ModuleNotFoundError as exc:  # a copy of the benchmark without src/
    if exc.name != "hesse_lab":
        raise
    workloads = None

SETUP_REPEATS = 5
# A ladder rung that finishes in less than this many host-scaled seconds runs
# three times and counts the median; without this the median rung alone set
# op_p50_s, and one burst of host noise moved it by 10-20%.
REPEAT_BELOW_S = 2.0
# A child that ignores its own budget alarm is killed this long after it.
KILL_GRACE_S = 60

# per-layer metrics printed in the JSON line (see README for the mapping);
# times are listed only for spans that every workload enters
LAYER_CALLS = (
    "hessian.symbolic_determinant", "linalg.kernel", "poly.gcd", "poly.mul",
    "poly.compose", "gn.build_f", "gn.random_instance", "cones.cone_test",
)
LAYER_SELF_S = (
    "hessian.symbolic_determinant", "hessian.hessian_vanishes", "linalg.kernel",
    "poly.mul", "poly.compose", "cones.cone_test", "cli.main",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="hesse-lab benchmark")
    p.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def _child(request, timeout):
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=json.dumps(request), capture_output=True, text=True, timeout=timeout,
    )


def _reply(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setup(workload, seed, seconds):
    """Set up SETUP_REPEATS times in fresh processes; all must draw the same
    ops.  Returns the (host-scaled, raw) set-up times and the ops."""
    times, drawn = [], []
    for _ in range(SETUP_REPEATS):
        out = _reply(_child({"kind": "setup", "workload": workload, "seed": seed, "seconds": seconds}, 300))
        times.append((out["setup_s"] * out["scale"], out["setup_s"]))
        drawn.append(out["ops"])
    if any(d != drawn[0] for d in drawn):
        raise RuntimeError("set-up drew different inputs from one seed")
    return times, [workloads.Op(tuple(argv), label) for argv, label in drawn[0]]


def run_in_child(op, tracer=None, op_id=0):
    request = {"kind": "op", "argv": list(op.argv), "budget_s": workloads.BUDGET_S,
               "trace": tracer is not None}
    try:
        proc = _child(request, workloads.BUDGET_S + KILL_GRACE_S)
    except subprocess.TimeoutExpired:
        return workloads.OpResult(None, workloads.BUDGET_S, "", "killed at the budget", 1.0)
    if proc.returncode != 0:  # the interpreter itself died, e.g. out of memory
        return workloads.OpResult(proc.returncode, 0.0, "", proc.stderr, 1.0)
    out = _reply(proc)
    if tracer is not None:
        tracer.absorb(out["trace"], op_id)
    return workloads.OpResult(out["rc"], out["elapsed_s"], out["report"], out["stderr"], out["scale"])


def run_rung(op, outcome):
    """One ladder op; see REPEAT_BELOW_S.  The repeats' reports must be
    byte-identical to the first."""
    first = run_in_child(op)
    if first.overrun or first.elapsed_s * first.scale >= REPEAT_BELOW_S:
        return first
    runs = [first, run_in_child(op), run_in_child(op)]
    if any(not r.overrun and (r.rc, r.report) != (first.rc, first.report) for r in runs):
        outcome.problems.append(f"{op.label}: repeated runs gave different reports")
    return sorted(runs, key=lambda r: r.elapsed_s * r.scale)[1]


def run_in_process(op, tracer=None, op_id=0):
    return workloads.call_cli(op.argv, tracer=tracer, op_id=op_id)


class Outcome:
    """Per-op verdicts of one run."""

    def __init__(self):
        self.times = []       # (host-scaled, raw) PAR-2 time per op
        self.spent = []       # (host-scaled, raw) time spent per op
        self.forms = 0
        self.solved = 0
        self.problems = []    # wrong answers, crashes, nondeterminism
        self.overruns = 0
        self.slowdowns = []   # reference time over REFERENCE_S, per op

    def add(self, label, op, result):
        ok = False
        if result.overrun:
            self.overruns += 1
        else:
            forms, problems = workloads.check(op, result)
            self.problems += [f"{label}: {p}" for p in problems]
            if not problems:
                ok = True
                self.forms += forms
        self.solved += ok
        raw, scale = result.elapsed_s, result.scale
        self.slowdowns.append(1 / scale)
        # the budget is a fixed policy, so an overrun costs it unscaled
        self.spent.append((workloads.BUDGET_S,) * 2 if result.overrun else (raw * scale, raw))
        self.times.append((raw * scale, raw) if ok else (2 * workloads.BUDGET_S,) * 2)
        return ok

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return self.attempted - self.solved


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, but never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100 * (n - 10) / n
    return statistics.median(ordered), 50.0


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def _timings(outcome, setup_times, which):
    """Time metrics from column `which` (0 host-scaled, 1 raw) of the samples."""
    times = [t[which] for t in outcome.times]
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": statistics.median(t[which] for t in setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "work_s": sum(times),
        "forms_per_s": outcome.forms / sum(t[which] for t in outcome.spent),
    }, tail_pct


def end_to_end(workload, ops, setup_times, out):
    ladder = workload == "analyze-ladder"
    execute = run_in_child if ladder else run_in_process
    outcome = Outcome()
    per_op = []
    for i, op in enumerate(ops):
        result = run_rung(op, outcome) if ladder else execute(op)
        ok = outcome.add(f"op {i} {op.label}", op, result)
        status = "ok" if ok else "overrun" if result.overrun else "FAILED"
        scaled = "-" if result.overrun else f"{result.elapsed_s * result.scale:.4f}"
        per_op.append(f"  {op.label:<26} {status:<8} {scaled:>9} {result.elapsed_s:>9.4f} s")
        if i == 0:
            first = result
    repeat = execute(ops[0])
    if not first.overrun and repeat.report != first.report:
        outcome.problems.append("op 0 repeated with --no-timings gave a different report")
    scaled, tail_pct = _timings(outcome, setup_times, 0)
    raw, _ = _timings(outcome, setup_times, 1)
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "op_p50_s": (scaled["op_p50_s"], "s"),
        "op_tail_s": (scaled["op_tail_s"], "s"),
        "work_s": (scaled["work_s"], "s"),
        "solved": (outcome.solved, "count"),
        "forms_per_s": (scaled["forms_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out(f"== {workload}  {len(ops)} ops  budget {workloads.BUDGET_S:g} s  "
        f"median host slowdown {statistics.median(outcome.slowdowns):.3f}")
    out(f"  {'metric':<14} {'host-scaled':>12} {'raw wall':>12}")
    for name, (value, unit) in metrics.items():
        out(f"  {name:<14} {value:>12.6g} {raw.get(name, value):>12.6g} {unit}")
        if name == "solved":
            share = outcome.failed / outcome.attempted
            out(f"  {'failed_ops':<14} {share:>12.6g} {share:>12.6g} share "
                f"({outcome.failed} of {outcome.attempted}, {outcome.overruns} over budget)")
    out(f"  op_tail_s is p{tail_pct:.1f} of {outcome.attempted} op times"
        f" (failed ops count {2 * workloads.BUDGET_S:g} s)")
    if workload == "analyze-ladder":
        out(f"  {'rung':<26} {'status':<8} {'scaled':>9} {'raw':>9}")
        for line in per_op:
            out(line)
    return outcome, metrics


def per_layer(workload, ops, spans_path, out):
    """Each op once untraced and once traced; the ladder's untraced run
    goes first so an overrun is not repeated."""
    ladder = workload == "analyze-ladder"
    if not ladder:
        ops = ops[: max(1, len(ops) // 2)]
    execute = run_in_child if ladder else run_in_process
    tracer = spans.Tracer()
    outcome = Outcome()
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        plain_first = ladder or i % 2 == 0
        plain = execute(op) if plain_first else None
        traced = None
        if not (plain and plain.overrun):
            traced = execute(op, tracer, i)
        if plain is None:
            plain = execute(op)
        label = f"op {i} {op.label}"
        ok = outcome.add(label, op, traced or plain)
        if ok and not plain.overrun:
            if (plain.rc, plain.report) != (traced.rc, traced.report):
                outcome.problems.append(f"{label}: traced and untraced reports differ")
            plain_s += plain.elapsed_s * plain.scale
            traced_s += traced.elapsed_s * traced.scale
    rows = tracer.summary()
    counts = tracer.counts
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (rows[name]["calls"], "count")
    for mode in ("symbolic", "probabilistic"):
        key = f"hessian.hessian_vanishes.{mode}_calls"
        metrics[key] = (counts[key], "count")
    metrics["linalg.kernel.entries"] = (counts["linalg.kernel.entries"], "count")
    returned = counts["gn.random_instance.returned"]
    draws = rows["gn.build_f"]["calls"] / returned if returned else 0.0
    metrics["gn.draws_per_instance"] = (draws, "ratio")
    metrics["cli.report_bytes"] = (counts["cli.report_bytes"], "bytes")
    for name in LAYER_SELF_S:
        metrics[f"{name}.self_s"] = (rows[name]["self_s"], "s")
    metrics["cli.main.total_s"] = (rows["cli.main"]["total_s"], "s")
    overhead = 100 * (traced_s / plain_s - 1) if plain_s else 0.0
    metrics["tracing.overhead_pct"] = (overhead, "%")

    out(f"== {workload}  traced {len(ops)} ops")
    out(f"  {'span':<32} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    for name, row in rows.items():
        out(f"  {name:<32} {row['calls']:>9} {row['self_s']:>10.4f} {row['total_s']:>10.4f}")
    for name, (value, unit) in metrics.items():
        out(f"  {name:<44} {value:>12.6g} {unit}")
    out(f"  tracing overhead: traced {traced_s:.3f} s vs untraced {plain_s:.3f} s, host-scaled")
    tracer.write_spans(spans_path)
    out(f"  spans written to {spans_path}")
    return outcome, metrics


def run(workload, seed, seconds, trace, out=print):
    setup_times, ops = timed_setup(workload, seed, seconds)
    if trace:
        spans_path = BENCH / "out" / f"spans-{workload}-seed{seed}.tsv.gz"
        outcome, metrics = per_layer(workload, ops, spans_path, out)
    else:
        outcome, metrics = end_to_end(workload, ops, setup_times, out)
    for problem in outcome.problems:
        out(f"  FAILED {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    if workloads is None:
        print(f"bench: cannot import hesse_lab from {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: seeded inputs, one CLI call per op, known-answer checks.

Every op is one `hesse_lab.cli.main(argv)` call.  The program receives only
the generated inputs (form text, --seed and --types arguments); the expected
answers below come from the theory of the construction, not from the
program under test.
"""

from __future__ import annotations

import io
import json
import signal
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import hostspeed
import spans
from hesse_lab import cli
from hesse_lab.gn import GNSkeleton, random_instance

WORKLOADS = ("verify-all", "analyze-ladder", "catalog-large")

VERIFY_COUNT = 1
CATALOG_COUNT = 1
CATALOG_TYPES = ("6,3,1,2,1,5", "7,4,1,2,1,5", "7,5,1,2,1,6", "8,5,1,2,1,6")
# ordered by variable count (n+1), then degree
LADDER = (
    "4,2,1,2,1,3", "4,2,1,2,1,4", "4,2,1,2,1,6",
    "5,2,1,2,1,5", "5,3,1,2,1,6", "5,2,1,2,1,6",
    "6,3,1,2,1,5", "6,3,1,2,1,6",
    "7,4,1,2,1,5", "7,5,1,2,1,6", "7,4,1,2,1,6",
)
# Host-scaled seconds (see hostspeed.py) one op takes at the seed commit on a
# 2-core x86 host with CPython 3.11.  They fix how many ops a run of --seconds
# holds, so later, faster code runs the same ops in less time.
NOMINAL_OP_S = {"verify-all": 0.23, "catalog-large": 0.36}
# Per-op wall-clock budget.  The slowest op that finishes (the 7,5,1,2,1,6
# rung) takes 4-6.3 s, and about 8 s traced on a slowed host, so host noise
# does not push a finishing op over it and `solved` repeats exactly.
BUDGET_S = 15.0
# Op seeds of one run are consecutive; runs with different --seed never share one.
SEED_STRIDE = 10_000
# The ladder is one fixed instance set: the GN draw with this seed for every
# rung, while the run's --seed goes to `analyze --seed`.  With forms drawn
# from the run seed, the median rung (7,4,1,2,1,5) took 0.53-0.86 s over six
# seeds, an IQR of 22% of the median: nearly the 25% regression bound.
LADDER_FORM_SEED = 0


@dataclass(frozen=True)
class Op:
    argv: tuple  # argv[0], the command, selects the known-answer check
    label: str


def op_count(workload, seconds):
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def make_ops(workload, seed, seconds):
    """The op list of one run; the same arguments give the same ops."""
    base = seed * SEED_STRIDE
    if workload == "verify-all":
        return [
            Op(("verify", "--suite", "all", "--count", str(VERIFY_COUNT),
                "--seed", str(base + i), "--no-timings"), f"verify seed {base + i}")
            for i in range(op_count(workload, seconds))
        ]
    if workload == "catalog-large":
        types = [a for t in CATALOG_TYPES for a in ("--types", t)]
        return [
            Op(("catalog", *types, "--count", str(CATALOG_COUNT),
                "--seed", str(base + i), "--no-timings"), f"catalog seed {base + i}")
            for i in range(op_count(workload, seconds))
        ]
    if workload == "analyze-ladder":
        ops = []
        for rung in LADDER:
            skel = GNSkeleton(*(int(x) for x in rung.split(",")))
            form = random_instance(skel, seed=LADDER_FORM_SEED).f.to_string("x")
            argv = ("analyze", "--poly", form, "--seed", str(seed), "--no-timings")
            ops.append(Op(argv, f"analyze {rung}"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


class Overrun(BaseException):
    """Raised in the op when its budget runs out; not an Exception, so the
    program under test cannot catch it."""


def _on_alarm(signum, frame):
    raise Overrun


@dataclass
class OpResult:
    rc: int | None  # None when the op overran its budget
    elapsed_s: float
    report: str
    stderr: str
    scale: float  # host-speed factor for elapsed_s, see hostspeed.py

    @property
    def overrun(self):
        return self.rc is None


def call_cli(argv, budget_s=BUDGET_S, tracer=None, op_id=0):
    """Run one op in this process.  With a tracer, the op's spans are kept
    under `op_id`, or dropped if it overran."""
    if tracer is None:
        return _timed_main(argv, budget_s)
    tracer.start_op(op_id)
    undo = spans.install(tracer)
    try:
        result = _timed_main(argv, budget_s)
    finally:
        undo()
    if result.overrun:
        tracer.drop_op()
    else:
        tracer.count("cli.report_bytes", len(result.report.encode()))
        tracer.end_op()
    return result


def _timed_main(argv, budget_s):
    """The timer covers only the main() call; the host-speed reference runs
    just before and after it."""
    out, err = io.StringIO(), io.StringIO()
    before = hostspeed.reference_s()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    rc = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, budget_s)
                    rc = cli.main(list(argv))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Overrun:
                rc = None
            except Exception:  # a traceback: the op failed, the run goes on
                traceback.print_exc()
                rc = 1
            elapsed = time.perf_counter() - started
    finally:
        signal.signal(signal.SIGALRM, previous)
    if elapsed > budget_s:
        rc = None
    scale = hostspeed.scale(before, hostspeed.reference_s())
    return OpResult(rc, elapsed, out.getvalue(), err.getvalue(), scale)


def _expected_s(m, hdeg, psideg):
    """Degree s of the Q_l: 1 + (m+1)(hdeg-1)·psideg."""
    return 1 + (m + 1) * (hdeg - 1) * psideg


def check(op, result):
    """Known-answer check of one finished op: (forms checked, problems)."""
    if result.rc != 0:
        last = result.stderr.strip().splitlines()[-1:]
        return 0, [f"exit code {result.rc}: {' '.join(last)}"]
    try:
        doc = json.loads(result.report)
    except json.JSONDecodeError as exc:
        return 0, [f"report is not JSON: {exc}"]
    res = doc["results"]
    problems = []
    if op.argv[0] == "verify":
        for suite in ("lowdim", "gn", "psi", "p4"):
            if res[suite]["ok"] is not True:
                problems.append(f"suite {suite} reports ok={res[suite]['ok']}")
        if res["ok"] is not True:
            problems.append("verify reports ok=false")
        for e in res["gn"]["entries"]:
            # the gn suite draws skeletons with hdeg 2, psideg 1
            problems += _gn_entry_problems(e, _expected_s(e["type"][2], 2, 1))
        if res["psi"]["relation"]["certificate_zero"] is not True:
            problems.append("paper cubic relation certificate is not zero")
        forms = (
            res["lowdim"]["instances"] + len(res["gn"]["entries"]) + 1 + len(res["p4"]["cases"])
        )
        return forms, problems
    if op.argv[0] == "catalog":
        entries = res["catalog"]
        wanted = [t for t in CATALOG_TYPES for _ in range(CATALOG_COUNT)]
        got = [",".join(str(x) for x in (*e["type"], e["hdeg"], e["psideg"], e["d"])) for e in entries]
        if got != wanted:
            problems.append(f"catalog entries {got} != requested {wanted}")
        for e in entries:
            problems += _gn_entry_problems(e, _expected_s(e["type"][2], e["hdeg"], e["psideg"]))
        return len(entries), problems
    # analyze on a GN draw: the construction always has vanishing Hessian
    if res["hessian"]["vanishes"] is not True:
        problems.append("GN form reported with non-vanishing Hessian")
    rel = res.get("polar_relation")
    if not res["cone"]["is_cone"] and rel is not None and rel["certificate_zero"] is not True:
        problems.append("polar relation certificate is not zero")
    return 1, problems


def _gn_entry_problems(e, s):
    problems = []
    where = f"GN {e['type']} d={e['d']} seed {e['seed']}"
    if e["vanishes"] is not True:
        problems.append(f"{where}: Hessian reported non-vanishing")
    if e["s"] != s or e["mu"] != e["d"] // s:
        problems.append(f"{where}: s={e['s']}, mu={e['mu']}, theory s={s}, mu={e['d'] // s}")
    if e["core_multiplicity"] != e["d"] - e["mu"]:
        problems.append(f"{where}: core multiplicity {e['core_multiplicity']} != d - mu")
    return problems

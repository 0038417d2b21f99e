"""Checks of the benchmark itself:  python3 -m pytest bench -q

The deterministic per-layer counts (calls, kernel entries, draws per
instance, report bytes) must repeat exactly across two traced runs with one
seed, so that later changes can name them as noise-free gates.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC_UNITS = ("count", "bytes", "ratio")


def _counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit in DETERMINISTIC_UNITS}


@pytest.mark.parametrize(
    "workload, n_ops", [("verify-all", 2), ("catalog-large", 2), ("analyze-ladder", 4)]
)
def test_counts_repeat_across_traced_runs(workload, n_ops, tmp_path):
    ops = workloads.make_ops(workload, seed=3, seconds=20)[:n_ops]
    results = []
    for name in ("first", "second"):
        outcome, metrics = run.per_layer(workload, ops, tmp_path / f"{name}.tsv.gz", lambda line: None)
        assert outcome.problems == []
        assert outcome.failed == 0
        results.append(_counts(metrics))
    assert results[0] == results[1]
    assert results[0]["poly.mul.calls"] > 0
    assert results[0]["cli.report_bytes"] > 0


def test_install_rebinds_every_from_import_and_restores():
    from hesse_lab import cli, gn, poly, psi

    originals = (psi.gcd_list, gn.symbolic_determinant, cli.build_psi, poly.Polynomial.__rmul__)
    undo = spans.install(spans.Tracer())
    try:
        assert psi.gcd_list is poly.gcd_list is not originals[0]
        assert gn.symbolic_determinant is not originals[1]
        assert cli.build_psi is psi.build_psi is not originals[2]
        assert poly.Polynomial.__rmul__ is poly.Polynomial.__mul__ is not originals[3]
    finally:
        undo()
    assert (psi.gcd_list, gn.symbolic_determinant, cli.build_psi, poly.Polynomial.__rmul__) == originals


def test_install_fails_loudly_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("poly", "no_such_function", "poly.gcd"),))
    with pytest.raises(LookupError, match="no_such_function"):
        spans.install(spans.Tracer())


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.wrap(lambda: inner(), "poly.gcd_list")
    inner = tracer.wrap(lambda: sum(range(20000)), "poly.gcd")
    tracer.start_op(0)
    outer()
    tracer.end_op()
    rows = tracer.summary()
    assert rows["poly.gcd_list"]["calls"] == rows["poly.gcd"]["calls"] == 1
    total = rows["poly.gcd_list"]["total_s"]
    assert rows["poly.gcd_list"]["self_s"] == pytest.approx(total - rows["poly.gcd"]["total_s"])
    assert tracer.parents[1] == 0 and tracer.parents[0] == -1


def test_overrun_stops_the_op_and_costs_twice_the_budget(monkeypatch):
    op = workloads.make_ops("verify-all", seed=0, seconds=1)[0]
    result = workloads.call_cli(op.argv, budget_s=0.05)
    assert result.overrun and result.elapsed_s < 1
    assert workloads.call_cli(op.argv).rc == 0
    monkeypatch.setattr(workloads, "BUDGET_S", 0.05)
    in_child = run.run_in_child(op)
    assert in_child.overrun
    outcome = run.Outcome()
    assert not outcome.add("op 0", op, in_child)
    assert outcome.failed == 1 and outcome.problems == []
    assert outcome.times == [(0.1, 0.1)]


def test_a_short_rung_counts_the_median_of_three_runs():
    op = workloads.make_ops("analyze-ladder", seed=1, seconds=1)[0]
    outcome = run.Outcome()
    result = run.run_rung(op, outcome)
    assert outcome.add("op 0", op, result)
    assert outcome.problems == []

"""Child process of the benchmark: one timed set-up, or one op under a budget.

Reads one JSON request on stdin and prints one JSON line:

  {"kind": "setup", "workload": W, "seed": S, "seconds": T}
      -> {"setup_s": ..., "scale": ..., "ops": [[argv, label], ...]}
         setup_s covers importing hesse_lab and drawing the inputs.
  {"kind": "op", "argv": [...], "budget_s": B, "trace": true|false}
      -> {"rc": ..., "elapsed_s": ..., "report": ..., "stderr": ..., "scale": ..., "trace": ...}
         rc is null when the op overran; trace holds the exported spans.
"""

import json
import sys
import time
from pathlib import Path

import hostspeed
import spans


def main():
    request = json.load(sys.stdin)
    before = hostspeed.reference_s()
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    if request["kind"] == "setup":
        ops = workloads.make_ops(request["workload"], request["seed"], request["seconds"])
        elapsed = time.perf_counter() - started
        print(json.dumps({
            "setup_s": elapsed,
            "scale": hostspeed.scale(before, hostspeed.reference_s()),
            "ops": [[op.argv, op.label] for op in ops],
        }))
        return
    tracer = spans.Tracer() if request["trace"] else None
    result = workloads.call_cli(request["argv"], request["budget_s"], tracer)
    print(json.dumps({
        "rc": result.rc,
        "elapsed_s": result.elapsed_s,
        "report": result.report,
        "stderr": result.stderr,
        "scale": result.scale,
        "trace": tracer and tracer.export(),
    }))


if __name__ == "__main__":
    main()

"""The benchmark's span tracer still finds every function it wraps.

`bench/spans.py` wraps named hesse_lab functions from outside and raises
`LookupError` when one is missing, so deleting or renaming a traced function
(say `check_invariance`, `gcd`, `gcd_list` or `polar_image_dim`) breaks the
benchmark.  Installing the tracer once and undoing it catches that here,
without running a workload; `bench/` itself is only read.  The benchmark's
own tests also read three `from .x import y` bindings; a refactor that drops
one of them fails here too.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _namespaces():
    return {
        key: dict(vars(mod)) for key, mod in sys.modules.items()
        if key == "hesse_lab" or key.startswith("hesse_lab.")
    }


def test_span_tracer_installs_on_every_target_and_undoes():
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    for module, _, _ in spans.TARGETS:
        importlib.import_module(f"hesse_lab.{module}")
    before = _namespaces()
    poly = importlib.import_module("hesse_lab.poly")
    gcd = poly.gcd
    undo = spans.install(spans.Tracer())
    try:
        assert poly.gcd is not gcd
    finally:
        undo()
    assert poly.gcd is gcd
    assert _namespaces() == before


def test_from_import_bindings_the_benchmark_reads_are_the_home_objects():
    # bench/test_bench.py checks that the tracer rebinds these copies
    from hesse_lab import cli, gn, hessian, poly, psi

    assert psi.gcd_list is poly.gcd_list
    assert gn.symbolic_determinant is hessian.symbolic_determinant
    assert cli.build_psi is psi.build_psi

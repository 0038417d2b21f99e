"""Every module function has a production caller or is a named test oracle.

A top-level function or class, or a non-dunder method, whose name nothing
else in the package references (as a name, an attribute or an import) is
dead code unless it is listed below with the reason it stays.
"""

import ast
import sys
from pathlib import Path

from test_bench_targets import load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "hesse_lab"

# Oracles the benchmark traces by name (`bench/spans.py` raises LookupError
# on a missing target); every other oracle lives in tests/oracles.py
TEST_ORACLES = {
    "sample_image": "exact points of ψ_g's image, which the battery certifies in P(W); test_psi, test_classify; "
    "leaves with ROADMAP item 1a",
    "sample_polar_image": "exact points of the polar image, on which g vanishes; test_psi; "
    "leaves with ROADMAP item 1a",
    "p4_section_check": "the sampled hyperplane sections that p4_normal_form certifies; test_classify, "
    "test_acceptance; leaves with ROADMAP item 1a",
    "polar_image_dim": "dim Z(f) off one kernel sample, read by oracles.low_polar_dim_check; test_hessian, "
    "test_acceptance; leaves with ROADMAP item 1a",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    referenced = {name for tree in trees for name in _references(tree)}
    return {
        qualified
        for tree in trees
        for qualified, name in _definitions(tree)
        if name not in referenced
    }


def test_every_definition_has_a_caller_or_is_a_listed_oracle():
    unreferenced = _unreferenced()
    assert unreferenced - TEST_ORACLES.keys() == set()
    # an entry that gained a caller, or whose code is gone, leaves the list
    assert TEST_ORACLES.keys() - unreferenced == set()


def test_every_listed_oracle_is_used_by_a_test():
    # an oracle no test reads is dead code with a reason attached
    tests = Path(__file__).resolve().parent
    named = {
        name
        for path in sorted(tests.glob("*.py"))
        if path.name != Path(__file__).name
        for name in _references(ast.parse(path.read_text()))
    }
    assert {key for key in TEST_ORACLES if key.split(".")[-1] not in named} == set()


def test_every_listed_oracle_is_a_benchmark_target():
    # an oracle stays in the package only while the benchmark wraps it by
    # name; it leaves for tests/oracles.py once the benchmark stops
    targets = {name for _, name, _ in load_spans().TARGETS}
    assert TEST_ORACLES.keys() - targets == set()
    assert [key for key, reason in TEST_ORACLES.items() if "ROADMAP item 1a" not in reason] == []


def test_the_package_imports_only_the_standard_library():
    # no runtime dependencies: sympy and hypothesis are for the tests alone
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"hesse_lab"}
            ]
    assert offenders == []


def test_no_module_but_poly_reads_exponent_storage():
    # exponents live behind poly: no other module reads a polynomial's term
    # storage (`_terms`) or a `terms` attribute; and no module imports a
    # private name of another package module, poly's or any other
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private = [a.name for a in node.names if a.name.startswith("_")]
                offenders += [f"{path.name}:{node.lineno} imports {name}" for name in private]
            elif path.name != "poly.py" and isinstance(node, ast.Attribute) and (
                node.attr in ("_terms", "terms")
                or isinstance(node.value, ast.Name) and node.value.id == "poly" and node.attr.startswith("_")
            ):
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert offenders == []


def test_the_gcd_works_on_keys():
    # one exponent representation: no function of poly's gcd section (from
    # its header comment on) unpacks a polynomial through `as_dict` or
    # builds one from exponent tuples
    source = (SRC / "poly.py").read_text()
    start = source[:source.index("# gcd: GCDHEU over Z")].count("\n") + 1
    functions = [
        node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.lineno > start
    ]
    assert {"gcd", "gcd_list", "gcd_cofactors", "_heu_gcd", "_int_quotient"} <= {
        f.name for f in functions
    }
    offenders = [
        f"{f.name}:{node.lineno}"
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Attribute) and node.attr in ("as_dict", "constant")
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Polynomial"
    ]
    assert offenders == []


GCD = {"gcd", "gcd_list", "gcd_cofactors"}


def test_only_psi_calls_the_multivariate_gcd():
    # GCDHEU has one caller module, `psi`: `find_polar_relation` takes the
    # common factor out of the forms ⟨w_j, ∇f⟩, and `build_psi` folds the
    # reduced parts and checks ψ_g's coordinates on W coprime; reducedness
    # is read on a line (`poly.is_reduced`), so the gcd functions are called
    # only from psi and from each other
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "psi.py":
            continue
        tree = ast.parse(path.read_text())
        inside = [
            range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in GCD
        ]
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id in GCD
                or isinstance(node.func, ast.Attribute) and node.func.attr in GCD
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "poly"
            )
            and not any(node.lineno in span for span in inside)
        ]
    assert offenders == []


def test_the_cone_test_works_on_keys():
    # the rows of v ↦ D_v f come from f's keys (`poly.derivative_rows`), so
    # cones unpacks no polynomial into exponent tuples
    offenders = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "cones.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "as_dict"
    ]
    assert offenders == []


def _imports_from(module, target):
    """Line numbers of the imports in module that name module target."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == target
        or isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.split(".")[-1] == target for a in node.names)
    ]


def test_classify_imports_nothing_from_psi():
    # the P^4 curve is one exact kernel on the normal form's binary image,
    # not the polar-relation search: classify reads ψ_g only through the
    # PsiMap it is handed
    assert _imports_from("classify", "psi") == []


def test_psi_imports_nothing_from_hessian():
    # the relation search runs on the W its caller sampled, and the
    # polar-image oracle evaluates f's kept partials: psi reads no Hessian
    assert _imports_from("psi", "hessian") == []


def _digits_references(source):
    """Line numbers where source names `Digits`: as a name, an attribute or an import."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == "Digits"
        or isinstance(node, ast.Attribute) and node.attr == "Digits"
        or isinstance(node, ast.ImportFrom) and any(a.name == "Digits" for a in node.names)
    ]


def test_no_module_but_poly_refers_to_digits():
    # a packed family's digit bound is derived in poly alone (`poly.vanishing`,
    # `poly.dot`): a wrong bound elsewhere would read a nonzero digit as zero
    offenders = {path.name: _digits_references(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in offenders.items() if lines and name != "poly.py"} == {}
    assert _digits_references("from .poly import Digits\n") == [1]
    assert _digits_references("from . import poly\n\nd = poly.Digits(7, 2)\n") == [3]

"""Command-line contract: exit codes, JSON schema shape, determinism."""

import argparse
import contextlib
import io
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab import cli, cones, hessian, linalg, poly, psi, reports
from hesse_lab.cli import build_parser, main
from hesse_lab.cones import VertexSubspace
from hesse_lab.fields import substream
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.linalg import random_invertible
from hesse_lab.poly import Polynomial, monomials_of_degree, parse

PAPER_CUBIC = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"


def _gn_form(*types):
    """The seed-0 GN form of a skeleton, as analyze reads it."""
    return random_instance(GNSkeleton(*types), seed=0).f.to_string("x")


# det H_f of this form spends about 7.6 M monomial products
OVER_BUDGET = _gn_form(5, 2, 1, 2, 1, 6)


def run(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = main([*argv, "--json", str(path), "--no-timings"])
    doc = json.loads(path.read_text()) if path.exists() else None
    return code, doc


def test_analyze_paper_cubic(tmp_path):
    code, doc = run(tmp_path, "analyze", "--poly", PAPER_CUBIC)
    assert code == 0
    assert doc["schema"] == "hesse-lab/5"
    assert doc["input"] == {"poly": PAPER_CUBIC}
    r = doc["results"]
    assert r["hessian"]["vanishes"] is True
    assert r["hessian"]["certificate"] == "polar_relation"
    assert r["cone"]["is_cone"] is False
    assert r["polar_image_dim"] == 3
    assert r["polar_relation"]["degree"] == 2
    assert all(v is True for v in r["identity_checks"].values() if isinstance(v, bool))
    assert r["classification"]["plane_curve"]["ok"] is True
    assert r["classification"]["sections"]["ok"] is True


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_documents_the_report_schema():
    assert f'{{"schema": "{reports.SCHEMA}"' in README.read_text()


def _readme_flags():
    """Per subcommand, the --flags on its lines of the README's synopsis
    block, and the common flags of the sentence that follows it."""
    section = README.read_text().split("## Command line", 1)[1]
    flags, command = {}, None
    for line in section.split("```")[1].splitlines():
        if match := re.match(r"hesse-lab (\w+)", line):
            command = match.group(1)
        if command:
            flags.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
    common = section.split("Common flags:", 1)[1].split(". ", 1)[0]
    return flags, set(re.findall(r"`(--[a-z-]+)", common))


def test_readme_synopsis_matches_the_parser():
    # a flag the README shows must parse, and a flag that parses must be shown
    documented, common = _readme_flags()
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented.keys() == sub.choices.keys()
    for command, parser in sub.choices.items():
        accepted = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert documented[command] | common == accepted - {"--help"}, command


def test_analyze_cone_stops_at_the_vertex(tmp_path):
    # cone_test decides cones, so ψ_g is never built for one
    code, doc = run(tmp_path, "analyze", "--poly", "x0^3 + x1^3 + 0*x4")
    assert code == 0
    r = doc["results"]
    assert r["cone"]["is_cone"] is True
    assert r["hessian"]["certificate"] == "cone_vertex"
    assert "polar_relation" not in r and "psi" not in r


def test_analyze_fermat_stops_after_hessian(tmp_path):
    code, doc = run(tmp_path, "analyze", "--poly", "x0^3+x1^3+x2^3")
    assert code == 0
    assert doc["results"]["hessian"]["vanishes"] is False
    assert "polar_relation" not in doc["results"]


def test_analyze_exit_codes(tmp_path):
    assert main(["analyze", "--poly", "x0^2+x1"]) == 3
    assert main(["analyze", "--poly", "x0 + * x1"]) == 2
    assert main(["analyze", "--poly", "x0 + y1"]) == 2
    # non-ASCII digits and letters are no part of the grammar
    for text in ("x0^²", "x٣", "é"):
        assert main(["analyze", "--poly", text]) == 2, text


@pytest.mark.parametrize(
    "text, position", [("x999999999", 1), ("x0 + x1000", 6), ("x0*x" + "9" * 5000, 4)]
)
def test_analyze_variable_index_past_the_cap_exit_2(text, position, capsys):
    # refused by the parser, before an exponent tuple as wide as the index
    assert main(["analyze", "--poly", text]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: variable index exceeds the cap 999 (at position {position})\n"


@pytest.mark.parametrize(
    "text, position",
    [("x0^99999999", 0), ("x1*x0^600*x0^600", 10), ("x1*(x0^600 + x1)*(x0^400*x1)", 17)],
    ids=["written", "folded", "parenthesized"],
)
def test_analyze_exponent_past_the_cap_exit_2(text, position, capsys):
    # refused by the parser at the factor, before H_f(a) builds a power table
    assert main(["analyze", "--poly", text]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: variable exponent exceeds the cap 999 (at position {position})\n"


LONG = "9" * 5000  # past the interpreter's default int-string limit of 4300 digits


@pytest.mark.parametrize(
    "text, position",
    [(LONG + "*x0^2", 0), ("1/" + LONG + "*x0", 2), ("x0^" + LONG, 3)],
    ids=["coefficient", "denominator", "exponent"],
)
def test_analyze_digit_run_past_the_int_string_limit_exit_2(text, position, capsys):
    # refused by the parser at the digit run, before int() would raise
    assert main(["analyze", "--poly", text]) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err == f"parse error: number has more than {limit} digits (at position {position})\n"


def test_analyze_non_homogeneous_or_zero_exit_3_with_reason(capsys):
    assert main(["analyze", "--poly", "x0^2+x1", "--no-timings"]) == 3
    assert "nonzero homogeneous: terms of degrees 1, 2 occur" in capsys.readouterr().err
    assert main(["analyze", "--poly", "0", "--no-timings"]) == 3
    assert "nonzero homogeneous: the polynomial is zero" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2", "7/3", "x0 - x0 - 5"])
def test_analyze_constant_exit_3_degree_0(text, capsys):
    assert main(["analyze", "--poly", text, "--no-timings"]) == 3
    err = capsys.readouterr().err
    assert "nonzero homogeneous: degree 0" in err
    assert "error:" not in err


def test_symbolic_option_is_gone_exit_2(capsys):
    # one verdict path: the determinant is analyze's last certificate, not a mode
    for argv in (
        ("analyze", "--poly", PAPER_CUBIC),
        ("generate", "--n", "4", "--t", "2", "--m", "1", "--hdeg", "2", "--psideg", "1", "--d", "3"),
        ("catalog", "--types", "4,2,1,2,1,3"),
    ):
        assert main([*argv, "--symbolic"]) == 2, argv
        assert "unrecognized arguments: --symbolic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "gn", "--count", "-3"),
        ("verify", "--suite", "all", "--count", "0"),
        ("verify", "--suite", "psi", "--count", "0"),
        ("catalog", "--types", "6,3,1,2,1,5", "--count", "-1"),
        ("catalog", "--types", "4,2,1,2,1,3", "--count", "0"),
    ],
)
def test_count_below_one_exit_5(argv, capsys):
    # a suite or catalog over no instances would pass vacuously
    assert main(list(argv)) == 5
    out = capsys.readouterr()
    assert f"validation: --count must be >= 1 (got {argv[-1]})" in out.err
    assert out.out == ""


def test_generate_writes_instance(tmp_path):
    out = tmp_path / "instance.json"
    code, doc = run(
        tmp_path,
        "generate",
        "--n", "4", "--t", "2", "--m", "1",
        "--hdeg", "2", "--psideg", "1", "--d", "3",
        "--seed", "0",
        "--out", str(out),
    )
    assert code == 0
    assert doc["results"]["hessian"]["vanishes"] is True
    assert doc["results"]["core_multiplicity"] == 2
    instance = json.loads(out.read_text())
    assert instance["params"]["n"] == 4
    assert instance["s"] == 3


def test_generate_t_8_builds(tmp_path):
    # GN matrices of size t+1 = 9 are built by Laplace along the psi-rows and
    # never meet the symbolic determinant's size cap
    code, doc = run(
        tmp_path,
        "generate",
        "--n", "12", "--t", "8", "--m", "1",
        "--hdeg", "2", "--psideg", "1", "--d", "6",
        "--seed", "0",
    )
    assert code == 0
    r = doc["results"]
    assert r["hessian"]["vanishes"] is True
    assert r["core_multiplicity"] == r["core_multiplicity_expected"]


def test_generate_validation_exit_5(capsys):
    assert main(["generate", "--n", "4", "--t", "3", "--m", "1",
                 "--hdeg", "2", "--psideg", "1", "--d", "3"]) == 5
    assert main(["generate", "--n", "4", "--t", "2", "--m", "1",
                 "--hdeg", "2", "--psideg", "1", "--d", "2"]) == 5
    # n - t = 0 leaves no tail variables; the shape check must fire before
    # any tail polynomial is built
    capsys.readouterr()
    assert main(["generate", "--n", "3", "--t", "3", "--m", "1",
                 "--hdeg", "2", "--psideg", "1", "--d", "3"]) == 5
    assert "t <= n-2 violated (t=3, n=3)" in capsys.readouterr().err
    # degrees outside the construction are named, not left to fail later as
    # a retry exhaustion or a count of forms
    for hdeg, psideg, reason in (
        ("0", "0", "hdeg >= 1 violated (hdeg=0)"),
        ("2", "-1", "psideg >= 0 violated (psideg=-1)"),
        # s = 1: every draw is a cone, which used to exhaust the retries
        ("1", "1", "s >= 2 violated (s=1 as hdeg=1, psideg=1;"),
        ("2", "0", "s >= 2 violated (s=1 as hdeg=2, psideg=0;"),
    ):
        assert main(["generate", "--n", "4", "--t", "2", "--m", "1",
                     "--hdeg", hdeg, "--psideg", psideg, "--d", "3"]) == 5
        err = capsys.readouterr().err
        assert reason in err
        assert "cone draws" not in err and "psi-forms" not in err


def test_verify_suites_pass(tmp_path):
    for suite in ("lowdim", "gn", "psi", "p4"):
        code, doc = run(tmp_path, "verify", "--suite", suite, "--count", "3", "--seed", "1",
                        name=f"{suite}.json")
        assert code == 0, doc
        assert doc["results"][suite]["ok"] is True


def test_options_only_on_subcommands_that_read_them():
    # an option the subcommand would ignore is a parse error, not a no-op;
    # the trial count follows from the 2^-40 error target, so --trials is none
    for argv in (
        ("verify", "--suite", "lowdim", "--count", "2", "--field", "rational"),
        ("verify", "--suite", "psi", "--field", "p:abc"),
        ("verify", "--suite", "psi", "--symbolic"),
        ("catalog", "--types", "4,2,1,2,1,3", "--field", "p:4"),
        ("generate", "--n", "4", "--t", "2", "--m", "1", "--hdeg", "2",
         "--psideg", "1", "--d", "3", "--field", "p:1"),
        ("analyze", "--poly", PAPER_CUBIC, "--trials", "2"),
        # the ψ_g image is sampled over Q only, so no subcommand takes --field
        ("analyze", "--poly", PAPER_CUBIC, "--field", "p:5"),
    ):
        assert main(list(argv)) == 2, argv


def test_verify_mutation_control(tmp_path):
    code, doc = run(tmp_path, "verify", "--suite", "psi", "--mutate", name="mut.json")
    assert code == 1
    assert doc["results"]["psi"]["ok"] is False


def test_verify_unknown_suite_exit_2():
    assert main(["verify", "--suite", "bogus"]) == 2


def test_verify_all_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify", "--suite", "all", "--seed", "42", "--count", "4",
                 "--json", str(p1), "--no-timings"]) == 0
    assert main(["verify", "--suite", "all", "--seed", "42", "--count", "4",
                 "--json", str(p2), "--no-timings"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_timings_block_excludable(tmp_path):
    path = tmp_path / "t.json"
    assert main(["analyze", "--poly", "x0^2+x1^2", "--json", str(path)]) == 0
    assert "timings" in json.loads(path.read_text())
    assert main(["analyze", "--poly", "x0^2+x1^2", "--json", str(path), "--no-timings"]) == 0
    assert "timings" not in json.loads(path.read_text())


def test_catalog(tmp_path):
    code, doc = run(
        tmp_path, "catalog",
        "--types", "4,2,1,2,1,3", "--types", "4,2,1,2,1,4",
        "--count", "3", "--seed", "0",
    )
    assert code == 0
    entries = doc["results"]["catalog"]
    assert len(entries) == 6
    assert all(e["vanishes"] for e in entries)


def test_catalog_deterministic(tmp_path):
    p1 = tmp_path / "c1.json"
    p2 = tmp_path / "c2.json"
    argv = ["catalog", "--types", "4,2,1,2,1,3", "--count", "2", "--seed", "5", "--no-timings"]
    assert main([*argv, "--json", str(p1)]) == 0
    assert main([*argv, "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_catalog_invalid_skeleton_exit_5(capsys):
    assert main(["catalog", "--types", "4,3,1,2,1,3"]) == 5
    # every bad skeleton is reported, not only the first
    capsys.readouterr()
    argv = ["catalog", "--types", "3,4,1,2,1,3", "--types", "4,2,1,2,1,3",
            "--types", "4,2,1,2,1,2"]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "3,4,1,2,1,3: t <= n-2 violated (t=4, n=3)" in err
    assert "4,2,1,2,1,2: d >= s violated (d=2, s=3)" in err
    assert "4,2,1,2,1,3:" not in err
    assert main(["catalog", "--types", "4,2,1,0,1,3", "--types", "4,2,1,2,-1,3"]) == 5
    err = capsys.readouterr().err
    assert "4,2,1,0,1,3: hdeg >= 1 violated (hdeg=0)" in err
    assert "4,2,1,2,-1,3: psideg >= 0 violated (psideg=-1)" in err
    assert "biforms" not in err
    assert main(["catalog", "--types", "4,2,1,1,1,3", "--types", "4,2,1,2,0,3"]) == 5
    err = capsys.readouterr().err
    assert "4,2,1,1,1,3: s >= 2 violated (s=1 as hdeg=1, psideg=1;" in err
    assert "4,2,1,2,0,3: s >= 2 violated (s=1 as hdeg=2, psideg=0;" in err
    assert "cone draws" not in err


def test_analyze_probabilistic_default_for_many_variables(tmp_path):
    # the sampled verdict of a seven-variable cone, made exact by its vertex
    code, doc = run(tmp_path, "analyze", "--poly", "x0^3 + x1^3 + x6^3", name="p7.json")
    assert code == 0
    r = doc["results"]
    assert r["hessian"]["vanishes"] is True
    assert r["hessian"]["certificate"] == "cone_vertex"
    assert r["cone"]["is_cone"] is True  # three of seven variables: a cone
    assert "polar_relation" not in r


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_max_relation_degree_below_one_exit_5(degree, capsys):
    assert main(["analyze", "--poly", PAPER_CUBIC, "--max-relation-degree", degree]) == 5
    out = capsys.readouterr()
    assert f"validation: --max-relation-degree must be >= 1 (got {degree})" in out.err
    assert out.out == ""


def test_verify_echoes_count_only_for_suites_that_read_it(tmp_path):
    _, doc = run(tmp_path, "verify", "--suite", "psi", "--count", "7")
    assert doc["input"] == {"suite": "psi"}
    _, doc = run(tmp_path, "verify", "--suite", "lowdim", "--count", "1", name="l.json")
    assert doc["input"] == {"suite": "lowdim", "count": 1}


@pytest.mark.parametrize(
    "argv, vanishes, certificate",
    [
        (("--poly", "x0^3+x1^3+x2^3"), False, "witness"),
        (("--poly", "x0^3 + x1^3 + x6^3"), True, "cone_vertex"),
        (("--poly", PAPER_CUBIC), True, "polar_relation"),
        # no relation of degree 1, and det H_f passes DETERMINANT_BUDGET
        (("--poly", OVER_BUDGET, "--max-relation-degree", "1"), True, None),
        # no relation of degree 1, and det H_f ≡ 0 within the budget
        (("--poly", PAPER_CUBIC, "--max-relation-degree", "1"), True, "determinant"),
        # nine variables: past DEFAULT_SIZE_CAP the determinant is not tried
        (("--poly", _gn_form(8, 5, 1, 2, 1, 6), "--max-relation-degree", "1"), True, None),
    ],
)
def test_analyze_hessian_certificate(tmp_path, argv, vanishes, certificate):
    code, doc = run(tmp_path, "analyze", *argv)
    assert code == 0
    block = doc["results"]["hessian"]
    assert block["vanishes"] is vanishes
    assert block["certificate"] == certificate
    bound = Fraction(block["error_bound"])
    if certificate is None:
        assert 0 < bound < Fraction(1, 2**40)
    else:
        assert bound == 0


@pytest.mark.parametrize("types", [(6, 3, 2, 3, 1, 7), (6, 3, 2, 3, 1, 8), (7, 3, 2, 3, 1, 7)])
def test_the_determinant_certifies_forms_without_a_relation(tmp_path, types):
    # m = 2, hdeg = 3: no polar relation up to degree 8, and det H_f ≡ 0
    # within the budget (the expansion skips zero entries and zero minors)
    code, doc = run(tmp_path, "analyze", "--poly", _gn_form(*types))
    assert code == 0
    r = doc["results"]
    assert r["cone"]["is_cone"] is False and r["polar_relation"] is None
    assert (r["hessian"]["certificate"], r["hessian"]["error_bound"]) == ("determinant", "0")


def test_a_form_over_the_determinant_budget_keeps_its_error_bound(tmp_path):
    argv = ("analyze", "--poly", OVER_BUDGET, "--max-relation-degree", "1")
    code, doc = run(tmp_path, *argv, name="first.json")
    assert code == 0
    block = doc["results"]["hessian"]
    assert block["certificate"] is None
    assert 0 < Fraction(block["error_bound"]) < Fraction(1, 2**40)
    # the budget counts products, not seconds: the same bytes on every run
    assert run(tmp_path, *argv, name="second.json")[0] == 0
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


def test_analyze_a_form_of_corank_3(tmp_path):
    # the seed-0 8,5,2,2,1,4 form: nine variables, generic rank 6
    code, doc = run(tmp_path, "analyze", "--poly", _gn_form(8, 5, 2, 2, 1, 4))
    assert code == 0
    r = doc["results"]
    assert r["polar_image_dim"] == 5
    assert r["hessian"]["certificate"] == "polar_relation"
    assert r["polar_relation"]["degree"] == 3
    assert r["relation_search"]["w_dim"] == 6
    checks = r["identity_checks"]
    assert all(checks["invariance_f"].values())
    assert all(v is True for k, v in checks.items() if k != "invariance_f")


class DeterminantReached(Exception):
    pass


def test_default_route_never_expands_the_determinant(tmp_path, monkeypatch):
    # det H_f is analyze's last certificate, after the relation search
    def refuse(*args, **kwargs):
        raise DeterminantReached

    monkeypatch.setattr(cli, "symbolic_determinant", refuse)
    assert run(tmp_path, "analyze", "--poly", PAPER_CUBIC)[0] == 0
    assert run(tmp_path, "verify", "--suite", "all", "--count", "1")[0] == 0
    assert run(tmp_path, "catalog", "--types", "4,2,1,2,1,3")[0] == 0
    with pytest.raises(DeterminantReached):
        main(["analyze", "--poly", PAPER_CUBIC, "--max-relation-degree", "1"])


def test_nonzero_determinant_against_the_sample_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "symbolic_determinant", lambda m, budget: parse("x0", nvars=5))
    assert main(["analyze", "--poly", PAPER_CUBIC, "--max-relation-degree", "1"]) == 4
    out = capsys.readouterr()
    assert "internal check violation: det H_f is nonzero" in out.err
    assert out.out == ""


class SecondPartialsBuilt(Exception):
    pass


def test_default_route_never_builds_the_second_partials(tmp_path, monkeypatch):
    # H_f(a) and the vertex matrix are read from the terms of f; the matrix
    # of second partials serves the determinant certificate and points with
    # a zero coordinate
    def refuse(*args, **kwargs):
        raise SecondPartialsBuilt

    _patch_everywhere(monkeypatch, hessian.hessian_matrix, refuse)
    gn_form = _gn_form(4, 2, 1, 2, 1, 3)
    assert run(tmp_path, "analyze", "--poly", gn_form)[0] == 0
    assert run(tmp_path, "catalog", "--types", "7,5,1,2,1,6", "--types", "4,2,1,2,1,3")[0] == 0
    with pytest.raises(SecondPartialsBuilt):
        main(["analyze", "--poly", gn_form, "--max-relation-degree", "1"])


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every package-level name that holds original."""
    for key, module in list(sys.modules.items()):
        if key == "hesse_lab" or key.startswith("hesse_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_no_form_is_decided_twice(tmp_path, monkeypatch):
    calls = Counter()
    for original in (hessian.hessian_vanishes, cones.cone_test, psi.sample_polar_image):
        def counted(f, *args, _original=original, **kwargs):
            calls[_original.__name__, f] += 1
            return _original(f, *args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
    for argv in (
        ("analyze", "--poly", PAPER_CUBIC),
        ("generate", "--n", "7", "--t", "5", "--m", "1", "--hdeg", "2", "--psideg", "1", "--d", "6"),
        ("catalog", "--types", "7,5,1,2,1,6", "--types", "8,5,1,2,1,6", "--count", "2"),
        ("verify", "--suite", "gn", "--count", "2"),
        ("verify", "--suite", "p4"),
    ):
        calls.clear()
        assert run(tmp_path, *argv)[0] == 0
        repeated = [(name, f.to_string("x")) for (name, f), n in calls.items() if n > 1]
        assert repeated == [], argv
        if argv[0] == "analyze":
            # f's verdict comes from its H_f sample; each of the five
            # hyperplane sections is decided by its cone vertex, and f is
            # cone-tested once
            per_function = Counter(name for name, _ in calls.elements())
            assert per_function == Counter(hessian_vanishes=0, cone_test=6, sample_polar_image=1)


def test_verify_all_call_counts_are_pinned(tmp_path, monkeypatch):
    # one `verify --suite all` op is deterministic, so its call counts are
    # exact regression gates: a larger count is work added back.  The 24
    # cone tests read their rows through `linalg.kernel_of_rows` and stop at
    # full rank, so none of them is a `kernel` call
    calls = Counter()
    for original in (
        hessian.hessian_vanishes, linalg.kernel, poly.gcd, hessian.hessian_at, cones.cone_test
    ):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
    assert run(tmp_path, "verify", "--suite", "all", "--count", "1", "--seed", "0")[0] == 0
    assert calls == Counter(hessian_vanishes=9, kernel=41, gcd=12, hessian_at=34, cone_test=24)


@pytest.mark.parametrize(
    "argv, own_points",
    [
        (("analyze", "--poly", PAPER_CUBIC), None),
        (("analyze", "--poly", PAPER_CUBIC, "--max-relation-degree", "1"), None),
        (("analyze", "--poly", "x0^3 + x1^3 + x2^3 + x3^3"), 1),
        (("analyze", "--poly", "x0 + 2*x1"), hessian.DEFAULT_SAMPLES),
    ],
    ids=["paper-cubic", "symbolic", "witness", "linear"],
)
def test_analyze_evaluates_h_f_once_per_seeded_point(tmp_path, monkeypatch, argv, own_points):
    # the verdict, the generic rank and W are read off one sample of H_f;
    # the P^4 sections are other forms, each with points of its own
    points = Counter()
    original = hessian.hessian_at

    def counted(f, a):
        points[f.to_string("x"), tuple(a)] += 1
        return original(f, a)

    monkeypatch.setattr(hessian, "hessian_at", counted)
    code, doc = run(tmp_path, *argv)
    assert code == 0
    assert max(points.values()) == 1
    own = [a for g, a in points if g == parse(argv[2]).to_string("x")]
    if own_points is None:
        own_points = doc["results"]["relation_search"]["hessian_points"]
    assert len(own) == own_points


def test_lowdim_suite_evaluates_h_f_once_per_form_and_point(tmp_path, monkeypatch):
    # a P^3 cone reads its verdict and dim Z(f) off one sample of H_f
    points = Counter()
    original = hessian.hessian_at

    def counted(f, a):
        points[f.to_string("x"), tuple(a)] += 1
        return original(f, a)

    monkeypatch.setattr(hessian, "hessian_at", counted)
    assert run(tmp_path, "verify", "--suite", "lowdim", "--count", "20")[0] == 0
    assert max(points.values()) == 1
    assert sum(points.values()) == 200


def _invariants(doc):
    """The report fields that a change of coordinates must keep."""
    r = doc["results"]
    return {
        "vanishes": r["hessian"]["vanishes"],
        "is_cone": r["cone"]["is_cone"],
        "vertex_dim": r["cone"]["vertex_projective_dim"],
        "polar_image_dim": r["polar_image_dim"],
        "relation_degree": (r.get("polar_relation") or {}).get("degree"),
        "w_dim": r.get("relation_search", {}).get("w_dim"),
        "identity_checks": r.get("identity_checks"),
        "curve_degree": r.get("classification", {}).get("plane_curve", {}).get("curve_degree"),
    }


@pytest.mark.parametrize(
    "text",
    [
        PAPER_CUBIC,
        "x0^3 + x1^3 + x2^3 + x3^3",
        *(
            random_instance(GNSkeleton(4, 2, 1, 2, 1, d), seed=0).f.to_string("x")
            for d in (3, 4, 6)
        ),
    ],
    ids=["paper-cubic", "fermat-surface", "gn-4,2,1,2,1,3", "gn-4,2,1,2,1,4", "gn-4,2,1,2,1,6"],
)
def test_analyze_is_coordinate_free(tmp_path, text):
    # every field compared is a projective invariant, so analyze(f) and
    # analyze(f∘A) agree for invertible A; each text names every variable,
    # since parse infers the variable count from the largest index.  The
    # sampled ψ_g image points of a GN form have zero coordinates and those
    # of a dense conjugate have none, so both paths of gradient_at run
    f = parse(text)
    a = random_invertible(f.nvars, substream(0, "dense"))
    g = f.compose([Polynomial.linear_form(row) for row in a.entries])
    code, doc = run(tmp_path, "analyze", "--poly", text)
    conj_code, conj_doc = run(tmp_path, "analyze", "--poly", g.to_string("x"), name="conj.json")
    assert (code, conj_code) == (0, 0)
    assert _invariants(conj_doc) == _invariants(doc)
    assert _invariants(doc)["vanishes"] is (text != "x0^3 + x1^3 + x2^3 + x3^3")


@st.composite
def small_random_forms(draw):
    """(text, seed): a random form of degree 2 or 3 in the first u of n = 3
    or 4 variables, a cone when u < n, written with + 0*x_{n−1} so that it
    names every variable; and a seed for the change of coordinates."""
    n = draw(st.integers(3, 4))
    u, d = draw(st.integers(2, n)), draw(st.integers(2, 3))
    monos = monomials_of_degree(u, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[0] = 1
    f = Polynomial(u, {m: c for m, c in zip(monos, coeffs) if c})
    return f"{f.to_string('x')} + 0*x{n - 1}", draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_random_forms())
def test_analyze_agrees_on_a_form_and_its_conjugate(case):
    text, seed = case
    f = parse(text)
    a = random_invertible(f.nvars, substream(seed, "conjugate"))
    g = f.compose([Polynomial.linear_form(row) for row in a.entries])
    compared = []
    for poly in (text, g.to_string("x")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--poly", poly, "--no-timings"]) == 0
        inv = _invariants(json.loads(out.getvalue()))
        compared.append([inv[k] for k in ("vanishes", "is_cone", "vertex_dim", "polar_image_dim")])
    assert compared[0] == compared[1]


def test_verify_all_draws_and_searches_each_form_once(tmp_path, monkeypatch):
    # the gn and p4 suites share the GN draws of 4,2,1,2,1,3 at each seed,
    # and the psi and p4 suites the paper cubic's relation and ψ_g
    draws, searches = Counter(), Counter()
    originals = (reports.random_instance, psi.find_polar_relation)

    def drawn(skel, seed):
        draws[skel, seed] += 1
        return originals[0](skel, seed=seed)

    def searched(f, *args, **kwargs):
        searches[f.to_string("x")] += 1
        return originals[1](f, *args, **kwargs)

    _patch_everywhere(monkeypatch, originals[0], drawn)
    _patch_everywhere(monkeypatch, originals[1], searched)
    assert run(tmp_path, "verify", "--suite", "all", "--count", "2")[0] == 0
    shared = GNSkeleton(4, 2, 1, 2, 1, 3)
    assert draws[shared, 0] == draws[shared, 1] == draws[shared, 2] == 1
    assert set(draws.values()) == {1}
    assert searches[PAPER_CUBIC] == 1
    assert set(searches.values()) == {1}


def test_p4_suite_samples_each_image_once(tmp_path, monkeypatch):
    # the plane-curve stage and the degenerate-image guard read one sample
    counts = []
    original = psi.sample_image

    def counted(psi_map, count, seed):
        counts.append(count)
        return original(psi_map, count, seed)

    _patch_everywhere(monkeypatch, original, counted)
    assert run(tmp_path, "verify", "--suite", "p4")[0] == 0
    assert counts == [reports.CURVE_SAMPLES] * 6  # the paper cubic and five GN draws


def test_analyze_draws_the_psi_image_once(tmp_path, monkeypatch):
    # on P^4 the battery reads the first IMAGE_SAMPLES points of the sample
    # that the plane-curve stage reads
    counts = []
    original = psi.sample_image

    def counted(psi_map, count, seed):
        counts.append(count)
        return original(psi_map, count, seed)

    _patch_everywhere(monkeypatch, original, counted)
    code, doc = run(tmp_path, "analyze", "--poly", PAPER_CUBIC)
    assert code == 0 and counts == [reports.CURVE_SAMPLES]
    r = doc["results"]
    assert r["image"]["count"] == reports.IMAGE_SAMPLES
    assert r["classification"]["plane_curve"]["points_used"] == reports.CURVE_SAMPLES


def test_witness_with_a_cone_vertex_exit_4(monkeypatch, capsys):
    fake_vertex = VertexSubspace(basis=((0, 0, 1),), projective_dim=0)
    monkeypatch.setattr("hesse_lab.cli.cone_test", lambda f: fake_vertex)
    assert main(["analyze", "--poly", "x0^3+x1^3+x2^3"]) == 4
    assert "cone_vertex contradicts the witness of h_f != 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "skeleton, degree", [((6, 3, 2, 2, 1, 4), 3), ((4, 2, 1, 3, 1, 5), 4), ((4, 2, 1, 4, 1, 7), 6)]
)
def test_analyze_certifies_relations_above_degree_two(tmp_path, skeleton, degree):
    f = random_instance(GNSkeleton(*skeleton), seed=0).f
    code, doc = run(tmp_path, "analyze", "--poly", f.to_string("x"))
    assert code == 0
    r = doc["results"]
    assert r["polar_relation"]["degree"] == degree
    assert r["polar_relation"]["certificate_zero"] is True
    assert r["hessian"]["certificate"] == "polar_relation"


# ----------------------------------------------------------------------
# fuzzed argv: every outcome is a documented exit code, never a traceback

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}

_TERMS = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    ),
    max_size=4,
)


def _poly_text(terms):
    parts = []
    for c, exps in terms:
        factors = [str(c)] + [f"x{i}^{e}" for i, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


_POLY = st.one_of(
    _TERMS.map(_poly_text),
    st.text(alphabet="x0123^*+-/() ²٣é", max_size=12),
)
_SMALL = st.integers(-1, 6).map(str)
_SKELETON = ("4", "2", "1", "2", "1", "3")   # a valid n,t,m,hdeg,psideg,d


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["analyze", "generate", "catalog"]))
    argv = [command]
    if command == "analyze":
        if draw(st.integers(0, 9)):
            argv.append("--poly=" + draw(_POLY))
        if draw(st.booleans()):
            argv += ["--max-relation-degree", draw(st.integers(-1, 3).map(str))]
    elif command == "generate":
        for flag, value in zip(("n", "t", "m", "hdeg", "psideg", "d"), _SKELETON):
            if draw(st.integers(0, 9)):
                argv += [f"--{flag}", draw(st.one_of(st.just(value), _SMALL))]
    else:
        for _ in range(draw(st.integers(0, 2))):
            values = [draw(st.one_of(st.just(v), _SMALL)) for v in _SKELETON]
            argv += ["--types", ",".join(values[: draw(st.integers(5, 7))])]
        if draw(st.booleans()):
            argv += ["--count", draw(st.integers(-1, 2).map(str))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "3", "-1", "x"]))]
    return argv + ["--no-timings"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    assert main(argv) in DOCUMENTED_EXIT_CODES, argv

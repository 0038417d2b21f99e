"""Acceptance gate: every criterion at its stated tolerance, timed.

Each test prints one pass/fail line; everything here is exact arithmetic
except where a certified probabilistic bound is explicitly allowed.
"""

import json
import time
from fractions import Fraction

import pytest

from hesse_lab.classify import (
    low_dim_hesse_suite,
    p4_normal_form,
    p4_plane_curve_check,
    p4_section_check,
)
from hesse_lab.cli import main
from hesse_lab.cones import (
    chart_for_hyperplane,
    cone_test,
    restrict,
)
from hesse_lab.fields import substream
from hesse_lab.gn import GNSkeleton, core_multiplicity, random_instance
from hesse_lab.hessian import (
    hessian_matrix,
    hessian_vanishes,
    polar_image_dim,
    symbolic_determinant,
    trials_for_error,
)
from hesse_lab.linalg import random_invertible
from hesse_lab.poly import Polynomial, monomials_of_degree, parse
from hesse_lab.psi import build_psi, least_relation
from conftest import sampled_relation
from oracles import low_polar_dim_check, projection_lemma_check

PAPER_CUBIC = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")


def _report(number, label, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.1f}s, limit {limit}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def _analyze(tmp_path, *argv):
    path = tmp_path / "analyze.json"
    code = main(["analyze", *argv, "--json", str(path), "--no-timings"])
    return code, json.loads(path.read_text())["results"]


def test_criterion_1_paper_example_symbolic(tmp_path):
    started = time.time()
    text = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"
    # with the relation search capped below degree 2, det H_f ≡ 0 is the
    # certificate that makes the verdict exact
    code, r = _analyze(tmp_path, "--poly", text, "--max-relation-degree", "1")
    ok = code == 0 and r["polar_relation"] is None
    ok = ok and r["hessian"]["certificate"] == "determinant" and r["hessian"]["error_bound"] == "0"
    code, r = _analyze(tmp_path, "--poly", text)
    ok = ok and code == 0
    ok = ok and r["hessian"]["certificate"] == "polar_relation" and r["hessian"]["vanishes"] is True
    ok = ok and r["hessian"]["error_bound"] == "0"
    ok = ok and r["cone"]["is_cone"] is False
    ok = ok and r["polar_image_dim"] == 3
    ok = ok and r["polar_relation"]["degree"] == 2
    # the relation must be y1^2 - 4*y0*y2 up to scalar
    g = parse(r["polar_relation"]["g"], "y", nvars=5)
    expected = parse("y1^2 - 4*y0*y2", "y", nvars=5)
    quot = None
    for e, c in g.as_dict().items():
        quot = c / expected.coefficient(e) if expected.coefficient(e) else None
        break
    ok = ok and quot is not None and g == expected.scale(quot)
    checks = r["identity_checks"]
    # (2.7) for F = f, (2.5) for each partial, (2.8) for each component,
    # Σ H·h = 0, both inclusions and the lines joining image points
    ok = ok and checks["invariance_f"]["derivative_zero"] is True
    ok = ok and checks["invariance_f"]["invariant"] is True
    ok = ok and checks["partials_invariant"] is True
    ok = ok and checks["components_invariant"] is True
    ok = ok and checks["second_derivative_zero"] is True
    ok = ok and checks["image_in_base_locus_symbolic"] is True
    ok = ok and checks["image_in_singular_locus_symbolic"] is True
    ok = ok and checks["fiber_lines"] is True
    ok = ok and checks["equivalence_integrity"] is True
    _report(1, "paper example, exact by determinant and by relation", ok, time.time() - started, 10)


# (5,3,1) with d = s = 3 is provably always a cone (the combined constant
# row is a vertex direction), so the minimal d the generator can deliver is 4
GN_ACCEPTANCE = (
    GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3),
    GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=4),
    GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=6),
    GNSkeleton(n=5, t=3, m=1, hdeg=2, psideg=1, d=4),
)


@pytest.fixture(scope="module")
def gn_batches():
    return {
        skel: [random_instance(skel, seed=seed) for seed in range(10)]
        for skel in GN_ACCEPTANCE
    }


def test_criterion_2_and_3_generator_soundness_and_genericity(gn_batches):
    started = time.time()
    failures = []
    cone_logs = []
    for skel, batch in gn_batches.items():
        non_cones = 0
        for seed, inst in enumerate(batch):
            if skel.n == 4:
                vanishes = symbolic_determinant(hessian_matrix(inst.f)).is_zero()
            else:
                verdict = hessian_vanishes(inst.f, seed=seed)
                vanishes = verdict.vanishes
                if verdict.trials != trials_for_error((skel.n + 1) * max(skel.d - 2, 0)):
                    failures.append(f"{skel} seed {seed}: {verdict.trials} trials")
                if verdict.error_bound * 2 ** 40 >= 1:
                    failures.append(f"{skel} seed {seed}: error bound not < 2^-40")
            if not vanishes:
                failures.append(f"{skel} seed {seed}: Hessian does not vanish")
            if core_multiplicity(inst) != skel.d - inst.mu:
                failures.append(f"{skel} seed {seed}: core multiplicity != d - mu")
            if cone_test(inst.f).is_cone:
                cone_logs.append(f"{skel} seed {seed}: non-general cone draw")
            else:
                non_cones += 1
        if skel.expected_mu > skel.n - skel.t - 2 and non_cones < 9:
            failures.append(f"{skel}: only {non_cones}/10 non-cones")
    elapsed = time.time() - started
    for line in cone_logs:
        print(f"  [log] {line}")
    _report(2, "generator soundness on 40 seeded instances", not failures, elapsed, 300)
    _report(3, "genericity: >= 9/10 non-cones per skeleton", not failures, elapsed, 300)


def test_criterion_4_low_dimension_equivalence():
    started = time.time()
    report = low_dim_hesse_suite(count=100, seed=0)
    ok = report.ok
    p3_cones = [r for r in report.records if r.n == 3 and r.kind == "cone"]
    ok = ok and len(p3_cones) == 100
    ok = ok and all(r.polar_dim in (1, 2) for r in p3_cones)
    ok = ok and len(report.records) == 600
    _report(4, "vanishing Hessian <=> cone on 600 low-dimension forms",
            ok, time.time() - started, 120)


def test_criterion_5_corollary_small_polar_image():
    started = time.time()
    ok = True
    for i in range(20):
        rng = substream(900 + i, "corollary")
        base_vars = rng.choice((1, 2, 3))
        degree = rng.choice((2, 3, 4))
        monos = monomials_of_degree(base_vars, degree)
        base = Polynomial(base_vars, {e: rng.randint(-9, 9) for e in monos})
        if not base:
            base = Polynomial(base_vars, {monos[0]: 1})
        change = random_invertible(5, rng)
        f = base.compose(
            [Polynomial.linear_form(list(change.entries[j])) for j in range(base_vars)]
        )
        if polar_image_dim(f, seed=i) > 2:
            ok = False
        if not low_polar_dim_check(f, seed=i):
            ok = False
    _report(5, "20 seeded small-polar-image cones in P^4 all detected",
            ok, time.time() - started, 60)


def _image_coordinates(psi, basis):
    """q_j = h_c/w_j[c] at the pivot column c of each row w_j of W's basis."""
    pivots = [next(i for i, x in enumerate(w) if x) for w in basis]
    return [psi.h[c].scale(Fraction(1, w[c])) for w, c in zip(basis, pivots)]


def test_criterion_6_p4_classification_evidence(gn_batches):
    started = time.time()
    failures = []
    skel3 = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    skel4 = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=4)
    skel6 = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=6)
    inputs = [("paper_cubic", PAPER_CUBIC)]
    for name, skel, seed in (
        ("gn3_s0", skel3, 0), ("gn3_s1", skel3, 1),
        ("gn4_s0", skel4, 0), ("gn4_s1", skel4, 1),
        ("gn6_s0", skel6, 0),
    ):
        inputs.append((name, gn_batches[skel][seed].f))
    for name, f in inputs:
        rel = sampled_relation(f, max_degree=4)
        if rel is None:
            failures.append(f"{name}: no relation")
            continue
        psi = build_psi(f, rel)
        # the certificate: f∘A ≡ Σ_k Q^k·P_k, so the image spans Π and its
        # curve is irreducible
        normal = p4_normal_form(f, psi)
        if not normal.ok:
            failures.append(f"{name}: normal form failed: {normal.violation}")
        curve = p4_plane_curve_check(normal)
        if not curve.ok:
            failures.append(f"{name}: curve stage failed")
            continue
        # the image (q_0 : q_1 : q_2) in W's basis, q_j = h_c/w_j[c] at the
        # pivot column c of w_j, lies on the curve exactly, and the curve is
        # the least relation among the q_j that the sampled search finds
        q = _image_coordinates(psi, psi.relation.span)
        unit = tuple(tuple(int(i == j) for i in range(3)) for j in range(3))
        if curve.curve.compose(q) or curve.curve != least_relation(q, unit, q[0].degree()).g:
            failures.append(f"{name}: the curve is not the image's least relation")
        if not 2 <= curve.curve_degree <= 6:
            failures.append(f"{name}: curve degree {curve.curve_degree} out of range")
        # the sampled sections it subsumes, as an oracle
        sections = p4_section_check(f, psi, curve, chart_count=5, seed=0)
        if len(sections.records) != 5 or not sections.ok:
            failures.append(f"{name}: sections failed: {sections.violations}")
            continue
        for r in sections.records:
            if not (r.vanishes and r.vertex_dim >= 1):
                failures.append(f"{name}: section structure broken at c={r.pencil_value}")
            if curve.curve_degree >= 2 and r.tangency_status not in ("tangent", "line_in_curve"):
                failures.append(f"{name}: tangency not established at c={r.pencil_value}")
    for line in failures:
        print(f"  [fail] {line}")
    _report(6, "P^4 structure on the worked cubic + 5 seeded instances",
            not failures, time.time() - started, 300)


def test_criterion_7_kernel_cross_checks(gn_batches, sympy_det):
    started = time.time()
    ok = True
    # (a) the minor expansion against sympy on 50 seeded 4x4 polynomial matrices
    rng = substream(777, "detagree")
    monos = (
        monomials_of_degree(3, 2) + monomials_of_degree(3, 1) + monomials_of_degree(3, 0)
    )
    for _ in range(50):
        m = [
            [
                Polynomial(3, {e: rng.randint(-3, 3) for e in rng.sample(monos, 3)})
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        if symbolic_determinant(m) != sympy_det(m):
            ok = False
    # (b) Euler relation and H·x = (d-1)·grad f on every suite polynomial
    suite_polys = [PAPER_CUBIC, parse("x0^3+x1^3+x2^3"), parse("x0^4+x1^2*x2^2")]
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    suite_polys += [gn_batches[skel][s].f for s in range(3)]
    for f in suite_polys:
        d = f.degree()
        euler = Polynomial.zero(f.nvars)
        for i in range(f.nvars):
            euler = euler + Polynomial.variable(f.nvars, i) * f.partial(i)
        if euler != f.scale(d):
            ok = False
        for row, fi in zip(hessian_matrix(f), f.gradient()):
            hx = sum((e * Polynomial.variable(f.nvars, j) for j, e in enumerate(row)), Polynomial.zero(f.nvars))
            if hx != fi.scale(d - 1):
                ok = False
    # (c) projection lemma at 10 sampled points on each of 10 instances
    instances = suite_polys + [
        parse("x0^2+x1^2+x2^2+x3^2"),
        parse("x0^3 + x1^2*x3 + x2*x3^2"),
        gn_batches[skel][3].f,
        gn_batches[GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=4)][0].f,
    ]
    for idx, f in enumerate(instances[:10]):
        rng = substream(idx, "chartpick")
        dual = [rng.randint(1, 9) for _ in range(f.nvars)]
        chart = chart_for_hyperplane(dual)
        try:
            restrict(f, chart)
        except Exception:
            continue
        if not projection_lemma_check(f, chart, samples=10, seed=idx):
            ok = False
    _report(7, "determinant agreement, Euler identities, projection lemma",
            ok, time.time() - started, 120)


def test_criterion_8_determinism(tmp_path):
    started = time.time()
    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    argv = ["verify", "--suite", "all", "--seed", "42", "--no-timings"]
    code1 = main([*argv, "--json", str(p1)])
    code2 = main([*argv, "--json", str(p2)])
    ok = code1 == 0 and code2 == 0 and p1.read_bytes() == p2.read_bytes()
    _report(8, "verify --suite all --seed 42 is byte-identical",
            ok, time.time() - started, 120)

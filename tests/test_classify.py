"""Low-dimension equivalence, corollary, and P^4 structure checks."""

import contextlib
import io
import json
import math
import random
import types
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesse_lab import classify, psi as psi_module, reports
from hesse_lab.cli import main
from hesse_lab.classify import (
    low_dim_hesse_suite,
    p4_normal_form,
    p4_plane_curve_check,
    p4_section_check,
)
from hesse_lab.cones import VertexSubspace, cone_test
from hesse_lab.errors import DomainError, InternalCheckError
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.hessian import hessian_vanishes
from hesse_lab.fields import substream
from hesse_lab.linalg import random_invertible, reduced_row_basis, span_coordinates
from hesse_lab.poly import Polynomial, binary_gcd, linear_combination, parse, repeated_root
from hesse_lab.psi import build_psi, least_relation, sample_image
from hesse_lab.reports import p4_classification, run_p4_suite
from conftest import sampled_relation
from oracles import low_polar_dim_check, projectively_equal

PAPER_CUBIC = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")
# x0·x3^5 + x1·x4^5 + x2·(x3 + x4)^5: a non-cone whose ψ_g image is a plane
# curve of degree 8, the degree of ψ_g
_X = [Polynomial.variable(5, i) for i in range(5)]
PERAZZO_QUINTIC = _X[0] * _X[3] ** 5 + _X[1] * _X[4] ** 5 + _X[2] * (_X[3] + _X[4]) ** 5


@pytest.fixture(scope="module")
def cubic_psi():
    return build_psi(PAPER_CUBIC, sampled_relation(PAPER_CUBIC, max_degree=2))


@pytest.fixture(scope="module")
def cubic_curve(cubic_psi):
    return _curve(PAPER_CUBIC, cubic_psi)


UNIT_3 = tuple(tuple(int(i == j) for i in range(3)) for j in range(3))


def _binary_image(image):
    """A normal-form report with the binary image q' and a stand-in M that
    is not constant: all that the curve stage reads."""
    return classify.NormalFormReport((), tuple(image), (_X[3],), (), None, None)


def _curve(f, psi):
    """The plane-curve stage on the coordinates the normal form read."""
    return p4_plane_curve_check(p4_normal_form(f, psi))


def _coordinates(psi):
    """The ψ_g image in W's basis: q_j = h_c/w_j[c] at the pivot column c of
    each row w_j of W."""
    span = psi.relation.span
    pivots = [next(i for i, x in enumerate(w) if x) for w in span]
    return [psi.h[c].scale(Fraction(1, w[c])) for w, c in zip(span, pivots)]


def _with_coordinates(psi, coordinates):
    """ψ_g with other coordinate forms q_j on W's rows, and h = Σ_j q_j·w_j."""
    span = psi.relation.span
    h = [linear_combination(psi.nvars, zip((w[i] for w in span), coordinates)) for i in range(psi.nvars)]
    return psi._replace(h=tuple(h), coordinates=tuple(coordinates))


def test_low_dim_suite_small():
    report = low_dim_hesse_suite(count=15, seed=7)
    assert report.ok, report.violations
    assert len(report.records) == 15 * 2 * 3
    p3_cones = [r for r in report.records if r.n == 3 and r.kind == "cone"]
    assert p3_cones
    assert all(r.polar_dim in (1, 2) for r in p3_cones)
    assert {r.polar_dim for r in p3_cones} == {1, 2}  # both branches of the dichotomy


def test_low_dim_suite_deterministic():
    a = low_dim_hesse_suite(count=5, seed=3)
    b = low_dim_hesse_suite(count=5, seed=3)
    assert a == b


def _fermat(nvars, degree, rng):
    """x0^d + … + xn^d: no cone, and its Hessian is nonzero."""
    return Polynomial(nvars, {tuple(degree * (j == i) for j in range(nvars)): 1 for i in range(nvars)})


def test_low_dim_suite_names_a_drawn_cone_that_is_none(monkeypatch):
    # every "cone" draw is a Fermat form: none is detected, and the P^3 one
    # has a polar image of dimension 3
    monkeypatch.setattr(classify, "_random_cone", _fermat)
    report = low_dim_hesse_suite(count=1, seed=0)
    assert report.violations == (
        "constructed cone not detected (P1, case 0)",
        "constructed cone not detected (P2, case 0)",
        "P3 cone (seed 0, case 0) has dim Z = 3",
        "constructed cone not detected (P3, case 0)",
    )


def test_low_dim_suite_names_a_vanishing_hessian_without_a_vertex(monkeypatch):
    # a cone test that finds no vertex breaks the biconditional on every cone
    monkeypatch.setattr(classify, "cone_test", lambda f: VertexSubspace(basis=(), projective_dim=-1))
    report = low_dim_hesse_suite(count=1, seed=0)
    assert report.violations == tuple(
        message
        for n in (1, 2, 3)
        for message in (
            f"biconditional fails in P{n} for cone case 0: vanishes=True, cone_dim=-1",
            f"constructed cone not detected (P{n}, case 0)",
        )
    )


def test_low_polar_dim_cone_of_three_cubes():
    # partials live in three coordinates, Hessian rank <= 3, dim Z = 2
    f = parse("x0^3 + x1^3 + x2^3", nvars=5)
    assert low_polar_dim_check(f, seed=0) is True


def test_low_polar_dim_single_cube():
    f = parse("x0^3", nvars=5)
    assert low_polar_dim_check(f, seed=0) is True


def test_low_polar_dim_vacuous_for_paper_cubic():
    # dim Z(f) = 3 > 2: nothing to check, vacuously true
    assert low_polar_dim_check(PAPER_CUBIC, seed=0) is True


def test_low_polar_dim_preconditions():
    with pytest.raises(DomainError):
        low_polar_dim_check(parse("x0^3 + x1^3 + x2^3"))  # too few variables
    with pytest.raises(DomainError):
        low_polar_dim_check(parse("x0^3 + x1^3 + x2^3 + x3^3 + x4^3"))  # h_f != 0


def _kernel_shapes(monkeypatch):
    """The (rows, columns) of each exact kernel the curve stage takes."""
    shapes, original = [], classify.kernel

    def spy(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return original(matrix)

    monkeypatch.setattr(classify, "kernel", spy)
    return shapes


def test_p4_curve_paper_cubic(cubic_psi, cubic_curve, monkeypatch):
    assert cubic_curve.ok
    assert cubic_curve.curve_degree == 2
    # one kernel and no point: the 5 coefficients of the binary quartics
    # q'^α against the six conics
    shapes = _kernel_shapes(monkeypatch)
    assert _curve(PAPER_CUBIC, cubic_psi) == cubic_curve
    assert shapes == [(5, 6)]
    # the sample (-b^2 : ab : -a^2 : 0 : 0) spans x3 = x4 = 0, whose reduced
    # echelon basis is e0, e1, e2, and satisfies x0*x2 = x1^2 there
    assert cubic_psi.relation.span == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    assert cubic_curve.curve.to_string("z") == "z0*z2 - z1^2"


def test_p4_normal_form_refuses_a_form_off_p4(cubic_psi):
    with pytest.raises(DomainError, match="P\\^4"):
        p4_normal_form(parse("x0^3 + x1^3 + x2^3 + x3^3"), cubic_psi)


@pytest.mark.parametrize(
    "keep, tangents, violation",
    [
        # q_1 = q_2 = q_0: the image is the point w_0 + w_1 + w_2, and N ≡ 0
        ((0, 0, 0), [], "M ≡ 0: ∂_3 q' and ∂_4 q' are dependent"),
        # q_2 = q_0: the image spans the line z_0 = z_2 of Π, and M = (1, 0, -1)
        ((0, 1, 0), ["1", "0", "-1"], "M is constant: the image spans a line of Π"),
    ],
    ids=["point", "line"],
)
def test_p4_normal_form_alone_decides_an_image_that_spans_no_plane(cubic_psi, monkeypatch, keep, tangents, violation):
    def refuse(*args):
        raise AssertionError("the curve's kernel taken")

    monkeypatch.setattr(classify, "kernel", refuse)
    qs = _coordinates(cubic_psi)
    psi = _with_coordinates(cubic_psi, [qs[j] for j in keep])
    report = p4_normal_form(PAPER_CUBIC, psi)
    assert (report.spans_plane, report.parts, report.identity, report.violation) == (False, (), None, violation)
    block, failed = p4_classification(PAPER_CUBIC, psi)
    assert failed == ["plane_curve", "normal_form"]
    assert block["plane_curve"] == {
        "curve": None, "curve_degree": None, "irreducible": False, "ok": False,
    }
    assert block["normal_form"]["M"] == tangents


# the curves the 30-point interpolation recorded on these forms
RECORDED_CURVES = {
    None: "z0*z2 - z1^2",
    ("4,2,1,2,1,3", 0): "669*z0^2 - 2028*z0*z1 - 574*z0*z2 + 5560*z1^2 + 7192*z1*z2 + 1081*z2^2",
    ("4,2,1,2,1,3", 1): "166*z0^2 - 1221*z0*z1 + 941*z0*z2 - 2196*z1^2 - 591*z1*z2 + 172*z2^2",
    ("4,2,1,2,1,3", 2): "1382*z0^2 + 1601*z0*z1 + 139*z0*z2 + 467*z1^2 + 26*z1*z2 - 18*z2^2",
    ("4,2,1,2,1,3", 3): "1353*z0^2 - 2920*z0*z1 + 638*z0*z2 + 6800*z1^2 - 13260*z1*z2 + 5912*z2^2",
    ("4,2,1,3,1,7", 0): "330001*z0^3 + 38677*z0^2*z1 + 770622*z0^2*z2 + 214759*z0*z1^2 - 29304*z0*z1*z2"
                        " + 501428*z0*z2^2 - 24389*z1^3 + 148674*z1^2*z2 - 6228*z1*z2^2 + 100024*z2^3",
}


@pytest.mark.parametrize("form", list(RECORDED_CURVES), ids=lambda form: "paper-cubic" if form is None else "%s-seed%d" % form)
def test_the_certified_curve_vanishes_on_the_image_coordinates(form):
    # C(q_0, q_1, q_2) ≡ 0 by one composition, apart from the Euler
    # certificate, and the curve is the one the interpolation recorded
    f = PAPER_CUBIC if form is None else random_instance(GNSkeleton(*map(int, form[0].split(","))), form[1]).f
    psi = build_psi(f, sampled_relation(f))
    curve = _curve(f, psi)
    assert curve.ok
    assert curve.curve.compose(_coordinates(psi)).is_zero()
    assert curve.curve.to_string("z") == RECORDED_CURVES[form]


def test_p4_classification_samples_no_image(cubic_psi, monkeypatch):
    # the curve is read off ψ_g itself, so the stage draws no image point
    def refuse(*args):
        raise AssertionError("sample_image called")

    for module in (psi_module, reports, classify):
        monkeypatch.setattr(module, "sample_image", refuse, raising=False)
    block, failed = p4_classification(PAPER_CUBIC, cubic_psi)
    assert failed == [] and block["plane_curve"]["curve"] == "z0*z2 - z1^2"
    assert block["plane_curve"]["irreducible"] is True


def _sympy_implicit(exponents):
    """The lex Gröbner elimination of s, t from z_j = s^a·t^(d−a): the
    generator of the curve's ideal, as a sympy Poly in z."""
    s, t, *z = sympy.symbols("s t z0:3")
    d = sum(exponents[0])
    basis = sympy.groebner([zj - s**a * t**(d - a) for zj, (a, _) in zip(z, exponents)], s, t, *z, order="lex")
    [g] = [p for p in basis.exprs if not p.has(s, t)]
    return sympy.Poly(g, *z)


# monomial curves (s^a0·t^b0 : s^a1·t^b1 : s^a2·t^b2), each with one generator
MONOMIAL_CURVES = [
    ((2, 0), (1, 1), (0, 2)), ((3, 0), (2, 1), (0, 3)), ((3, 0), (1, 2), (0, 3)),
    ((4, 0), (3, 1), (0, 4)), ((4, 0), (1, 3), (0, 4)), ((5, 0), (2, 3), (0, 5)),
    ((4, 0), (2, 2), (1, 3)),
]


def _agrees_with_implicitization(expected, g, degree):
    """g has the degree and, up to scale, the equation sympy eliminates,
    with coprime integers and a positive leading coefficient."""
    assert degree == expected.total_degree()
    got = sympy.Poly(sum(c * sympy.Mul(*(zi**k for zi, k in zip(expected.gens, e))) for e, c in g.as_dict().items()), *expected.gens)
    assert sympy.expand(got.as_expr() * expected.LC() - expected.as_expr() * got.LC()) == 0
    assert math.gcd(*g.coefficients()) == 1 and g.leading()[1] > 0


@pytest.mark.parametrize("exponents", MONOMIAL_CURVES)
def test_least_relation_agrees_with_implicitization(exponents):
    rel = least_relation([Polynomial(2, {e: 1}) for e in exponents], UNIT_3, 6)
    _agrees_with_implicitization(_sympy_implicit(exponents), rel.g, rel.degree)


@pytest.mark.parametrize("exponents", MONOMIAL_CURVES)
def test_the_curve_kernel_agrees_with_implicitization(exponents):
    # the same curves as binary images q' in (x3, x4), through the curve stage
    curve = p4_plane_curve_check(_binary_image([Polynomial(5, {(0, 0, 0, *e): 1}) for e in exponents]))
    _agrees_with_implicitization(_sympy_implicit(exponents), curve.curve, curve.curve_degree)


def test_the_curve_kernel_refuses_a_reducible_image():
    # q' = (y3², y3², y4²) lies on the line z0 = z1, which a certified M
    # rules out: every conic through it, (z0 − z1)·z_i, is in the degree-2
    # kernel, which is then no single curve
    image = [_X[3] ** 2, _X[3] ** 2, _X[4] ** 2]
    with pytest.raises(InternalCheckError, match="3 independent equations of degree 2"):
        p4_plane_curve_check(_binary_image(image))


def test_p4_sections_pencil_off_a_plane_is_an_internal_error(cubic_psi, cubic_curve):
    # an ok curve report spans a plane, whose pencil of hyperplanes is 2-dimensional
    relation = cubic_psi.relation._replace(span=cubic_psi.relation.span[:2])
    with pytest.raises(InternalCheckError, match="not 2-dimensional"):
        p4_section_check(PAPER_CUBIC, cubic_psi._replace(relation=relation), cubic_curve, chart_count=1, seed=0)


def test_p4_sections_vertex_off_the_plane_is_no_line(cubic_psi, cubic_curve, monkeypatch):
    # a vertex vector without coordinates in Π's basis is not a line of Π
    monkeypatch.setattr(classify, "span_coordinates", lambda basis, point: None)
    report = p4_section_check(PAPER_CUBIC, cubic_psi, cubic_curve, chart_count=1, seed=0)
    assert not report.ok
    assert [(r.tangency_status, r.tangency_point) for r in report.records] == [("no_line", None)]
    assert report.violations[-1].endswith("vertex does not meet Π in a line")


def test_p4_sections_without_a_vertex_take_the_sampled_verdict(cubic_psi, cubic_curve, monkeypatch):
    # a section with no vertex is decided by its sampled Hessian, and both
    # its nonvanishing Hessian and its missing vertex are violations
    fermat = parse("x0^3 + x1^3 + x2^3 + x3^3")
    sampled = []

    def nonvanishing(f, seed=0):
        sampled.append(f)
        return hessian_vanishes(fermat, seed=seed)

    monkeypatch.setattr(classify, "cone_test", lambda f: VertexSubspace(basis=(), projective_dim=-1))
    monkeypatch.setattr(classify, "hessian_vanishes", nonvanishing)
    report = p4_section_check(PAPER_CUBIC, cubic_psi, cubic_curve, chart_count=1, seed=0)
    assert len(sampled) == 1
    assert [(r.vanishes, r.vertex_dim, r.tangency_status) for r in report.records] == [
        (False, -1, "no_line")
    ]
    c = report.records[0].pencil_value
    assert report.violations == (
        f"section at c={c} has nonvanishing Hessian",
        f"section at c={c} has vertex dimension -1",
    )


def test_p4_sections_paper_cubic(cubic_psi, cubic_curve):
    report = p4_section_check(PAPER_CUBIC, cubic_psi, cubic_curve, chart_count=5, seed=0)
    assert report.ok, report.violations
    assert len(report.records) == 5
    for r in report.records:
        assert r.vanishes
        assert r.vertex_dim >= 1
        assert r.tangency_status == "tangent"
    # distinct pencil members touch the conic z0*z2 = z1^2 in distinct points
    points = [r.tangency_point for r in report.records]
    assert len(set(points)) == len(points)
    assert all(z0 * z2 == z1 ** 2 for z0, z1, z2 in points)


def test_p4_sections_corrupted_curve(cubic_psi, cubic_curve):
    # flip a sign in the conic: the double-root test must now fail
    corrupted_curve = cubic_curve.curve.as_dict()
    key = next(iter(corrupted_curve))
    corrupted_curve[key] = -corrupted_curve[key]
    fake = cubic_curve._replace(curve=Polynomial(3, corrupted_curve))
    report = p4_section_check(PAPER_CUBIC, cubic_psi, fake, chart_count=3, seed=0)
    assert not report.ok
    assert any("double root" in v for v in report.violations)


def _dense(f):
    """f∘A for A = random_invertible(n + 1, substream(0, "dense"))."""
    a = random_invertible(f.nvars, substream(0, "dense"))
    return f.compose([Polynomial.linear_form(row) for row in a.entries])


# the 26 forms the oracle cross-check reads: the paper cubic (None), its
# dense conjugate ("dense"), and seeds 0-3 of six P^4 skeletons
CROSS_CHECKED = [None, "dense"] + [
    (skeleton, seed)
    for skeleton in ("4,2,1,2,1,3", "4,2,1,2,1,4", "4,2,1,2,1,6", "4,2,1,3,1,7", "4,2,1,4,1,7", "4,2,1,2,2,5")
    for seed in range(4)
]


@pytest.mark.parametrize(
    "form", CROSS_CHECKED, ids=lambda form: {None: "paper-cubic", "dense": "dense-paper-cubic"}.get(form) or "%s-seed%d" % form
)
def test_the_section_oracle_sees_the_tangent_lines_of_the_normal_form(form):
    # on the hyperplane u·x = 0 through Π, which is u_a·y3 + u_b·y4 = 0 in
    # y = A⁻¹·x, so (y3, y4) = c = (u_b, −u_a), the oracle's vertex line is
    # L_c = {⟨M(c), z⟩ = 0} and its tangency point is q'(c), at 5 pencil values
    if form is None or form == "dense":
        f = PAPER_CUBIC if form is None else _dense(PAPER_CUBIC)
    else:
        f = random_instance(GNSkeleton(*map(int, form[0].split(","))), form[1]).f
    psi = build_psi(f, sampled_relation(f))
    normal = p4_normal_form(f, psi)
    assert normal.ok, normal.violation
    report = p4_section_check(f, psi, p4_plane_curve_check(normal), chart_count=5, seed=0)
    assert report.ok and len(report.records) == 5
    pivots = [next(i for i, x in enumerate(w) if x) for w in psi.relation.span]
    a, b = (i for i in range(5) if i not in pivots)
    for r in report.records:
        c = (0, 0, 0, r.dual_point[b], -r.dual_point[a])
        m = [mi.evaluate(c) for mi in normal.tangents]
        assert any(m) and all(sum(x * z for x, z in zip(m, point)) == 0 for point in r.vertex_line)
        assert projectively_equal(r.tangency_point, [q.evaluate(c) for q in normal.image])


def test_p4_normal_form_paper_cubic(cubic_psi):
    # f is Q·1 for Q = y0·y3^2 + 2·y1·y3·y4 + y2·y4^2, in the coordinates of
    # W = span(e0, e1, e2), so A = I
    report = p4_normal_form(PAPER_CUBIC, cubic_psi)
    assert report.ok and report.mu == 1
    assert report.change == tuple(tuple(int(i == j) for i in range(5)) for j in range(5))
    assert [m.to_string("y") for m in report.tangents] == ["y3^2", "2*y3*y4", "y4^2"]
    assert [p.to_string("y") for p in report.parts] == ["0", "1"]


def test_p4_normal_form_of_the_perazzo_quintic():
    # mu = 1 and M = (x3^5, x4^5, (x3 + x4)^5): the cross product of the
    # derivatives of q' is −32·x3³x4³(x3 + x4)³ times M, and the gcd keeps the
    # powers of both coordinates; the curve has the degree of q', 8
    psi = build_psi(PERAZZO_QUINTIC, sampled_relation(PERAZZO_QUINTIC))
    report = p4_normal_form(PERAZZO_QUINTIC, psi)
    curve = p4_plane_curve_check(report)
    assert curve.ok and curve.curve_degree == 8 == psi.h[0].degree()
    assert report.ok and report.mu == 1
    assert list(report.tangents) == [_X[3] ** 5, _X[4] ** 5, (_X[3] + _X[4]) ** 5]
    assert list(report.parts) == [Polynomial.zero(5), Polynomial.constant(5, 1)]


def test_p4_normal_form_names_a_w_that_is_no_plane(cubic_psi):
    relation = cubic_psi.relation._replace(span=cubic_psi.relation.span[:2])
    line = _with_coordinates(cubic_psi._replace(relation=relation), _coordinates(cubic_psi)[:2])
    report = p4_normal_form(PAPER_CUBIC, line)
    assert (report.change, report.identity, report.violation) == ((), None, "W is not a plane")


def test_p4_normal_form_names_a_psi_off_the_pencil_coordinates(cubic_psi):
    # q_0 + x0·x3 keeps ψ_g's values in W, but q' then reads y0
    q0, q1, q2 = _coordinates(cubic_psi)
    moved = _with_coordinates(cubic_psi, [q0 + parse("x0*x3", nvars=5), q1, q2])
    report = p4_normal_form(PAPER_CUBIC, moved)
    assert (report.image, report.identity) == ((), None)
    assert report.violation == "ψ_g depends on more than the pencil coordinates"
    block, failed = p4_classification(PAPER_CUBIC, moved)
    assert "normal_form" in failed and block["plane_curve"]["irreducible"] is False


def test_p4_normal_form_names_a_coefficient_that_m_does_not_divide(cubic_psi):
    # x0·x3·x4 joins the y0 coefficient x3^2 of f, which M_0 = y3^2 no longer divides
    report = p4_normal_form(PAPER_CUBIC + parse("x0*x3*x4", nvars=5), cubic_psi)
    assert (report.parts, report.identity) == ((), None)
    assert report.violation == "the coefficient of y0^1 is not divisible by M_0^1"


@pytest.mark.parametrize("corrupted", ["P_0", "M_1", "f"])
def test_p4_normal_form_fails_the_identity_on_one_corrupted_piece(cubic_psi, monkeypatch, corrupted):
    # the quotients come in order M_0, M_1, M_2, P_0, P_1; x0·x1·x2 added to
    # f vanishes on the span of e0, e3 and e4, where the P_k are read
    f, original, calls = PAPER_CUBIC, classify.binary_quotient, []

    def quotient(a, b):
        calls.append(a)
        q = original(a, b)
        if len(calls) == {"M_1": 2, "P_0": 4}.get(corrupted):
            q = q + parse(f"x3^{q.degree() if q else 3}", nvars=5)
        return q

    monkeypatch.setattr(classify, "binary_quotient", quotient)
    if corrupted == "f":
        f = f + parse("x0*x1*x2", nvars=5)
    report = p4_normal_form(f, cubic_psi)
    assert len(calls) == 5
    assert (report.identity, report.violation) == (False, "f∘A ≢ Σ_k Q^k·P_k")


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["4,2,1,2,1,3", "4,2,1,2,1,4", "4,2,1,2,1,6"]), st.integers(0, 10**6), st.booleans())
def test_p4_normal_form_certifies_gn_draws_and_their_dense_conjugates(skeleton, seed, dense):
    # the stage certifies the identity, with mu the construction's μ; A = I
    # on a draw, whose W is spanned by e0, e1 and e2
    instance = random_instance(GNSkeleton(*map(int, skeleton.split(","))), seed)
    f = instance.f
    if dense:
        a = random_invertible(5, substream(seed, "conjugate"))
        f = f.compose([Polynomial.linear_form(row) for row in a.entries])
    psi = build_psi(f, sampled_relation(f))
    report = p4_normal_form(f, psi)
    assert report.ok, report.violation
    assert report.mu == instance.mu
    assert dense or report.change == tuple(tuple(int(i == j) for i in range(5)) for j in range(5))


@st.composite
def binary_forms(draw):
    """Nonzero binary forms of degree 2..8: products of linear forms (so
    repeated roots are common), times a random form, times u^2 or v^2 (a
    repeated root at 0 or at infinity) or neither."""
    pairs = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
    r = Polynomial.constant(2, draw(st.sampled_from((1, -2, 3))))
    for ab in draw(st.lists(pairs, max_size=3)):
        r = r * Polynomial.linear_form(list(ab))
    if draw(st.booleans()):
        e = draw(st.integers(1, 3))
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=e + 1, max_size=e + 1).filter(any))
        r = r * Polynomial(2, {(e - i, i): c for i, c in enumerate(coeffs) if c})
    square = draw(st.sampled_from((None, 0, 1)))
    if square is not None:
        r = r * Polynomial.variable(2, square) ** 2
    assume(r.degree() >= 2)
    return r


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(binary_forms())
def test_repeated_root_by_euler_matches_sympy_sqf_list(r):
    u, v = sympy.symbols("u v")
    expr = sum(c * u ** e[0] * v ** e[1] for e, c in r.as_dict().items())
    _, factors = sympy.sqf_list(expr, u, v)
    square = [(p, k) for p, k in factors if k >= 2]
    repeated, root = repeated_root(r)
    assert repeated == bool(square)
    # a point is reported exactly when the repeated part is one double linear factor
    single = len(square) == 1 and square[0][1] == 2
    single = single and sympy.Poly(square[0][0], u, v).total_degree() == 1
    assert (root is not None) == single
    if single:
        assert square[0][0].subs({u: root[0], v: root[1]}) == 0


def test_span_coordinates_read_off_the_echelon_basis():
    # pivot entries 1, 2 and 3: the coordinates come back in integers all the same
    basis = ((1, 0, 2, 0, -3), (0, 2, 1, 0, 4), (0, 0, 0, 3, 5))
    assert reduced_row_basis(basis) == basis
    z = (3, -7, 11)
    q = [sum(zk * b[i] for zk, b in zip(z, basis)) for i in range(5)]
    assert span_coordinates(basis, q) == z
    # a scalar multiple of q has the same primitive coordinates
    assert span_coordinates(basis, [-2 * x for x in q]) == z


def test_span_coordinates_outside_the_span_is_none():
    basis = ((1, 2, 0, 0), (0, 0, 3, 1))
    # agrees with 1·b0 + 1·b1 on the pivot columns, not on column 3
    assert span_coordinates(basis, (1, 2, 3, 2)) is None
    assert span_coordinates(basis, (0, 1, 0, 0)) is None
    assert span_coordinates(basis, (1, 2, 3, 1)) == (1, 1)


def test_span_coordinates_negative_pivot_is_sign_normalized():
    # rows with negative pivots: the coordinates are still primitive with a
    # positive first nonzero entry, whatever the signs of the pivots
    basis = ((-2, 0, 1), (0, -3, 6))
    q = [2 * a - 4 * b for a, b in zip(*basis)]   # 2·b0 - 4·b1
    assert span_coordinates(basis, q) == (1, -2)
    assert span_coordinates(basis, [-x for x in q]) == (1, -2)
    assert span_coordinates(basis, [0, -3, 6]) == (0, 1)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_p4_stage_does_not_depend_on_the_order_of_the_sample(seed):
    # the stage reads W's reduced echelon basis, which depends on Π alone:
    # it is the basis of an image sample read in any order, and the curve
    # vanishes at the sample's coordinates in it; seed None is the paper cubic
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    f = PAPER_CUBIC if seed is None else random_instance(skel, seed).f
    psi = build_psi(f, sampled_relation(f))
    shuffled = list(sample_image(psi, 12, 0).points)
    random.Random(f"shuffle {seed}").shuffle(shuffled)
    curve, basis = _curve(f, psi), psi.relation.span
    assert curve.ok and basis == reduced_row_basis(shuffled)
    assert all(curve.curve.evaluate(span_coordinates(basis, q)) == 0 for q in shuffled)


@pytest.mark.parametrize("form", ["paper_cubic", "4,2,1,2,1,3", "4,2,1,2,1,4", "4,2,1,2,1,6"])
def test_the_plane_basis_is_w_basis_in_analyze(form, capsys):
    if form == "paper_cubic":
        text = PAPER_CUBIC.to_string("x")
    else:
        text = random_instance(GNSkeleton(*map(int, form.split(","))), seed=0).f.to_string("x")
    assert main(["analyze", "--poly", text, "--no-timings"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    # A's first three columns are W's basis, its last two unit vectors
    columns = [list(column) for column in zip(*results["classification"]["normal_form"]["A"])]
    assert columns[:3] == results["relation_search"]["w_basis"]


def test_p4_pipeline_on_gn_instance():
    inst = random_instance(GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3), seed=0)
    psi = build_psi(inst.f, sampled_relation(inst.f, max_degree=4))
    curve = _curve(inst.f, psi)
    assert curve.ok and curve.curve_degree <= 6
    sections = p4_section_check(inst.f, psi, curve, chart_count=5, seed=0)
    assert sections.ok, sections.violations
    assert p4_normal_form(inst.f, psi).ok


def test_p4_suite_reports_a_draw_without_a_relation():
    # x0^2·x4 added to the seed-0 GN cubic: its Hessian no longer vanishes,
    # so W is empty and no relation exists
    def with_a_head_square(skel, seed):
        instance = random_instance(skel, seed)
        return instance._replace(f=instance.f + parse("x0^2*x4", nvars=5))

    report = run_p4_suite(0, instances=1, draw=with_a_head_square)
    assert report["ok"] is False
    assert report["violations"] == ["gn_421_3_seed0: no polar relation up to degree 8"]
    assert [case["input"] for case in report["cases"]] == ["paper_cubic"]


def test_p4_suite_certifies_a_curve_past_the_old_cap(monkeypatch):
    # the Perazzo quintic x0·x3^5 + x1·x4^5 + x2·(x3 + x4)^5 is a non-cone with
    # a degree-5 relation, and its ψ_g image is a plane curve of degree 8,
    # which the search reaches at its cap, the degree of the q_j
    shapes = _kernel_shapes(monkeypatch)
    draw = types.SimpleNamespace(f=PERAZZO_QUINTIC, vertex=cone_test(PERAZZO_QUINTIC))
    report = run_p4_suite(0, instances=1, draw=lambda skel, seed: draw)
    assert report["ok"] is True and report["violations"] == []
    case = report["cases"][1]
    assert case["plane_curve"]["curve_degree"] == 8
    assert case["plane_curve"]["irreducible"] is True
    # one kernel for the paper cubic's conic, then one per degree up to 8,
    # the last against the 45 octics
    assert [cols for _, cols in shapes] == [6] + [math.comb(e + 2, 2) for e in range(2, 9)]
    assert case["normal_form"]["ok"] is True


def _analyze(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--poly", text, "--no-timings"])
    return code, json.loads(out.getvalue())["results"]


# f = Q·P_1 + P_0 with Q = Σ_{i≤2} x_i·M_i(x3, x4): M of degree 6, whose
# image curve has degree 2·(6 − 1) = 10
SEXTIC_M = [_X[3] ** 6 + _X[4] ** 6, _X[3] ** 5 * _X[4] - 2 * _X[4] ** 6, (_X[3] + _X[4]) ** 6]
DEGREE_6_M = sum((x * m for x, m in zip(_X, SEXTIC_M)), Polynomial.zero(5)) * _X[3] + _X[4] ** 8


@pytest.mark.parametrize(
    "f, relation_degree, curve_degree",
    [(PERAZZO_QUINTIC, 5, 8), (DEGREE_6_M, 6, 10)],
    ids=["perazzo-quintic", "deg-M-6"],
)
def test_analyze_certifies_p4_curves_past_degree_6(f, relation_degree, curve_degree):
    # the curve search stops at the degree of the q_j, where the curve lies
    code, results = _analyze(f.to_string("x"))
    assert code == 0
    assert results["polar_relation"]["degree"] == relation_degree
    curve, normal = results["classification"]["plane_curve"], results["classification"]["normal_form"]
    assert (curve["curve_degree"], curve["irreducible"], curve["ok"]) == (curve_degree, True, True)
    assert (normal["mu"], normal["ok"]) == (1, True)


def test_analyze_finishes_on_a_degree_257_form():
    # ψ_g has degree 256; every identity, the lines joining image points
    # included, is checked symbolically in well under a second
    code, results = _analyze("x0*x3^256 + x1*x3^128*x4^128 + x2*x4^256")
    assert code == 0
    assert results["identity_checks"]["fiber_lines"] is True
    assert results["classification"]["plane_curve"]["curve_degree"] == 2


ORACLE_FORMS = {
    **{f"gn-4,2,1,2,1,3-seed{seed}": random_instance(GNSkeleton(4, 2, 1, 2, 1, 3), seed).f for seed in range(5)},
    "perazzo-quintic": PERAZZO_QUINTIC,
    "degree-257": parse("x0*x3^256 + x1*x3^128*x4^128 + x2*x4^256"),
    "dense-paper-cubic": _dense(PAPER_CUBIC),
}


def _least_relation_curve(psi):
    """The oracle: the least relation among ψ_g's coordinates q_j on W, on
    the unit rows, up to their degree."""
    qs = list(psi.coordinates)
    return least_relation(qs, UNIT_3, qs[0].degree())


@pytest.mark.parametrize("name", list(ORACLE_FORMS))
def test_the_curve_kernel_agrees_with_the_least_relation(name):
    # the p4 suite's GN draws, the Perazzo quintic, a sparse form of
    # degree 257 and a dense conjugate: the kernel on the binary image and
    # the sampled search on q have one equation, normalized alike
    f = ORACLE_FORMS[name]
    psi = build_psi(f, sampled_relation(f))
    curve = _curve(f, psi)
    relation = _least_relation_curve(psi)
    assert (curve.curve, curve.curve_degree) == (relation.g, relation.degree)


def _sympy_resultant_curve(image):
    """The curve of a binary image q' in (x3, x4), by elimination: at
    x3 = 1, Res_t(z1·q0 − z0·q1, z2·q0 − z0·q2) is a power of z0 times a
    power of the curve's equation, as a sympy Poly in z."""
    t, *z = sympy.symbols("t z0:3")
    q = [sum(c * t ** m[4] for m, c in qj.as_dict().items()) for qj in image]
    resultant = sympy.resultant(z[1] * q[0] - z[0] * q[1], z[2] * q[0] - z[0] * q[2], t)
    [curve] = [p for p, _ in sympy.factor_list(resultant)[1] if p != z[0]]
    return sympy.Poly(curve, *z)


@pytest.mark.parametrize("f", [PERAZZO_QUINTIC, DEGREE_6_M], ids=["perazzo-quintic", "deg-M-6"])
def test_the_curve_kernel_agrees_with_a_resultant(f):
    # the curves past degree 6, against an elimination that reads no point
    # (the least relation's seeded points repeat a ratio x3 : x4 on the
    # deg M = 6 form, which costs its search about 15 s)
    normal = p4_normal_form(f, build_psi(f, sampled_relation(f)))
    curve = p4_plane_curve_check(normal)
    _agrees_with_implicitization(_sympy_resultant_curve(normal.image), curve.curve, curve.curve_degree)


@st.composite
def binary_tangent_forms(draw):
    """(f, e) for f = Σ_k Q^k·P_k(x3, x4), Q = Σ_{i<=2} x_i·M_i(x3, x4),
    with random binary M_i of degree e = 2..4 and P_k of degree
    d − k·(e + 1), d = mu·(e + 1) + s."""
    e, mu, s = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 1))

    def binary(degree):
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1).filter(any))
        return Polynomial(5, {(0, 0, 0, degree - i, i): c for i, c in enumerate(coefficients)})

    q = sum((_X[i] * binary(e) for i in range(3)), Polynomial.zero(5))
    d = mu * (e + 1) + s
    f = sum((q ** k * binary(d - k * (e + 1)) for k in range(mu + 1)), Polynomial.zero(5))
    return f, e


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(binary_tangent_forms())
def test_the_curve_of_a_normal_form_draw(drawn):
    # the converse's forms: the kernel's curve is the least relation's, and
    # its degree is 2(e − 1), the class of the rational curve M(P^1) of
    # degree e, where M is general: a birational M (relation degree e) with
    # no cusp (∂_3M × ∂_4M coprime)
    f, e = drawn
    try:
        relation = sampled_relation(f)
        assume(relation is not None)
        psi = build_psi(f, relation)
    except DomainError:
        assume(False)
    normal = p4_normal_form(f, psi)
    assume(normal.ok)
    curve = p4_plane_curve_check(normal)
    oracle = _least_relation_curve(psi)
    assert (curve.curve, curve.curve_degree) == (oracle.g, oracle.degree)
    m = normal.tangents
    d3, d4 = [mi.partial(3) for mi in m], [mi.partial(4) for mi in m]
    cusps = binary_gcd([d3[i] * d4[j] - d3[j] * d4[i] for i, j in ((1, 2), (2, 0), (0, 1))])
    if relation.degree == e and cusps.degree() == 0:
        assert curve.curve_degree == 2 * (e - 1)


def test_p4_suite_reports_a_cone_draw():
    # the draw's cone test finds the vertex of x0^3 + x1^3; the suite names
    # the cone and runs no relation search on it
    cone = parse("x0^3 + x1^3", nvars=5)
    draw = types.SimpleNamespace(f=cone, vertex=cone_test(cone))
    report = run_p4_suite(0, instances=1, draw=lambda skel, seed: draw)
    assert report["ok"] is False
    assert report["violations"] == ["gn_421_3_seed0: V(f) is a cone"]
    assert [case["input"] for case in report["cases"]] == ["paper_cubic"]


def test_p4_suite_reports_a_one_point_image(monkeypatch):
    # a ψ_g whose coordinates in W's basis are all one form q_0 maps every
    # point to w_0 + w_1 + w_2: the normal form names it, and no curve is sought
    def collapsed(f, rel):
        psi = build_psi(f, rel)
        q0 = _coordinates(psi)[0]
        return _with_coordinates(psi, [q0, q0, q0])

    monkeypatch.setattr(reports, "build_psi", collapsed)
    report = run_p4_suite(0, instances=1)
    case = report["cases"][1]
    assert (case["plane_curve"]["irreducible"], case["plane_curve"]["curve_degree"]) == (False, None)
    assert report["violations"][-2:] == [
        "gn_421_3_seed0: plane-curve stage failed",
        "gn_421_3_seed0: normal-form stage failed: M ≡ 0: ∂_3 q' and ∂_4 q' are dependent",
    ]


def _fermat_verdict(f, seed=0):
    return hessian_vanishes(parse("x0^3 + x1^3 + x2^3 + x3^3"), seed=seed)


def _vertex_off_the_plane(f):
    # two chart directions whose ambient points leave Π = span(e0, e1, e2)
    n = f.nvars
    return VertexSubspace(basis=tuple(tuple(int(i == j) for i in range(n)) for j in (n - 2, n - 1)), projective_dim=1)


@pytest.mark.parametrize(
    "patches, violation",
    [
        ({"cone_test": lambda f: VertexSubspace(basis=(), projective_dim=-1), "hessian_vanishes": _fermat_verdict},
         "has nonvanishing Hessian"),
        ({"cone_test": lambda f: VertexSubspace(basis=((0, 0, 0, 1),), projective_dim=0)}, "has vertex dimension 0"),
        ({"cone_test": _vertex_off_the_plane}, "vertex does not meet Π in a line"),
        ({"repeated_root": lambda r: (False, None)}, "tangency double root missing"),
    ],
    ids=["nonvanishing", "vertex-dimension", "off-the-plane", "no-double-root"],
)
def test_p4_section_oracle_names_each_violation(cubic_psi, cubic_curve, monkeypatch, patches, violation):
    for name, value in patches.items():
        monkeypatch.setattr(classify, name, value)
    report = p4_section_check(PAPER_CUBIC, cubic_psi, cubic_curve, chart_count=1, seed=0)
    c = report.records[0].pencil_value
    assert report.violations and all(v.startswith(f"section at c={c}") for v in report.violations)
    assert any(violation in v for v in report.violations)


def test_low_dim_suite_rejects_bad_count():
    with pytest.raises(DomainError):
        low_dim_hesse_suite(count=0, seed=0)

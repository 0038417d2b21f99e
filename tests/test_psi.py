"""Polar relation search, ψ_g construction, and the identity battery."""

import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesse_lab import poly as poly_module
from hesse_lab import psi as psi_module
from hesse_lab import reports
from hesse_lab.cones import cone_test
from hesse_lab.errors import DomainError, InternalCheckError
from hesse_lab.fields import substream
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.hessian import sample_kernels
from hesse_lab.linalg import (
    ScalarMatrix,
    kernel,
    random_invertible,
    rank,
    reduced_row_basis,
)
from hesse_lab.poly import Digits, Polynomial, dot, linear_combination, monomials_of_degree, parse, vanishing
from hesse_lab.psi import (
    DEFAULT_MAX_RELATION_DEGREE,
    PolarRelation,
    PsiMap,
    SampledSet,
    build_psi,
    check_fiber_lines,
    check_invariance,
    find_polar_relation,
    least_relation,
    sample_image,
)
from conftest import sampled_relation
from oracles import digit, projectively_equal, reverify
from test_acceptance import _image_coordinates

PAPER_CUBIC = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")


def g_partials(f, rel):
    """The paper's g_i = ∂g/∂y_i ∘ ∇f, composed apart from the relation's parts."""
    return tuple(rel.g.partial(i).compose(f.gradient()) for i in range(f.nvars))


def from_parts(rel):
    """Σ_j w_{j,i}·(∂_jG)(F) for each i, with (∂_jG)(F) = c^(e−1)·(∂_jG)(F'):
    the g_i as ψ_g reads them off the reduced parts and the factor c."""
    n, scale = rel.parts[0].nvars, rel.factor ** (rel.degree - 1)
    return tuple(
        scale * linear_combination(n, zip((w[i] for w in rel.span), rel.parts)) for i in range(len(rel.span[0]))
    )


@pytest.fixture(scope="module")
def cubic_psi():
    rel = sampled_relation(PAPER_CUBIC, max_degree=2)
    return build_psi(PAPER_CUBIC, rel)


def test_polar_relation_paper_cubic():
    rel = sampled_relation(PAPER_CUBIC, max_degree=2)
    assert rel is not None
    assert rel.degree == 2
    # oracle: (2*x3*x4)^2 - 4*(x3^2)*(x4^2) = 0, so g ~ y1^2 - 4*y0*y2
    expected = parse("y1^2 - 4*y0*y2", var_prefix="y", nvars=5)
    assert rel.g == expected or rel.g == -expected or rel.g == expected.scale(-1)
    assert rel.g.compose(PAPER_CUBIC.gradient()).is_zero()


def test_relation_and_psi_compose_each_g_i_once(monkeypatch):
    # W has three rows, so three (∂_jG)(F) and one G(⟨w_0, y⟩, …) = g; the
    # certificate and ψ_g come from them, and build_psi reuses them
    calls = []
    compose = Polynomial.compose

    def counted(self, args):
        calls.append(self)
        return compose(self, args)

    monkeypatch.setattr(Polynomial, "compose", counted)
    rel = sampled_relation(PAPER_CUBIC, max_degree=2)
    psi = build_psi(PAPER_CUBIC, rel)
    assert len(calls) == 4
    assert psi.relation is rel


def test_certificate_by_euler_rejects_a_non_relation():
    # g = y0*y1 is no relation: (1/2)·(f_0·g_0 + f_1·g_1) = f_0·f_1 != 0
    g = parse("y0*y1", var_prefix="y", nvars=5)
    partials = PAPER_CUBIC.gradient()
    unit = [tuple(int(i == j) for i in range(5)) for j in range(5)]
    assert PolarRelation.from_partials(g, partials, unit) is None


def test_polar_relation_none_for_fermat():
    assert sampled_relation(parse("x0^3 + x1^3 + x2^3"), max_degree=3) is None


def test_build_psi_refuses_the_degree_1_relation_of_a_cone():
    # a degree-1 relation among the partials is exactly a cone, and ψ_g is
    # built only for non-cones: f_2 ≡ 0 gives the relation y2
    f = parse("x0^3 + x1^3", nvars=5)
    unit = tuple(tuple(int(i == j) for i in range(5)) for j in range(5))
    rel = PolarRelation.from_partials(Polynomial.variable(5, 2), f.gradient(), unit)
    assert (rel.degree, rel.g) == (1, parse("y2", var_prefix="y", nvars=5))
    with pytest.raises(DomainError, match="cone"):
        build_psi(f, rel)


def test_psi_components_paper_cubic(cubic_psi):
    # oracle (hand chain rule): g_0 = -4f_2, g_1 = 2f_1, g_2 = -4f_0 up to
    # overall sign; after content removal h ~ (x4^2, -x3*x4, x3^2, 0, 0)
    h = cubic_psi.h
    assert projectively_equal(
        [hi.coefficient((0, 0, 0, 0, 2)) for hi in h]
        + [hi.coefficient((0, 0, 0, 1, 1)) for hi in h]
        + [hi.coefficient((0, 0, 0, 2, 0)) for hi in h],
        [1, 0, 0, 0, 0] + [0, -1, 0, 0, 0] + [0, 0, 1, 0, 0],
    )
    assert h[3].is_zero() and h[4].is_zero()
    # ρ·h_i = g_i exactly
    for gi, hi in zip(g_partials(PAPER_CUBIC, cubic_psi.relation), h):
        assert cubic_psi.rho * hi == gi


def test_psi_evaluation_at_basis_point(cubic_psi):
    val = [hi.evaluate((0, 0, 0, 0, 1)) for hi in cubic_psi.h]
    assert any(val)  # off the base locus
    assert projectively_equal(val, (-1, 0, 0, 0, 0))


def test_psi_projective_well_defined(cubic_psi):
    a = [hi.evaluate((1, 2, 3, 4, 5)) for hi in cubic_psi.h]
    b = [hi.evaluate((3, 6, 9, 12, 15)) for hi in cubic_psi.h]
    assert projectively_equal(a, b)


def hessian_kills_h(f, psi):
    """H_f·h ≡ 0: row i is Σ_j ∂_j f_i·h_j, the derivative side for F = f_i."""
    return all(r.derivative_zero for r in check_invariance(f.gradient(), psi))


def test_second_derivative_relation(cubic_psi):
    assert hessian_kills_h(PAPER_CUBIC, cubic_psi) is True


def test_second_derivative_relation_mutated(cubic_psi):
    h = list(cubic_psi.h)
    h[0], h[1] = h[1], h[0]
    mutated = PsiMap(
        relation=cubic_psi.relation,
        rho=cubic_psi.rho,
        h=tuple(h),
        coordinates=(),
    )
    assert hessian_kills_h(PAPER_CUBIC, mutated) is False


def test_invariance_of_f_both_modes(cubic_psi):
    [res] = check_invariance([PAPER_CUBIC], cubic_psi)
    assert res.derivative_zero is True
    assert res.invariant is True
    assert res.agree


def test_invariance_of_partials(cubic_psi):
    # f_i(x) = f_i(x + λψ_g(x)) for every i
    for res in check_invariance(PAPER_CUBIC.gradient(), cubic_psi):
        assert res.derivative_zero and res.invariant


def test_invariance_of_psi_components(cubic_psi):
    # Σ ∂h_k/∂x_i · h_i = 0 and ψ_g(p) = ψ_g(p + λψ_g(p))
    for res in check_invariance([hk for hk in cubic_psi.h if hk], cubic_psi):
        assert res.derivative_zero and res.invariant


def test_invariance_fails_coherently_for_generic_linear(cubic_psi):
    x0 = parse("x0", nvars=5)
    [res] = check_invariance([x0], cubic_psi)
    assert res.derivative_zero is False
    assert res.invariant is False
    assert res.agree  # both sides fail together, as the equivalence demands


def test_taylor_membership(cubic_psi):
    # F(h) ≡ 0, read off the λ^D coefficient of F(x + λ·h), agrees with the
    # composition F(h_0,…,h_n) for each F of the battery and the control x0
    x0 = parse("x0", nvars=5)
    forms = [*(hk for hk in cubic_psi.h if hk), *PAPER_CUBIC.gradient(), x0]
    for F, res in zip(forms, check_invariance(forms, cubic_psi)):
        image_zero = F.compose(list(cubic_psi.h)).is_zero()
        assert res.image_zero is image_zero
        assert image_zero is (F is not x0)


def test_invariance_refuses_a_non_homogeneous_form(cubic_psi):
    with pytest.raises(DomainError, match="homogeneous"):
        check_invariance([PAPER_CUBIC, parse("x0^2 + x1", nvars=5)], cubic_psi)


def test_sample_image_shape_and_determinism(cubic_psi):
    img = sample_image(cubic_psi, count=12, seed=1)
    assert len(img.points) == 12
    # all points have the form (-b^2 : ab : -a^2 : 0 : 0)
    for q in img.points:
        assert q[3] == 0 and q[4] == 0
        assert q[1] * q[1] == q[0] * q[2] * 1  # (ab)^2 = b^2·a^2
    again = sample_image(cubic_psi, count=12, seed=1)
    assert img.points == again.points
    assert reverify(img, cubic_psi)


def test_sample_image_reverify_rejects_wrong_point(cubic_psi):
    img = sample_image(cubic_psi, count=8, seed=4)
    assert len(img.points) == 8
    assert reverify(img, cubic_psi)
    # a stored image point that is not ψ of its stored preimage must be caught
    bad = SampledSet(points=((1, 1, 1, 0, 0),) + img.points[1:], preimages=img.preimages)
    assert not reverify(bad, cubic_psi)


@pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["paper-cubic", "gn-0", "gn-1", "gn-2"])
def test_sample_image_values_agree_with_evaluate(draw):
    # the image is read from a table of powers; reverify re-reads every
    # point through Polynomial.evaluate
    if draw is None:
        f = PAPER_CUBIC
    else:
        f = random_instance(GNSkeleton(4, 2, 1, 2, 1, 3), seed=draw).f
    psi = build_psi(f, sampled_relation(f))
    image = sample_image(psi, count=30, seed=draw or 0)
    assert len(image.points) == 30
    assert reverify(image, psi)


def test_sample_image_count_zero(cubic_psi):
    assert sample_image(cubic_psi, count=0, seed=0).points == ()


def test_sample_polar_image_satisfies_relation(cubic_psi):
    # every sampled tangent hyperplane lies on the hypersurface cut by g
    from hesse_lab.psi import sample_polar_image

    polar = sample_polar_image(PAPER_CUBIC, count=12, seed=5)
    assert len(polar.points) == 12
    g = cubic_psi.relation.g
    for q in polar.points:
        assert g.evaluate(q) == 0


def test_image_span_rank_bound(cubic_psi):
    img = sample_image(cubic_psi, count=12, seed=2)
    m = ScalarMatrix([list(q) for q in img.points])
    assert rank(m) <= 4  # dim S*_Z <= n-2 forces span rank <= n-1


def _span_of_image(psi):
    """V, the span of the coefficient columns of (h_0, …, h_n), by sympy."""
    monos = monomials_of_degree(psi.nvars, max(hi.degree() for hi in psi.h))
    columns = sympy.Matrix([[hi.coefficient(e) for e in monos] for hi in psi.h]).columnspace()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in columns]


def _fiber_line_halves(f, psi):
    """(h∘L ≡ 0, ∇f∘L ≡ 0) for L over V, one composition per polynomial."""
    line = [Polynomial.linear_form(column) for column in zip(*_span_of_image(psi))]
    return all(not hi.compose(line) for hi in psi.h), all(not p.compose(line) for p in f.gradient())


def _with_component(psi, i, text):
    return psi._replace(h=(*psi.h[:i], parse(text, nvars=psi.nvars), *psi.h[i + 1:]))


def test_fiber_lines_without_gcd_division(cubic_psi):
    # dropping the ρ division only rescales components, so the span of the
    # image is the same
    undivided = PsiMap(
        relation=cubic_psi.relation,
        rho=Polynomial.constant(5, 1),
        h=g_partials(PAPER_CUBIC, cubic_psi.relation),
        coordinates=(),
    )
    assert check_fiber_lines(PAPER_CUBIC, cubic_psi)
    assert check_fiber_lines(PAPER_CUBIC, undivided)


def test_fiber_lines_fail_where_psi_is_nonzero_on_the_span_of_its_image(cubic_psi):
    # h_2 + x0·x1 keeps the image in W = span(e0, e1, e2) = Sing V(f), but
    # x0·x1 is nonzero on P(W): only the base-locus half fails
    widened = _with_component(cubic_psi, 2, f"{cubic_psi.h[2].to_string('x')} + x0*x1")
    assert _fiber_line_halves(PAPER_CUBIC, widened) == (False, True)
    assert not check_fiber_lines(PAPER_CUBIC, widened)


def test_fiber_lines_fail_where_the_image_leaves_sing_v_f(cubic_psi):
    # h_3 := x0·x1 puts e3 in the span of the image, and f_0 = x3^2 is
    # nonzero there: the singular-locus half fails
    leaving = _with_component(cubic_psi, 3, "x0*x1")
    assert not _fiber_line_halves(PAPER_CUBIC, leaving)[1]
    assert not check_fiber_lines(PAPER_CUBIC, leaving)


def test_battery_builds_the_shifted_arguments_once_and_fiber_lines_compose_once(
    cubic_psi, monkeypatch
):
    calls = Counter()
    compose, fiber, mul = Polynomial.compose, reports.check_fiber_lines, Polynomial.__mul__
    invariance = psi_module.check_invariance

    def counted_compose(self, args):
        calls["compose in fiber lines" if calls["open fiber lines"] else "compose"] += 1
        return compose(self, args)

    def counted_fiber(*args):
        calls["open fiber lines"] += 1
        try:
            return fiber(*args)
        finally:
            calls["open fiber lines"] -= 1

    def counted_mul(self, other):
        calls["mul in invariance"] += calls["open invariance"]
        return mul(self, other)

    def counted_invariance(forms, psi):
        calls["invariance"] += 1
        calls["open invariance"] += 1
        try:
            return invariance(forms, psi)
        finally:
            calls["open invariance"] -= 1

    monkeypatch.setattr(Polynomial, "compose", counted_compose)
    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(reports, "check_fiber_lines", counted_fiber)
    monkeypatch.setattr(reports, "check_invariance", counted_invariance)
    checks, failed = reports.psi_identity_battery(PAPER_CUBIC, cubic_psi)
    assert failed == [] and checks["fiber_lines"]
    assert calls["invariance"] == 1
    # one P∘L for P the packed family of the three nonzero h_k and the five
    # partials, L the span of the image
    assert calls["compose in fiber lines"] == 1
    # one P(x + λh) for P the packed family of f, its five partials and the
    # three nonzero h_k, whose λ¹ coefficient is the derivative side Σ_j ∂_jP·h_j
    assert calls["compose"] == 1
    assert calls["mul in invariance"] == 0


def test_fiber_lines_lambda_zero_trivial(cubic_psi):
    q = [hi.evaluate((0, 0, 0, 0, 1)) for hi in cubic_psi.h]
    p = (0, 0, 0, 0, 1)
    moved = [a + 0 * b for a, b in zip(p, q)]
    assert projectively_equal([hi.evaluate(moved) for hi in cubic_psi.h], q)


def test_find_polar_relation_preconditions():
    with pytest.raises(DomainError):
        sampled_relation(PAPER_CUBIC, max_degree=0)
    with pytest.raises(DomainError):
        sampled_relation(parse("x0 + x1"), max_degree=2)


def test_build_psi_on_a_six_variable_sextic():
    # the gcd of its three quintic g_i never returned under the primitive PRS
    f = random_instance(GNSkeleton(5, 2, 1, 2, 1, 6), seed=0).f
    rel = sampled_relation(f, max_degree=2)
    psi = build_psi(f, rel)
    assert (psi.rho.degree(), len(psi.rho)) == (3, 28)
    g = g_partials(f, rel)
    assert sum(1 for gi in g if gi) == 3
    for gi, hi in zip(g, psi.h):
        assert psi.rho * hi == gi


def symbolic_relation_oracle(f, max_degree):
    """(g, degree, g_i) by the symbolic route: the degree-e products of the
    partials expanded, their coefficient matrix transposed, and its exact
    kernel; the primitive basis vector on the earliest monomials whose g_i
    do not all vanish wins."""
    partials = f.gradient()
    n1 = f.nvars
    for e in range(1, max_degree + 1):
        monos = monomials_of_degree(n1, e)
        products = [
            math.prod((partials[i] ** a for i, a in enumerate(m) if a), start=Polynomial.constant(n1, 1))
            for m in monos
        ]
        basis = kernel(ScalarMatrix.from_polynomials(products).transpose())
        for vec in sorted(basis, reverse=True):
            g = Polynomial(n1, {m: c for m, c in zip(monos, vec) if c})
            raw = tuple(g.partial(i).compose(partials) for i in range(n1))
            if any(raw):
                return g, e, raw
    return None


def _gn(skeleton, seed=0):
    return random_instance(GNSkeleton(*map(int, skeleton.split(","))), seed=seed).f


def _conjugate(f, a):
    """f∘A: f(A·x)."""
    return f.compose([Polynomial.linear_form(row) for row in a.entries])


def _dense(f):
    return _conjugate(f, random_invertible(f.nvars, substream(0, "dense")))


@pytest.mark.parametrize(
    "f, max_degree, degree",
    [
        (PAPER_CUBIC, 4, 2),
        *((_gn("4,2,1,2,1,3", s), 4, 2) for s in range(3)),
        *((_gn("4,2,1,2,1,4", s), 4, 2) for s in range(3)),
        (_gn("4,2,1,3,1,5"), 4, 4),
        (parse("x0^3 + x1^3", nvars=5), 4, 1),       # linear kernel span(y2, y3, y4)
        (parse("x0^2*x1 + x1^3", nvars=4), 4, 1),    # linear kernel span(y2, y3)
        (parse("x0^3 + x1^3 + x2^3"), 3, None),
        (_gn("7,4,1,2,1,5"), 4, 2),                  # dim W = 5 of 8
        (_gn("7,5,1,2,1,6"), 4, 2),                  # W has no unit rows
        (_dense(parse("x0^3 + x1^3", nvars=4)), 4, 1),  # span(y2, y3) with W not on unit rows
    ],
)
def test_relation_search_matches_symbolic_oracle(f, max_degree, degree):
    expected = symbolic_relation_oracle(f, max_degree)
    if degree == 1:
        # a linear relation Σ u_i·y_i is a vertex direction u, which the
        # cone test decides; both read off the reduced basis of one space
        u = tuple(expected[0].coefficient(tuple(int(i == j) for i in range(f.nvars))) for j in range(f.nvars))
        assert expected[1] == 1
        assert u in cone_test(f).basis
        return
    rel = sampled_relation(f, max_degree=max_degree)
    if degree is None:
        assert expected is None and rel is None
        return
    assert (rel.g, rel.degree, from_parts(rel)) == expected
    assert rel.degree == degree


def test_relation_search_adds_rows_at_degenerate_points(monkeypatch):
    # every point of each first batch is (1, …, 1): the evaluation matrix has
    # rank 1, its kernel holds non-relations, and each one that fails its
    # certificate must draw a further point from the source
    expected = sampled_relation(PAPER_CUBIC, max_degree=2)
    w_dim = len(sample_kernels(PAPER_CUBIC).span)
    assert w_dim == 3
    source = psi_module._relation_points
    draws = []

    def degenerate_first(nvars, width):
        e = width // (PAPER_CUBIC.degree() - 1)
        batch = math.comb(w_dim - 1 + e, e) + 2
        points = source(nvars, width)
        for k in range(batch):
            draws.append(e)
            yield (1,) * nvars
        while True:
            draws.append(e)
            yield next(points)

    monkeypatch.setattr(psi_module, "_relation_points", degenerate_first)
    rel = sampled_relation(PAPER_CUBIC, max_degree=2)
    assert (rel.g, rel.degree, rel.parts) == (expected.g, expected.degree, expected.parts)
    # the search starts at degree 2 and draws no degree-1 point; it runs on
    # the three forms ⟨w_j, ∇f⟩, so the degree-2 batch holds 6 + 2
    # points, and rank 1 leaves a kernel of dimension 5, so at least 4 more
    # rows are needed
    assert draws.count(1) == 0
    assert draws.count(2) >= 8 + 4


def test_least_relation_ends_on_one_form_and_on_proportional_forms():
    # every value vector lies on one line: one form has no relation of
    # degree 2 or 3, two proportional forms have (2·z0 − z1)·(2·z0 + z1),
    # and a W too small to hold a relation hides it rather than faking one
    assert least_relation([parse("x0^2", nvars=2)], ((1,),), 3) is None
    rel = least_relation([parse("x0^2", nvars=2), parse("2*x0^2", nvars=2)], ((1, 0), (0, 1)), 3)
    assert rel.g.to_string("z") == "4*z0^2 - z1^2"
    assert find_polar_relation(PAPER_CUBIC, span=((1, 0, 0, 0, 0),)) is None


def _in_row_space(rows, q):
    return rank(ScalarMatrix([*rows, q])) == len(rows)


@pytest.mark.parametrize(
    "f, dim_v",
    [
        (PAPER_CUBIC, 3),
        (_dense(PAPER_CUBIC), 3),
        (_gn("4,2,1,3,1,7"), 3),
        (_dense(_gn("4,2,1,2,1,3")), 3),
        (_gn("5,3,1,2,1,6"), 3),
        (_dense(_gn("5,2,1,2,1,5")), 3),
        (_gn("7,4,2,2,1,5"), 5),
        (_gn("7,4,1,2,1,5"), 3),                     # dim W = 5
    ],
    ids=["paper-cubic", "dense-paper-cubic", "4,2,1,3,1,7", "dense-4,2,1,2,1,3", "5,3,1,2,1,6",
         "dense-5,2,1,2,1,5", "7,4,2,2,1,5", "7,4,1,2,1,5"],
)
def test_psi_image_lies_in_w(f, dim_v):
    # ψ_g takes its values in ker H_f, so V, the span of its image, lies in
    # W, and both h and ∇f vanish on P(V)
    span = sample_kernels(f).span
    psi = build_psi(f, find_polar_relation(f, span=span))
    v = _span_of_image(psi)
    assert len(v) == dim_v and all(_in_row_space(span, row) for row in v)
    assert check_fiber_lines(f, psi)


def _direct_sum(f, g):
    """f(x) + g(y) in disjoint variables: W is W_f ⊕ W_g."""
    n = f.nvars + g.nvars
    return f.extend(n) + g.compose([Polynomial.variable(n, f.nvars + i) for i in range(g.nvars)])


@pytest.mark.parametrize(
    "f, found",
    # dropping a row of the sum's W leaves the other summand's W whole, so
    # each of its 6 too-small Ws still holds a conic
    [(PAPER_CUBIC, 0), (_gn("5,3,1,2,1,6"), 0), (_direct_sum(PAPER_CUBIC, PAPER_CUBIC), 6)],
)
def test_too_small_w_hides_relations_but_fakes_none(f, found):
    span = sample_kernels(f).span
    partials = f.gradient()
    relations = [
        find_polar_relation(f, max_degree=4, span=span[:i] + span[i + 1:])
        for i in range(len(span))
    ]
    assert sum(rel is not None for rel in relations) == found
    for rel in filter(None, relations):
        assert rel.g.compose(partials).is_zero()


@pytest.mark.parametrize("f", [PAPER_CUBIC, _gn("4,2,1,2,1,3")])
def test_w_and_relation_degree_are_coordinate_free(f):
    # H_{f∘A}(x) = Aᵀ·H_f(A·x)·A, so W(f∘A) = A⁻¹·W(f): A maps it back
    a = random_invertible(f.nvars, substream(0, "dense"))
    g = _conjugate(f, a)
    span = sample_kernels(f).span
    conj_span = sample_kernels(g, seed=1).span
    assert len(conj_span) == len(span)
    assert reduced_row_basis([[sum(x * y for x, y in zip(row, w)) for row in a.entries] for w in conj_span]) == span
    assert sampled_relation(g).degree == sampled_relation(f).degree


def test_dense_direct_sum_searches_once_on_w(monkeypatch):
    # W of the dense conjugate of PAPER_CUBIC ⊕ PAPER_CUBIC has no unit row,
    # and degree 2 holds a relation of each summand; the search runs once,
    # on W, and takes the greatest certified kernel vector
    f = _dense(_direct_sum(PAPER_CUBIC, PAPER_CUBIC))
    assert all(sum(map(bool, w)) > 1 for w in sample_kernels(f).span)
    calls = []
    search = psi_module.find_polar_relation

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(psi_module, "find_polar_relation", counted)
    rel = psi_module.find_polar_relation(f, sample_kernels(f).span)
    assert len(calls) == 1
    assert rel.degree == 2
    assert rel.g.compose(f.gradient()).is_zero()
    psi = build_psi(f, rel)
    assert reports.psi_identity_battery(f, psi)[1] == []


def test_relation_search_refuses_a_cone_whose_w_row_is_a_vertex():
    # W = span(e2, e3, e4), and ⟨e_j, ∇f⟩ = f_j ≡ 0 for j >= 2: every row of
    # W is a vertex, so the search refuses f instead of returning a relation
    # whose parts all vanish
    with pytest.raises(DomainError, match="cone"):
        sampled_relation(parse("x0^3 + x1^3", nvars=5))


def test_build_psi_refuses_a_relation_whose_parts_all_vanish():
    # G = (z0 - z1)^2 on F_0 = F_1 is a certified relation, and both of its
    # parts ±2·(F_0 - F_1) vanish
    f0 = PAPER_CUBIC.gradient()[0]
    G = parse("z0^2 - 2*z0*z1 + z1^2", var_prefix="z", nvars=2)
    rel = PolarRelation.from_partials(G, [f0, f0], ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
    assert rel.degree == 2 and not any(rel.parts)
    with pytest.raises(DomainError, match="every part"):
        build_psi(PAPER_CUBIC, rel)


# ----------------------------------------------------------------------
# ψ_g from the gcd's cofactors


def _corrupt_heu_cofactors(monkeypatch):
    """Make each outermost GCDHEU call return its cofactor b/g with the
    leading coefficient doubled; the calls it corrupted are listed."""
    original, depth, corrupted = poly_module._heu_gcd, [0], []

    def heu_gcd(layout, a, b, vs):
        depth[0] += 1
        try:
            g, qa, qb = original(layout, a, b, vs)
        finally:
            depth[0] -= 1
        if depth[0]:
            return g, qa, qb
        corrupted.append(vs)
        top = max(qb)
        return g, qa, {**qb, top: 2 * qb[top]}

    monkeypatch.setattr(poly_module, "_heu_gcd", heu_gcd)
    return corrupted


def test_build_psi_rechecks_each_cofactor_in_integers(monkeypatch):
    # on the seed-0 6,3,1,2,1,6 the fold of the parts P'_j runs GCDHEU; a
    # cofactor it returns with a wrong leading coefficient fails the fold's
    # integer re-check g·b = p
    f = _gn("6,3,1,2,1,6")
    rel = sampled_relation(f)
    corrupted = _corrupt_heu_cofactors(monkeypatch)
    with pytest.raises(InternalCheckError, match="g·b != p"):
        build_psi(f, rel)
    assert corrupted


def _sympy_expr(p):
    xs = sympy.symbols(f"x0:{p.nvars}")
    return sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(xs, e)))
               for e, c in p.as_dict().items())


@st.composite
def small_gn_forms(draw):
    """A small GN form (P^4, or P^5 with t = 2 or 3) of a drawn seed, or its
    dense conjugate."""
    skeleton = draw(st.sampled_from(["4,2,1,2,1,3", "4,2,1,2,1,4", "5,2,1,2,1,3", "5,3,1,2,1,4"]))
    f = _gn(skeleton, draw(st.integers(0, 30)))
    if draw(st.booleans()):
        f = _conjugate(f, random_invertible(f.nvars, substream(draw(st.integers(0, 2**16)), "conjugate")))
    return f


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(small_gn_forms())
def test_psi_from_cofactors_matches_the_sympy_gcd(f):
    psi = build_psi(f, sampled_relation(f))
    g = g_partials(f, psi.relation)
    for gi, hi in zip(g, psi.h):
        assert psi.rho * hi == gi
    h = [_sympy_expr(hi) for hi in psi.h if hi]
    assert sympy.gcd_list(h).is_number
    # ρ is the gcd of the g_i = ρ·h_i: a multiple of sympy's gcd of the same degree
    oracle = sympy.Poly(sympy.gcd_list([_sympy_expr(gi) for gi in g if gi]), *sympy.symbols(f"x0:{f.nvars}"))
    rho = sympy.Poly(_sympy_expr(psi.rho), *oracle.gens)
    assert rho.total_degree() == oracle.total_degree()
    assert rho.rem(oracle).is_zero


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(small_gn_forms())
def test_psi_carries_its_coordinates_on_w(f):
    # h = Σ_j q_j·w_j exactly, the q_j are h read off W's pivots up to one
    # positive scale, and they share no factor
    psi = build_psi(f, sampled_relation(f))
    span, qs = psi.relation.span, psi.coordinates
    assert len(qs) == len(span)
    assert psi.h == tuple(linear_combination(f.nvars, zip((w[i] for w in span), qs)) for i in range(f.nvars))
    read = _image_coordinates(psi, span)
    j = next(j for j, q in enumerate(read) if q)
    scale = Fraction(qs[j].leading()[1]) / read[j].leading()[1]
    assert scale > 0 and list(qs) == [q.scale(scale) for q in read]
    assert sympy.gcd_list([_sympy_expr(q) for q in qs if q]).is_number


# ----------------------------------------------------------------------
# the common factor c of the forms F_j = ⟨w_j, ∇f⟩


def _unreduced_route(f):
    """(g, ρ, h) with no factor taken out: the least relation on the raw
    F_j, whose factor is 1, so that `build_psi` folds the full parts
    (∂_jG)(F)."""
    span = sample_kernels(f).span
    forms = [linear_combination(f.nvars, zip(w, f.gradient())) for w in span]
    rel = least_relation(forms, span, DEFAULT_MAX_RELATION_DEGREE)
    assert rel.factor == 1
    psi = build_psi(f, rel)
    return rel.g, psi.rho, psi.h


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(small_gn_forms())
@example(_gn("4,2,1,2,1,4"))
@example(_dense(_gn("4,2,1,2,1,4")))
@example(_gn("4,2,1,2,1,6"))
def test_taking_out_the_common_factor_changes_neither_g_nor_psi(f):
    # most small draws have c = 1; the examples have a linear c, the same
    # in dense position, and a cubic c
    psi = build_psi(f, sampled_relation(f))
    assert (psi.relation.g, psi.rho, psi.h) == _unreduced_route(f)


def test_rho_carries_the_factor_to_the_power_e_minus_1():
    # the seed-0 4,2,1,4,1,9 has a relation of degree 6 and a quadric c,
    # so ρ = c^5·ρ'
    f = _gn("4,2,1,4,1,9")
    psi = build_psi(f, sampled_relation(f))
    assert (psi.relation.degree, psi.relation.factor.degree()) == (6, 2)
    assert (psi.relation.g, psi.rho, psi.h) == _unreduced_route(f)


def test_taking_out_the_common_factor_rechecks_each_cofactor(monkeypatch):
    # the three F_j of the seed-0 4,2,1,2,1,4 share a linear factor c, which
    # GCDHEU finds; a cofactor it returns with a wrong leading coefficient
    # fails the fold's integer re-check g·b = p
    f = _gn("4,2,1,2,1,4")
    corrupted = _corrupt_heu_cofactors(monkeypatch)
    with pytest.raises(InternalCheckError, match="g·b != p"):
        sampled_relation(f)
    assert corrupted


def test_the_search_and_the_fold_run_on_the_reduced_forms(monkeypatch):
    # on the seed-0 7,4,1,2,1,6 the three F_j of degree 5 share a cubic c:
    # the search runs on the quadrics F_j/c, and build_psi folds parts of
    # degree 2; the F_j themselves go through the gcd once, to find c
    f = _gn("7,4,1,2,1,6")
    searched, folded = [], []
    least, fold = psi_module.least_relation, psi_module.gcd_cofactors

    def spy_search(forms, span, max_degree):
        searched.append({F.degree() for F in forms})
        return least(forms, span, max_degree)

    def spy_fold(polys):
        folded.append({p.degree() for p in polys})
        return fold(polys)

    monkeypatch.setattr(psi_module, "least_relation", spy_search)
    monkeypatch.setattr(psi_module, "gcd_cofactors", spy_fold)
    rel = sampled_relation(f)
    build_psi(f, rel)
    assert rel.factor.degree() == 3
    assert searched == [{2}]
    assert folded == [{5}, {2}]


def test_the_swapped_psi_passes_fiber_lines_and_fails_the_battery(cubic_psi):
    # swapping h_0 and h_1, as `verify --mutate` does, permutes two
    # coordinates of V = span(e0, e1, e2): the image still spans P(W), where
    # ψ_g and ∇f vanish, and H_f·h ≢ 0 is what catches the corruption
    swapped = reports._mutated(cubic_psi)
    checks, failed = reports.psi_identity_battery(PAPER_CUBIC, swapped)
    assert checks["fiber_lines"] is True
    assert "second_derivative_zero" in failed


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(small_gn_forms())
def test_fiber_lines_hold_on_gn_draws_and_dense_conjugates(f):
    psi = build_psi(f, sampled_relation(f))
    assert _fiber_line_halves(f, psi) == (True, True)
    assert check_fiber_lines(f, psi)


# ----------------------------------------------------------------------
# packed families against a sympy oracle

_R, *_RX = sympy.polys.rings.ring("x0,x1,x2,lam", sympy.QQ)
_LAM = _RX.pop()
_SX = sympy.symbols("x0:3")


def _sympy(p, args=_RX):
    """p at args, in sympy's own sparse polynomial ring."""
    return sum(
        (sympy.QQ(c.numerator, c.denominator) * math.prod(x**k for x, k in zip(args, e) if k)
         for e, c in p.as_dict().items()),
        _R.zero,
    )


def _oracle_invariance(F, h):
    """(derivative_zero, invariant, image_zero) of F by sympy expansion."""
    f, hs = _sympy(F), [_sympy(hi) for hi in h]
    derivative = sum((f.diff(x) * hx for x, hx in zip(_RX, hs)), _R.zero)
    shifted = _sympy(F, [x + _LAM * hx for x, hx in zip(_RX, hs)])
    return derivative == 0, shifted == f, _sympy(F, hs) == 0


@st.composite
def small_forms(draw, variables=(0, 1, 2), degrees=(1, 2, 3), fractions=True):
    """A nonzero homogeneous form in the given variables of three."""
    d = draw(st.sampled_from(degrees))
    monos = [m for m in monomials_of_degree(3, d) if all(m[i] == 0 for i in range(3) if i not in variables)]
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[0] = 1
    den = draw(st.sampled_from((1, 1, 2, 3, 7))) if fractions else 1
    return Polynomial(3, {m: Fraction(c, den) for m, c in zip(monos, coeffs) if c})


@st.composite
def digit_families(draw):
    """(bound, family): polynomials in two monomials whose coefficients lie
    in [−bound, bound], the extremes and zero drawn often."""
    bound = draw(st.sampled_from((0, 1, 2, 3, 2**8 - 1, 2**8, 10**30)))
    coeff = st.one_of(st.sampled_from((-bound, bound, 0)), st.integers(-bound, bound))
    terms = st.dictionaries(st.sampled_from(((1, 0), (0, 1))), coeff, max_size=2)
    return bound, [Polynomial(2, t) for t in draw(st.lists(terms, min_size=1, max_size=5))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(digit_families())
def test_digits_read_back_every_packed_coefficient(case):
    bound, family = case
    digits = Digits(bound, len(family))
    packed = poly_module._new(2, digits._pack(enumerate(p._terms for p in family)))
    for k, p in enumerate(family):
        assert digit(digits, packed, k) == p
    assert digits.nonzero(packed.coefficients()) == [bool(p) for p in family]


@st.composite
def invariance_families(draw):
    """(forms, h): h = (0, 0, q(x0, x1)), under which forms in x0, x1 pass
    every check and x0·G passes only F(h) ≡ 0, or h random in all three
    variables; members of mixed degrees, zero and constant ones included."""
    if draw(st.booleans()):
        h = (Polynomial.zero(3), Polynomial.zero(3), draw(small_forms((0, 1), (1, 2), False)))
    else:
        delta = draw(st.sampled_from((1, 2)))
        h = tuple(draw(small_forms(degrees=(delta,), fractions=False)) for _ in range(3))
    member = st.one_of(
        small_forms((0, 1)),
        small_forms(),
        small_forms(degrees=(1, 2)).map(lambda g: g * Polynomial.variable(3, 0)),
        st.just(Polynomial.zero(3)),
        st.integers(1, 5).map(lambda c: Polynomial.constant(3, c)),
    )
    return draw(st.lists(member, min_size=1, max_size=6)), h


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(invariance_families())
def test_packed_invariance_matches_the_sympy_expansion_of_each_form(case):
    forms, h = case
    psi = PsiMap(relation=None, rho=None, h=h, coordinates=())
    got = [(r.derivative_zero, r.invariant, r.image_zero) for r in check_invariance(forms, psi)]
    assert got == [_oracle_invariance(F, h) for F in forms]


@pytest.mark.parametrize("t", [2, 7, 31, 64, 200])
def test_packed_invariance_reads_a_digit_just_under_half_the_base(t):
    # with h = (0, 0, s·x0) and s = 2^t − 2, the bound ‖F‖₁·M^D of F = ±x2 is
    # 1·(1 + s) = 2^t − 1, so 2^(bits−1) = 2^t, and the λ·x0 coefficient ±s
    # of ±x2(x + λh) sits just under it beside the zero digits of x0, x1, 0
    s = 2**t - 2
    assert Digits(s + 1, 1).bits - 1 == t
    x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
    h = (Polynomial.zero(3), Polynomial.zero(3), x0.scale(s))
    forms = [x2, x0, -x2, x1, Polynomial.zero(3), -x2, x0.scale(-1)]
    got = check_invariance(forms, PsiMap(relation=None, rho=None, h=h, coordinates=()))
    assert [(r.derivative_zero, r.invariant, r.image_zero) for r in got] == [
        _oracle_invariance(F, h) for F in forms
    ]
    assert [r.invariant for r in got] == [False, True, False, True, True, False, True]


def _oracle_vanishing(family, args, var):
    """`vanishing` from one `compose` per member, its terms grouped by the
    exponent of x_var."""
    reached = [{e[var] for e in F.compose(args).as_dict()} for F in family]
    return {a: [a not in r for r in reached] for a in set().union(*reached)}


@st.composite
def vanishing_cases(draw):
    """(family, args, var): forms of mixed degrees in three variables, zero
    and constant members and multiples of x0 − x1 included, at three args
    with Fraction coefficients, of mixed degrees and zero among them, and
    args[1] = args[0] often, so that x0 − x1 goes to zero."""
    x0, x1 = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    member = st.one_of(
        small_forms(),
        small_forms(degrees=(1, 2)).map(lambda g: g * (x0 - x1)),
        st.just(Polynomial.zero(3)),
        st.fractions(-5, 5, max_denominator=6).map(lambda c: Polynomial.constant(3, c)),
    )
    arg = st.one_of(small_forms(), st.just(Polynomial.zero(3)), st.tuples(small_forms(), small_forms()).map(sum))
    args = draw(st.lists(arg, min_size=3, max_size=3))
    if draw(st.booleans()):
        args[1] = args[0]
    return draw(st.lists(member, min_size=1, max_size=5)), args, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(vanishing_cases())
def test_vanishing_matches_compose_member_by_member(case):
    family, args, var = case
    assert vanishing(family, args, var) == _oracle_vanishing(family, args, var)


@pytest.mark.parametrize("t", [2, 7, 31, 64, 200])
def test_packed_lines_read_a_digit_just_under_half_the_base(t):
    # a check_fiber_lines-style call: with linear forms L = (s·y0, 0, y1)
    # and s = 2^t − 1, the bound ‖F‖₁·M of F = ±x0 or x1 is s, so
    # 2^(bits−1) = 2^t, and ±s·y0 sits just under it beside the zero digits
    # of x1
    s = 2**t - 1
    assert Digits(s, 1).bits - 1 == t
    x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
    line = [Polynomial.variable(2, 0).scale(s), Polynomial.zero(2), Polynomial.variable(2, 1)]
    family = [x0, x1, -x0, x1, x0]
    assert vanishing(family, line, 0) == _oracle_vanishing(family, line, 0) == {1: [False, True, False, True, False]}
    assert vanishing([x1, x1 * x2, -x1], line, 0) == {}


@st.composite
def dot_cases(draw):
    """(a, b): random forms, or b_0 = c·a_1, b_1 = −c·a_0 and zero beyond,
    so that Σ_j a_j·b_j ≡ 0."""
    k = draw(st.integers(1, 3))
    member = st.one_of(small_forms(), st.just(Polynomial.zero(3)))
    a = draw(st.lists(member, min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        c = draw(small_forms(degrees=(0, 1)))
        return a, [a[1] * c, -(a[0] * c), *(Polynomial.zero(3) for _ in a[2:])]
    return a, draw(st.lists(member, min_size=k, max_size=k))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dot_cases())
@example(([Polynomial(3, {(1, 0, 0): 2})], [Polynomial(3, {(0, 1, 0): Fraction(1, 3)})]))  # r = 1
# Σ_ℓ 9x0·9x0 = 324·x0², exactly the digit bound max_a ‖x_a‖₁·Σ_ℓ ‖y_ℓ‖₁
@example(([Polynomial(3, {(1, 0, 0): 9})] * 4, [Polynomial(3, {(1, 0, 0): 9})] * 4))
def test_packed_dot_equals_the_expanded_sum(case):
    a, b = case
    got = dot(a, b)
    expected = sympy.expand(sum((_sympy(x).as_expr() * _sympy(y).as_expr() for x, y in zip(a, b)), 0))
    assert got.is_zero() is (expected == 0)
    assert sympy.expand(_sympy(got).as_expr() - expected) == 0


@st.composite
def relation_candidates(draw):
    """(G, forms): G(a², ab, b²) for the relation G = z0·z2 − z1², or a random
    nonzero G in k+1 variables at random forms."""
    if draw(st.booleans()):
        a, b = (draw(small_forms(degrees=(1,))) for _ in range(2))
        return parse("z0*z2 - z1^2", var_prefix="z", nvars=3), [a * a, a * b, b * b]
    k1 = draw(st.integers(1, 3))
    e = draw(st.integers(1, 2))
    monos = monomials_of_degree(k1, e)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[-1] = 1
    forms = [draw(small_forms(degrees=(2,))) for _ in range(k1)]
    return Polynomial(k1, {m: c for m, c in zip(monos, coeffs) if c}), forms


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(relation_candidates())
def test_from_partials_certifies_exactly_the_relations(case):
    G, forms = case
    k1 = G.nvars
    is_relation = _sympy(G, [_sympy(F) for F in forms]) == 0
    unit = [tuple(int(i == j) for i in range(k1)) for j in range(k1)]
    rel = PolarRelation.from_partials(G, forms, unit)
    assert (rel is not None) is is_relation
    if rel is not None:
        assert rel.g.compose(forms).is_zero()

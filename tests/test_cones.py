"""Cone tests, vertices, singular membership, restriction, projection lemma."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesse_lab import cones, linalg
from hesse_lab.errors import DomainError, InternalCheckError, RestrictionZeroError
from hesse_lab.cones import (
    HyperplaneChart,
    chart_for_hyperplane,
    cone_test,
    directional_derivative,
    projection_lemma_check,
    restrict,
    sing_membership,
    translation_invariant,
)
from hesse_lab.fields import substream
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.hessian import hessian_matrix, symbolic_determinant
from hesse_lab.linalg import ScalarMatrix, kernel, primitive_vector, random_invertible
from hesse_lab.poly import Polynomial, monomials_of_degree, parse

PAPER_CUBIC = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")


def apply_linear_change(f, a):
    """f(A·x) for an invertible matrix A."""
    return f.compose([Polynomial.linear_form(list(row)) for row in a.entries])


def test_paper_cubic_not_a_cone():
    v = cone_test(PAPER_CUBIC)
    assert v.projective_dim == -1
    assert not v.is_cone


def _gn_form(skeleton, seed):
    return random_instance(GNSkeleton(*skeleton), seed=seed).f


def _conjugate(f, seed):
    return apply_linear_change(f, random_invertible(f.nvars, substream(seed, "test_conjugate")))


@pytest.mark.parametrize(
    "f, vertex_dim",
    [
        (parse("x0^3 + x1^3", nvars=4), 1),
        (_conjugate(parse("x0^3 + x1^3", nvars=4), 0), 1),
        (parse("1/2*x0^2*x1 - 2/3*x1^3 + x0*x1*x2", nvars=5), 1),
        (_conjugate(PAPER_CUBIC.extend(6), 1), 0),
        (PAPER_CUBIC, -1),
        (_gn_form((4, 2, 1, 2, 1, 3), 0), -1),
        (_gn_form((4, 2, 1, 2, 1, 3), 1).extend(6), 0),
        (_gn_form((5, 3, 1, 2, 1, 4), 0), -1),
        (_gn_form((7, 5, 1, 2, 1, 6), 0), -1),
        (_conjugate(_gn_form((4, 2, 1, 2, 1, 4), 0), 2), -1),
    ],
)
def test_vertex_from_the_terms_equals_the_expanded_partials_oracle(f, vertex_dim):
    # the rows read from the terms of f are the transposed coefficient matrix
    # of the expanded partials, up to row order, which the reduced basis
    # does not see
    oracle = kernel(ScalarMatrix.from_polynomials(f.gradient()).transpose())
    v = cone_test(f)
    assert v.basis == tuple(tuple(w) for w in oracle)
    assert v.projective_dim == vertex_dim


def _sympy_vertex(f):
    """sympy's nullspace of the full directional-derivative matrix: its basis
    has 1 at each free column and 0 at the others, so it is the reduced
    basis, which depends on the span alone."""
    rows = ScalarMatrix.from_polynomials(f.gradient()).transpose().entries
    m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in m.nullspace())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(-1, 2), st.integers(2, 4), st.integers(0, 2**32))
def test_cone_test_matches_the_sympy_nullspace(nvars, vertex_dim, degree, seed):
    # a form in k = nvars - vertex_dim - 1 variables with Fraction
    # coefficients, after a seeded change of coordinates of all nvars: a
    # non-cone for vertex_dim = -1, else a cone with a vertex of dimension
    # vertex_dim or more
    k = nvars - vertex_dim - 1
    assume(k >= 1)
    rng = substream(seed, "test_cone_oracle")
    terms = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in monomials_of_degree(k, degree)}
    g = Polynomial(k, terms)
    assume(g)
    f = apply_linear_change(g.extend(nvars), random_invertible(nvars, rng))
    v = cone_test(f)
    assert v.basis == _sympy_vertex(f)
    assert v.projective_dim >= vertex_dim


def _derivative_rows_read(monkeypatch, f):
    """cone_test(f) and the number of rows it read from its row stream."""
    real = cones.kernel_of_rows
    read = []

    def tallied(rows, ncols):
        return real((read.append(row) or row for row in rows), ncols)

    monkeypatch.setattr(cones, "kernel_of_rows", tallied)
    vertex = cone_test(f)
    monkeypatch.undo()
    return vertex, len(read)


def _all_derivative_rows(f):
    return len({e[:i] + (x - 1,) + e[i + 1:] for e in f.terms for i, x in enumerate(e) if x})


@pytest.mark.parametrize(
    "skeleton, read, total",
    [
        ((6, 3, 1, 2, 1, 5), 7, 55),
        ((7, 4, 1, 2, 1, 5), 9, 65),
        ((7, 5, 1, 2, 1, 6), 11, 120),
        ((8, 5, 1, 2, 1, 6), 19, 321),
        ((6, 3, 2, 2, 1, 4), 7, 34),
        ((8, 5, 2, 2, 1, 4), 11, 46),
    ],
)
def test_a_gn_non_cone_is_settled_from_its_first_rows(monkeypatch, skeleton, read, total):
    # the cone test stops once nvars rows are independent mod p, of `total`
    # rows in the matrix; the counts are pinned, so a larger one is work
    # added back.  At most 2·nvars rows are read, but for 8,5,1,2,1,6: its
    # 9 variables take 19 rows.
    f = _gn_form(skeleton, 0)
    vertex, rows = _derivative_rows_read(monkeypatch, f)
    assert not vertex.is_cone
    assert (rows, _all_derivative_rows(f)) == (read, total)
    assert (rows <= 2 * f.nvars) == (skeleton != (8, 5, 1, 2, 1, 6))


def test_a_cone_reads_every_row_and_eliminates_once(monkeypatch):
    # the rows run out below full rank: all are kept for the lift and its
    # exact re-check, with no second, Bareiss, elimination
    f = _conjugate(_gn_form((4, 2, 1, 2, 1, 3), 1).extend(6), 3)
    monkeypatch.setattr(linalg, "_echelon_rational", lambda entries: pytest.fail("eliminated"))
    vertex, rows = _derivative_rows_read(monkeypatch, f)
    assert vertex.projective_dim == 0
    assert rows == _all_derivative_rows(f)


def test_cone_test_rechecks_each_vertex_direction(monkeypatch):
    # a kernel that hands back a direction with D_v f != 0 must be caught
    monkeypatch.setattr(cones, "kernel_of_rows", lambda rows, ncols: [[1] + [0] * (ncols - 1)])
    with pytest.raises(InternalCheckError, match="D_v f"):
        cone_test(PAPER_CUBIC)


def test_a_corrupted_lift_on_a_cone_fails_the_exact_recheck(monkeypatch):
    # a lifted vector off by one in every entry fails M·v = 0, and full
    # Bareiss gives the vertex instead
    f = _conjugate(parse("x0^3 + x1^3", nvars=4), 0)
    expected = cone_test(f).basis
    real_lift, bareiss = linalg._lifted_kernel, linalg._echelon_rational
    eliminated = []
    monkeypatch.setattr(
        linalg, "_lifted_kernel", lambda basis, ncols, p: [[x + 1 for x in v] for v in real_lift(basis, ncols, p)]
    )
    monkeypatch.setattr(
        linalg, "_echelon_rational", lambda entries: eliminated.append(len(entries)) or bareiss(entries)
    )
    assert cone_test(f).basis == expected
    assert len(eliminated) == 1


def test_cone_x0_x1_cubed():
    f = parse("x0^3 + x1^3", nvars=4)
    v = cone_test(f)
    assert v.projective_dim == 1
    # vertex is {x0 = x1 = 0}
    for vec in v.basis:
        assert vec[0] == 0 and vec[1] == 0


def test_cone_dim_invariant_under_coordinate_change():
    f = parse("x0^3 + x1^3", nvars=4)
    rng = substream(0, "test_change")
    a = random_invertible(4, rng)
    g = apply_linear_change(f, a)
    v = cone_test(g)
    assert v.projective_dim == 1
    # oracle: transform the known vertex basis by the inverse and re-verify
    inverse = sympy.Matrix(a.entries).inv()
    for j in (2, 3):
        w = [Fraction(int(x.p), int(x.q)) for x in inverse[:, j]]
        assert directional_derivative(g, w).is_zero()


def test_vertex_certificate_translation_invariance():
    f = parse("x0^3 + x1^3", nvars=4)
    for v in cone_test(f).basis:
        assert translation_invariant(f, v)


def test_cone_implies_vanishing_hessian():
    for text, n in (("x0^3 + x1^3", 4), ("x0^2*x1 + x1^3", 4)):
        f = parse(text, nvars=n)
        assert cone_test(f).is_cone
        assert symbolic_determinant(hessian_matrix(f)).is_zero()


def test_sing_membership_paper_cubic():
    # all five partials contain x3 or x4 in every monomial
    assert sing_membership(PAPER_CUBIC, (1, 0, 0, 0, 0)) is True


def test_sing_membership_fermat():
    assert sing_membership(parse("x0^3 + x1^3 + x2^3"), (1, 0, 0)) is False


def test_sing_membership_generic_point():
    rng = substream(3, "sing")
    pt = [rng.randint(1, 9) for _ in range(5)]
    assert sing_membership(PAPER_CUBIC, pt) is False


def test_sing_membership_rejects_zero_vector():
    with pytest.raises(DomainError):
        sing_membership(PAPER_CUBIC, (0, 0, 0, 0, 0))


def _pencil_chart(c):
    # hyperplane x4 = c*x3 parametrized by (x0, x1, x2, x3)
    rows = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, c),
    )
    return HyperplaneChart(ambient_vars=5, parametrization=rows, dual_point=(0, 0, 0, -c, 1))


def test_restrict_paper_cubic_to_pencil():
    for c in (1, 2, Fraction(1, 2)):
        section = restrict(PAPER_CUBIC, _pencil_chart(c))
        expected = parse("x3^2", nvars=4) * (
            parse("x0", nvars=4)
            + parse("x1", nvars=4).scale(2 * c)
            + parse("x2", nvars=4).scale(c * c)
        )
        assert section == expected
        assert section.degree() == PAPER_CUBIC.degree()


def test_restrict_quadric_drop_last_variable():
    f = parse("x0^2 + x1^2 + x2^2")
    chart = chart_for_hyperplane((0, 0, 1))
    assert restrict(f, chart) == parse("x0^2 + x1^2")


def test_restrict_vanishing_is_an_error():
    f = parse("x2", nvars=3) * parse("x0 + x1", nvars=3)
    chart = chart_for_hyperplane((0, 0, 1))  # H = {x2 = 0} ⊂ V(f)
    with pytest.raises(RestrictionZeroError):
        restrict(f, chart)


def test_chart_for_hyperplane_invariants():
    chart = chart_for_hyperplane((1, 2, 3, 4))
    for j in range(3):
        assert sum(chart.dual_point[i] * chart.parametrization[i][j] for i in range(4)) == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(-6, 6), min_size=2, max_size=6).filter(lambda h: h[0] != 0),
)
def test_chart_columns_are_the_reduced_kernel_basis(zeros, tail):
    # leading zeros move the first nonzero entry p; the columns read off h
    # must be the primitive reduced kernel basis of [h], in the same order
    h = [0] * zeros + tail
    chart = chart_for_hyperplane(h)
    expected = [primitive_vector(v) for v in kernel(ScalarMatrix([h]))]
    assert list(zip(*chart.parametrization)) == expected


def test_projection_lemma_paper_cubic():
    assert projection_lemma_check(PAPER_CUBIC, _pencil_chart(1), samples=10, seed=0)


def test_projection_lemma_quadric():
    f = parse("x0^2 + x1^2 + x2^2 + x3^2")
    chart = chart_for_hyperplane((0, 0, 0, 1))
    assert projection_lemma_check(f, chart, samples=10, seed=1)


def test_projection_lemma_mutation_control():
    assert (
        projection_lemma_check(PAPER_CUBIC, _pencil_chart(1), samples=10, seed=0, corrupt_partial=0)
        is False
    )


def test_psi_identities_survive_coordinate_change():
    # projective equivalence preserves the whole vanishing-Hessian package
    from hesse_lab.psi import build_psi, check_invariance, find_polar_relation

    rng = substream(5, "equiv")
    a = random_invertible(5, rng)
    g = apply_linear_change(PAPER_CUBIC, a)
    assert symbolic_determinant(hessian_matrix(g)).is_zero()
    assert not cone_test(g).is_cone
    rel = find_polar_relation(g, max_degree=4)
    assert rel is not None and rel.degree == 2
    psi = build_psi(g, rel)
    # H_g·h ≡ 0 row by row: the derivative side for each partial g_i
    res, *rows = check_invariance([g, *g.gradient()], psi)
    assert all(r.derivative_zero for r in rows)
    assert res.derivative_zero and res.invariant


def test_restrict_preserves_degree(seed=43, cases=10):
    rng = random.Random(seed)
    for _ in range(cases):
        f = parse("x0^3 + x1^2*x2 + x2^3", nvars=4)
        chart = chart_for_hyperplane([rng.randint(1, 5) for _ in range(4)])
        section = restrict(f, chart)
        assert section.degree() == f.degree()


def test_chart_validation_errors():
    from hesse_lab.errors import DomainError as DE

    with pytest.raises(DE):
        HyperplaneChart(
            ambient_vars=3,
            parametrization=((1, 0), (2, 0), (0, 0)),  # rank 1
            dual_point=(0, 0, 1),
        )
    with pytest.raises(DE):
        HyperplaneChart(
            ambient_vars=3,
            parametrization=((1, 0), (0, 1), (0, 0)),
            dual_point=(1, 0, 0),  # does not annihilate column 0
        )


def test_restrict_dimension_mismatch():
    from hesse_lab.errors import DimensionError

    chart = chart_for_hyperplane((0, 0, 1))
    with pytest.raises(DimensionError):
        restrict(PAPER_CUBIC, chart)

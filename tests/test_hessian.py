"""Hessian matrix construction, symbolic determinants, vanishing verdicts."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab import hessian
from hesse_lab.errors import DimensionError, DomainError, InternalCheckError
from hesse_lab.fields import DEFAULT_PRIME, substream
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.hessian import (
    ColumnMinors,
    KernelSample,
    hessian_at,
    hessian_matrix,
    hessian_vanishes,
    polar_image_dim,
    rank_verdict,
    sample_kernels,
    symbolic_determinant,
    trials_for_error,
)
from hesse_lab.linalg import random_invertible, reduced_row_basis
from hesse_lab.poly import Polynomial, monomials_of_degree, parse

PAPER_CUBIC = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")
FERMAT_CUBIC = parse("x0^3 + x1^3 + x2^3")


def test_hessian_of_sum_of_squares_is_diagonal():
    f = parse("x0^2 + x1^2 + x2^2", nvars=4)
    h = hessian_matrix(f)
    for i in range(4):
        for j in range(4):
            expected = 2 if (i == j and i < 3) else 0
            assert h[i][j] == Polynomial.constant(4, expected)


def test_hessian_paper_cubic_entries():
    # oracle: differentiate x0*x3^2 + 2*x1*x3*x4 + x2*x4^2 twice by hand
    h = hessian_matrix(PAPER_CUBIC)
    x3 = parse("x3", nvars=5)
    x4 = parse("x4", nvars=5)
    zero = Polynomial.zero(5)
    assert h[0][3] == x3.scale(2)
    assert h[0][4] == zero
    assert h[1][3] == x4.scale(2)
    assert h[1][4] == x3.scale(2)
    assert h[2][4] == x4.scale(2)
    assert h[3][3] == parse("2*x0", nvars=5)
    assert h[3][4] == parse("2*x1", nvars=5)
    assert h[4][4] == parse("2*x2", nvars=5)
    for i in range(3):
        for j in range(3):
            assert h[i][j] == zero


def test_hessian_of_linear_is_zero_matrix():
    h = hessian_matrix(parse("x0 + 2*x1"))
    assert all(e.is_zero() for row in h for e in row)


def test_hessian_symmetry(seed=31, cases=20):
    # hessian_matrix computes only i <= j and mirrors it, which is sound
    # because mixed partials commute
    rng = random.Random(seed)
    for _ in range(cases):
        monos = monomials_of_degree(3, 3)
        f = Polynomial(3, {e: rng.randint(-5, 5) for e in monos})
        if not f:
            continue
        for i in range(3):
            for j in range(3):
                assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_euler_derived_identity():
    # H_f · x = (d-1) · grad(f) for homogeneous f of degree d
    for f in (PAPER_CUBIC, FERMAT_CUBIC, parse("x0^4 + x1^2*x2^2")):
        d = f.degree()
        xs = [Polynomial.variable(f.nvars, i) for i in range(f.nvars)]
        for row, fi in zip(hessian_matrix(f), f.gradient()):
            assert sum((e * x for e, x in zip(row, xs)), Polynomial.zero(f.nvars)) == fi.scale(d - 1)


def test_det_diag_with_zero():
    f = parse("x0^2 + x1^2 + x2^2", nvars=4)
    assert symbolic_determinant(hessian_matrix(f)).is_zero()


def test_det_paper_cubic_vanishes_both_algorithms(sympy_det):
    h = hessian_matrix(PAPER_CUBIC)
    assert symbolic_determinant(h).is_zero()
    assert sympy_det(h).is_zero()


def test_det_2x2():
    x0 = parse("x0", nvars=2)
    x1 = parse("x1", nvars=2)
    m = [[x0, x1], [x1, x0]]
    assert symbolic_determinant(m) == parse("x0^2 - x1^2")


def test_det_budget_counts_monomial_products():
    # each product a·b spends len(a)·len(b): here 2·1 + 1·1
    m = [[parse("x0 + x1"), parse("x1")], [parse("x1"), parse("x0", nvars=2)]]
    assert symbolic_determinant(m, budget=3) == parse("x0^2 + x0*x1 - x1^2")
    assert symbolic_determinant(m, budget=2) is None
    # zero entries and zero minors cost nothing
    assert symbolic_determinant(hessian_matrix(PAPER_CUBIC), budget=0).is_zero()


def test_det_fermat_cubic():
    det = symbolic_determinant(hessian_matrix(FERMAT_CUBIC))
    assert det == parse("216*x0*x1*x2")


def test_det_algorithms_agree_seeded(sympy_det, seed=37, cases=50):
    rng = random.Random(seed)
    monos = monomials_of_degree(3, 2) + monomials_of_degree(3, 1) + monomials_of_degree(3, 0)
    for _ in range(cases):
        entries = [
            [
                Polynomial(3, {e: rng.randint(-3, 3) for e in rng.sample(monos, 3)})
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        assert symbolic_determinant(entries) == sympy_det(entries)


def test_det_rejects_non_square():
    x = parse("x0")
    with pytest.raises(DimensionError):
        symbolic_determinant([[x, x]])
    with pytest.raises(DimensionError):
        symbolic_determinant([])


def test_vanishes_symbolic_paper_cubic():
    # the sampled verdict, and det H_f ≡ 0 that makes it exact
    v = hessian_vanishes(PAPER_CUBIC)
    assert (v.vanishes, v.certificate) == (True, None)
    exact = v.upgraded("determinant")
    assert (exact.certificate, exact.error_bound) == ("determinant", 0)
    assert symbolic_determinant(hessian_matrix(PAPER_CUBIC)).is_zero()


def test_vanishes_symbolic_fermat_false():
    assert symbolic_determinant(hessian_matrix(FERMAT_CUBIC)) == parse("216*x0*x1*x2")
    v = hessian_vanishes(FERMAT_CUBIC)
    assert (v.vanishes, v.certificate) == (False, "witness")
    with pytest.raises(InternalCheckError):
        v.upgraded("determinant")


def test_vanishes_probabilistic_cone():
    f = parse("x0^3 + x1^3", nvars=4)
    v = hessian_vanishes(f, seed=0)
    assert v.vanishes is True
    assert v.degree_bound == 4
    assert v.error_bound == Fraction(4, DEFAULT_PRIME) ** v.trials
    assert v.error_bound <= Fraction(8, DEFAULT_PRIME)


def test_probabilistic_consistent_with_symbolic(seed=41, cases=15):
    rng = random.Random(seed)
    monos = monomials_of_degree(3, 3)
    for case in range(cases):
        f = Polynomial(3, {e: rng.randint(-5, 5) for e in monos})
        if not f:
            continue
        sym = symbolic_determinant(hessian_matrix(f)).is_zero()
        prob = hessian_vanishes(f, seed=case).vanishes
        if sym:
            assert prob
        if not prob:
            assert not sym


def test_default_route_witness_or_bound():
    v = hessian_vanishes(FERMAT_CUBIC)
    assert (v.mode, v.vanishes, v.certificate, v.error_bound) == (
        "probabilistic", False, "witness", 0)
    cone = parse("x0^3 + x1^3", nvars=4)
    v = hessian_vanishes(cone)
    assert (v.vanishes, v.certificate, v.trials) == (True, None, 1)
    assert v.error_bound == Fraction(4, DEFAULT_PRIME)
    exact = v.upgraded("cone_vertex")
    assert (exact.certificate, exact.error_bound) == ("cone_vertex", 0)


def test_sampling_sees_a_hessian_that_p_divides():
    # det H = 4p: every value is 0 mod p, but not 0, at every point
    f = parse(f"{DEFAULT_PRIME}*x0^2 + x1^2")
    assert symbolic_determinant(hessian_matrix(f)) == Polynomial.constant(2, 4 * DEFAULT_PRIME)
    v = hessian_vanishes(f)
    assert (v.vanishes, v.certificate) == (False, "witness")
    assert polar_image_dim(f, seed=0) == 1  # a smooth conic's polar map is onto P^1


def test_trials_for_error_meets_the_target():
    # one trial suffices while D/p < 2^-40, i.e. D < (2^61 - 1) / 2^40
    assert trials_for_error(0) == 1
    assert trials_for_error(2**21 - 1) == 1
    assert trials_for_error(2**21) == 2


# deg h_f <= 1·(2^21 + 2 - 2) = 2^21 puts the bound for one trial above
# 2^-40, so the verdict reads two points.  rank_verdict reads only the variable
# count and the degree of x0^(2^21 + 2), whose exponent no Polynomial holds
TWO_TRIALS = SimpleNamespace(nvars=1, degree=lambda: 2**21 + 2)


def test_rank_verdict_reads_trials_points_and_stops_at_a_witness():
    v = rank_verdict(TWO_TRIALS, [0, 0, 1])
    assert (v.vanishes, v.trials, v.certificate) == (True, 2, None)
    assert v.error_bound == Fraction(2**21, DEFAULT_PRIME) ** 2
    v = rank_verdict(TWO_TRIALS, [0, 1])
    assert (v.vanishes, v.trials, v.certificate, v.error_bound) == (False, 2, "witness", 0)

    def ranks():
        yield 1
        raise AssertionError("read past the witness")

    assert rank_verdict(TWO_TRIALS, ranks()).trials == 1


def test_probabilistic_trials_validation():
    # the verdict never reads a rank the sample did not take
    with pytest.raises(InternalCheckError):
        rank_verdict(TWO_TRIALS, [0])
    with pytest.raises(InternalCheckError):
        rank_verdict(PAPER_CUBIC, [])


def test_generic_rank_paper_cubic():
    # oracle: H_f at (1,1,1,1,1) row-reduces to rank 4, and the polar
    # relation y1^2 - 4*y0*y2 forces rank <= 4 everywhere
    assert sample_kernels(PAPER_CUBIC, seed=0).rank == 4
    assert polar_image_dim(PAPER_CUBIC, seed=0) == 3


def test_generic_rank_smooth_quadric():
    f = parse("x0^2 + x1^2 + x2^2 + x3^2")
    assert sample_kernels(f, seed=0).rank == 4
    assert polar_image_dim(f, seed=0) == 3


@pytest.mark.parametrize("f", [PAPER_CUBIC, FERMAT_CUBIC, parse("x0^3 + x1^3", nvars=4)])
def test_the_verdict_is_read_off_the_sample(f, monkeypatch):
    # hessian_vanishes reads the first points of sample_kernels' stream, so
    # its verdict is the one the sample's ranks give
    points = []

    def recorded(g, a):
        points.append(list(a))
        return hessian_at(g, a)

    monkeypatch.setattr(hessian, "hessian_at", recorded)
    for seed in (0, 1):
        points.clear()
        sample = sample_kernels(f, seed=seed)
        sampled = points[:]
        points.clear()
        verdict = hessian_vanishes(f, seed=seed)
        assert points == sampled[: verdict.trials]
        assert verdict == rank_verdict(f, sample.ranks)
        assert len(sampled) == len(sample.ranks)


def _rational_kernel(m):
    """ker M by Gauss-Jordan elimination over Fraction (test-local): one
    vector per free column, 1 there and 0 at the other free columns."""
    rows, pivots = [[Fraction(x) for x in row] for row in m.entries], []
    for c in range(m.cols):
        r = next((i for i in range(len(pivots), m.rows) if rows[i][c]), None)
        if r is None:
            continue
        pivot = [x / rows[r][c] for x in rows[r]]
        rows[r] = rows[len(pivots)]
        rows[len(pivots)] = pivot
        for i, row in enumerate(rows):
            if i != len(pivots) and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, pivot)]
        pivots.append(c)
    vectors = []
    for c in sorted(set(range(m.cols)).difference(pivots)):
        v = [Fraction(int(j == c)) for j in range(m.cols)]
        for row, pc in zip(rows, pivots):
            v[pc] = -row[c]
        vectors.append(v)
    return vectors


def _sample_kernels_oracle(f, seed):
    """The sample as a rational Gauss-Jordan kernel at each point and W
    rebuilt by `reduced_row_basis` at every point give it."""
    n, ranks, span = f.nvars, [], ()
    for i in itertools.count():
        vectors = _rational_kernel(hessian_at(f, hessian._seeded_point(n, seed, i)))
        ranks.append(n - len(vectors))
        grown = reduced_row_basis([*span, *vectors])
        if ranks[-1] == n or (i + 1 >= hessian.DEFAULT_SAMPLES and len(grown) == len(span)):
            return KernelSample(ranks=tuple(ranks), span=grown)
        span = grown


@st.composite
def kernel_sample_cases(draw):
    """(f, zero): a GN draw with m = 1 or m = 2, perhaps its dense conjugate
    by `random_invertible`, perhaps scaled to Fraction coefficients; and the
    coordinate each seeded point gets zeroed at, or None."""
    skeleton = draw(st.sampled_from([(4, 2, 1, 2, 1, 3), (5, 3, 1, 2, 1, 4), (6, 3, 2, 2, 1, 4)]))
    seed = draw(st.integers(0, 50))
    f = random_instance(GNSkeleton(*skeleton), seed=seed).f
    if draw(st.booleans()):
        a = random_invertible(f.nvars, substream(seed, "dense"))
        f = f.compose([Polynomial.linear_form(row) for row in a.entries])
    f = f.scale(draw(st.sampled_from([1, Fraction(2, 3), Fraction(-5, 7)])))
    return f, draw(st.one_of(st.none(), st.integers(0, f.nvars - 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kernel_sample_cases())
def test_sample_kernels_matches_the_rational_kernel_oracle(case):
    # integer kernels, and W rebuilt only for a vector outside it, give the
    # ranks and span of a rational Gauss-Jordan kernel and a rebuild at
    # every point; a point with a zero coordinate takes hessian_at's
    # evaluate branch
    f, zero = case
    seeded = hessian._seeded_point

    def zeroed(*args):
        return [0 if j == zero else x for j, x in enumerate(seeded(*args))]

    with pytest.MonkeyPatch.context() as patch:
        if zero is not None:
            patch.setattr(hessian, "_seeded_point", zeroed)
        for seed in range(3):
            assert sample_kernels(f, seed=seed) == _sample_kernels_oracle(f, seed)


def test_polar_dim_of_cone():
    f = parse("x0^3 + x1^3", nvars=4)
    assert polar_image_dim(f, seed=0) == 1


def test_polar_dim_rejects_low_degree():
    with pytest.raises(DomainError):
        polar_image_dim(parse("x0 + x1"))


def test_cone_implies_vanishing():
    # classical direction: every cone here must have vanishing Hessian
    for text, n in (("x0^3 + x1^3", 4), ("x0^4", 3), ("x0^2 + x0*x1", 3)):
        f = parse(text, nvars=n)
        assert symbolic_determinant(hessian_matrix(f)).is_zero()


def test_vanishes_rejects_bad_input():
    with pytest.raises(DomainError):
        hessian_vanishes(Polynomial.zero(3))
    with pytest.raises(DomainError):
        hessian_vanishes(parse("x0^2 + x1"))
    with pytest.raises(TypeError):
        hessian_vanishes(FERMAT_CUBIC, mode="symbolic")  # one verdict path


def _second_partials_at(f, a):
    """The oracle: each entry of the matrix of second partials, evaluated."""
    return [[p.evaluate(a) for p in row] for row in hessian_matrix(f)]


@st.composite
def forms_and_points(draw):
    """(f, a): f with int or Fraction coefficients in 1-4 variables, any
    degrees up to 5, and an integer point that often has zero coordinates."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(
        st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)
    ).filter(bool)
    exps = st.tuples(*[st.integers(0, 5)] * n).filter(lambda e: sum(e) <= 5)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=6))
    point = draw(st.lists(
        st.one_of(st.just(0), st.integers(-50, 50), st.integers(-DEFAULT_PRIME, DEFAULT_PRIME)),
        min_size=n, max_size=n,
    ))
    return Polynomial(n, terms), point


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(forms_and_points())
def test_hessian_at_equals_the_evaluated_second_partials(case):
    f, a = case
    expected = _second_partials_at(f, a)
    got = hessian_at(f, a).entries
    assert got == expected
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in expected]


def test_hessian_at_a_zero_coordinate_reads_the_term_table(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return hessian_matrix(f)

    monkeypatch.setattr(hessian, "hessian_matrix", counted)
    for a in ([3, 1, 4, 1, 5], [0, 1, 4, 0, 5], [0, 0, 0, 0, 0]):
        assert hessian_at(PAPER_CUBIC, a).entries == _second_partials_at(PAPER_CUBIC, a)
    calls.clear()
    # a seeded point has a zero coordinate with probability at most
    # (n+1)/(2^61 - 1); force one at every point of the verdict
    seeded = hessian._seeded_point
    monkeypatch.setattr(
        hessian, "_seeded_point", lambda *args: [0, *seeded(*args)[1:]]
    )
    v = hessian_vanishes(FERMAT_CUBIC)
    # H = diag(6·x_i) loses rank at x0 = 0, so no point is a witness
    assert (v.vanishes, v.trials) == (True, 1)
    sample = sample_kernels(FERMAT_CUBIC)
    # every kernel is the x0 axis, so W is that line after DEFAULT_SAMPLES points
    assert sample.ranks == (2,) * hessian.DEFAULT_SAMPLES
    assert sample.span == ((1, 0, 0),)
    assert polar_image_dim(PAPER_CUBIC) == 3
    # the verdict path never builds the matrix of second partials
    assert calls == []


@st.composite
def forms_and_points_with_zeros(draw):
    """(f, a): f in 2-6 variables of degree up to 6 with int or Fraction
    coefficients and up to 12 terms, and an integer point with at least one
    zero coordinate, so a term can meet zero, one or two of them."""
    n = draw(st.integers(2, 6))
    coeff = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)).filter(bool)
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 6)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=12))
    point = draw(st.lists(
        st.one_of(st.just(0), st.integers(-50, 50), st.integers(-DEFAULT_PRIME, DEFAULT_PRIME)),
        min_size=n, max_size=n,
    ).filter(lambda a: not all(a)))
    return Polynomial(n, terms), point


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forms_and_points_with_zeros())
def test_hessian_at_a_point_with_zero_coordinates_matches_the_matrix_oracle(case):
    f, a = case
    expected = _second_partials_at(f, a)
    got = hessian_at(f, a).entries
    assert got == expected
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in expected]


def _evaluated_partials(f, a):
    return [p.evaluate(a) for p in f.gradient()]


def _assert_hessian_matches(f, a):
    expected = _second_partials_at(f, a)
    got = hessian_at(f, a).entries
    assert got == expected
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in expected]
    # Euler's identity on each first partial: H_f(a)·a = (d − 1)·∇f(a)
    d = f.degree()
    assert [sum(h * x for h, x in zip(row, a)) for row in got] == [
        (d - 1) * g for g in _evaluated_partials(f, a)
    ]
    # a second call reads the table the form kept
    table = f.term_table()
    assert hessian_at(f, a).entries == expected
    assert f.term_table() is table


@pytest.mark.parametrize("text", [
    "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2",
    "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
    "x0^4*x1 - 3*x1^2*x2^3 + 7*x0*x1*x2*x3*x4 - x4^5",
])
@pytest.mark.parametrize("a", [
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (1, 0, 2, 0, -3),
    (-3, 2, -1, -7, 5),
    (1, 1, 1, 1, 1),
])
def test_hessian_at_zero_negative_and_all_one_points(text, a):
    # a zero coordinate evaluates the kept second partials, a point without
    # one divides Euler's a_i·a_j·∂_i∂_j f(a) by a_i·a_j
    _assert_hessian_matches(parse(text, nvars=5), a)


def test_hessian_at_a_gn_form():
    f = random_instance(GNSkeleton(4, 2, 1, 2, 1, 4), seed=0).f
    for a in [(0, 1, 0, -2, 3), (2, -1, 3, -4, 5), (1, 1, 1, 1, 1)]:
        _assert_hessian_matches(f, a)


@pytest.mark.parametrize("b", [64, 200, 1000])
def test_hessian_at_kronecker_sized_coordinates(b):
    # a fiber-line point w + 2^B·q has coordinates of B bits and more
    f = PAPER_CUBIC
    w, q = (-4, 2, -1, 0, 0), (1, 1, 1, 0, 0)
    _assert_hessian_matches(f, [x + (y << b) for x, y in zip(w, q)])
    _assert_hessian_matches(f, [3 + (1 << b), -(1 << b), 5, (1 << b) - 1, 7 << b])


def test_hessian_at_fraction_coefficients():
    f = parse("1/2*x0^2*x1 - 3/7*x2^3")
    for a in [(0, 0, 0), (2, 0, 7), (0, 3, 0), (-1, 4, 2), (1, 1, 1), (14, 1, 0)]:
        _assert_hessian_matches(f, a)
    # H_f = [[x1, x0, 0], [x0, 0, 0], [0, 0, -18/7·x2]]
    assert hessian_at(f, (1, 1, 1)).entries == [[1, 1, 0], [1, 0, 0], [0, 0, Fraction(-18, 7)]]


@st.composite
def homogeneous_forms_and_points(draw):
    """(f, a): a nonzero form in 1-4 variables of degree 2-5 with int or
    Fraction coefficients, and an integer point that often has zero
    coordinates."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(2, 5))
    coeff = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)).filter(bool)
    terms = draw(st.dictionaries(
        st.sampled_from(monomials_of_degree(n, d)), coeff, min_size=1, max_size=6
    ))
    point = draw(st.lists(
        st.one_of(st.just(0), st.integers(-50, 50), st.integers(-DEFAULT_PRIME, DEFAULT_PRIME)),
        min_size=n, max_size=n,
    ))
    return Polynomial(n, terms), point


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(homogeneous_forms_and_points())
def test_hessian_at_times_the_point_is_the_scaled_gradient(case):
    _assert_hessian_matches(*case)

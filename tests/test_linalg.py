"""Exact rank / kernel over the rationals, and row selection mod p."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab import linalg
from hesse_lab.errors import DimensionError
from hesse_lab.fields import DEFAULT_PRIME
from hesse_lab.linalg import (
    ScalarMatrix,
    independent_rows_mod,
    kernel,
    primitive_vector,
    random_invertible,
    rank,
)
from hesse_lab.poly import parse


def _mul(m, v):
    """M·v, exact (test-local)."""
    return [sum(a * x for a, x in zip(row, v)) for row in m.entries]


def _solve(m, b):
    """One exact solution of M·x = b, or None (test-local): the kernel vector
    of [M | -b] that is nonzero in its last column, divided by that entry.
    Every other kernel vector is 0 there, since it is 0 at the free columns
    other than its own."""
    augmented = ScalarMatrix(m.transpose().entries + [[-x for x in b]]).transpose()
    return next(([Fraction(x, v[-1]) for x in v[:-1]] for v in kernel(augmented) if v[-1]), None)


def test_rank_diagonal():
    m = ScalarMatrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]])
    assert rank(m) == 3


def test_kernel_identity_empty():
    assert len(kernel(ScalarMatrix([[int(i == j) for j in range(4)] for i in range(4)]))) == 0


def test_kernel_of_paper_cubic_partials_is_empty():
    # rows = the five partials of x0*x3^2 + 2*x1*x3*x4 + x2*x4^2 in the
    # monomial basis; independent, so the directional-derivative map has
    # trivial kernel (rank 5)
    f = parse("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2")
    m = ScalarMatrix.from_polynomials(f.gradient())
    assert rank(m) == 5
    # kernel of v -> Σ v_i f_i = kernel of the transposed coefficient matrix
    assert len(kernel(m.transpose())) == 0


def test_kernel_vectors_annihilate(seed=17, cases=30):
    rng = random.Random(seed)
    for _ in range(cases):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ScalarMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        basis = kernel(m)
        assert rank(m) + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in _mul(m, v))


def test_rank_invariant_under_permutations(seed=19, cases=20):
    rng = random.Random(seed)
    for _ in range(cases):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        r0 = rank(ScalarMatrix(m))
        rows = m[:]
        rng.shuffle(rows)
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in rows]
        assert rank(ScalarMatrix(shuffled)) == r0


def test_rank_mod_p_matches_rational(seed=23, cases=20):
    p = DEFAULT_PRIME
    rng = random.Random(seed)
    for _ in range(cases):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        r_q = rank(ScalarMatrix(m))
        chosen, reduced = independent_rows_mod(m, p)
        r_p = len(chosen)
        assert len(reduced) == r_p <= r_q
        assert r_p == r_q  # a drop would flag an unlucky prime


def test_rank_mod_drops_when_p_divides_a_minor():
    # det [[1, 2], [3, 13]] = 7: full rank over Q, rank 1 mod 7
    m = [[1, 2], [3, 13]]
    assert rank(ScalarMatrix(m)) == 2
    assert independent_rows_mod(m, 7) == ([0], {0: [1, 2]})
    assert independent_rows_mod(m, 11) == ([0, 1], {0: [1, 0], 1: [0, 1]})
    assert independent_rows_mod([[0, 7], [14, 0]], 7) == ([], {})


def test_independent_rows_mod_first_maximal_set():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [5, 0, 1], [7, 7, 7]]
    chosen, reduced = independent_rows_mod(rows, DEFAULT_PRIME)
    assert chosen == [1, 3, 5]
    # reduced echelon form: 1 at each pivot, 0 at the other pivots
    assert reduced == {0: [1, 0, 0], 1: [0, 1, 0], 2: [0, 0, 1]}
    # rank 2 of 4: the kernel mod p is read off the free columns 1 and 3
    chosen, reduced = independent_rows_mod([[2, 4, 6, 8], [1, 2, 4, 5], [3, 6, 10, 13]], 101)
    assert chosen == [0, 1]
    assert reduced == {0: [1, 2, 0, 1], 2: [0, 0, 1, 1]}


def _low_rank_product(rng, rows, cols, inner, fractions):
    """rows x cols product of random rows x inner and inner x cols factors."""
    def entry():
        x = rng.randint(-5, 5)
        return Fraction(x, rng.randint(1, 4)) if fractions else x
    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    return ScalarMatrix(
        [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    )


def _full_bareiss(rows, ncols):
    """The kernel from Bareiss on every row: the primitive of each
    back-substituted numerator (test oracle)."""
    return [primitive_vector(num) for num in linalg._back_substitute(rows, ncols)]


def _kernel_matches_full_bareiss(m):
    full = _full_bareiss(m.entries, m.cols)
    assert list(kernel(m)) == full
    return full


@pytest.mark.parametrize("fractions", [False, True])
def test_kernel_row_selection_matches_full_bareiss(fractions, seed=31, cases=25):
    rng = random.Random(seed)
    nonempty = multi = 0
    for _ in range(cases):
        cols = rng.randint(2, 7)
        m = _low_rank_product(rng, rng.randint(cols + 1, 3 * cols), cols, rng.randint(1, cols), fractions)
        full = _kernel_matches_full_bareiss(m)
        nonempty += bool(full)
        multi += len(full) > 1
        # the kernel mod p is read off with free columns chosen in row order;
        # shuffled rows move them, and the reduced basis must not move
        rows = m.entries[:]
        rng.shuffle(rows)
        assert _kernel_matches_full_bareiss(ScalarMatrix(rows)) == full
        # scaling a column by more than √(p/2) scales the kernel's entries
        # there beyond rational reconstruction
        _kernel_matches_full_bareiss(ScalarMatrix([row[:-1] + [row[-1] * (2**31 + 11)] for row in rows]))
    assert nonempty >= cases // 2
    assert multi >= cases // 4


@pytest.mark.parametrize("big", [2**31, 3**20, 10**12 + 39])
def test_kernel_entries_beyond_reconstruction_fall_back(big, monkeypatch):
    # √(p/2) is below 2^30, so a kernel entry with numerator or denominator
    # `big` has no rational reconstruction mod p; the kernel must still be
    # the one full Bareiss gives, from Bareiss on the two rows chosen mod p
    bound = math.isqrt(DEFAULT_PRIME // 2)
    assert big > bound
    eliminated = []
    bareiss = linalg._echelon_rational
    monkeypatch.setattr(
        linalg, "_echelon_rational", lambda entries: eliminated.append(len(entries)) or bareiss(entries)
    )
    cases = [
        [[big, -1, 0], [0, 0, 1], [2 * big, -2, 3], [big, -1, 1]],   # kernel (1, big, 0)
        [[1, -big, 0], [0, 0, 1], [3, -3 * big, 5], [1, -big, 1]],   # kernel (big, 1, 0)
        [[big, 7, 0], [0, 0, 1], [big, 7, 1], [2 * big, 14, 0]],     # kernel (-7, big, 0)/big
    ]
    for rows in cases:
        eliminated.clear()
        full = _kernel_matches_full_bareiss(ScalarMatrix(rows))
        assert len(full) == 1
        assert eliminated == [len(rows), 2]  # the oracle's and the chosen rows'


def _counted_bareiss(monkeypatch):
    eliminated = []
    bareiss = linalg._echelon_rational
    monkeypatch.setattr(
        linalg, "_echelon_rational", lambda entries: eliminated.append(len(entries)) or bareiss(entries)
    )
    return eliminated


def test_a_failed_lift_eliminates_only_the_rows_chosen_mod_p(monkeypatch):
    # 40 rows of rank 2 in 3 columns whose kernel (-b/3, 1, 0) has an entry
    # past √(p/2): the lift fails, and Bareiss runs on the 2 chosen rows alone
    b = 2**40 + 1
    rng = random.Random(5)
    rows = [[3 * x, b * x, y] for x, y in ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(40))]
    chosen, reduced = independent_rows_mod(rows, DEFAULT_PRIME)
    assert len(chosen) == 2
    assert linalg._lifted_kernel(reduced, 3, DEFAULT_PRIME) != [[Fraction(-b, 3), 1, 0]]
    eliminated = _counted_bareiss(monkeypatch)
    vectors = list(linalg.kernel_of_rows(iter(rows), 3))
    assert eliminated == [2]
    assert vectors == [(b, -3, 0)] == _full_bareiss(rows, 3)


def test_a_corrupted_chosen_rows_kernel_trips_the_recheck_and_full_bareiss_runs_once(monkeypatch):
    b = 2**40 + 1
    rows = [[3, b, 0], [0, 0, 1], [6, 2 * b, 5], [3, b, 1]]
    back_substitute = linalg._back_substitute

    def corrupted(entries, ncols):
        numerators = list(back_substitute(entries, ncols))
        if len(entries) < len(rows):  # the chosen rows' kernel
            numerators[0][0] += 1
        return numerators

    monkeypatch.setattr(linalg, "_back_substitute", corrupted)
    eliminated = _counted_bareiss(monkeypatch)
    vectors = list(kernel(ScalarMatrix(rows)))
    assert eliminated == [2, len(rows)]
    assert vectors == [(b, -3, 0)]


def test_rows_that_vanish_mod_p_fall_back_to_full_bareiss(monkeypatch):
    # every row is 0 mod p, so no row is chosen: the unit vectors lifted from
    # the empty reduced rows fail the re-check, Bareiss on no rows gives them
    # again, and full Bareiss gives the kernel
    p = DEFAULT_PRIME
    eliminated = _counted_bareiss(monkeypatch)
    assert kernel(ScalarMatrix([[p, 2 * p], [2 * p, 4 * p], [3 * p, 6 * p]])) == ((2, -1),)
    assert eliminated == [0, 3]
    eliminated.clear()
    assert kernel(ScalarMatrix([[p, 0], [0, p], [p, p]])) == ()
    assert eliminated == [0, 3]


def test_kernel_lifts_small_entries_without_elimination(monkeypatch):
    bareiss = linalg._echelon_rational
    monkeypatch.setattr(linalg, "_echelon_rational", lambda entries: pytest.fail("eliminated"))
    m = ScalarMatrix([[3, -1, 0, 2], [0, 2, 1, 4], [3, 1, 1, 6], [6, 0, 1, 8], [3, -1, 0, 2]])
    vectors = list(kernel(m))
    monkeypatch.setattr(linalg, "_echelon_rational", bareiss)
    assert vectors == _full_bareiss(m.entries, m.cols)
    assert len(vectors) == 2


def test_kernel_falls_back_when_p_divides_a_minor(monkeypatch):
    # mod 3 every row is a multiple of (1, 1), so the selection keeps one row;
    # its kernel vector (-1, 1), lifted from (2, 1), fails the exact re-check
    # on (1, 4), and so does the kernel of that one row over Q
    rows = [[1, 1], [1, 4], [2, 5]]
    assert independent_rows_mod(rows, 3) == ([0], {0: [1, 1]})
    assert linalg._lifted_kernel({0: [1, 1]}, 2, 3) == [[-1, 1]]
    monkeypatch.setattr(linalg, "DEFAULT_PRIME", 3)
    eliminated = _counted_bareiss(monkeypatch)
    assert len(kernel(ScalarMatrix(rows))) == 0
    assert eliminated == [1, 3]  # the chosen row's, then the full fallback's


def test_solve_unique():
    m = ScalarMatrix([[2, 1], [1, 3]])
    x = _solve(m, [5, 10])
    assert _mul(m, x) == [5, 10]
    assert x == [1, 3]


def test_solve_inconsistent_returns_none():
    m = ScalarMatrix([[1, 1], [1, 1]])
    assert _solve(m, [0, 1]) is None


def test_solve_underdetermined_returns_some_solution():
    m = ScalarMatrix([[1, 1, 1]])
    x = _solve(m, [6])
    assert sum(x) == 6


def test_solve_dimension_mismatch():
    # the right-hand side is one column too many: [M | -b] is ragged
    with pytest.raises(DimensionError):
        _solve(ScalarMatrix([[1, 2]]), [1, 2])


def test_solve_with_fractions():
    m = ScalarMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
    x = _solve(m, [1, 1])
    assert _mul(m, x) == [1, 1]


def test_random_invertible_and_inverse(seed=29):
    rng = random.Random(seed)
    m = random_invertible(4, rng)
    assert rank(m) == 4
    # column j of the inverse solves m·x = e_j
    for j in range(4):
        e = [int(i == j) for i in range(4)]
        assert _mul(m, _solve(m, e)) == e


def _sympy_nullspace(m):
    """sympy's nullspace basis, 1 at each free column, each vector made primitive."""
    return [
        primitive_vector([Fraction(int(x.p), int(x.q)) for x in v])
        for v in sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]).nullspace()
    ]


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("shape", ["wide", "square"])
def test_kernel_matches_sympy_nullspace(shape, fractions, seed=37, cases=40):
    # wide and square matrices take the Bareiss path with integer
    # back-substitution; both bases are unit at their free column and 0 at
    # the other free columns before they are made primitive, so they agree
    # exactly
    rng = random.Random(f"{seed}/{shape}/{fractions}")
    nonempty = 0
    for _ in range(cases):
        cols = rng.randint(2, 7)
        rows = rng.randint(1, cols - 1) if shape == "wide" else cols
        inner = rng.randint(1, rows)
        m = _low_rank_product(rng, rows, cols, inner, fractions)
        expected = _sympy_nullspace(m)
        got = list(kernel(m))
        assert got == expected
        assert all(type(x) is int for v in got for x in v)
        nonempty += bool(got)
    assert nonempty == cases if shape == "wide" else nonempty >= cases // 2


@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
@pytest.mark.parametrize("kind", ["full", "zero", "between"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 10 ** 6),
    fractions=st.booleans(),
    prime=st.sampled_from([DEFAULT_PRIME, 3]),
)
def test_kernel_is_the_primitive_sympy_nullspace_on_every_shape(shape, kind, n, seed, fractions, prime):
    # square and wide matrices take full Bareiss; tall ones take the mod-p
    # lift, and the prime 3, whose reconstruction bound is 1 and which
    # divides many minors, sends them to the chosen rows' Bareiss and to
    # the full one
    rng = random.Random(seed)
    nrows, ncols = {"square": (n, n), "wide": (rng.randint(1, n), n + 1), "tall": (n + rng.randint(1, n), n)}[shape]
    if kind == "full":
        # the first rows and columns of an invertible matrix have full rank
        a = random_invertible(max(nrows, ncols), rng)
        entries = [row[:ncols] for row in a.entries[:nrows]]
        if fractions:  # scaling the rows by rationals keeps the rank
            entries = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in entries]
        m = ScalarMatrix(entries)
    elif kind == "zero":
        m = ScalarMatrix([[0] * ncols for _ in range(nrows)])
    else:
        m = _low_rank_product(rng, nrows, ncols, rng.randint(1, max(1, min(nrows, ncols) - 1)), fractions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "DEFAULT_PRIME", prime)
        got = kernel(m)
    assert list(got) == _sympy_nullspace(m)
    assert len(got) == ncols - rank(m)
    assert len(got) == {"full": ncols - min(nrows, ncols), "zero": ncols}.get(kind, len(got))
    assert all(type(x) is int for v in got for x in v)


def test_bareiss_exactness_regression():
    # first pivot != 1 exercises the uniform Bareiss update
    m = ScalarMatrix([[3, 0, 0], [0, 2, 1], [0, 1, 1]])
    assert rank(m) == 3

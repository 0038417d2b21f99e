"""Exact linear algebra over the rationals, plus rank of integer matrices mod p.

Rational matrices are row-scaled to integers and eliminated fraction-free
(Bareiss), which keeps every intermediate entry an integer minor of the
input.  ``rank_mod`` is the one modular elimination: ordinary Gaussian
elimination on plain ints mod a prime, used for probabilistic identity
testing.  Pivots are always the first nonzero entry in column order, ties
broken by row order, so all outputs are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionError, InternalCheckError
from .fields import coeff_div, norm_coeff


class ScalarMatrix:
    """Dense rectangular matrix of rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise DimensionError("ragged rows")
        self.rows = len(entries)
        self.cols = width
        self.entries = entries

    @staticmethod
    def identity(n):
        return ScalarMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_polynomials(polys, basis=None):
        """Rows = coefficient vectors of polys over a shared monomial basis.

        The basis defaults to the union of supports in graded-lex descending
        order; it is returned alongside the matrix.
        """
        if basis is None:
            from .poly import grlex_key

            support = set()
            for p in polys:
                support.update(p.terms)
            basis = sorted(support, key=grlex_key, reverse=True)
        rows = [[p.terms.get(e, 0) for e in basis] for p in polys]
        return ScalarMatrix(rows), basis

    def transpose(self):
        return ScalarMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise DimensionError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = 0
            for j in range(self.cols):
                acc = acc + row[j] * v[j]
            out.append(norm_coeff(acc))
        return out

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols})"


class KernelBasis:
    """Linearly independent kernel vectors, each re-verified by multiplication."""

    __slots__ = ("vectors", "cols")

    def __init__(self, matrix, vectors):
        self.cols = matrix.cols
        self.vectors = [list(v) for v in vectors]
        for v in self.vectors:
            if any(matrix.mul_vector(v)):
                raise InternalCheckError("claimed kernel vector fails M·v = 0")

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def _clear_denominators(row):
    l = 1
    for c in row:
        if isinstance(c, Fraction):
            d = c.denominator
            l = l * d // math.gcd(l, d)
    if l == 1:
        return [int(c) if isinstance(c, Fraction) else c for c in row]
    return [int(c * l) for c in row]


def _echelon_rational(entries):
    """Fraction-free (Bareiss) forward elimination on integer-cleared rows.

    Returns (echelon integer rows, pivot column list); row space and kernel
    are preserved by the row scalings.
    """
    m = [_clear_denominators(row) for row in entries]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            # uniform Bareiss step: every entry stays an integer minor,
            # so the division by the previous pivot is exact
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(matrix):
    _, pivots = _echelon_rational(matrix.entries)
    return len(pivots)


def rank_mod(rows, p):
    """Rank mod a prime p of an integer matrix given as a list of rows.

    H(a) has full rank mod p exactly when det H(a) is nonzero mod p, so this
    one routine serves both the vanishing test and the generic-rank sampler.
    """
    m = [[x % p for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def _back_substitute(rows, pivots, ncols, free_col):
    """Kernel vector with 1 in free_col, solving pivot entries bottom-up."""
    v = [Fraction(0)] * ncols
    v[free_col] = Fraction(1)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        if pc > free_col:
            continue
        s = sum(rows[r][j] * v[j] for j in range(pc + 1, ncols))
        v[pc] = -coeff_div(s, rows[r][pc])
    return [norm_coeff(x) for x in v]


def kernel(matrix):
    """Basis of {v : M·v = 0}; one vector per free column, unit at that column."""
    rows, pivots = _echelon_rational(matrix.entries)
    pivot_set = set(pivots)
    vectors = [
        _back_substitute(rows, pivots, matrix.cols, c)
        for c in range(matrix.cols)
        if c not in pivot_set
    ]
    return KernelBasis(matrix, vectors)


def solve(matrix, b):
    """One exact solution of M·x = b, or None if the system is inconsistent."""
    if len(b) != matrix.rows:
        raise DimensionError("right-hand side length mismatch")
    rows, pivots = _echelon_rational(
        [list(row) + [bv] for row, bv in zip(matrix.entries, b)]
    )
    if pivots and pivots[-1] == matrix.cols:
        return None
    n = matrix.cols
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = rows[r][n] - sum(rows[r][j] * x[j] for j in range(pc + 1, n))
        x[pc] = coeff_div(s, rows[r][pc])
    return [norm_coeff(v) for v in x]


def primitive_vector(v):
    """Scale a rational vector to coprime integers with first nonzero positive."""
    fracs = [c if isinstance(c, Fraction) else Fraction(c) for c in v]
    l = 1
    for c in fracs:
        l = l * c.denominator // math.gcd(l, c.denominator)
    ints = [int(c * l) for c in fracs]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g == 0:
        return tuple(ints)
    first = next(x for x in ints if x)
    if first < 0:
        g = -g
    return tuple(x // g for x in ints)


def projectively_equal(a, b, modulus=None):
    """True iff nonzero vectors a, b agree up to a scalar (all 2x2 minors
    vanish); over the rationals, or over GF(modulus) for int vectors."""
    if not any(a) or not any(b):
        return False
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            minor = a[i] * b[j] - a[j] * b[i]
            if modulus is not None:
                minor %= modulus
            if minor:
                return False
    return True


def random_invertible(n, rng, lo=-9, hi=9):
    """Seeded random invertible n×n integer matrix (retry until full rank)."""
    for _ in range(64):
        m = ScalarMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m
    raise InternalCheckError("could not draw an invertible matrix")


def invert(matrix):
    """Exact inverse of a square rational matrix, or None if singular."""
    if matrix.rows != matrix.cols:
        raise DimensionError("inverse of a non-square matrix")
    n = matrix.rows
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        x = solve(matrix, e)
        if x is None:
            return None
        cols.append(x)
    return ScalarMatrix([[cols[j][i] for j in range(n)] for i in range(n)])

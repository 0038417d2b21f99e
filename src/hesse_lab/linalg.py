"""Exact linear algebra over the rationals, plus kernels lifted from mod p.

Rational matrices are row-scaled to integers and eliminated fraction-free
(Bareiss), which keeps every intermediate entry an integer minor of the
input; kernel vectors are back-substituted in integers too, and become
rationals only entry by entry at the end.  ``independent_rows_mod`` is the
package's one modular elimination, on plain ints mod a prime.
``kernel_of_rows`` reads a kernel off a stream of rows: it reduces them mod p
as they come and stops at full rank, which proves the kernel {0}; a stream
that runs out below full rank is kept, and its kernel mod p is lifted to Q by
rational reconstruction and re-checked exactly against every row, with full
Bareiss as the fallback.  ``kernel`` sends a tall matrix there.
Pivots are always the first nonzero entry in column order, ties broken by
row order, so all outputs are deterministic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DimensionError, InternalCheckError
from .fields import DEFAULT_PRIME, norm_coeff


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
    def from_polynomials(polys):
        """Rows = coefficient vectors of polys over the union of their
        supports, in graded-lex descending order."""
        from .poly import grlex_key

        support = set()
        for p in polys:
            support.update(p.terms)
        basis = sorted(support, key=grlex_key, reverse=True)
        return ScalarMatrix([[p.terms.get(e, 0) for e in basis] for p in polys])

    def transpose(self):
        return ScalarMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols})"


class KernelBasis:
    """Linearly independent kernel vectors, each re-verified by multiplication:
    M·w = 0 for w, the vector scaled to coprime integers."""

    __slots__ = ("vectors", "cols")

    def __init__(self, rows, cols, vectors):
        self.cols = cols
        self.vectors = [list(v) for v in vectors]
        for v in self.vectors:
            w = primitive_vector(v)
            if any(sum(map(operator.mul, row, w)) for row in rows):
                raise InternalCheckError("claimed kernel vector fails M·v = 0")

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def _clear_denominators(row):
    """A fresh integer row, a positive multiple of the rational row."""
    # entries are int or Fraction; `type` skips the slow ABC isinstance check
    l = 1
    for c in row:
        if type(c) is not int:
            l = math.lcm(l, c.denominator)
    return [int(c * l) for c in row] if l != 1 else [int(c) for c in row]


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


def reduced_row_basis(vectors):
    """The reduced row echelon basis of the span of rational vectors, each row
    scaled to coprime integers with a positive pivot, so it depends on the
    span alone; () for no vectors or only zero ones."""
    if not vectors:
        return ()
    rows, pivots = _echelon_rational(vectors)
    rows = [primitive_vector(row) for row in rows]
    # clear each pivot column upward, last pivot first, so that a cleared
    # column never fills in again
    for r in range(len(rows) - 1, 0, -1):
        p, row = pivots[r], rows[r]
        for s in range(r):
            c = rows[s][p]
            if c:
                rows[s] = primitive_vector([row[p] * x - c * y for x, y in zip(rows[s], row)])
    return tuple(rows)


def independent_rows_mod(rows, p):
    """Indices of the first maximal set of rows, in row order, of an integer
    matrix that are linearly independent mod a prime p, and those rows in
    reduced echelon form mod p: a dict from each pivot column to a row with 1
    there and 0 at every other pivot.  A row depends on them exactly when it
    reduces to zero; their count is the rank mod p.  `rows` may be any
    iterable; rows after the first full-rank set are never read."""
    basis = {}  # pivot column -> reduced chosen row
    chosen = []
    for i, row in enumerate(rows):
        row = [x % p for x in row]
        # each reduced row is 0 at the other pivots, so one pass suffices
        for c, b in basis.items():
            f = row[c] % p
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        row = [x % p for x in row]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        row = [x * inv % p for x in row]
        for b in basis.values():
            f = b[lead]
            if f:
                b[:] = [(x - f * y) % p for x, y in zip(b, row)]
        basis[lead] = row
        chosen.append(i)
        if len(chosen) == len(row):
            break
    return chosen, basis


def _rational_reconstruction(u, p):
    """The a/b ≡ u mod p with |a|, b ≤ √(p/2), or None (Wang 1981)."""
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return norm_coeff(Fraction(r1, t1)) if abs(t1) <= bound and math.gcd(r1, t1) == 1 else None


def _lifted_kernel(basis, ncols, p):
    """The kernel mod p of the reduced rows, one vector per free column c with
    1 at c and 0 at the other free columns, lifted to Q entry by entry; None
    if an entry has no reconstruction.  A reduced row is 0 before its pivot,
    so each vector is also 0 after c."""
    lifted = []
    for c in range(ncols):
        if c not in basis:
            v = [int(j == c) for j in range(ncols)]
            for pc, b in basis.items():
                v[pc] = _rational_reconstruction(-b[c] % p, p)
            if None in v:
                return None
            lifted.append(v)
    return lifted


def _back_substitute(rows, pivots, ncols, free_col):
    """Kernel vector with 1 in free_col, solving pivot entries bottom-up.

    Only the k pivots before free_col take part, and the Bareiss pivot of
    row k-1 is the k×k minor D of those rows and pivot columns, so by
    Cramer's rule D times the vector is an integer vector.  It is solved in
    integers with exact divisions by the pivots, and each entry becomes a
    rational only at the end; a division that was not exact would fail the
    kernel's re-check."""
    k = sum(1 for pc in pivots if pc < free_col)
    den = rows[k - 1][pivots[k - 1]] if k else 1
    num = [0] * ncols
    num[free_col] = den
    for r in range(k - 1, -1, -1):
        pc, row = pivots[r], rows[r]
        num[pc] = -sum(map(operator.mul, row[pc + 1 :], num[pc + 1 :])) // row[pc]
    return [x // den if x % den == 0 else Fraction(x, den) for x in num]


def _kernel_vectors(entries, ncols):
    rows, pivots = _echelon_rational(entries)
    pivot_set = set(pivots)
    return [
        _back_substitute(rows, pivots, ncols, c)
        for c in range(ncols)
        if c not in pivot_set
    ]


def kernel_of_rows(rows, ncols):
    """Basis of {v : M·v = 0} for the matrix M with ncols columns whose rows
    the iterable `rows` yields; one vector per free column, unit at that
    column.

    The rows are cleared to integers and reduced mod ``DEFAULT_PRIME`` as
    they come, and none is read once ncols of them are independent mod p.
    Those rows then have an ncols×ncols minor that is nonzero mod p, so
    nonzero as an integer: M has full rank over Q and its kernel is {0},
    exactly.  A stream that runs out below full rank is kept as M.  Its
    kernel mod p is read off the rows already reduced, with no second
    elimination, and each entry is lifted by rational reconstruction.  The
    lifted vectors are independent and at least dim ker(M) in number, so
    once the exact re-check of M·v = 0 passes they span ker(M); with 1 at
    their free column and 0 at the others and after it, they are the
    reduced basis full Bareiss gives, which depends on the span alone.  A
    failed lift or re-check runs full Bareiss instead."""
    kept = []

    def cleared():
        for row in rows:
            kept.append(row)
            yield _clear_denominators(row)

    _, basis = independent_rows_mod(cleared(), DEFAULT_PRIME)
    if len(basis) == ncols:
        return KernelBasis(kept, ncols, ())
    lifted = _lifted_kernel(basis, ncols, DEFAULT_PRIME)
    if lifted is not None:
        try:
            return KernelBasis(kept, ncols, lifted)
        except InternalCheckError:
            pass
    return KernelBasis(kept, ncols, _kernel_vectors(kept, ncols))


def kernel(matrix):
    """Basis of {v : M·v = 0}; one vector per free column, unit at that column.

    A tall matrix goes through `kernel_of_rows`; any other is eliminated by
    full Bareiss."""
    if matrix.rows > matrix.cols:
        return kernel_of_rows(matrix.entries, matrix.cols)
    return KernelBasis(matrix.entries, matrix.cols, _kernel_vectors(matrix.entries, matrix.cols))


def primitive_vector(v):
    """Scale a rational vector to coprime integers with first nonzero positive."""
    ints = _clear_denominators(v)
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints)
    first = next(x for x in ints if x)
    if first < 0:
        g = -g
    return tuple(x // g for x in ints)


def projectively_equal(a, b):
    """True iff nonzero vectors a, b agree up to a scalar (all 2x2 minors
    vanish)."""
    if not any(a) or not any(b):
        return False
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def random_invertible(n, rng, lo=-9, hi=9):
    """Seeded random invertible n×n integer matrix (retry until full rank)."""
    for _ in range(64):
        m = ScalarMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m
    raise InternalCheckError("could not draw an invertible matrix")

"""Exact linear algebra over the rationals, plus kernels lifted from mod p.

Rational matrices are row-scaled to integers and eliminated fraction-free
(Bareiss), which keeps every intermediate entry an integer minor of the
input; kernel vectors are back-substituted in integers too, and every
kernel is returned as primitive integer vectors (`primitive_vector`), each
re-checked by M·w = 0.  The one Bareiss loop is left-looking: it brings a
column up to date through the pivots found so far only when it reaches it,
so ``has_full_rank``, which stops at the first column with no pivot (a
proof that the columns are dependent), reads no column past it.
``independent_rows_mod`` is the package's one modular elimination, on plain
ints mod a prime; it back-reduces its rows only when a caller can read them,
once the rows run out below full rank.
``kernel_of_rows`` reads a kernel off a stream of rows: it reduces them mod p
as they come and stops at full rank, which proves the kernel {0}; a stream
that runs out below full rank is kept, and its kernel mod p is lifted to Q by
rational reconstruction and re-checked exactly against every row, Bareiss on
the chosen rows, then on all, as fallbacks.  ``kernel`` sends a tall matrix there.
Pivots are always the first nonzero entry in column order, ties broken by
row order, so all outputs are deterministic.
"""

from __future__ import annotations

import itertools
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
        terms = [p.as_dict() for p in polys]
        basis = sorted(set().union(*terms), key=lambda e: (sum(e), e), reverse=True)
        return ScalarMatrix([[t.get(e, 0) for e in basis] for t in terms])

    def transpose(self):
        return ScalarMatrix(zip(*self.entries))

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols})"


def _clear_denominators(row):
    """A fresh integer row, a positive multiple of the rational row."""
    # entries are int or Fraction; `type` skips the slow ABC isinstance check
    l = 1
    for c in row:
        if type(c) is not int:
            l = math.lcm(l, c.denominator)
    if l == 1:
        return [int(c) for c in row]
    return [c * l if type(c) is int else c.numerator * (l // c.denominator) for c in row]


def _echelon_rational(entries, until_gap=False):
    """Fraction-free (Bareiss) forward elimination on integer-cleared rows.

    Returns (echelon integer rows, pivot column list); row space and kernel
    are preserved by the row scalings.  The loop is left-looking: a column
    is cleared to integers and brought up to date through the pivots found
    so far only when the loop reaches it.  Each entry is a minor of the
    cleared input, so the order of the updates changes none of them.  A
    pivot column keeps, below its pivot, the multipliers of its step, read
    by every later column; they are zeroed in the rows returned.  With
    `until_gap`, the loop stops at the first column with no pivot, which
    proves the columns dependent, and reads no entry past it; the rows then
    hold only the columns read.
    """
    nrows = len(entries)
    columns = [list(col) for col in zip(*entries)]
    # each row's positive scale to integers, when some entry is no int
    scales = None
    if set(map(type, itertools.chain.from_iterable(entries))) - {int}:
        scales = [math.lcm(*(x.denominator for x in row if type(x) is not int)) for row in entries]
    steps, pivots = [], []
    r = 0
    for c, col in enumerate(columns):
        if scales:
            col[:] = [x * l if type(x) is int else x.numerator * (l // x.denominator) for x, l in zip(col, scales)]
        prev = 1
        for k, step in enumerate(steps):
            piv, x = step[k], col[k]
            # the uniform Bareiss step of pivot k: the division is exact
            for i in range(k + 1, nrows):
                col[i] = (piv * col[i] - step[i] * x) // prev
            prev = piv
        for pr in range(r, nrows):
            if col[pr]:
                break
        else:
            pr = None
        if pr is not None:
            if pr != r:
                for row in columns:
                    row[r], row[pr] = row[pr], row[r]
                if scales:
                    scales[r], scales[pr] = scales[pr], scales[r]
            steps.append(col)
            pivots.append(c)
            r += 1
        if until_gap and (pr is None or r == nrows):
            del columns[c + 1:]
            break
    for k, step in enumerate(steps):
        step[k + 1:] = [0] * (nrows - k - 1)
    return [list(row) for row in zip(*columns)][:r], pivots


def rank(matrix):
    _, pivots = _echelon_rational(matrix.entries)
    return len(pivots)


def has_full_rank(matrix):
    """Whether the columns of M are independent, rank(M) = M.cols, which
    for a square M is det M ≠ 0; Bareiss stops at the first column with no
    pivot."""
    _, pivots = _echelon_rational(matrix.entries, until_gap=True)
    return len(pivots) == matrix.cols


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
    iterable; rows after the first full-rank set are never read.

    While reading, each chosen row is 0 only at the pivots chosen before it,
    so a new row is reduced against them in insertion order.  The basis is
    back-reduced once, latest pivot first, when the rows run out below full
    rank; at full rank it is the identity, returned as unit rows."""
    basis = {}  # pivot column -> chosen row, 0 at the earlier pivots
    chosen = []
    for i, row in enumerate(rows):
        row = [x % p for x in row]
        for c, b in basis.items():
            f = row[c] % p
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        row = [x % p for x in row]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        chosen.append(i)
        if len(chosen) == len(row):
            return chosen, {c: [int(j == c) for j in range(len(row))] for c in [*basis, lead]}
        inv = pow(row[lead], -1, p)
        basis[lead] = [x * inv % p for x in row]
    reduced = list(basis.items())
    for k in range(len(reduced) - 1, 0, -1):
        c, b = reduced[k]
        for _, a in reduced[:k]:
            f = a[c]
            if f:
                a[:] = [(x - f * y) % p for x, y in zip(a, b)]
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


def _back_substitute(entries, ncols):
    """Yield D·v for each kernel vector v, 1 at its free column c, solved bottom-up.

    Only the k pivots before c take part, and the Bareiss pivot of row k-1
    is the k×k minor D of those rows and pivot columns, so by Cramer's rule
    D·v is an integer vector.  It is solved in integers with exact divisions
    by the pivots; a division that was not exact would fail the kernel's
    re-check."""
    rows, pivots = _echelon_rational(entries)
    for c in sorted(set(range(ncols)).difference(pivots)):
        k = sum(1 for pc in pivots if pc < c)
        num = [0] * ncols
        num[c] = rows[k - 1][pivots[k - 1]] if k else 1
        for r in range(k - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            num[pc] = -sum(map(operator.mul, row[pc + 1 :], num[pc + 1 :])) // row[pc]
        yield num


def _checked(rows, vectors):
    """The vectors as `primitive_vector` tuples, each re-verified by M·w = 0."""
    basis = tuple(map(primitive_vector, vectors))
    for w in basis:
        if any(sum(map(operator.mul, row, w)) for row in rows):
            raise InternalCheckError("claimed kernel vector fails M·v = 0")
    return basis


def kernel_of_rows(rows, ncols):
    """Basis of {v : M·v = 0} for the matrix M with ncols columns whose rows
    the iterable `rows` yields: one primitive integer vector per free
    column, from the vector with 1 at that column and 0 at the others.

    The rows are cleared to integers and reduced mod ``DEFAULT_PRIME`` as
    they come, and none is read once ncols of them are independent mod p.
    Those rows then have an ncols×ncols minor that is nonzero mod p, so
    nonzero as an integer: M has full rank over Q and its kernel is {0},
    exactly.  A stream that runs out below full rank is kept as M.  Its
    kernel mod p is read off the rows already reduced, with no second
    elimination, and each entry is lifted by rational reconstruction.  The
    lifted vectors are independent and at least dim ker(M) in number, so
    once the exact re-check of M·w = 0 passes they span ker(M); with 1 at
    their free column and 0 at the others and after it, they are the
    reduced basis full Bareiss gives, which depends on the span alone.  A
    failed lift or re-check runs Bareiss on the rows chosen mod p, whose
    kernel holds ker(M), under the same re-check; full Bareiss runs only
    when that fails too (p divides a minor of M)."""
    kept = []

    def cleared():
        for row in rows:
            kept.append(row)
            yield _clear_denominators(row)

    chosen, basis = independent_rows_mod(cleared(), DEFAULT_PRIME)
    if len(basis) == ncols:
        return ()
    vectors = _lifted_kernel(basis, ncols, DEFAULT_PRIME)
    for eliminated in ([kept[i] for i in chosen], kept):
        if vectors is not None:
            try:
                return _checked(kept, vectors)
            except InternalCheckError:
                pass
        vectors = _back_substitute(eliminated, ncols)
    return _checked(kept, vectors)


def kernel(matrix):
    """Basis of {v : M·v = 0}, as `kernel_of_rows` gives it.

    A tall matrix goes through `kernel_of_rows`; any other is eliminated by
    full Bareiss."""
    if matrix.rows > matrix.cols:
        return kernel_of_rows(matrix.entries, matrix.cols)
    return _checked(matrix.entries, _back_substitute(matrix.entries, matrix.cols))


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


def span_coordinates(basis, point):
    """The primitive coordinates of an integer point on reduced echelon rows,
    or None off their span.  Row k alone is nonzero at its pivot c_k, so
    clearing the pivots in turn, v ← b_k[c_k]·v − v[c_k]·b_k, leaves
    v = s·point − Σ_k z_k·b_k, z_k the v[c_k] cleared, scaled by each later
    pivot entry alike: v = 0 exactly on the span."""
    v, zs = point, []
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        zs = [row[p] * z for z in zs] + [v[p]]
        v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
    return None if any(v) else primitive_vector(zs)


def random_invertible(n, rng):
    """Seeded random invertible n×n matrix, entries in -9..9 (retry until full rank)."""
    for _ in range(64):
        m = ScalarMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if has_full_rank(m):
            return m
    raise InternalCheckError("could not draw an invertible matrix")

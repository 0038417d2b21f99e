"""Hessian matrices, symbolic determinants, and vanishing verdicts.

Two independent determinant routes are kept deliberately: minor expansion
over memoized column subsets (fast on the sparse, symmetric matrices that
show up here) and fraction-free Bareiss elimination with exact polynomial
division.  The probabilistic vanishing test is Schwartz-Zippel at seeded
points mod p with a certified error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionError, DomainError, InexactDivisionError, InternalCheckError
from .fields import DEFAULT_PRIME, substream
from .linalg import independent_rows_mod
from .poly import Polynomial

DEFAULT_SIZE_CAP = 8
DEFAULT_TRIALS = 5
DEFAULT_SAMPLES = 5


class PolyMatrix:
    """Dense matrix of polynomials sharing one variable count."""

    __slots__ = ("rows", "cols", "entries", "nvars")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != width:
                raise DimensionError("ragged rows")
            for p in row:
                if p.nvars != nvars:
                    raise DimensionError("entries disagree on variable count")
        self.rows = len(entries)
        self.cols = width
        self.entries = entries
        self.nvars = nvars

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def transpose(self):
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul_poly_vector(self, v):
        if len(v) != self.cols:
            raise DimensionError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = Polynomial.zero(self.nvars)
            for entry, p in zip(row, v):
                acc = acc + entry * p
            out.append(acc)
        return out

    def evaluate_mod(self, point, p):
        """Integer matrix of entries evaluated at an integer point mod p."""
        return [[e.eval_mod(point, p) for e in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, nvars={self.nvars})"


@dataclass(frozen=True)
class HessianVerdict:
    mode: str                      # "symbolic" | "probabilistic"
    vanishes: bool
    trials: int
    modulus: Optional[int]
    error_bound: Fraction          # upper bound on a false "vanishes"
    degree_bound: int


def hessian_matrix(f):
    """Matrix of second partials; symmetry is asserted after construction."""
    if not f:
        raise DomainError("Hessian of the zero polynomial")
    n = f.nvars
    grads = f.gradient()
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = grads[i].partial(j)
            entries[j][i] = entries[i][j]
    m = PolyMatrix(entries)
    if not m.is_symmetric():
        raise InternalCheckError("Hessian failed its symmetry check")
    return m


def det_minor_expansion(m):
    """Determinant by first-row expansion over memoized column subsets."""
    n = m.rows
    entries = m.entries
    zero = Polynomial.zero(m.nvars)
    memo = {0: Polynomial.constant(m.nvars, 1)}

    def minor(mask):
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc = zero
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            j = low.bit_length() - 1
            e = entries[row][j]
            if e:
                term = e * minor(mask ^ low)
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return minor((1 << n) - 1)


def det_fraction_free(m):
    """Bareiss over polynomial entries; every division must be exact."""
    n = m.rows
    b = [row[:] for row in m.entries]
    zero = Polynomial.zero(m.nvars)
    prev = Polynomial.constant(m.nvars, 1)
    sign = 1
    for k in range(n - 1):
        if not b[k][k]:
            swap = next((i for i in range(k + 1, n) if b[i][k]), None)
            if swap is None:
                return zero
            b[k], b[swap] = b[swap], b[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = b[k][k] * b[i][j] - b[i][k] * b[k][j]
                try:
                    b[i][j] = num.exact_div(prev)
                except InexactDivisionError as exc:
                    raise InternalCheckError(
                        "fraction-free elimination hit an inexact division"
                    ) from exc
            b[i][k] = zero
        prev = b[k][k]
    return b[n - 1][n - 1].scale(sign)


def symbolic_determinant(m, algorithm="minor_expansion", size_cap=DEFAULT_SIZE_CAP):
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    if m.rows > size_cap:
        raise DomainError(f"matrix size {m.rows} exceeds cap {size_cap}")
    if algorithm == "minor_expansion":
        return det_minor_expansion(m)
    if algorithm == "fraction_free":
        return det_fraction_free(m)
    raise DomainError(f"unknown determinant algorithm {algorithm!r}")


def hessian_degree_bound(f):
    """Trivial bound on deg(h_f): (n+1)·max(d-2, 0)."""
    d = f.degree()
    return f.nvars * max(d - 2, 0)


def hessian_vanishes(f, mode="symbolic", trials=DEFAULT_TRIALS, seed=0, modulus=DEFAULT_PRIME):
    """Decide h_f ≡ 0 exactly or probabilistically with a certified bound."""
    if not f:
        raise DomainError("zero polynomial")
    if not f.is_homogeneous() or f.degree() < 1:
        raise DomainError("expects a nonzero homogeneous polynomial of degree >= 1")
    h = hessian_matrix(f)
    degree_bound = hessian_degree_bound(f)
    if mode == "symbolic":
        det = symbolic_determinant(h)
        return HessianVerdict(
            mode="symbolic",
            vanishes=det.is_zero(),
            trials=0,
            modulus=None,
            error_bound=Fraction(0),
            degree_bound=degree_bound,
        )
    if mode != "probabilistic":
        raise DomainError(f"unknown mode {mode!r}")
    if trials < 1:
        raise DomainError("probabilistic mode needs trials >= 1")
    p = modulus
    vanishes = True
    for t in range(trials):
        rng = substream(seed, "hessian_vanishes", t)
        point = [rng.randrange(p) for _ in range(f.nvars)]
        # det H(a) != 0 mod p exactly when H(a) has full rank mod p
        if len(independent_rows_mod(h.evaluate_mod(point, p), p)) == f.nvars:
            vanishes = False
            break
    return HessianVerdict(
        mode="probabilistic",
        vanishes=vanishes,
        trials=trials,
        modulus=p,
        error_bound=Fraction(degree_bound, p) ** trials,
        degree_bound=degree_bound,
    )


def generic_hessian_rank(f, samples=DEFAULT_SAMPLES, seed=0, modulus=DEFAULT_PRIME):
    """Max rank of H_f over seeded random GF(p) points.

    Per-sample seed substreams make the result non-decreasing in `samples`
    for a fixed seed.
    """
    if not f or not f.is_homogeneous():
        raise DomainError("expects a nonzero homogeneous polynomial")
    if f.degree() < 2:
        raise DomainError("polar map is constant for degree < 2; dimension undefined")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    h = hessian_matrix(f)
    p = modulus
    best = 0
    for s in range(samples):
        rng = substream(seed, "generic_rank", s)
        point = [rng.randrange(p) for _ in range(f.nvars)]
        best = max(best, len(independent_rows_mod(h.evaluate_mod(point, p), p)))
        if best == f.nvars:
            break
    return best


def polar_image_dim(f, samples=DEFAULT_SAMPLES, seed=0, modulus=DEFAULT_PRIME):
    """dim Z(f) = generic rank of the polar map's Jacobian minus one."""
    return generic_hessian_rank(f, samples=samples, seed=seed, modulus=modulus) - 1

"""Hessian matrices, symbolic determinants, and vanishing verdicts.

H_f is evaluated exactly at one stream of seeded integer points with
coordinates in range(N), N = 2^61 - 1, reading H_f(a) straight from the
terms of f (`hessian_at`), off the table of terms each form builds once.
`sample_kernels` reads the rank and the exact integer kernel at each point.
`rank_verdict` reads the verdict on h_f ≡ 0 off the ranks: a full-rank
point is an exact witness of h_f ≠ 0, else "vanishes" carries the
Schwartz-Zippel bound (D/N)^t, with t the fewest points that put it below
2^-40; `hessian_vanishes` ranks the same first points alone.  This is the
only verdict path.
The ranks also give the generic rank behind the polar image's dimension, and
the kernels span W, on which the relation search runs.  A cone vertex, a
re-checked polar relation g(∇f) ≡ 0 (the Gordan-Noether criterion) or, last,
det H_f ≡ 0 later makes a vanishing verdict exact.

That last certificate is the symbolic determinant, expanded by minors over
memoized column subsets (`ColumnMinors`) under DETERMINANT_BUDGET monomial
products, whatever the size of H_f; the matrix of second partials is built
for it alone.  The same memo gives `gn` the minors of its ψ-rows, formed as
those of the rows ∂h_i/∂y_j in Q[y_0..y_m] before ψ is substituted, and the
scalar minors of its constant rows.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DimensionError, DomainError, InternalCheckError
from .fields import DEFAULT_PRIME, norm_coeff, substream
from .linalg import ScalarMatrix, kernel, rank, reduced_row_basis
from .poly import Polynomial

DEFAULT_SAMPLES = 5
# monomial products, Σ len(a)·len(b) over the products a·b, that the determinant
# certificate may spend; a count, not a time, so reports stay byte-identical
DETERMINANT_BUDGET = 10 ** 6


class HessianVerdict(NamedTuple):
    mode = "probabilistic"         # every verdict is read off sampled ranks
    vanishes: bool
    trials: int                    # points evaluated
    sample_range: int              # point coordinates are drawn from range(sample_range)
    error_bound: Fraction          # upper bound on a false "vanishes"; 0 when certified
    degree_bound: int
    # "witness" | "cone_vertex" | "polar_relation" | "determinant", or None
    # when only error_bound backs a vanishing verdict
    certificate: Optional[str]

    def upgraded(self, certificate):
        """This verdict backed by an exact proof of h_f ≡ 0 found elsewhere:
        a cone vertex, a re-checked polar relation or det H_f ≡ 0."""
        if not self.vanishes:
            raise InternalCheckError(
                f"{certificate} contradicts the {self.certificate} of h_f != 0"
            )
        if self.certificate is not None:
            return self
        return self._replace(error_bound=Fraction(0), certificate=certificate)


def hessian_matrix(f):
    """The rows of second partials: the kept gradients of f's kept partials."""
    if not f:
        raise DomainError("Hessian of the zero polynomial")
    return [fi.gradient() for fi in f.gradient()]


def _powers(a, top):
    """a_i^k for every coordinate, k = 0..top."""
    return [list(itertools.accumulate([x] * top, operator.mul, initial=1)) for x in a]


def _divide(h, d):
    """h/d for a d that divides h exactly, in integers when both are."""
    return norm_coeff(h // d if type(h) is int and type(d) is int else h / d)


def hessian_at(f, a):
    """H_f(a), read from `f.term_table()` without expanding a second partial.

    Euler's identity on a monomial, x_i·x_j·∂_i∂_j x^e = e_i·(e_j − δ_ij)·x^e,
    gives K = Σ_t c_t·a^(e_t)·(e_t·e_tᵀ − diag e_t) = D·H_f(a)·D with
    D = diag(a): one monomial value per term, from a table of powers, and
    small-integer multiply-adds.  Then H_ij = K_ij / (a_i·a_j) exactly.  At
    a point with a zero coordinate, which a seeded point has with probability
    at most (n+1)/N, H_f(a) is f's kept second partials evaluated."""
    if not f:
        raise DomainError("Hessian of the zero polynomial")
    if not all(a):
        return ScalarMatrix([[g.evaluate(a) for g in fi.gradient()] for fi in f.gradient()])
    n = f.nvars
    top, coeffs, supports = f.term_table()
    powers = _powers(a, top)
    k = [[0] * n for _ in range(n)]
    for c, support in zip(coeffs, supports):
        v = c
        for i, x in support:
            v *= powers[i][x]
        for s, (i, x) in enumerate(support):
            vx = v * x
            row = k[i]
            row[i] += vx * (x - 1)
            for j, y in support[s + 1 :]:
                row[j] += vx * y
    for i in range(n):
        for j in range(i, n):
            k[i][j] = k[j][i] = _divide(k[i][j], a[i] * a[j]) if k[i][j] else 0
    return ScalarMatrix(k)


class _OverBudget(Exception):
    pass


class ColumnMinors:
    """minors(mask): det of the last popcount(mask) rows on the columns in
    mask, memoized; entries are polynomials or scalars, zero and one of their
    kind.  With a budget (polynomial entries only), each product a·b spends
    len(a)·len(b) of it, the product of their term counts, and the expansion
    stops before one would overspend."""

    def __init__(self, rows, zero, one, budget=None):
        self.rows, self.zero, self.budget = rows, zero, budget
        # a one-column minor of the last row is its entry
        self.memo = {0: one, **{1 << j: e for j, e in enumerate(rows[-1] if rows else ())}}

    def __call__(self, mask):
        if mask in self.memo:
            return self.memo[mask]
        entries = self.rows[len(self.rows) - bin(mask).count("1")]
        acc = self.zero
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            e = entries[low.bit_length() - 1]
            if e:
                sub = self(mask ^ low)
                if self.budget is not None:
                    self.budget -= len(e) * len(sub)
                    if self.budget < 0:
                        raise _OverBudget
                term = e * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            rest ^= low
        self.memo[mask] = acc
        return acc


def symbolic_determinant(rows, budget=None):
    """det of a square list of polynomial rows by first-row expansion over
    memoized column subsets, or None when the expansion would spend more
    than `budget` monomial products."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DimensionError("determinant of an empty or non-square matrix")
    nvars = rows[0][0].nvars
    one = Polynomial.constant(nvars, 1)
    try:
        return ColumnMinors(rows, Polynomial.zero(nvars), one, budget)((1 << len(rows)) - 1)
    except _OverBudget:
        return None


def trials_for_error(degree_bound):
    """Fewest trials with certified error (D/N)^t < 2^-40, N = DEFAULT_PRIME."""
    if degree_bound == 0:
        return 1
    bound = Fraction(degree_bound, DEFAULT_PRIME)
    target = Fraction(1, 2 ** 40)
    t = 1
    err = bound
    while err >= target:
        t += 1
        err *= bound
    return t


def _seeded_point(nvars, seed, i):
    """The i-th seeded point of H_f, coordinates in range(DEFAULT_PRIME)."""
    rng = substream(seed, "generic_rank", i)
    return [rng.randrange(DEFAULT_PRIME) for _ in range(nvars)]


def rank_verdict(f, ranks):
    """The verdict on h_f ≡ 0 that the ranks of H_f at the seeded points, in
    order, give: a full-rank point among the first `trials_for_error` is a
    witness of h_f ≠ 0, else "vanishes" carries the bound (D/N)^t.  Ranks are
    read up to the first witness only, so `ranks` may be a lazy iterable."""
    degree_bound = f.nvars * max(f.degree() - 2, 0)  # deg(h_f) <= (n+1)·(d-2)
    trials = trials_for_error(degree_bound)
    used, witness = 0, False
    for r in itertools.islice(ranks, trials):
        used += 1
        witness = r == f.nvars  # det H(a) != 0 proves h_f != 0
        if witness:
            break
    if used < trials and not witness:
        raise InternalCheckError(f"the verdict needs {trials} points, the sample took {used}")
    return HessianVerdict(
        vanishes=not witness,
        trials=used,
        sample_range=DEFAULT_PRIME,
        error_bound=Fraction(0) if witness else Fraction(degree_bound, DEFAULT_PRIME) ** used,
        degree_bound=degree_bound,
        certificate="witness" if witness else None,
    )


def hessian_vanishes(f, seed=0):
    """Decide h_f ≡ 0 by the ranks of H_f at the first seeded points of
    `sample_kernels`, stopping at the first witness of h_f ≠ 0."""
    if not f:
        raise DomainError("zero polynomial")
    if not f.is_homogeneous() or f.degree() < 1:
        raise DomainError("expects a nonzero homogeneous polynomial of degree >= 1")
    points = (_seeded_point(f.nvars, seed, i) for i in itertools.count())
    return rank_verdict(f, (rank(hessian_at(f, a)) for a in points))


class KernelSample(NamedTuple):
    """H_f at its seeded points: the rank at each, and W, the span of the
    exact kernels."""

    ranks: tuple                   # rank of H_f at each point evaluated, in order
    span: tuple                    # W as primitive reduced-echelon integer rows

    @property
    def rank(self):  # the generic rank, over the first DEFAULT_SAMPLES points
        return max(self.ranks[:DEFAULT_SAMPLES])


def _outside(span, v):
    """Whether integer v is outside W: nonzero once W's reduced rows clear their pivots."""
    for row in span:
        p = next(j for j, x in enumerate(row) if x)
        v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
    return any(v)


def sample_kernels(f, seed=0):
    """Exact kernels of H_f at its seeded points, drawn until DEFAULT_SAMPLES
    points are in and the last one adds nothing to their span W, or until
    one has full rank.  Its first points are those `hessian_vanishes` reads,
    so `rank_verdict` on its ranks is that verdict.  A sampled W can only
    be too small: every kernel lies in the true span.  W grows in integers:
    it is rebuilt only for a kernel vector outside it.
    """
    n = f.nvars
    ranks, span = [], ()
    for i in itertools.count():
        vectors = kernel(hessian_at(f, _seeded_point(n, seed, i)))
        ranks.append(n - len(vectors))
        grown = reduced_row_basis([*span, *vectors]) if any(_outside(span, v) for v in vectors) else span
        if ranks[-1] == n or (i + 1 >= DEFAULT_SAMPLES and len(grown) == len(span)):
            return KernelSample(ranks=tuple(ranks), span=grown)
        span = grown


def polar_image_dim(f, seed=0):
    """dim Z(f) = generic rank of the polar map's Jacobian minus one."""
    if not f or not f.is_homogeneous():
        raise DomainError("expects a nonzero homogeneous polynomial")
    if f.degree() < 2:
        raise DomainError("polar map is constant for degree < 2; dimension undefined")
    return sample_kernels(f, seed=seed).rank - 1

"""Cone detection, vertices, and hyperplane restriction.

A hypersurface V(f) is a cone iff its partials are linearly dependent; the
vertex is the kernel of v ↦ Σ v_i·∂f/∂x_i, which is pure linear algebra over
the coefficients of the partials, read straight from the keys of f.  A
linear relation among the partials is exactly a vertex direction, so degree
1 is decided here, and the relation search in `psi` starts at degree 2.
Hyperplanes are handled through explicit parametrizations so no implicit
coordinate convention sneaks in.
"""

from __future__ import annotations

from typing import NamedTuple
from .errors import (
    DimensionError,
    DomainError,
    InternalCheckError,
    RestrictionZeroError,
    SampleBudgetError,
)
from .fields import substream
from .linalg import (
    ScalarMatrix,
    kernel_of_rows,
    primitive_vector,
    projectively_equal,
    rank,
)
from .poly import Polynomial, derivative_rows, directional_derivative


class VertexSubspace(NamedTuple):
    """Directions v with D_v f ≡ 0; projective dimension = len(basis) - 1."""

    basis: tuple
    projective_dim: int

    @property
    def is_cone(self):
        return self.projective_dim >= 0


def cone_test(f):
    """Vertex of V(f): the kernel of v ↦ D_v f, whose rows (`derivative_rows`)
    `kernel_of_rows` reads as they come.  It stops once nvars rows are
    independent mod p, which proves the kernel {0}, so a GN non-cone settles
    within a few rows; rows that run out below full rank are all read, for
    the lifted kernel, and every vertex direction is re-checked by D_v f ≡ 0."""
    if not f or not f.is_homogeneous() or f.degree() < 1:
        raise DomainError("cone_test expects a nonzero homogeneous polynomial of degree >= 1")
    vectors = kernel_of_rows(derivative_rows(f), f.nvars)
    for v in vectors:
        if directional_derivative(f, v):
            raise InternalCheckError("vertex direction fails D_v f = 0")
    return VertexSubspace(basis=vectors, projective_dim=len(vectors) - 1)


def translation_invariant(f, v):
    """f(x + λ·v) - f(x) ≡ 0 as a polynomial in (x, λ): the vertex certificate."""
    n = f.nvars
    args = []
    for i in range(n):
        a = Polynomial.variable(n + 1, i)
        if v[i]:
            a = a + Polynomial.variable(n + 1, n).scale(v[i])
        args.append(a)
    return f.compose(args) == f.extend(n + 1)


class _Chart(NamedTuple):
    ambient_vars: int
    parametrization: tuple        # (n+1) rows × n cols of exact scalars
    dual_point: tuple             # length n+1


class HyperplaneChart(_Chart):
    """Explicit parametrization of a hyperplane H ⊂ P^n.

    `parametrization` is (n+1)×n of full rank; columns span the dual point's
    orthogonal complement, so h ∘ parametrization ≡ 0.
    """

    __slots__ = ()

    def __new__(cls, ambient_vars, parametrization, dual_point):
        n1, rows = ambient_vars, parametrization
        if len(rows) != n1 or any(len(r) != n1 - 1 for r in rows):
            raise DimensionError("parametrization must be (n+1) x n")
        if len(dual_point) != n1:
            raise DimensionError("dual point must have n+1 coordinates")
        if rank(ScalarMatrix(rows)) != n1 - 1:
            raise DomainError("parametrization is rank-deficient")
        for j in range(n1 - 1):
            if sum(dual_point[i] * rows[i][j] for i in range(n1)):
                raise DomainError("dual point does not annihilate the parametrization")
        return super().__new__(cls, ambient_vars, parametrization, dual_point)

    def embed_point(self, u):
        """Chart coordinates u (length n) → ambient coordinates (length n+1)."""
        if len(u) != self.ambient_vars - 1:
            raise DimensionError("chart point length mismatch")
        return [
            sum(self.parametrization[i][j] * u[j] for j in range(len(u)))
            for i in range(self.ambient_vars)
        ]


def chart_for_hyperplane(dual_point):
    """Chart for the hyperplane {Σ h_i x_i = 0} from its dual point h.

    Columns are h_p·e_j − h_j·e_p for j ≠ p, p the first nonzero entry of h,
    each scaled to coprime integers: the reduced kernel basis of [h], read
    off h without elimination.
    """
    if not any(dual_point):
        raise DomainError("dual point must be nonzero")
    h, n1 = tuple(dual_point), len(dual_point)
    p = next(i for i, x in enumerate(h) if x)
    cols = [
        primitive_vector([h[p] if i == j else -x if i == p else 0 for i in range(n1)])
        for j, x in enumerate(h)
        if j != p
    ]
    return HyperplaneChart(ambient_vars=n1, parametrization=tuple(zip(*cols)), dual_point=h)


def restrict(f, chart):
    """f composed with the chart parametrization: V(f) ∩ H in chart coordinates."""
    if chart.ambient_vars != f.nvars:
        raise DimensionError("chart ambient dimension mismatch")
    n = f.nvars - 1
    args = [
        Polynomial.linear_form([chart.parametrization[i][j] for j in range(n)])
        for i in range(f.nvars)
    ]
    restricted = f.compose(args)
    if not restricted:
        raise RestrictionZeroError("H is contained in V(f); restriction vanishes")
    return restricted


def projection_lemma_check(f, chart, samples=10, seed=0, corrupt_partial=None):
    """Sampled check that restricting then taking gradients equals projecting
    the ambient gradient from the hyperplane's dual point.

    In chart-dual coordinates the projection from h is u ↦ Pᵀu, so both sides
    are length-n vectors compared projectively at each sample.
    `corrupt_partial` negates one ambient partial (mutation control).
    """
    restricted = restrict(f, chart)
    rest_grad = restricted.gradient()
    amb_grad = f.gradient()
    if corrupt_partial is not None:
        amb_grad = list(amb_grad)
        amb_grad[corrupt_partial] = -amb_grad[corrupt_partial]
    n = f.nvars - 1
    checked = 0
    for s in range(samples * 4):
        if checked == samples:
            break
        rng = substream(seed, "projection", s)
        u = [rng.randint(-9, 9) for _ in range(n)]
        if not any(u):
            continue
        lhs = [g.evaluate(u) for g in rest_grad]
        x = chart.embed_point(u)
        grad_at = [g.evaluate(x) for g in amb_grad]
        rhs = [
            sum(chart.parametrization[i][j] * grad_at[i] for i in range(f.nvars))
            for j in range(n)
        ]
        if not any(lhs) or not any(rhs):
            continue  # base locus; resample
        if not projectively_equal(lhs, rhs):
            return False
        checked += 1
    if checked == 0:
        raise SampleBudgetError("all samples hit base loci; retry with a new seed")
    return True

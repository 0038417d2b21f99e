"""Desk-scale verification of the classification statements.

Covers the low-dimension equivalence (vanishing Hessian ⇔ cone for at most
three projective dimensions), the small-polar-image corollary, and the
structure of vanishing-Hessian non-cones in P^4: f is one exact normal form
f∘A ≡ Σ_k Q^k·P_k(y3, y4) with Q linear in y0, y1, y2 (`p4_normal_form`).
It alone decides that the ψ_g image, read in the coordinates of W's reduced
echelon basis, spans the plane Π = P(W), and it makes the image curve
irreducible and every hyperplane section through Π a cone whose vertex line
is tangent to it.  The curve's equation is the least-degree kernel of
G ↦ G(q') on the binary image q' that the normal form certified
(`p4_plane_curve_check`), one exact kernel per degree and no point.
The sampled sections, a repeated root of the curve on each vertex line
(`poly.repeated_root`), stay as the test oracle `p4_section_check`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .cones import chart_for_hyperplane, cone_test, restrict
from .errors import DomainError, InternalCheckError, RestrictionZeroError
from .fields import rational_content, substream
from .hessian import hessian_vanishes, polar_image_dim, rank_verdict, sample_kernels
from .linalg import ScalarMatrix, kernel, primitive_vector, random_invertible
from .poly import (
    Polynomial,
    binary_gcd,
    binary_quotient,
    is_reduced,
    monomials_of_degree,
    repeated_root,
)

_IDENTITY = tuple(tuple(int(i == j) for i in range(5)) for j in range(5))


# ----------------------------------------------------------------------
# low-dimension equivalence suite

class LowDimRecord(NamedTuple):
    n: int
    kind: str                 # "cone" | "generic"
    degree: int
    vanishes: bool
    polar_dim: Optional[int]


class LowDimReport(NamedTuple):
    records: tuple
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def _random_form(nvars, degree, rng, want_reduced=False):
    for _ in range(32):
        f = Polynomial(
            nvars,
            {e: rng.randint(-9, 9) for e in monomials_of_degree(nvars, degree)},
        )
        if not f:
            continue
        if want_reduced and not is_reduced(f, seed=rng.randint(0, 10 ** 6)):
            continue
        return f
    raise DomainError("could not draw a usable random form")


def _random_cone(nvars, degree, rng):
    """A form in fewer variables pushed through a random invertible change."""
    if nvars == 2:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a == 0 and b == 0:
            a = 1
        return Polynomial.linear_form([a, b]) ** degree
    base_vars = rng.choice(range(2, nvars))
    base = _random_form(base_vars, degree, rng, want_reduced=True)
    change = random_invertible(nvars, rng)
    embedded = base.compose(
        [Polynomial.linear_form(list(change.entries[i])) for i in range(base_vars)]
    )
    return embedded


def low_dim_hesse_suite(count, seed):
    """Seeded cones and generic forms in P^1..P^3: the equivalence
    'vanishing Hessian ⇔ cone' must hold with zero exceptions, and the
    P^3 cones must have polar image of dimension 1 or 2."""
    if count < 1:
        raise DomainError("count must be >= 1")
    records = []
    violations = []
    for n in (1, 2, 3):
        nvars = n + 1
        for kind in ("cone", "generic"):
            for i in range(count):
                rng = substream(seed, "lowdim", n, kind, i)
                degree = rng.choice((2, 3, 4))
                if kind == "cone":
                    f = _random_cone(nvars, degree, rng)
                else:
                    f = _random_form(nvars, degree, rng)
                polar_dim = None
                if n == 3 and kind == "cone":
                    # one sample of H_f gives the verdict and dim Z(f)
                    sample = sample_kernels(f, seed=seed)
                    vanishes = rank_verdict(f, sample.ranks).vanishes
                    polar_dim = sample.rank - 1
                    if polar_dim not in (1, 2):
                        violations.append(
                            f"P3 cone (seed {seed}, case {i}) has dim Z = {polar_dim}"
                        )
                else:
                    vanishes = hessian_vanishes(f, seed=seed).vanishes
                cone_dim = cone_test(f).projective_dim
                if vanishes != (cone_dim >= 0):
                    violations.append(
                        f"biconditional fails in P{n} for {kind} case {i}: "
                        f"vanishes={vanishes}, cone_dim={cone_dim}"
                    )
                if kind == "cone" and cone_dim < 0:
                    violations.append(f"constructed cone not detected (P{n}, case {i})")
                records.append(
                    LowDimRecord(
                        n=n,
                        kind=kind,
                        degree=degree,
                        vanishes=vanishes,
                        polar_dim=polar_dim,
                    )
                )
    return LowDimReport(records=tuple(records), violations=tuple(violations))


def low_polar_dim_check(f, seed=0):
    """For at least five variables with vanishing Hessian: a polar image of
    dimension at most two forces a cone.  True when verified or vacuous."""
    if f.nvars < 5:
        raise DomainError("needs an ambient space of at least five variables")
    if not hessian_vanishes(f, seed=seed).vanishes:
        raise DomainError("precondition: vanishing Hessian")
    if polar_image_dim(f, seed=seed) <= 2:
        return cone_test(f).is_cone
    return True


# ----------------------------------------------------------------------
# P^4 structure: normal form, then the certified curve

class PlaneCurveReport(NamedTuple):
    curve: Optional[Polynomial]       # in the 3 coordinates of W's basis
    curve_degree: Optional[int]

    @property
    def ok(self):
        return self.curve is not None


def _span_coordinates(basis, point):
    """Coordinates of an ambient point in a reduced echelon span basis,
    primitive, or None when the point lies outside the span.

    Row k is the only row nonzero at its pivot column c_k, so its
    coordinate is q[c_k]/b_k[c_k].  In integers: with L the lcm of the
    pivot entries, Z_k = L·q[c_k]/b_k[c_k], and Σ Z_k·b_k = L·q is checked
    on every column."""
    cols = [next(i for i, x in enumerate(b) if x) for b in basis]
    l = math.lcm(*(b[c] for b, c in zip(basis, cols)))
    zs = [l // b[c] * point[c] for b, c in zip(basis, cols)]
    if any(sum(z * b[i] for z, b in zip(zs, basis)) != l * x for i, x in enumerate(point)):
        return None
    return primitive_vector(zs)


class NormalFormReport(NamedTuple):
    change: tuple                 # the rows of A, x = A·y; () off a plane W
    image: tuple                  # q'_0, q'_1, q'_2 in (y3, y4); () unless binary
    tangents: tuple               # M_0, M_1, M_2 in (y3, y4), coprime integers
    parts: tuple                  # P_0, …, P_mu in (y3, y4)
    identity: Optional[bool]      # L·f∘A ≡ Σ_k Q^k·L·P_k; None when not reached
    violation: Optional[str]

    @property
    def mu(self):
        return len(self.parts) - 1 if self.parts else None

    @property
    def spans_plane(self):
        """The binary image spans Π: M was certified and is not constant."""
        return any(m.degree() > 0 for m in self.tangents)

    @property
    def ok(self):
        return self.identity is True


def p4_normal_form(f, psi):
    """The P^4 classification as one exact identity: with x = A·y, where
    A's columns are W's reduced echelon rows and then the unit vectors off
    their pivots, so that Π = P(W) is {y3 = y4 = 0},

        f∘A ≡ Σ_k Q^k·P_k(y3, y4),   Q = Σ_{i≤2} y_i·M_i(y3, y4),

    recovered from ψ_g and checked in integers.  This stage alone decides
    whether ψ_g's image spans Π.

    Steps, each exact, each failure a named violation:
    - q'_j = q_j∘A, for ψ_g's coordinates q_j on W (`PsiMap.coordinates`),
      are its coordinates in y, since
      A⁻¹·ψ_g(A·y) = (q_0, q_1, q_2, 0, 0)(A·y).  They must be binary
      forms in (y3, y4); then the image curve is C = q'(P^1), irreducible.
    - M = N/g for N = ∂_3 q' × ∂_4 q', g the gcd of the three binary forms
      (`poly.binary_gcd`), scaled to coprime integers.  The image is a point
      exactly when N ≡ 0, and a line of Π exactly when M is constant: if
      c·q' ≡ 0, then c is orthogonal to ∂_3 q' and ∂_4 q', so N ∥ c;
      conversely a constant M is orthogonal to both, and Euler's identity
      below gives ⟨M, q'⟩ ≡ 0.  Otherwise the image spans Π.
    - With M_i0 the first nonzero M_i, f∘A at y_i = 0 (i ≤ 2, i ≠ i0) is
      Σ_k y_i0^k·M_i0^k·P_k, so P_k is its y_i0^k coefficient divided
      exactly by M_i0^k (`poly.binary_quotient`), and mu is its degree in
      y_i0.
    - L, the lcm of the denominators of the P_k, and the identity
      L·f∘A ≡ Σ_k Q^k·(L·P_k) by Horner's rule in Q, in integers when f is.

    Why the identity certifies the tangency of every hyperplane section
    through Π, which `p4_section_check` samples.  Such a hyperplane H is
    a·y4 = b·y3, that is (y3, y4) = t·c for c = (a, b).  On H, M_i and P_k
    are t^(deg M)·M_i(c) and t^(deg P_k)·P_k(c), so f∘A|_H is a form in
    the two linear forms t and ℓ_c = ⟨M(c), (y0, y1, y2)⟩: H ∩ V(f) is a
    cone whose vertex contains the line L_c = {t = ℓ_c = 0} of Π (t = 0 is
    Π), for every c with M(c) ≠ 0.  The cross product makes
    ⟨M, ∂_3 q'⟩ ≡ ⟨M, ∂_4 q'⟩ ≡ 0, and Euler's identity
    δ·q' = y3·∂_3 q' + y4·∂_4 q' (δ = deg q') then gives ⟨M, q'⟩ ≡ 0.  So
    L_c passes through q'(c) and holds the tangent direction of C there:
    L_c is the tangent line of C at q'(c), at every c, not at a sample of
    them."""
    if f.nvars != 5:
        raise DomainError("the P^4 stages need a form on P^4")
    pivots = [next(i for i, x in enumerate(w) if x) for w in psi.relation.span]
    if len(pivots) != 3:
        return NormalFormReport((), (), (), (), None, "W is not a plane")
    change = tuple(zip(*psi.relation.span, *(_IDENTITY[j] for j in range(5) if j not in pivots)))
    fa, image = f, psi.coordinates
    if change != _IDENTITY:
        rows = [Polynomial.linear_form(list(row)) for row in change]
        fa, image = f.compose(rows), tuple(q.compose(rows) for q in image)
    if any(q.variables_used() - {3, 4} for q in image):
        return NormalFormReport(change, (), (), (), None, "ψ_g depends on more than the pencil coordinates")
    d3, d4 = [q.partial(3) for q in image], [q.partial(4) for q in image]
    cross = [d3[i] * d4[j] - d3[j] * d4[i] for i, j in ((1, 2), (2, 0), (0, 1))]
    if not any(cross):
        return NormalFormReport(change, image, (), (), None, "M ≡ 0: ∂_3 q' and ∂_4 q' are dependent")
    g = binary_gcd(cross)
    tangents = [binary_quotient(c, g) for c in cross]
    if None in tangents:
        raise InternalCheckError("the gcd of the cross product does not divide it")
    i0 = next(i for i, m in enumerate(tangents) if m)
    scale = rational_content([c for m in tangents for c in m.coefficients()])
    if tangents[i0].leading()[1] < 0:
        scale = -scale
    tangents = tuple(m.scale(1 / scale) for m in tangents) if scale != 1 else tuple(tangents)
    report = NormalFormReport(change, image, tangents, (), None, None)
    if not report.spans_plane:
        return report._replace(violation="M is constant: the image spans a line of Π")
    # f∘A at y_i = 0 for i <= 2, i != i0: its y_i0^k coefficients
    others = [i for i in range(3) if i != i0]
    coefficients = {}
    for e, c in fa.as_dict().items():
        if not any(e[i] for i in others):
            coefficients.setdefault(e[i0], {})[(0, 0, 0, *e[3:])] = c
    parts = []
    for k in range(max(coefficients, default=0) + 1):
        part = binary_quotient(Polynomial(5, coefficients.get(k, {})), tangents[i0] ** k)
        if part is None:
            return report._replace(violation=f"the coefficient of y{i0}^{k} is not divisible by M_{i0}^{k}")
        parts.append(part)
    l = math.lcm(*(c.denominator for p in parts for c in p.coefficients()))
    q = tangents[0].times_variable(0) + tangents[1].times_variable(1) + tangents[2].times_variable(2)
    total = Polynomial.zero(5)
    for part in reversed(parts):
        total = total * q + (part if l == 1 else part.scale(l))
    identity = total == (fa if l == 1 else fa.scale(l))
    return report._replace(parts=tuple(parts), identity=identity, violation=None if identity else "f∘A ≢ Σ_k Q^k·P_k")


def p4_plane_curve_check(normal):
    """The curve C of ψ_g's image on Π = P(W), in W's basis, off the binary
    image q' the normal form certified, when it spans Π.  For e = 2, …,
    D = deg q' (q' maps P^1 onto C, so deg C divides D), the kernel of
    G ↦ G(q'), one column per q'^α, is the degree-e part of C's ideal, which
    is principal as C is irreducible: the first nonzero one is one line, C's
    equation, primitive with a positive leading coefficient.  Its re-check
    certifies G(q') ≡ 0, so G(q) ≡ 0 as q' = q∘A."""
    if normal.spans_plane:
        image = normal.image
        products = dict(zip(monomials_of_degree(3, 1), image))
        for e in range(2, image[0].degree() + 1):
            monos, below = monomials_of_degree(3, e), products
            # q'^α = q'^(α − u_j)·q'_j, j the first index with α_j > 0
            products = {}
            for m in monos:
                j = next(i for i, a in enumerate(m) if a)
                products[m] = below[m[:j] + (m[j] - 1,) + m[j + 1:]] * image[j]
            basis = kernel(ScalarMatrix.from_polynomials(list(products.values())).transpose())
            if len(basis) > 1:
                raise InternalCheckError(f"the image's curve has {len(basis)} independent equations of degree {e}")
            if basis:
                return PlaneCurveReport(curve=Polynomial(3, dict(zip(monos, basis[0]))), curve_degree=e)
    return PlaneCurveReport(curve=None, curve_degree=None)


class SectionRecord(NamedTuple):
    pencil_value: Fraction
    dual_point: tuple             # the hyperplane, primitive
    vanishes: bool
    vertex_dim: int
    tangency_status: str          # tangent | line_in_curve | failed | no_line
    tangency_point: Optional[tuple]
    vertex_line: Optional[tuple]  # two points of the vertex line, in Π's coordinates


class SectionReport(NamedTuple):
    precondition: Optional[str]
    records: tuple
    violations: tuple

    @property
    def ok(self):
        return self.precondition is None and not self.violations


def p4_section_check(f, psi, curve_report, chart_count=5, seed=0):
    """Test oracle for `p4_normal_form`, which certifies what it samples:
    hyperplane sections through the core plane Π = P(W) must be
    vanishing-Hessian cones with a vertex line, and that line (inside Π)
    must meet the interpolated curve in a repeated root: the tangency of
    the theorem."""
    if not curve_report.ok:
        return SectionReport(
            precondition="plane-curve stage did not complete", records=(), violations=()
        )
    basis = psi.relation.span
    pencil = kernel(ScalarMatrix(basis))
    if len(pencil) != 2:
        raise InternalCheckError("the pencil through a rank-3 span is not 2-dimensional")
    a1, a2 = pencil
    records = []
    violations = []
    used = set()
    attempts = 0
    while len(records) < chart_count and attempts < chart_count * 8:
        rng = substream(seed, "pencil", attempts)
        attempts += 1
        c = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        if c in used:
            continue
        # the hyperplane a1 + c·a2, as a primitive integer dual point
        dual = primitive_vector([c.denominator * x + c.numerator * y for x, y in zip(a1, a2)])
        if not any(dual):
            continue
        chart = chart_for_hyperplane(dual)
        try:
            section = restrict(f, chart)
        except RestrictionZeroError:
            continue
        used.add(c)
        # a vertex proves the Hessian zero: D_v s ≡ 0 makes H_s·v ≡ 0
        vertex = cone_test(section)
        vanishes = vertex.is_cone or hessian_vanishes(section, seed=seed).vanishes
        if not vanishes:
            violations.append(f"section at c={c} has nonvanishing Hessian")
        # the vertex line lies in Π: read it in Π's coordinates
        zeta = [_span_coordinates(basis, chart.embed_point(v)) for v in vertex.basis]
        status, point, line = "no_line", None, None
        if vertex.projective_dim < 1:
            violations.append(f"section at c={c} has vertex dimension {vertex.projective_dim}")
        elif None in zeta:
            violations.append(f"section at c={c}: vertex does not meet Π in a line")
        else:
            # the line through the first two vertex vectors, as pairs of Π
            # coordinates; the curve has degree at least 2, so it restricts
            # to zero or to a binary form whose repeated root is sought
            line = list(zip(*zeta[:2]))
            restricted = curve_report.curve.compose([Polynomial.linear_form(p) for p in line])
            status = "tangent"
            if restricted.is_zero():
                status = "line_in_curve"
            else:
                repeated, root = repeated_root(restricted)
                if not repeated:
                    status = "failed"
                    violations.append(f"section at c={c}: tangency double root missing")
                elif root is not None:
                    u, v = root
                    point = primitive_vector([u * z1 + v * z2 for z1, z2 in line])
        records.append(
            SectionRecord(
                pencil_value=c,
                dual_point=dual,
                vanishes=vanishes,
                vertex_dim=vertex.projective_dim,
                tangency_status=status,
                tangency_point=point,
                vertex_line=tuple(zeta[:2]) if line else None,
            )
        )
    return SectionReport(precondition=None, records=tuple(records), violations=tuple(violations))

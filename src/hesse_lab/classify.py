"""Desk-scale verification of the classification statements.

Covers the low-dimension equivalence (vanishing Hessian ⇔ cone for at most
three projective dimensions), the small-polar-image corollary, and the
structure of vanishing-Hessian non-cones in P^4: the ψ_g image, read in the
coordinates of W's reduced echelon basis, spans the plane P(W) and lies on
a plane curve, its certified least relation (`psi.least_relation`), and
hyperplane sections through that plane are cones whose vertex line is
tangent to the curve: a repeated root of the curve on that line
(`poly.repeated_root`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .cones import chart_for_hyperplane, cone_test, restrict
from .errors import DomainError, InternalCheckError, RestrictionZeroError
from .fields import substream
from .hessian import hessian_vanishes, polar_image_dim, rank_verdict, sample_kernels
from .linalg import ScalarMatrix, kernel, primitive_vector, random_invertible, rank
from .poly import Polynomial, is_reduced, linear_combination, monomials_of_degree, repeated_root
from .psi import least_relation

MAX_CURVE_DEGREE = 6


# ----------------------------------------------------------------------
# low-dimension equivalence suite

class LowDimRecord(NamedTuple):
    n: int
    kind: str                 # "cone" | "generic"
    degree: int
    vanishes: bool
    cone_dim: int
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
                        cone_dim=cone_dim,
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
# P^4 structure: plane span, certified curve, hyperplane sections

class PlaneCurveReport(NamedTuple):
    span_rank: int
    span_basis: tuple                 # W's reduced echelon rows; () unless a plane
    curve: Optional[Polynomial]       # in the 3 coordinates of W's basis
    curve_degree: Optional[int]
    irreducibility_unverified: bool
    points_used: int                  # points the search read at the curve's degree

    @property
    def ok(self):
        return self.span_rank == 3 and self.curve is not None


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


def p4_plane_curve_check(f, psi):
    """ψ_g = Σ_j q_j·w_j takes its values in W, whose rows w_j are in reduced
    echelon form, so in their coordinates the image is (q_0 : … : q_k),
    q_j = h_c/w_j[c] at the pivot column c of w_j, re-checked exactly.  It
    spans P(W) when the q_j are independent (`span_rank`, their exact rank),
    and on a plane Π = P(W) its curve is the certified least relation among
    q_0, q_1, q_2 up to MAX_CURVE_DEGREE (`least_relation`), so its equation
    and degree are exact; irreducibility is only recorded as unverified.
    ψ's re-checked relation already proves h_f ≡ 0, and `build_psi` refuses
    the degree-1 relation of a cone, so neither fact is decided again here."""
    if f.nvars != 5:
        raise DomainError("the plane-curve stage needs a form on P^4")
    span = psi.relation.span
    pivots = [next(i for i, x in enumerate(w) if x) for w in span]
    l = math.lcm(*(w[c] for w, c in zip(span, pivots)))
    qs = [psi.h[c].scale(l // w[c]) for w, c in zip(span, pivots)]   # l·q_j
    for i, hi in enumerate(psi.h):
        if linear_combination(f.nvars, zip((w[i] for w in span), qs)) != hi.scale(l):
            raise InternalCheckError("ψ_g takes a value outside W")
    span_rank = rank(ScalarMatrix.from_polynomials(qs))
    plane = span_rank == len(span) == 3
    relation, points = None, 0
    if plane:
        unit = tuple(tuple(int(i == j) for i in range(3)) for j in range(3))
        relation, points = least_relation(qs, unit, MAX_CURVE_DEGREE)
    return PlaneCurveReport(
        span_rank=span_rank,
        span_basis=span if plane else (),
        curve=relation.g if relation else None,
        curve_degree=relation.degree if relation else None,
        irreducibility_unverified=True,
        points_used=points,
    )


class SectionRecord(NamedTuple):
    pencil_value: Fraction
    vanishes: bool
    vertex_dim: int
    tangency_status: str          # tangent | line_in_curve | failed | no_line
    tangency_point: Optional[tuple]


class SectionReport(NamedTuple):
    precondition: Optional[str]
    records: tuple
    violations: tuple

    @property
    def ok(self):
        return self.precondition is None and not self.violations


def p4_section_check(f, curve_report, chart_count=5, seed=0):
    """Hyperplane sections through the core plane Π must be vanishing-Hessian
    cones with a vertex line, and that line (inside Π) must meet the
    interpolated curve in a repeated root: the tangency of the theorem."""
    if not curve_report.ok:
        return SectionReport(
            precondition="plane-curve stage did not complete", records=(), violations=()
        )
    basis = curve_report.span_basis
    pencil = [list(v) for v in kernel(ScalarMatrix([list(b) for b in basis]))]
    if len(pencil) != 2:
        raise InternalCheckError("the pencil through a rank-3 span is not 2-dimensional")
    a1, a2 = (primitive_vector(v) for v in pencil)
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
        zeta = [
            _span_coordinates(basis, chart.embed_point(primitive_vector(v)))
            for v in vertex.basis
        ]
        status, point = "no_line", None
        if vertex.projective_dim < 1:
            violations.append(f"section at c={c} has vertex dimension {vertex.projective_dim}")
        elif None in zeta:
            violations.append(f"section at c={c}: vertex does not meet Π in a line")
        else:
            # the line through the first two vertex vectors, as pairs of Π
            # coordinates; the curve has degree 2..MAX_CURVE_DEGREE
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
                vanishes=vanishes,
                vertex_dim=vertex.projective_dim,
                tangency_status=status,
                tangency_point=point,
            )
        )
    return SectionReport(precondition=None, records=tuple(records), violations=tuple(violations))

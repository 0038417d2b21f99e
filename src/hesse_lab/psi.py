"""Polar relations, the composed map ψ_g, and the identity battery.

Given f with vanishing Hessian, the partials satisfy a polynomial relation
g(f_0,…,f_n) = 0, searched for on a given W, the span of the kernels of
H_f, from degree 2 on a non-cone, and certified symbolically
(`find_polar_relation`).
The forms F_j = ⟨w_j, ∇f⟩ on the rows of W often share a factor c; taking
it out changes no relation, since G(c·F') = c^e·G(F') for G of degree e, so
the search runs on the F'_j = F_j/c.  The search is the least-degree
relation among forms of one degree (`least_relation`).  The map ψ_g has
components h_i = (∂g/∂y_i ∘ ∇f)/ρ = Σ_j w_{j,i}·P_j/ρ, over the relation's
k+1 parts P_j = c^(e−1)·P'_j (`PolarRelation`); the gcd fold of the reduced
parts P'_j returns ρ' with each q_j = P'_j/ρ', and ρ = c^(e−1)·ρ', so
nothing is divided; ψ_g keeps the q_j as its coordinates on W (`PsiMap`).
Everything the relation implies (translation invariance, the base-locus and
singular-locus inclusions, fiber cones, the lines joining image points) is
checked symbolically.  The checks are Z-linear in the form, so `poly`
checks a family at once, packed on its index, and psi does no digit
arithmetic: the battery costs one expansion F(x + λh) of the family
(`poly.vanishing`), whose λ¹ part is the derivative side Σ_j ∂_jF·h_j, a
relation's certificate one product (`poly.dot`), and the lines one
composition F∘L over the span of the image (`check_fiber_lines`).
Exact samples of the ψ_g and polar images at integer points (`sample_image`,
`sample_polar_image`, the kept components or partials evaluated) are test
oracles only: no report block samples either image.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DomainError, InternalCheckError, SampleBudgetError
from .fields import rational_content, substream
from .linalg import ScalarMatrix, kernel, primitive_vector, projectively_equal, reduced_row_basis
from .poly import Polynomial, dot, gcd_cofactors, gcd_list, linear_combination, monomials_of_degree, vanishing

DEFAULT_MAX_RELATION_DEGREE = 8


class _Relation(NamedTuple):
    g: Polynomial                 # in y_0..y_n
    degree: int
    certificate: Polynomial       # Σ_j F'_j·(∂_jG)(F') = e·G(F'); must be zero
    parts: tuple                  # (∂_jG)(F'), the reduced parts P'_j
    span: tuple                   # the rows w_j
    factor: Polynomial            # c, with F_j = c·F'_j; the constant 1 when nothing is taken out


class PolarRelation(_Relation):
    """g with g(f_0,…,f_n) ≡ 0.

    g(y) = G(⟨w_0, y⟩, …, ⟨w_k, y⟩) for rows w_j spanning W, and G is
    certified on the reduced forms F'_j, with F_j = ⟨w_j, ∇f⟩ = c·F'_j, by
    Euler's identity, Σ_j F'_j·(∂_jG)(F') = e·G(F') for G of degree e.  Then
    g(∇f) = G(F) = c^e·G(F') ≡ 0 exactly.  The k+1 reduced parts
    P'_j = (∂_jG)(F') are made once, and ψ_g is built from them and c alone:
    ∂_jG is homogeneous of degree e − 1, so (∂_jG)(F) = c^(e−1)·P'_j, and by
    the chain rule, ∂g/∂y_i ∘ ∇f = Σ_j w_{j,i}·(∂_jG)(F)."""

    __slots__ = ()

    def __new__(cls, g, degree, certificate, parts, span, factor=None):
        if not g:
            raise DomainError("a polar relation must be a nonzero polynomial")
        if not certificate.is_zero():
            raise InternalCheckError("polar relation certificate is nonzero")
        if factor is None:
            factor = Polynomial.constant(parts[0].nvars, 1)
        return super().__new__(cls, g, degree, certificate, parts, span, factor)

    @classmethod
    def from_partials(cls, G, forms, span):
        """Certify G(F) ≡ 0 for forms F_j, here taken as the F'_j with
        c = 1, on the rows of span; None when the certificate is nonzero, so
        G is no relation.  G and the parts are scaled so that g has coprime
        integer coefficients and a positive leading one."""
        parts = [G.partial(j).compose(forms) for j in range(G.nvars)]
        euler = dot(forms, parts)
        if euler:
            return None
        g = G.compose([Polynomial.linear_form(w) for w in span])
        scale = 1 / rational_content(g.coefficients())
        if g.leading()[1] < 0:
            scale = -scale
        if scale != 1:
            g, parts = g.scale(scale), [p.scale(scale) for p in parts]
        return cls(g=g, degree=g.degree(), certificate=euler, parts=tuple(parts), span=span)


class PsiMap(NamedTuple):
    """ψ_g = (h_0 : … : h_n) with provenance (g, ρ): ρ·h_i = g_i for
    g_i = ∂g/∂y_i ∘ ∇f = Σ_j w_{j,i}·c^(e−1)·(∂_jG)(F'), from the
    relation's reduced parts and its factor c.  h = Σ_j q_j·w_j over the
    relation's rows w_j: ψ_g's image lies in P(W), in coordinates q."""

    relation: PolarRelation
    rho: Polynomial               # gcd of the parts (∂_jG)(F), scaled so ρ·h_i = g_i exactly
    h: tuple                      # components with gcd 1 and integer content 1
    coordinates: tuple            # q_0, …, q_k with h_i = Σ_j w_{j,i}·q_j, over relation.span

    @property
    def nvars(self):
        return self.h[0].nvars

    def evaluate(self, point):
        """ψ_g at an exact point, or None on the base locus."""
        vals = tuple(hi.evaluate(point) for hi in self.h)
        if not any(vals):
            return None
        return vals


class SampledSet(NamedTuple):
    """Exact sampled stand-in for a locus defined only as a closure."""

    points: tuple                 # normalized projective points
    preimages: tuple              # parallel provenance (() when not applicable)

    def reverify(self, psi):
        """Each stored image point must equal ψ of its stored preimage."""
        for pt, pre in zip(self.points, self.preimages):
            val = psi.evaluate(pre)
            if val is None or not projectively_equal(val, pt):
                return False
        return True


def _relation_points(nvars, width):
    """Endless seeded integer points with coordinates in [-width, width]."""
    rng = substream(0, "relation-points", nvars, width)
    while True:
        yield tuple(rng.randint(-width, width) for _ in range(nvars))


def least_relation(forms, span, max_degree):
    """The least-degree relation G(F) ≡ 0, 2 <= deg G <= max_degree, among
    nonzero forms F_j of one degree D, as a `PolarRelation` on the rows of
    span, or None up to the cap.  For each degree e, the exact kernel of the
    degree-e monomials in z at F of C(k+e, e) + 2 seeded integer points
    contains every such G, so an empty one rules e out.  Each basis vector G is
    certified (`PolarRelation.from_partials`), and one that fails gets a row
    at a point where G(F) ≠ 0, until the kernel is the relation space.  The
    primitive integer basis vector on the earliest monomials in z wins."""
    rows = []
    for e in range(2, max_degree + 1):
        monos = monomials_of_degree(len(forms), e)

        def row(point):
            values = [F.evaluate(point) for F in forms]
            return [math.prod(v ** a for v, a in zip(values, m) if a) for m in monos]

        # a nonzero G(F) has degree e·D, so it cannot vanish on a grid with
        # more than e·D values per coordinate
        points = _relation_points(forms[0].nvars, e * forms[0].degree())
        rows = [row(next(points)) for _ in range(len(monos) + 2)]
        while True:
            nrows, relations = len(rows), []
            for vec in kernel(ScalarMatrix(rows)):
                G = Polynomial(len(forms), {m: c for m, c in zip(monos, vec) if c})
                relation = PolarRelation.from_partials(G, forms, span)
                if relation is not None:
                    relations.append((vec, relation))
                    continue
                # a row where G(F) ≠ 0 takes G out of the kernel
                rows.append(next(r for r in map(row, points) if sum(map(operator.mul, r, vec))))
            if len(rows) == nrows:
                break
        if relations:
            # columns run graded-lex descending, so preferring support on the
            # earliest monomials means taking the lexicographically greatest vector
            return max(relations, key=operator.itemgetter(0))[1]
    return None


def find_polar_relation(f, span, max_degree=DEFAULT_MAX_RELATION_DEGREE):
    """Smallest-degree relation among the partials, or None up to the cap.

    f must not be a cone: a linear relation is D_v f ≡ 0, a vertex v, which
    `cones.cone_test` reports, so the search starts at degree 2, and a form
    F_j ≡ 0 below (w_j a vertex) raises DomainError.  The polar image is a
    cone over P(W), W the span of the kernels of H_f, so its lowest-degree
    relations are the least relation (`least_relation`) among the k+1 forms
    F_j = ⟨w_j, ∇f⟩, w_j the rows of `span`, which the caller samples
    (`hessian.sample_kernels`).  A W that is too small can hide a relation
    but never fake one.  The search runs on F'_j = F_j/c, c their gcd made
    primitive over Z with a positive leading coefficient, so the F'_j are
    integral when the F_j are (Gauss): G(F) = c^e·G(F') for G of degree e,
    so the two families have the same relations, and the same G wins.  The
    relation carries c, and its certificate is Euler's identity on the F'_j.
    The parts (∂_jG)(F') do not all vanish, or a nonzero ∂_jG would be a
    relation of degree e − 1: a vertex, or one found before.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    if not f or not f.is_homogeneous() or f.degree() < 2:
        raise DomainError("expects a homogeneous polynomial of degree >= 2")
    if not span:
        return None  # H_f is invertible somewhere, so the partials are independent
    forms = [linear_combination(f.nvars, zip(w, f.gradient())) for w in span]
    if not all(forms):
        raise DomainError("⟨w, ∇f⟩ ≡ 0 for a row w of W: V(f) is a cone with vertex w")
    factor, reduced = gcd_cofactors(forms)
    relation = least_relation(reduced, span, max_degree)
    return relation._replace(factor=factor) if relation else None


def build_psi(f, relation):
    """Assemble ψ_g from a polar relation: take out ρ = gcd of the k+1 parts
    P_j = (∂_jG)(F), the gcd of the g_i = Σ_j w_{j,i}·P_j as well.  Each
    P_j = c^(e−1)·P'_j for the relation's factor c and reduced parts P'_j
    (`PolarRelation`), so ρ = c^(e−1)·ρ' for ρ' the gcd of the P'_j, and
    P_j/ρ = P'_j/ρ'.  The gcd fold of the P'_j returns each q_j = P'_j/ρ',
    so h_i = Σ_j w_{j,i}·q_j needs no division, and ρ·h_i = g_i; the q_j
    are ψ_g's coordinates on W.  W's rows are independent, so
    gcd(h) = gcd(q), checked on the k+1 q_j.  Constant parts P_j, as of a
    degree-1 relation, or zero ones mean a cone, outside the standing
    hypothesis: `cones.cone_test` decides cones, and callers reach this only
    for non-cones.
    """
    # deg P_j = deg P'_j + (e − 1)·deg c
    shift = (relation.degree - 1) * relation.factor.degree()
    if all(not part or part.degree() + shift <= 0 for part in relation.parts):
        raise DomainError("every part (∂_jG)(F) is constant: V(f) is a cone, and ψ_g needs a non-cone")
    rho, quotients = gcd_cofactors(relation.parts)
    h = [linear_combination(f.nvars, zip((w[i] for w in relation.span), quotients)) for i in range(f.nvars)]
    content = rational_content([c for hi in h for c in hi.coefficients()])
    if content != 1:
        rho = rho.scale(content)
        h = [hi.scale(1 / content) for hi in h]
        quotients = [q.scale(1 / content) for q in quotients]
    if gcd_list(quotients).degree() != 0:
        raise InternalCheckError("components h_i still share a factor")
    if shift:
        for _ in range(relation.degree - 1):  # ρ = c^(e−1)·ρ'
            rho = relation.factor * rho
    return PsiMap(relation=relation, rho=rho, h=tuple(h), coordinates=tuple(quotients))


class InvarianceCheck(NamedTuple):
    """Both sides of the translation-invariance equivalence for one F."""

    derivative_zero: bool         # Σ ∂F/∂x_i · h_i = 0
    invariant: bool               # F(x) = F(x + λ·ψ_g(x))
    image_zero: bool              # F(h_0,…,h_n) = 0

    @property
    def agree(self):
        return self.derivative_zero == self.invariant


def check_invariance(forms, psi):
    """For each F in forms, both sides of Σ F_i h_i = 0  ⇔  F(x) = F(x + λψ_g(x)),
    and F(h) ≡ 0; the sides must agree, or the theorem itself is falsified.

    All symbolic, read off the λ-parts of the one expansion F_k(x + λ·h(x))
    of the whole family (`poly.vanishing`, whose docstring bounds its
    digits).  The λ¹ part is Σ_i ∂_iF_k·h_i (Taylor), and F_k is invariant
    when every part of λ-exponent ≥ 1 vanishes.  F_k is homogeneous, of
    degree D say, so F_k(h) is its λ^D part (Taylor's argument forces it to
    vanish when Σ F_i h_i = 0).
    """
    for F in forms:
        if F.nvars != psi.nvars:
            raise DomainError("F must live in the same variables as ψ_g")
        if not F.is_homogeneous():
            raise DomainError("F must be homogeneous")
    n1 = psi.nvars
    # x_i + λ·h_i(x) in (x_0..x_n, λ)
    by_lambda = vanishing(forms, [
        Polynomial.variable(n1 + 1, i) + hi.extend(n1 + 1).times_variable(n1) for i, hi in enumerate(psi.h)
    ], n1)
    absent = [True] * len(forms)
    return [
        InvarianceCheck(
            derivative_zero=by_lambda.get(1, absent)[k],
            invariant=all(zero[k] for a, zero in by_lambda.items() if a),
            image_zero=by_lambda.get(F.degree(), absent)[k],
        )
        for k, F in enumerate(forms)
    ]


def _sample_values(values, nvars, count, seed, stream):
    """Distinct primitive-integer values of the map x -> values(x) at seeded
    integer points, skipping points where every component vanishes.  The
    preimage of every value is stored alongside it.
    """
    points, preimages, seen = [], [], set()
    budget = max(40 * count, 40)
    for s in range(budget):
        if len(points) == count:
            break
        rng = substream(seed, stream, s)
        pt = tuple(rng.randint(-20, 20) for _ in range(nvars))
        val = values(pt)
        if not any(pt) or not any(val):
            continue
        norm = primitive_vector(val)
        if norm in seen:
            continue
        seen.add(norm)
        points.append(norm)
        preimages.append(pt)
    return SampledSet(points=tuple(points), preimages=tuple(preimages))


def sample_image(psi, count, seed):
    """Distinct exact points of ψ_g(P^n), skipping the base locus, each
    stored with its preimage.  Errors only if no image point is found at
    all (ψ_g undefined generically).
    """
    image = _sample_values(lambda pt: [hi.evaluate(pt) for hi in psi.h], psi.nvars, count, seed, "image")
    if count > 0 and not image.points:
        raise SampleBudgetError("ψ_g is undefined at every sampled point")
    return image


def sample_polar_image(f, count, seed):
    """Distinct exact points of the polar map's image: the tangent-hyperplane
    locus Z(f) sampled through f's kept partials, skipping singular points."""
    if not f or f.degree() < 1:
        raise DomainError("polar map needs a nonzero polynomial of degree >= 1")
    gradient = f.gradient()
    image = _sample_values(lambda pt: [fi.evaluate(pt) for fi in gradient], f.nvars, count, seed, "polar_image")
    if count > 0 and not image.points:
        raise SampleBudgetError("the polar map vanished at every sampled point")
    return image


def check_fiber_lines(f, psi):
    """Every line joining two points of the ψ_g image lies in
    Bs(ψ_g) ∩ Sing V(f), with no sample: h∘L ≡ 0 and ∂_i f∘L ≡ 0 for every
    i, where L(s) = Σ_r s_r·v_r over the reduced row basis v_r of V, the
    span of the coefficient columns of (h_0, …, h_n).  V holds every value
    h(x) = Σ_e x^e·c_e, c_e the column of monomial e, so every image point
    and every line joining two of them lie in P(V), which the check puts in
    both loci.

    One composition of the family of the nonzero h_i and partials with L
    (`poly.vanishing`, whose docstring bounds its digits) shows every
    F_k∘L ≡ 0.

    The battery's other claims about the image are implied, not sampled:
    - that image points lie in Bs(ψ_g) and in Sing V(f), by
      `image_in_base_locus_symbolic` (h∘h ≡ 0) and
      `image_in_singular_locus_symbolic` (∇f∘h ≡ 0) at every point;
    - that ψ_g is constant on the fiber line p + λψ_g(p), by
      `components_invariant`, h(x + λh(x)) ≡ h(x) for every λ;
    - that g vanishes on the polar image, by the relation's Euler
      certificate g(∇f) ≡ 0 (`PolarRelation`)."""
    basis = reduced_row_basis(ScalarMatrix.from_polynomials(psi.h).transpose().entries)
    line = [Polynomial.linear_form(column) for column in zip(*basis)]
    family = [p for p in (*psi.h, *f.gradient()) if p]
    return all(all(zero) for zero in vanishing(family, line, 0).values())

"""The determinant-based construction of vanishing-Hessian forms.

Data of type (n, t, m): forms h_i(y_0..y_m) of one degree, forms
ψ_j(x_{t+1}..x_n) of one degree, and constant rows a^(ℓ).  Each Q_ℓ is the
determinant of the (t+1)×(t+1) matrix stacking (x_0..x_t), the rows
∂h_i/∂y_j evaluated at y = ψ, and the constants.  Only the first row holds
x_0..x_t, so Q_ℓ = Σ M_{ℓ,i}·x_i.  Its first-row cofactors M_{ℓ,i}, of degree
s-1 in the tail variables, come from Laplace along the ψ-rows (`build_Q`),
whose minors every Q_ℓ shares.  Evaluating at y = ψ is a ring homomorphism
Q[y_0..y_m] → Q[x], so every minor, cofactor and annihilation identity is
formed in the m+1 variables y and composed with ψ once: the minors
det J[:,T] of the rows J[j][i] = ∂h_i/∂y_j come from one
`poly.ColumnMinors` memo on term dicts, as the table of their coefficients
at the monomials y^γ of their degree.  The scalar minors of the constant
rows come from one straight-line program of their Laplace expansion
(`_block_minors`).  Each cofactor M̃_{ℓ,i} in Q[y] is kept as its
coefficient row over the y^γ, the signed scalar minors times that table,
and the annihilation check runs on those rows.  The subsets, signs and
that program depend on (t, m) alone and are kept per (t, m)
(`_laplace_plan`).  Each M_{ℓ,i} = M̃_{ℓ,i}∘ψ is read off one level of the
powers ψ^γ (`poly.power_levels`, `poly.linear_combinations`), and
Q_ℓ = Σ_i x_i·M_{ℓ,i} is one dict of the cofactors' keys offset by x_i's
unit (`poly.head_linear_form`), which checks each key for degree s-1 and
tail support on the way.  The output form is f = Σ_k P_k(Q_1..Q_{t-m},
x_{t+1}..x_n) for biforms P_k of bidegree (k, d-k·s), and it always has
vanishing Hessian; `poly.substitute_forms` makes the tail variables key
offsets and spends one packed product in the Q_ℓ per z-degree of Σ_k P_k.
No step calls `compose`.
A skeleton is refused before any draw when d reaches the exponent field's
FIELD_LIMIT or its dense biforms would pass MAX_BIFORM_TERMS terms.
"""

from __future__ import annotations

import functools
import operator
from itertools import combinations, islice
from math import comb
from typing import NamedTuple

from .cones import VertexSubspace, cone_test
from .errors import DegenerateDataError, InternalCheckError, RetryBudgetError, ValidationError
from .fields import norm_coeff, substream
# Nothing here calls symbolic_determinant.  The binding stays only because
# bench/spans.py rebinds this copy, and bench/test_bench.py and
# tests/test_bench_targets.py read it; drop it with them at the next change
# to the benchmark (ROADMAP item 1a).
from .hessian import symbolic_determinant  # noqa: F401
from .poly import (
    FIELD_LIMIT,
    ColumnMinors,
    Polynomial,
    head_linear_form,
    linear_combinations,
    monomials_of_degree,
    power_levels,
    substitute_forms,
)

RETRY_BUDGET = 8
# The most terms the dense biforms P_k of one skeleton may have; the largest
# skeleton in the tests, goldens and benchmark, 9,4,1,2,1,8, has 963, and
# `generate` on 9,4,1,2,1,14 (11610) takes 3.4 s and 86 MB on a 2-core x86 host
MAX_BIFORM_TERMS = 10_000


def _shape_violations(n, t, m):
    out = []
    if t < m + 1:
        out.append(f"t >= m+1 violated (t={t}, m={m})")
    if not 2 <= t:
        out.append(f"2 <= t violated (t={t})")
    if not t <= n - 2:
        out.append(f"t <= n-2 violated (t={t}, n={n})")
    if not 1 <= m:
        out.append(f"1 <= m violated (m={m})")
    if not m <= n - t - 1:
        out.append(f"m <= n-t-1 violated (m={m}, n={n}, t={t})")
    return out


class GNSkeleton(NamedTuple):
    """Shape of an instance before coefficients are drawn."""

    n: int
    t: int
    m: int
    hdeg: int
    psideg: int
    d: int

    @property
    def expected_s(self):
        return 1 + (self.m + 1) * (self.hdeg - 1) * self.psideg

    @property
    def expected_mu(self):
        return self.d // self.expected_s

    @property
    def promises_non_cone(self):
        """General data of this shape gives a non-cone: μ > n-t-2."""
        return self.expected_mu > self.n - self.t - 2

    def violations(self):
        """Structural constraints, checkable before any polynomial is built."""
        out = _shape_violations(self.n, self.t, self.m)
        if self.hdeg < 1:
            out.append(f"hdeg >= 1 violated (hdeg={self.hdeg})")
        if self.psideg < 0:
            out.append(f"psideg >= 0 violated (psideg={self.psideg})")
        elif self.hdeg >= 1 and self.expected_s == 1:
            # every Q_l is then a linear form with constant coefficients, so
            # f depends on only n-m linear forms: always a cone
            out.append(
                f"s >= 2 violated (s=1 as hdeg={self.hdeg}, psideg={self.psideg}; "
                "the Q_l are constant linear forms, so every draw is a cone)"
            )
        elif self.hdeg >= 1 and not self.d >= self.expected_s:
            out.append(f"d >= s violated (d={self.d}, s={self.expected_s})")
        if self.d >= FIELD_LIMIT:
            out.append(f"d < {FIELD_LIMIT} violated (d={self.d}; an exponent of f must stay below {FIELD_LIMIT})")
        elif not out and _dense_biform_terms(self) > MAX_BIFORM_TERMS:
            out.append(
                f"biform terms <= {MAX_BIFORM_TERMS} violated "
                f"(the dense P_k would have more than {MAX_BIFORM_TERMS} terms)"
            )
        return out


def _dense_biform_terms(skel):
    """The terms of the dense biforms P_k of bidegree (k, d-k·s), k = 0..μ,
    that a draw of shape skel fills: Σ_k C(t-m+k-1, k)·C(n-t+d-k·s-1, d-k·s),
    summed only until it passes MAX_BIFORM_TERMS."""
    n, t, m, d, s = skel.n, skel.t, skel.m, skel.d, skel.expected_s
    total = 0
    for k in range(d // s + 1):
        total += comb(t - m + k - 1, k) * comb(n - t + d - k * s - 1, d - k * s)
        if total > MAX_BIFORM_TERMS:
            break
    return total


class GNParams(NamedTuple):
    """Full construction data; ψ forms live in ambient variables but are
    supported on the tail x_{t+1}..x_n, and P_k forms use variables
    (z_1..z_{t-m}, then the tail) in their own space."""

    n: int
    t: int
    m: int
    d: int
    h_forms: tuple          # t+1 polynomials in m+1 variables
    psi_forms: tuple        # m+1 ambient polynomials on the tail
    a_consts: tuple         # (t-m) × (t-m-1) × (t+1) rationals
    p_forms: tuple          # μ+1 biforms

    def violations(self):
        n, t, m, d = self.n, self.t, self.m, self.d
        out = _shape_violations(n, t, m)
        if out:
            return out

        if len(self.h_forms) != t + 1 or not all(self.h_forms):
            out.append(f"need t+1 = {t + 1} nonzero h-forms")
        else:
            if len({h.degree() for h in self.h_forms}) != 1:
                out.append("h-forms must share one common degree")
            for h in self.h_forms:
                if h.nvars != m + 1 or not h.is_homogeneous():
                    out.append("h-forms must be homogeneous in y_0..y_m")
                    break

        if len(self.psi_forms) != m + 1 or not all(self.psi_forms):
            out.append(f"need m+1 = {m + 1} nonzero psi-forms")
        else:
            if len({p.degree() for p in self.psi_forms}) != 1:
                out.append("psi-forms must share one common degree")
            tail = set(range(t + 1, n + 1))
            for p in self.psi_forms:
                if p.nvars != n + 1 or not p.is_homogeneous():
                    out.append("psi-forms must be homogeneous in the ambient variables")
                    break
                if not p.variables_used() <= tail:
                    out.append("psi-forms must be supported on x_{t+1}..x_n")
                    break

        if len(self.a_consts) != t - m:
            out.append(f"need t-m = {t - m} constant blocks, got {len(self.a_consts)}")
        else:
            for block in self.a_consts:
                if len(block) != t - m - 1 or any(len(row) != t + 1 for row in block):
                    out.append("each constant block must be (t-m-1) x (t+1)")
                    break
        if out:
            return out

        # the worked low-degree instances have d = s, so only d < s
        # (no Q_l enters any biform) is rejected
        s = self.skeleton().expected_s
        if not d >= s:
            out.append(f"d >= s violated (d={d}, s={s})")
            return out
        mu = d // s
        if len(self.p_forms) != mu + 1:
            out.append(f"need mu+1 = {mu + 1} biforms P_k, got {len(self.p_forms)}")
            return out
        zc = t - m
        tailc = n - t
        for k, pk in enumerate(self.p_forms):
            if pk.nvars != zc + tailc:
                out.append(f"P_{k} must use {zc + tailc} variables (z block then tail)")
                continue
            for e in pk.as_dict():
                if sum(e[:zc]) != k or sum(e[zc:]) != d - k * s:
                    out.append(f"P_{k} is not bihomogeneous of bidegree ({k}, {d - k * s})")
                    break
        return out

    def skeleton(self):
        return GNSkeleton(
            n=self.n,
            t=self.t,
            m=self.m,
            hdeg=self.h_forms[0].degree() if self.h_forms else 0,
            psideg=self.psi_forms[0].degree() if self.psi_forms else 0,
            d=self.d,
        )


def validate(spec):
    """Checked params or skeleton, or a ValidationError naming every broken
    constraint.  A skeleton is refused before any draw: its structural
    constraints are all that params of its shape can break."""
    violations = spec.violations()
    if violations:
        raise ValidationError(violations)
    return spec


class GNInstance(NamedTuple):
    params: GNParams
    q_polys: tuple          # Q_1..Q_{t-m}, ambient
    m_coeffs: tuple         # (t-m) × (t+1) cofactor polynomials, ambient
    f: Polynomial
    s: int
    mu: int
    vertex: VertexSubspace  # cone test of f


@functools.cache
def _laplace_plan(t, m):
    """What the cofactors' Laplace expansion reads off (t, m) alone.

    masks: the column masks of the (m+1)-subsets T of range(t+1).
    program: the straight-line program of a constant block's minors on the
    rest sets (the columns in neither T nor {i}), run by `_block_minors`:
    one level per minor size q = 1..t-m-1, each the (row, columns, indices
    of sub-minors, signs, q) of the expansions of all minors of that size
    along row t-m-1-q.  Its last level lists the rest sets.
    weights: per column i, the (indices into those minors, signs) of the
    weight of each T in M̃_{ℓ,i}: the rest set's minor times (-1)^i·ε_i(T)
    for T ∌ i, and for T ∋ i index -1, the 0 that `_block_minors` appends."""
    full = (1 << (t + 1)) - 1
    subsets = list(combinations(range(t + 1), m + 1))
    masks = tuple(sum(1 << j for j in T) for T in subsets)
    rests, weights = {}, []
    for i in range(t + 1):
        pairs = [
            (-1, 0) if i in T else (
                rests.setdefault(full ^ (1 << i) ^ mask, len(rests)),
                (-1) ** (i + sum(j - (j > i) for j in T) + m * (m + 1) // 2),
            )
            for T, mask in zip(subsets, masks)
        ]
        weights.append(tuple(zip(*pairs)))
    program, level = [], list(rests)
    for q in range(t - m - 1, 0, -1):
        below, columns, subs, signs = {}, [], [], []
        for mask in level:
            for pos, j in enumerate(j for j in range(t + 1) if mask >> j & 1):
                columns.append(j)
                subs.append(below.setdefault(mask ^ (1 << j), len(below)))
                signs.append((-1) ** pos)
        program.append((t - m - 1 - q, tuple(columns), tuple(subs), tuple(signs), q))
        level = list(below)
    return masks, tuple(reversed(program)), tuple(weights)


def _block_minors(program, rows):
    """The minors of a constant block's rows that `program` lists, level by
    level from the empty minor 1: each minor of a level is the alternating
    sum of row entries times minors of the level below, with no memo and
    no recursion.  The last level's minors come back with a 0 appended."""
    minors = [1]
    for row, columns, subs, signs, width in program:
        terms = map(operator.mul, map(rows[row].__getitem__, columns), map(minors.__getitem__, subs))
        signed = map(operator.mul, signs, terms)
        # consecutive groups of `width` terms, one group per minor
        minors = list(map(sum, zip(*[signed] * width)))
    minors.append(0)
    return minors


def build_Q(params):
    """All Q_ℓ and cofactors by Laplace along the ψ-rows B, with A_ℓ the
    constant rows: M_{ℓ,i} = (-1)^i Σ_T ε_i(T)·det B[:,T]·det A_ℓ[:,rest] over
    the (m+1)-subsets T of the columns but i, rest the columns in neither, and
    ε_i(T) = (-1)^(Σ positions of T among them - m(m+1)/2).  Each M_ℓ must
    annihilate the rows of A_ℓ; rejects degenerate data.

    The ψ-rows are J∘ψ for the rows J[j][i] = ∂h_i/∂y_j in Q[y_0..y_m], and
    pulling back by ψ is a ring homomorphism, so det B[:,T] = det J[:,T]∘ψ
    and M_{ℓ,i} = M̃_{ℓ,i}∘ψ for the cofactors M̃_{ℓ,i} formed alike from J.
    Each minor det J[:,T] is homogeneous of degree D = (m+1)(hdeg−1), and
    all of them come from one `poly.ColumnMinors` memo on term dicts, as the
    table of their coefficients at the monomials y^γ of degree D.  So each
    M̃_{ℓ,i} is kept as its coefficient row over the y^γ: the signed scalar
    minors of A_ℓ, as weights, times the minors' coefficient columns.
    Σ_i a_i·M̃_{ℓ,i} ≡ 0 for each row a of A_ℓ is the formal identity, so
    checking it on those rows checks the composed one too.  The same rows
    give M_{ℓ,i} = Σ_γ c_γ·ψ^γ, all read off level D of the ψ^γ
    (`poly.power_levels`).  T, the signs and the straight-line program of
    A_ℓ's minors come from `_laplace_plan`, kept per (t, m).

    Each M_{ℓ,i} has degree s-1 in the tail variables alone, so Q_ℓ is one
    sum of key offsets (`poly.head_linear_form`), which checks every term
    for that degree and support on the way."""
    validate(params)
    n1 = params.n + 1
    t, m = params.t, params.m
    skel = params.skeleton()
    s = skel.expected_s
    masks, program, weighting = _laplace_plan(t, m)
    powers = next(islice(power_levels(params.psi_forms), (m + 1) * (skel.hdeg - 1), None))
    rows = [[h.partial(j) for h in params.h_forms] for j in range(m + 1)]
    columns = ColumnMinors(rows).coefficients(masks, powers)
    formal = []
    for block in params.a_consts:
        a_rows = [[norm_coeff(c) for c in row] for row in block]
        scalars = _block_minors(program, a_rows)
        weights = [list(map(operator.mul, signs, map(scalars.__getitem__, index))) for index, signs in weighting]
        ms = [[sum(map(operator.mul, w, column)) for column in columns] for w in weights]
        if any(sum(map(operator.mul, a, column)) for a in a_rows for column in zip(*ms)):
            raise InternalCheckError("a cofactor row fails to annihilate a constant row")
        formal += ms
    composed = linear_combinations(n1, formal, list(powers.values()))
    qs, cofactors = [], []
    for start in range(0, len(composed), t + 1):
        ms = tuple(composed[start:start + t + 1])
        q = head_linear_form(ms, s - 1)
        if q is None:
            raise InternalCheckError("cofactor fails the degree-(s-1) tail-support check")
        if not q:
            raise DegenerateDataError("construction determinant vanishes identically")
        qs.append(q)
        cofactors.append(ms)
    return qs, cofactors, s


def build_f(params):
    """Assemble the full instance; f must come out homogeneous of degree d.
    The instance carries the cone test of f, so no caller repeats it."""
    qs, cofactors, s = build_Q(params)
    n1 = params.n + 1
    mu = params.d // s
    # substitution is linear, so Σ_k P_k is substituted once
    f = substitute_forms(sum(params.p_forms[1:], params.p_forms[0]), qs, n1)
    if not f:
        raise DegenerateDataError("built form is identically zero")
    if not f.is_homogeneous() or f.degree() != params.d:
        raise InternalCheckError("built form is not homogeneous of degree d")
    return GNInstance(
        params=params,
        q_polys=tuple(qs),
        m_coeffs=tuple(cofactors),
        f=f,
        s=s,
        mu=mu,
        vertex=cone_test(f),
    )


def _dense(nvars, degree, coeff):
    return Polynomial(nvars, {e: coeff() for e in monomials_of_degree(nvars, degree)})


def _nonzero(rng):
    v = 0
    while v == 0:
        v = rng.randint(-9, 9)
    return v


def _random_params(skel, coeff):
    """Params of shape skel; coeff() supplies each coefficient in a fixed
    order, so a seeded source reproduces its instance."""
    n, t, m = skel.n, skel.t, skel.m
    n1 = n + 1
    h_forms = tuple(_dense(m + 1, skel.hdeg, coeff) for _ in range(t + 1))
    psi_forms = []
    for _ in range(m + 1):
        head = (0,) * (t + 1)
        psi_forms.append(Polynomial(n1, {head + e: coeff() for e in monomials_of_degree(n - t, skel.psideg)}))
    a_consts = tuple(
        tuple(tuple(coeff() for _ in range(t + 1)) for _ in range(t - m - 1))
        for _ in range(t - m)
    )
    s = skel.expected_s
    mu = skel.d // s
    zc, tailc = t - m, n - t
    p_forms = []
    for k in range(mu + 1):
        terms = {}
        for ez in monomials_of_degree(zc, k):
            for et in monomials_of_degree(tailc, skel.d - k * s):
                terms[ez + et] = coeff()
        p_forms.append(Polynomial(zc + tailc, terms))
    return GNParams(
        n=n,
        t=t,
        m=m,
        d=skel.d,
        h_forms=h_forms,
        psi_forms=tuple(psi_forms),
        a_consts=a_consts,
        p_forms=tuple(p_forms),
    )


def random_instance(skel, seed):
    """Seeded instance with small nonzero integer coefficients.

    Degenerate draws (zero Q, zero f, or a cone where the skeleton promises
    non-cones for general data) are retried; exhaustion raises.
    """
    validate(skel)
    cone_draws = 0
    for attempt in range(RETRY_BUDGET):
        rng = substream(seed, "gn", skel.n, skel.t, skel.m, skel.d, attempt)
        params = _random_params(skel, lambda: _nonzero(rng))
        try:
            instance = build_f(params)
        except DegenerateDataError:
            continue
        if skel.promises_non_cone and instance.vertex.is_cone:
            cone_draws += 1  # non-general draw
            continue
        return instance
    raise RetryBudgetError(
        f"no usable draw in {RETRY_BUDGET} attempts ({cone_draws} cone draws)"
    )


def core_multiplicity(instance):
    """Least total degree of f in the tail variables over all monomials;
    equals d - μ on non-degenerate instances."""
    t = instance.params.t
    return min(sum(e[t + 1:]) for e in instance.f.as_dict())


# ----------------------------------------------------------------------
# serialization (JSON-friendly dicts; polynomials as grammar strings)

def params_to_dict(params):
    skel = params.skeleton()
    return {
        "n": params.n,
        "t": params.t,
        "m": params.m,
        "d": params.d,
        "hdeg": skel.hdeg,
        "psideg": skel.psideg,
        "h_forms": [h.to_string("y") for h in params.h_forms],
        "psi_forms": [p.to_string("x") for p in params.psi_forms],
        "a_consts": [
            [[str(c) for c in row] for row in block] for block in params.a_consts
        ],
        "p_forms": [p.to_string("z") for p in params.p_forms],
    }


def instance_to_dict(instance):
    return {
        "params": params_to_dict(instance.params),
        "q_polys": [q.to_string("x") for q in instance.q_polys],
        "m_coeffs": [[mi.to_string("x") for mi in row] for row in instance.m_coeffs],
        "f": instance.f.to_string("x"),
        "s": instance.s,
        "mu": instance.mu,
    }

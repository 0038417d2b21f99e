"""The determinant-based construction of vanishing-Hessian forms.

Data of type (n, t, m): forms h_i(y_0..y_m) of one degree, forms
ψ_j(x_{t+1}..x_n) of one degree, and constant rows a^(ℓ).  Each Q_ℓ is the
determinant of the (t+1)×(t+1) matrix stacking (x_0..x_t), the rows
∂h_i/∂y_j evaluated at y = ψ, and the constants.  Only the first row holds
x_0..x_t, so Q_ℓ = Σ M_{ℓ,i}·x_i.  Its first-row cofactors M_{ℓ,i}, of degree
s-1 in the tail variables, come from Laplace along the ψ-rows (`build_Q`),
whose minors every Q_ℓ shares.  `build_Q` chooses one packing of exponents
(`poly._packing`) first, since nothing it forms has total degree above s.
The ψ-rows (∂h_i/∂y_j)(ψ) come from Horner's rule over the packed ψ_j
(`poly._horner`), each entry unpacked once; all minors det B[:,T] are read
from one `hessian.ColumnMinors` memo over those rows, the memo that also
gives the scalar minors of the constant rows.  The cofactor sums, their
annihilation check and each Q_ℓ run on term dicts keyed by the packing,
and each Q_ℓ and M_{ℓ,i} is unpacked once.  The output form is f =
Σ_k P_k(Q_1..Q_{t-m}, x_{t+1}..x_n) for biforms P_k of bidegree (k, d-k·s),
and it always has vanishing Hessian; `compose` applies the tail variables as
key offsets and runs Horner over the Q_ℓ alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .cones import VertexSubspace, cone_test
from .errors import DegenerateDataError, InternalCheckError, RetryBudgetError, ValidationError
from .fields import norm_coeff, substream
from .hessian import ColumnMinors
# Nothing here calls symbolic_determinant.  The binding stays only because
# bench/spans.py rebinds this copy, and bench/test_bench.py and
# tests/test_bench_targets.py read it; drop it with them at the next change
# to the benchmark (ROADMAP item 6).
from .hessian import symbolic_determinant  # noqa: F401
from .poly import Polynomial, _add_into, _horner, _mul_packed, _packing, monomials_of_degree

RETRY_BUDGET = 8


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


@dataclass(frozen=True)
class GNSkeleton:
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
        return out


@dataclass(frozen=True)
class GNParams:
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
            for e in pk.terms:
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


def validate(params):
    """Checked params, or a ValidationError naming every broken constraint."""
    violations = params.violations()
    if violations:
        raise ValidationError(violations)
    return params


@dataclass(frozen=True)
class GNInstance:
    params: GNParams
    q_polys: tuple          # Q_1..Q_{t-m}, ambient
    m_coeffs: tuple         # (t-m) × (t+1) cofactor polynomials, ambient
    f: Polynomial
    s: int
    mu: int
    vertex: VertexSubspace  # cone test of f


def _psi_rows(params, pack, unpack):
    """The rows (∂h_i/∂y_j)(ψ), shared by every Q_ℓ: Horner's rule in y over
    the packed ψ_j, each entry unpacked once."""
    n1 = params.n + 1
    psi = [(j, {pack(e): c for e, c in p.terms.items()}) for j, p in enumerate(params.psi_forms)]
    rows = []
    for j in range(params.m + 1):
        row = []
        for h in params.h_forms:
            terms = [(e, (0, c)) for e, c in h.partial(j).terms.items()]
            entry = _horner(terms, psi, 0) if terms else {}
            row.append(Polynomial(n1, {unpack(k): c for k, c in entry.items()}))
        rows.append(row)
    return rows


def build_Q(params):
    """All Q_ℓ and cofactors by Laplace along the ψ-rows B, with A_ℓ the
    constant rows: M_{ℓ,i} = (-1)^i Σ_T ε_i(T)·det B[:,T]·det A_ℓ[:,rest] over
    the (m+1)-subsets T of the columns but i, rest the columns in neither, and
    ε_i(T) = (-1)^(Σ positions of T among them - m(m+1)/2).  Each M_ℓ must
    annihilate the rows of A_ℓ; rejects degenerate data.

    One packing of exponents is chosen first: every ψ-row entry, minor
    det B[:,T], M_{ℓ,i} and x_i·M_{ℓ,i} has total degree at most s.  The
    minors come from one memo, so each m-row sub-minor is formed once and
    shared by every T that holds its columns.  The coefficient of a monomial
    in M_{ℓ,i} is one dot product of the scalar minors' row with the minors'
    coefficients of that monomial, the annihilation check one dot product of
    a row of A_ℓ with the M_{ℓ,i}'s, and Q_ℓ = Σ_i x_i·M_{ℓ,i} a key shift
    per i, then a sum; each returned polynomial is unpacked once."""
    validate(params)
    n1 = params.n + 1
    t, m = params.t, params.m
    s = params.skeleton().expected_s
    pack, unpack = _packing(s, n1)
    cols = range(t + 1)
    subsets = list(combinations(cols, m + 1))
    rows = _psi_rows(params, pack, unpack)
    b_minor = ColumnMinors(rows, Polynomial.zero(n1), Polynomial.constant(n1, 1))
    # per packed monomial, its coefficient in each det B[:,T]
    monomials = {}
    for u, T in enumerate(subsets):
        for e, c in b_minor(sum(1 << j for j in T)).terms.items():
            monomials.setdefault(pack(e), [0] * len(subsets))[u] = c
    xs = [{pack(tuple(int(i == j) for j in range(n1))): 1} for i in cols]
    # plan[i]: (index of T, column mask of rest, (-1)^i·ε_i(T)) for T ∌ i
    plan = [[(u, (1 << (t + 1)) - 1 - (1 << i) - sum(1 << j for j in T),
              (-1) ** (i + sum(j - (j > i) for j in T) + m * (m + 1) // 2))
             for u, T in enumerate(subsets) if i not in T]
            for i in cols]
    qs, cofactors = [], []
    for block in params.a_consts:
        a_rows = [[norm_coeff(c) for c in row] for row in block]
        a_minor = ColumnMinors(a_rows, 0, 1)
        ms = []
        for terms in plan:
            weights = [0] * len(subsets)
            for u, r, sg in terms:
                weights[u] = sg * a_minor(r)
            ms.append({k: c for k, coeffs in monomials.items() if (c := sum(map(mul, weights, coeffs)))})
        q = {}
        for x, mi in zip(xs, ms):
            _add_into(q, _mul_packed(mi, x).items())
        if not q:
            raise DegenerateDataError("construction determinant vanishes identically")
        for k in monomials:
            values = [mi.get(k, 0) for mi in ms]
            if any(sum(map(mul, row, values)) for row in a_rows):
                raise InternalCheckError("a cofactor row fails to annihilate a constant row")
        qs.append(Polynomial(n1, {unpack(k): c for k, c in q.items()}))
        cofactors.append(tuple(Polynomial(n1, {unpack(k): c for k, c in mi.items()}) for mi in ms))
    # each nonzero Q_ℓ is homogeneous of degree s, and validation checked d >= s
    tail = set(range(t + 1, n1))
    for ms in cofactors:
        for mi in ms:
            if mi and (mi.degree() != s - 1 or not mi.variables_used() <= tail):
                raise InternalCheckError("cofactor fails the degree-(s-1) tail-support check")
    return qs, cofactors, s


def build_f(params):
    """Assemble the full instance; f must come out homogeneous of degree d.
    The instance carries the cone test of f, so no caller repeats it."""
    qs, cofactors, s = build_Q(params)
    n1 = params.n + 1
    mu = params.d // s
    args = list(qs) + [Polynomial.variable(n1, i) for i in range(params.t + 1, params.n + 1)]
    # composition is linear, so Σ_k P_k is composed once; the tail variables
    # are single-term arguments, so Horner runs over the Q_ℓ alone
    f = sum(params.p_forms[1:], params.p_forms[0]).compose(args)
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
        tail_poly = _dense(n - t, skel.psideg, coeff)
        shifted = {
            (0,) * (t + 1) + e: c for e, c in tail_poly.terms.items()
        }
        psi_forms.append(Polynomial(n1, shifted))
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


def validate_skeleton(skel):
    """Reject a bad skeleton before any draw: its structural constraints are
    all that params of its shape can break."""
    violations = skel.violations()
    if violations:
        raise ValidationError(violations)


def random_instance(skel, seed, retries=RETRY_BUDGET):
    """Seeded instance with small nonzero integer coefficients.

    Degenerate draws (zero Q, zero f, or a cone where the skeleton promises
    non-cones for general data) are retried; exhaustion raises.
    """
    validate_skeleton(skel)
    cone_draws = 0
    for attempt in range(retries):
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
        f"no usable draw in {retries} attempts ({cone_draws} cone draws)"
    )


def core_multiplicity(instance):
    """Least total degree of f in the tail variables over all monomials;
    equals d - μ on non-degenerate instances."""
    t = instance.params.t
    return min(sum(e[t + 1:]) for e in instance.f.terms)


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


def params_from_dict(data):
    from .poly import parse

    n, t, m = data["n"], data["t"], data["m"]
    zc, tailc = t - m, n - t
    params = GNParams(
        n=n,
        t=t,
        m=m,
        d=data["d"],
        h_forms=tuple(parse(s, "y", nvars=m + 1) for s in data["h_forms"]),
        psi_forms=tuple(parse(s, "x", nvars=n + 1) for s in data["psi_forms"]),
        a_consts=tuple(
            tuple(tuple(Fraction(c) for c in row) for row in block)
            for block in data["a_consts"]
        ),
        p_forms=tuple(parse(s, "z", nvars=zc + tailc) for s in data["p_forms"]),
    )
    return validate(params)


def instance_to_dict(instance):
    return {
        "params": params_to_dict(instance.params),
        "q_polys": [q.to_string("x") for q in instance.q_polys],
        "m_coeffs": [[mi.to_string("x") for mi in row] for row in instance.m_coeffs],
        "f": instance.f.to_string("x"),
        "s": instance.s,
        "mu": instance.mu,
    }


def instance_from_dict(data):
    """Rebuild from params and verify the stored f matches the reconstruction."""
    from .poly import parse

    params = params_from_dict(data["params"])
    instance = build_f(params)
    stored = parse(data["f"], "x", nvars=params.n + 1)
    if stored != instance.f:
        raise InternalCheckError("stored form disagrees with its construction data")
    return instance

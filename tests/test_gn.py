"""Construction of vanishing-Hessian forms from determinant data."""

import gc
import types
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab import gn, hessian
from hesse_lab.cones import VertexSubspace, cone_test
from hesse_lab.errors import DegenerateDataError, InternalCheckError, RetryBudgetError, ValidationError
from hesse_lab.fields import substream
from hesse_lab.gn import (
    GNParams,
    GNSkeleton,
    build_Q,
    build_f,
    core_multiplicity,
    instance_from_dict,
    instance_to_dict,
    params_from_dict,
    params_to_dict,
    random_instance,
    validate,
)
from hesse_lab.hessian import hessian_matrix, hessian_vanishes, symbolic_determinant
from hesse_lab.poly import Polynomial, monomials_of_degree, parse
from hesse_lab.reports import GN_SUITE_SKELETONS, run_gn_suite


def spec_params_421(d=3, p1=None, p0=None):
    """The worked (4,2,1) data: h = (y0^2, y0*y1, y1^2), psi = (x4, x3)."""
    h = tuple(parse(s, "y", nvars=2) for s in ("y0^2", "y0*y1", "y1^2"))
    psi = (parse("x4", nvars=5), parse("x3", nvars=5))
    if p1 is None:
        p1 = parse("z0", "z", nvars=3)  # P_1 = z_1
    if p0 is None:
        p0 = Polynomial.zero(3)
    return GNParams(
        n=4, t=2, m=1, d=d,
        h_forms=h, psi_forms=psi, a_consts=((),), p_forms=(p0, p1),
    )


def test_validate_smallest_case():
    validate(spec_params_421())


def test_validate_t_range():
    params = GNParams(
        n=4, t=3, m=1, d=3,
        h_forms=(), psi_forms=(), a_consts=(), p_forms=(),
    )
    with pytest.raises(ValidationError, match="t <= n-2"):
        validate(params)


def test_validate_531_shape_ok():
    skel = GNSkeleton(n=5, t=3, m=1, hdeg=2, psideg=1, d=4)
    inst = random_instance(skel, seed=0)
    assert inst.f.nvars == 6


def test_build_Q_spec_oracle():
    # oracle: expand [[x0,x1,x2],[2*x4,x3,0],[0,x4,2*x3]] by hand:
    # Q1 = 2*(x0*x3^2 - 2*x1*x3*x4 + x2*x4^2), s = 3
    qs, ms, s = build_Q(spec_params_421())
    assert s == 3
    assert qs[0] == parse("2*x0*x3^2 - 4*x1*x3*x4 + 2*x2*x4^2")
    # Laplace data: Q = Σ M_i·x_i with deg(M_i) = 2 in the tail
    for i, mi in enumerate(ms[0]):
        assert mi.degree() == 2
        assert mi.variables_used() <= {3, 4}
    q_rebuilt = sum(
        (mi * Polynomial.variable(5, i) for i, mi in enumerate(ms[0])),
        Polynomial.zero(5),
    )
    assert q_rebuilt == qs[0]


def test_build_Q_rejects_repeated_h():
    h = tuple(parse("y0^2", "y", nvars=2) for _ in range(3))
    params = GNParams(
        n=4, t=2, m=1, d=3,
        h_forms=h,
        psi_forms=(parse("x4", nvars=5), parse("x3", nvars=5)),
        a_consts=((),),
        p_forms=(Polynomial.zero(3), parse("z0", "z", nvars=3)),
    )
    with pytest.raises(DegenerateDataError):
        build_Q(params)


def test_build_Q_linear_h_gives_s_1():
    h = tuple(parse(s, "y", nvars=2) for s in ("y0", "y1", "y0 - y1"))
    params = GNParams(
        n=4, t=2, m=1, d=2,
        h_forms=h,
        psi_forms=(parse("x4", nvars=5), parse("x3", nvars=5)),
        a_consts=((),),
        # d=2, s=1, mu=2: P_0 bidegree (0,2), P_1 bidegree (1,1), P_2 bidegree (2,0)
        p_forms=(
            Polynomial.zero(3),
            parse("z0*z1 + z0*z2", "z", nvars=3),
            parse("z0^2", "z", nvars=3),
        ),
    )
    qs, ms, s = build_Q(params)
    assert s == 1
    for mi in ms[0]:
        assert mi.degree() == 0 or mi.is_zero()


def test_build_f_reproduces_paper_cubic_shape():
    inst = build_f(spec_params_421())
    # projectively equivalent to the worked cubic: x1 -> -x1/2 scaling aside
    assert inst.f == parse("2*x0*x3^2 - 4*x1*x3*x4 + 2*x2*x4^2")
    assert inst.s == 3 and inst.mu == 1
    assert symbolic_determinant(hessian_matrix(inst.f)).is_zero()
    assert not cone_test(inst.f).is_cone
    assert core_multiplicity(inst) == 2  # d - mu = 3 - 1


def test_build_f_p0_only_is_a_cone():
    p0 = parse("z1^3 + z2^3", "z", nvars=3)  # pure tail form, misses x0..x2
    params = spec_params_421(p1=Polynomial.zero(3), p0=p0)
    inst = build_f(params)
    assert core_multiplicity(inst) == 3  # degenerate: multiplicity d, not d - mu
    assert cone_test(inst.f).is_cone


def test_random_instance_properties():
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    inst = random_instance(skel, seed=0)
    assert inst.f.is_homogeneous() and inst.f.degree() == 3
    assert symbolic_determinant(hessian_matrix(inst.f)).is_zero()
    assert core_multiplicity(inst) == 3 - inst.mu


def test_random_instance_seed_determinism_and_variation():
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    a = random_instance(skel, seed=0)
    b = random_instance(skel, seed=0)
    c = random_instance(skel, seed=1)
    assert a.f == b.f
    assert a.f != c.f


def test_skeleton_d_below_s_rejected():
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=2)  # s = 3
    with pytest.raises(ValidationError, match="d >= s"):
        random_instance(skel, seed=0)


def test_every_skeleton_that_passes_its_checks_gives_valid_params():
    # validate_skeleton checks only GNSkeleton.violations(): no params of a
    # passing shape break GNParams.violations(), swept over the all-ones
    # draw of every shape with n <= 9, hdeg <= 3, psideg <= 2, d <= 8
    passing = 0
    for n, t, m, hdeg, psideg, d in product(
        range(1, 10), range(10), range(10), (1, 2, 3), (0, 1, 2), range(1, 9)
    ):
        skel = GNSkeleton(n, t, m, hdeg, psideg, d)
        if skel.violations():
            continue
        passing += 1
        assert not gn._random_params(skel, lambda: 1).violations(), skel
    assert passing == 396


def _construction_matrix(params, block):
    """The matrix whose determinant is Q_l, rebuilt from the params."""
    n1 = params.n + 1
    psi = list(params.psi_forms)
    rows = [[Polynomial.variable(n1, i) for i in range(params.t + 1)]]
    rows += [[h.partial(j).compose(psi) for h in params.h_forms] for j in range(params.m + 1)]
    rows += [[Polynomial.constant(n1, c) for c in row] for row in block]
    return rows


def test_laplace_consistency_random(sympy_det):
    # oracle: sympy's determinant of the full matrix and of every first-row
    # minor, for m = 1, 2, 3, hdeg 3, psideg 2, and t = 8 (sympy has no size cap)
    cases = (
        ((4, 2, 1, 2, 1, 4), 0),
        ((7, 4, 1, 2, 1, 5), 3),
        ((6, 3, 2, 2, 1, 4), 0),
        ((9, 5, 3, 2, 1, 5), 0),
        ((6, 3, 1, 3, 1, 7), 2),
        ((7, 4, 1, 2, 2, 5), 0),
        ((10, 8, 1, 2, 1, 6), 0),
    )
    for types, seed in cases:
        _check_laplace(random_instance(GNSkeleton(*types), seed=seed), sympy_det)


def test_laplace_consistency_fraction_constants(sympy_det):
    data = params_to_dict(random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=1).params)
    data["a_consts"] = [
        [[f"{c}/{k + 2}" for k, c in enumerate(row)] for row in block]
        for block in data["a_consts"]
    ]
    params = params_from_dict(data)
    assert any(c.denominator > 1 for block in params.a_consts for row in block for c in row)
    _check_laplace(build_f(params), sympy_det)


@st.composite
def composition_params(draw):
    """GN params with m = 1, 2, hdeg 2-3, psideg 1-2 and μ = 1-3 (μ·s at
    most 13, so that f stays small), t and n the least the shape allows or
    one more, small nonzero integer coefficients; or the same data read back
    through params_from_dict with rational constants."""
    m, hdeg, psideg = draw(st.sampled_from((1, 2))), draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2)))
    s = 1 + (m + 1) * (hdeg - 1) * psideg
    mu = draw(st.integers(1, max(1, min(3, 13 // s))))
    t = m + 1 + draw(st.integers(0, 1))
    n = t + m + 1 + draw(st.integers(0, 1))
    skel = GNSkeleton(n, t, m, hdeg, psideg, mu * s + draw(st.integers(0, min(s - 1, 2))))
    rng = substream(draw(st.integers(0, 2**16)), "composition-params")
    params = gn._random_params(skel, lambda: gn._nonzero(rng))
    if draw(st.booleans()):
        data = params_to_dict(params)
        data["a_consts"] = [
            [[f"{c}/{k + 2}" for k, c in enumerate(row)] for row in block]
            for block in data["a_consts"]
        ]
        params = params_from_dict(data)
    return params


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(composition_params())
def test_build_f_equals_the_composition_oracle(params):
    # the oracle composes Σ_k P_k at (Q_1, …, Q_{t−m}, x_{t+1}, …, x_n) by
    # Horner's rule, the route build_f does not take
    try:
        qs = build_Q(params)[0]
    except DegenerateDataError:
        return
    n1 = params.n + 1
    tail = [Polynomial.variable(n1, i) for i in range(params.t + 1, n1)]
    oracle = sum(params.p_forms[1:], params.p_forms[0]).compose([*qs, *tail])
    if not oracle:
        with pytest.raises(DegenerateDataError):
            build_f(params)
    else:
        assert build_f(params).f == oracle


def test_build_Q_rejects_repeated_constant_row():
    params = random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).params
    row = params.a_consts[0][0]
    params = params._replace(a_consts=((row, row),) + params.a_consts[1:])
    with pytest.raises(DegenerateDataError):
        build_Q(params)


def _check_laplace(inst, det):
    # the rows go in as constant rows first, then the psi-rows, then
    # (x_0..x_t); the reordering costs the sign (-1)^((t-m-1)(m+1)), and
    # (-1)^t more where the x-row moves to the bottom
    params = inst.params
    n1 = params.n + 1
    sign = (-1) ** ((params.t - params.m - 1) * (params.m + 1))
    for q, ms, block in zip(inst.q_polys, inst.m_coeffs, inst.params.a_consts):
        rows = _construction_matrix(params, block)
        reordered = rows[params.m + 2:] + rows[1:params.m + 2]
        assert q.scale(sign * (-1) ** params.t) == det(reordered + rows[:1])
        rebuilt = Polynomial.zero(n1)
        for i, mi in enumerate(ms):
            minor = det([r[:i] + r[i + 1:] for r in reordered])
            assert mi.scale(sign * (-1) ** i) == minor
            rebuilt = rebuilt + mi * Polynomial.variable(n1, i)
            if mi:
                assert mi.degree() == inst.s - 1
        assert rebuilt == q


def test_build_f_expands_only_psi_row_minors(monkeypatch):
    # Laplace along the psi-rows: each (m+1)-column minor det J[:,T] of the
    # rows in Q[y] is formed once per draw in the shared memo, and no minor
    # on more than m+1 columns, so none of the (t+1)x(t+1) matrices, is
    # expanded
    for types in ((7, 5, 1, 2, 1, 6), (6, 3, 2, 2, 1, 4)):
        params = random_instance(GNSkeleton(*types), seed=0).params
        masks = []

        class Counted(hessian.ColumnMinors):
            def __call__(self, mask):
                if isinstance(self.zero, Polynomial) and mask not in self.memo:
                    masks.append(mask)
                return super().__call__(mask)

        def refuse(*args, **kwargs):
            pytest.fail("build_f expanded a symbolic determinant")

        monkeypatch.setattr(gn, "ColumnMinors", Counted)
        monkeypatch.setattr(gn, "symbolic_determinant", refuse)
        monkeypatch.setattr(hessian, "symbolic_determinant", refuse)
        build_f(params)
        monkeypatch.undo()
        sizes = [bin(mask).count("1") for mask in masks]
        assert len(set(masks)) == len(masks)
        assert max(sizes) == params.m + 1
        assert sorted(mask for mask, k in zip(masks, sizes) if k == params.m + 1) == sorted(
            sum(1 << j for j in T) for T in combinations(range(params.t + 1), params.m + 1)
        )


_MINOR_SKELETONS = (
    (4, 2, 1, 2, 1, 3),
    (4, 2, 1, 3, 1, 5),
    (5, 2, 1, 2, 2, 5),
    (5, 3, 1, 3, 2, 9),
    (6, 3, 2, 2, 1, 4),
    (6, 3, 2, 3, 1, 7),
    (6, 3, 2, 2, 2, 7),
    (6, 3, 2, 3, 2, 13),
)


def _jacobian_rows_of_build_Q(params):
    """The polynomial rows build_Q hands to ColumnMinors: ∂h_i/∂y_j in Q[y]."""
    real, captured = gn.ColumnMinors, []

    def recording(rows, zero, one):
        if isinstance(zero, Polynomial):
            captured.append(rows)
        return real(rows, zero, one)

    with mock.patch.object(gn, "ColumnMinors", recording):
        try:
            build_Q(params)
        except DegenerateDataError:
            pass
    [rows] = captured
    return rows


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_MINOR_SKELETONS), st.integers(0, 2**32))
def test_jacobian_minors_composed_with_psi_match_the_polynomial_oracle(types, seed):
    # the rows build_Q passes to its memo are the h-partials in Q[y]; every
    # minor of the memo, composed with ψ term by term and read off the
    # table of ψ^γ alike, is symbolic_determinant of the composed rows
    skel = GNSkeleton(*types)
    assert not skel.violations()
    rng = substream(seed, "test_minors")
    params = gn._random_params(skel, lambda: gn._nonzero(rng))
    t, m = params.t, params.m
    psi = list(params.psi_forms)
    rows = _jacobian_rows_of_build_Q(params)
    assert rows == [[h.partial(j) for h in params.h_forms] for j in range(m + 1)]
    oracle_rows = [[e.compose(psi) for e in row] for row in rows]
    minors = hessian.ColumnMinors(rows, Polynomial.zero(m + 1), Polynomial.constant(m + 1, 1))
    powers = gn._psi_powers(params.psi_forms, (m + 1) * (skel.hdeg - 1))
    for T in combinations(range(t + 1), m + 1):
        expected = symbolic_determinant([[r[j] for j in T] for r in oracle_rows])
        minor = minors(sum(1 << j for j in T))
        assert minor.compose(psi) == expected
        read = Polynomial.zero(params.n + 1)
        for gamma, power in powers.items():
            read = read + power.scale(minor.coefficient(gamma))
        assert read == expected


def test_build_Q_expands_without_a_budget_and_leaves_no_cyclic_garbage(monkeypatch):
    # the memoized minors in Q[y] and the table of ψ^γ hold no closure that
    # refers to itself, so reference counting frees them, memo and all
    params = random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).params
    budgets = []

    class Recorded(hessian.ColumnMinors):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append((self.budget, getattr(self.zero, "nvars", None)))

    # the scalar and the Jacobian minors in gn; none through symbolic_determinant
    for module in (gn, hessian):
        monkeypatch.setattr(module, "ColumnMinors", Recorded)
    build_Q(params)
    monkeypatch.undo()
    assert budgets and {budget for budget, _ in budgets} == {None}
    assert {nvars for _, nvars in budgets} == {None, params.m + 1}
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build_Q(params)
        monomials_of_degree(4, 3)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (Polynomial, types.FunctionType))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_build_Q_rechecks_that_cofactors_annihilate_the_constant_rows(monkeypatch):
    # doubling the scalar minors on columns that include x_0's breaks the
    # Laplace identity Σ_i a_i·M_i = 0 for a row a of A_l
    params = random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).params
    real = gn.ColumnMinors

    def skewed(rows, zero, one):
        minor = real(rows, zero, one)
        return lambda mask: 2 * minor(mask) if mask & 1 else minor(mask)

    monkeypatch.setattr(gn, "ColumnMinors", skewed)
    with pytest.raises(InternalCheckError, match="annihilate"):
        build_Q(params)


@pytest.mark.parametrize("variable", [0, 7])
def test_build_Q_rechecks_the_degree_and_tail_support_of_cofactors(monkeypatch, variable):
    # every ψ^γ times x_0 (a head variable) or x_7 (one degree up), so every
    # cofactor read off the table of ψ^γ is x_0 or x_7 times its own
    params = random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).params
    real = gn._psi_powers
    x = Polynomial.variable(8, variable)

    def shifted(psi, degree):
        return {gamma: power * x for gamma, power in real(psi, degree).items()}

    monkeypatch.setattr(gn, "_psi_powers", shifted)
    with pytest.raises(InternalCheckError, match="tail-support"):
        build_Q(params)


def test_build_f_composes_nothing(monkeypatch):
    # the cofactors are formed in Q[y] and read off one table of ψ^γ, and
    # Σ_k P_k is substituted by packed products: no `compose` call
    params = random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).params

    def refuse(self, args):
        pytest.fail("build_f called Polynomial.compose")

    monkeypatch.setattr(Polynomial, "compose", refuse)
    build_f(params)


def test_gn_suite_reports_cone_draws_past_the_allowance():
    # random_instance retries every cone draw, so the default draw never
    # trips the suite's genericity check; a draw whose instances carry a
    # cone vertex does, once per skeleton
    def cone_draw(skel, seed):
        instance = random_instance(skel, seed)
        return instance._replace(vertex=VertexSubspace(basis=((1,) + (0,) * skel.n,), projective_dim=0))

    report = run_gn_suite(2, 0, draw=cone_draw)
    assert report["ok"] is False
    assert all(entry["is_cone"] for entry in report["entries"])
    assert report["violations"] == [
        f"{skel}: 2 cone draws exceed the non-general allowance of 1" for skel in GN_SUITE_SKELETONS
    ]
    assert run_gn_suite(2, 0)["ok"] is True


def test_gn_suite_reports_a_draw_whose_hessian_does_not_vanish():
    # x0^2·x_n^(d-2) added to f: head degree 2 breaks the construction, so
    # the seed-0 P^4 cubic has a nonvanishing Hessian, and its least tail
    # degree falls to d - 2 = 1
    def with_a_head_square(skel, seed):
        instance = random_instance(skel, seed)
        monomial = Polynomial(skel.n + 1, {(2,) + (0,) * (skel.n - 1) + (skel.d - 2,): 1})
        return instance._replace(f=instance.f + monomial)

    report = run_gn_suite(1, 0, draw=with_a_head_square)
    first = GN_SUITE_SKELETONS[0]
    assert report["ok"] is False and report["entries"][0]["vanishes"] is False
    assert report["violations"][:2] == [
        f"{first} seed 0: Hessian does not vanish",
        f"{first} seed 0: core multiplicity 1 != d-mu",
    ]


def test_gn_suite_reports_a_draw_with_a_wrong_core_multiplicity():
    # a draw that misreports μ: f and its Hessian are untouched, and only the
    # core multiplicity d - μ disagrees, once per skeleton
    def misreported_mu(skel, seed):
        instance = random_instance(skel, seed)
        return instance._replace(mu=instance.mu + 1)

    report = run_gn_suite(1, 0, draw=misreported_mu)
    assert all(entry["vanishes"] for entry in report["entries"])
    assert report["violations"] == [
        f"{skel} seed 0: core multiplicity {skel.d - random_instance(skel, 0).mu} != d-mu"
        for skel in GN_SUITE_SKELETONS
    ]


def test_d_equal_s_with_t_minus_m_at_least_2_need_not_be_a_cone():
    # counterexample to "d = s and t - m >= 2 always give a cone": s = d = 4,
    # t - m = 3, and the seed-0 draw (like seeds 1 and 2) is not a cone
    skel = GNSkeleton(8, 5, 2, 2, 1, 4)
    assert skel.expected_s == skel.d and skel.t - skel.m >= 2
    assert random_instance(skel, seed=0).vertex.is_cone is False


def test_core_multiplicity_d6():
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=6)
    inst = random_instance(skel, seed=0)
    assert inst.mu == 2
    assert core_multiplicity(inst) == 4  # d - mu = 6 - 2


def test_genericity_non_cone_rate():
    # for mu > n-t-2 the construction promises non-cones generically;
    # the generator retries cone draws, so delivered instances are non-cones
    skel = GNSkeleton(n=4, t=2, m=1, hdeg=2, psideg=1, d=3)
    assert skel.expected_mu > skel.n - skel.t - 2
    cones = sum(
        1 for seed in range(10) if cone_test(random_instance(skel, seed).f).is_cone
    )
    assert cones <= 1


def test_vanishing_hessian_symbolic_up_to_n5():
    inst = random_instance(GNSkeleton(n=5, t=3, m=1, hdeg=2, psideg=1, d=4), seed=2)
    assert symbolic_determinant(hessian_matrix(inst.f)).is_zero()


def test_vanishing_hessian_probabilistic_up_to_n7():
    inst = random_instance(GNSkeleton(n=7, t=3, m=1, hdeg=2, psideg=1, d=4), seed=0)
    v = hessian_vanishes(inst.f, seed=0)
    assert v.vanishes
    assert v.error_bound * 2 ** 40 < 1


def test_forced_degenerate_types_are_surfaced():
    # with d = s and two or more Q determinants, the combined constant row is
    # always a vertex direction; the generator must surface the exhaustion
    with pytest.raises(RetryBudgetError):
        random_instance(GNSkeleton(n=5, t=3, m=1, hdeg=2, psideg=1, d=3), seed=0)


def test_serialization_roundtrip():
    inst = build_f(spec_params_421())
    data = instance_to_dict(inst)
    back = instance_from_dict(data)
    assert back.f == inst.f
    params2 = params_from_dict(params_to_dict(inst.params))
    assert params2.h_forms == inst.params.h_forms
    assert params2.psi_forms == inst.params.psi_forms

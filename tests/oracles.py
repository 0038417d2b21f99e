"""Test oracles: the paper's lemmas checked on samples, and round trips.

No command runs these; the tests read them as independent checks of the
package.  Restriction to a hyperplane commutes with projecting from its dual
point (`projection_lemma_check`), a small polar image forces a cone
(`low_polar_dim_check`), a vertex gives translation invariance
(`translation_invariant`), a serialized instance rebuilds to the same form
(`instance_from_dict`), and a sampled ψ_g image point is ψ_g of its stored
preimage (`reverify`).  Four oracles stay in the package because the
benchmark traces them by name: `psi.sample_image`, `psi.sample_polar_image`,
`classify.p4_section_check` and `hessian.polar_image_dim`.
"""

from fractions import Fraction

from hesse_lab import poly
from hesse_lab.cones import cone_test, restrict
from hesse_lab.errors import DomainError, InternalCheckError, SampleBudgetError
from hesse_lab.fields import substream
from hesse_lab.gn import GNParams, build_f, validate
from hesse_lab.hessian import hessian_vanishes, polar_image_dim
from hesse_lab.poly import Polynomial, parse


def projectively_equal(a, b):
    """True iff nonzero vectors a, b agree up to a scalar (all 2x2 minors
    vanish)."""
    if not any(a) or not any(b):
        return False
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


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


def params_from_dict(data):
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


def instance_from_dict(data):
    """Rebuild from params and verify the stored f matches the reconstruction."""
    params = params_from_dict(data["params"])
    instance = build_f(params)
    stored = parse(data["f"], "x", nvars=params.n + 1)
    if stored != instance.f:
        raise InternalCheckError("stored form disagrees with its construction data")
    return instance


def reverify(image, psi):
    """Each stored image point must equal ψ_g of its stored preimage, which
    must lie off the base locus."""
    return all(
        projectively_equal([hi.evaluate(pre) for hi in psi.h], pt)
        for pt, pre in zip(image.points, image.preimages)
    )


def digit(digits, packed, k):
    """Digit k of each coefficient of a packed polynomial (`poly.Digits`)."""
    return poly._new(packed.nvars, digits._digit(packed._terms, k))

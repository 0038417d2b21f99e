"""Polynomial core: parsing, arithmetic, calculus, gcd, reducedness."""

import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesse_lab.errors import DomainError, InexactDivisionError, ParseError, VariableCountError
from hesse_lab.fields import norm_coeff, substream
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.poly import (
    MAX_EXPONENT,
    MAX_VARIABLE_INDEX,
    MINUS_INFINITY,
    Polynomial,
    _heu_gcd,
    _primitive_ints,
    gcd,
    gcd_list,
    is_reduced,
    monomials_of_degree,
    parse,
)

PAPER_CUBIC = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"


def divides(g, p):
    try:
        p.exact_div(g)
    except InexactDivisionError:
        return False
    return True


def random_poly(rng, nvars=3, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg // 2) for _ in range(nvars))
        terms[e] = rng.randint(-9, 9)
    return Polynomial(nvars, terms)


# ----------------------------------------------------------------------
# parsing and printing

def test_parse_paper_cubic():
    f = parse(PAPER_CUBIC)
    assert f.nvars == 5
    assert len(f.terms) == 3
    assert f.degree() == 3
    assert f.is_homogeneous()


def test_parse_zero():
    z = parse("0")
    assert z.is_zero()
    assert z.terms == {}


def test_parse_fermat_cubic():
    f = parse("x0^3 + x1^3 + x2^3")
    assert len(f.terms) == 3
    assert f.is_homogeneous()


def test_parse_rational_coefficients_and_parens():
    f = parse("1/2*x0^2 - (x0 - 3/4*x1)*x1")
    g = parse("1/2*x0^2 - x0*x1 + 3/4*x1^2")
    assert f == g


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse("x0 + * x1")
    assert exc.value.position == 5


def test_parse_mixed_prefix_rejected():
    with pytest.raises(ParseError):
        parse("x0 + y1")


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse("x0^-2")


# (text, keyword arguments, message, position).  A variable's token is its
# index digits at the position of its name, and the token after the current
# one is read before the current one is judged, so its lexical error wins.
MALFORMED = [
    ("", {}, "expected coefficient, variable, or '(', found ''", 0),
    ("   ", {}, "expected coefficient, variable, or '(', found ''", 3),
    ("x0 + * x1", {}, "expected coefficient, variable, or '(', found '*'", 5),
    ("-", {}, "expected coefficient, variable, or '(', found ''", 1),
    ("--x0", {}, "expected coefficient, variable, or '(', found '-'", 1),
    ("()", {}, "expected coefficient, variable, or '(', found ')'", 1),
    ("x0 x1", {}, "unexpected trailing '1'", 3),
    ("x0^2 3", {}, "unexpected trailing '3'", 5),
    ("2^3", {}, "unexpected trailing '^'", 1),
    ("x0/2", {}, "unexpected trailing '/'", 2),
    ("1/2/3", {}, "unexpected trailing '/'", 3),
    ("(x0))", {}, "unexpected trailing ')'", 4),
    ("x0 + y1", {}, "variable prefix 'y' does not match expected 'x'", 5),
    ("x0 + x1 y2", {}, "variable prefix 'y' does not match expected 'x'", 8),
    ("x_0", {}, "variable prefix 'x_' does not match expected 'x'", 0),
    ("y0 + x1", {"var_prefix": "y"}, "variable prefix 'x' does not match expected 'y'", 5),
    ("x + x0", {}, "variable needs a numeric index", 0),
    ("1/x", {}, "variable needs a numeric index", 2),
    ("(x0 x", {}, "variable needs a numeric index", 4),
    ("x0^", {}, "expected 'int', found ''", 3),
    ("x0^x1", {}, "expected 'int', found '1'", 3),
    ("1/x0", {}, "expected 'int', found '0'", 2),
    ("x0^-2", {}, "negative exponent", 3),
    ("3 / 0", {}, "zero denominator", 0),
    ("(x0 + x1", {}, "expected ')', found ''", 8),
    ("x0^#", {}, "unexpected character '#'", 3),
    ("2 * x5 + $", {"nvars": 3}, "unexpected character '$'", 9),
    ("x9 +", {"nvars": 2}, "expected coefficient, variable, or '(', found ''", 4),
    ("x3", {"nvars": 2}, "variable index 3 exceeds nvars=2", 0),
    ("x1 + x0^2", {"nvars": 1}, "variable index 1 exceeds nvars=1", 0),
    ("x0 + x1000", {}, "variable index exceeds the cap 999", 6),
    ("x0 x1000", {}, "variable index exceeds the cap 999", 4),
    ("x0^# + x1000", {}, "unexpected character '#'", 3),
    ("x00001000", {}, "variable index exceeds the cap 999", 1),
    ("x" + "9" * 5000, {}, "variable index exceeds the cap 999", 1),
    ("x0^99999999", {}, "variable exponent exceeds the cap 999", 0),
    ("x1 + 2*x0^600*x0^600", {}, "variable exponent exceeds the cap 999", 14),
    ("x1 + (x0^600 + x1)*(x0^400*x1)", {}, "variable exponent exceeds the cap 999", 19),
]


@pytest.mark.parametrize("text, kwargs, message, position", MALFORMED)
def test_parse_error_message_and_position(text, kwargs, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text, **kwargs)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_parse_accepts_indices_up_to_the_cap():
    assert MAX_VARIABLE_INDEX == 999
    assert parse("x999").nvars == 1000
    assert parse("x000999 + x0") == parse("x999 + x0")


def test_parse_accepts_exponents_up_to_the_cap():
    assert MAX_EXPONENT == 999
    assert parse("x0^999*x1^999").degree() == 1998
    assert parse("x0^500*x0^499") == parse("(x0^500)*(x0^499)") == parse("x0^999")


def test_parse_accepts_a_digit_run_at_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    assert parse("9" * limit + "*x0") == parse("x0").scale(10**limit - 1)
    with pytest.raises(ParseError, match=f"more than {limit} digits"):
        parse("0" * (limit + 1) + "*x0")  # leading zeros count towards the limit


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x0^²", "unexpected character '²'", 3),
        ("x٣", "variable needs a numeric index", 0),
        ("x0 + é", "unexpected character 'é'", 5),
    ],
)
def test_parse_grammar_is_ascii(text, message, position):
    # str.isdigit admits '²' and '٣', which int rejects or reads as 3
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at position {position})"


_X = sympy.symbols("x0:3")
_WS = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def expression_text(draw, depth=2):
    """(text, sympy value) of a sum of signed products of a or a/b
    coefficients, powers of x0..x2 and parenthesized sums, nested up to
    depth, with whitespace between tokens."""
    text, value = "", 0
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        factors, term = [], -1 if sign == "-" else 1
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["coeff", "var", "paren"] if depth else ["coeff", "var"]))
            if kind == "coeff":
                a = draw(st.integers(0, 40))
                b = draw(st.one_of(st.none(), st.integers(1, 9)))
                factors.append(str(a) if b is None else f"{a}{draw(_WS)}/{draw(_WS)}{b}")
                term *= sympy.Rational(a, b or 1)
            elif kind == "var":
                i, e = draw(st.integers(0, 2)), draw(st.one_of(st.none(), st.integers(0, 4)))
                factors.append(f"x{i}" if e is None else f"x{i}{draw(_WS)}^{draw(_WS)}{e}")
                term *= _X[i] ** (1 if e is None else e)
            else:
                inner, inner_value = draw(expression_text(depth - 1))
                factors.append(f"({draw(_WS)}{inner}{draw(_WS)})")
                term *= inner_value
        text += f"{draw(_WS)}{sign}{draw(_WS)}" + f"{draw(_WS)}*{draw(_WS)}".join(factors)
        value += term
    return text, value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(expression_text())
def test_parse_matches_sympy_expansion(case):
    text, value = case
    expanded = sympy.Poly(sympy.expand(value), *_X)
    terms = {e: Fraction(int(c.p), int(c.q)) for e, c in expanded.terms()}
    assert parse(text, nvars=3) == Polynomial(3, terms)


def test_print_is_graded_lex_descending():
    f = parse("x1^2 + x0*x2 + x0^2 + x2")
    assert f.to_string() == "x0^2 + x0*x2 + x1^2 + x2"


def test_print_fractions_signs_and_wide_exponents():
    f = Polynomial(4, {(12, 0, 0, 1): Fraction(-1, 2), (0, 10, 0, 0): 1, (0, 0, 0, 0): -3,
                       (1, 0, 11, 0): Fraction(7, 3), (0, 1, 0, 1): -1})
    assert f.to_string("y") == "-1/2*y0^12*y3 + 7/3*y0*y2^11 + y1^10 - y1*y3 - 3"
    assert Polynomial.constant(2, Fraction(-5, 4)).to_string() == "-5/4"
    assert Polynomial.zero(3).to_string("z") == "0"


_COEFFS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)


@st.composite
def printable_polynomials(draw):
    nvars = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 14)] * nvars)
    terms = draw(st.dictionaries(exponents, _COEFFS, max_size=8))
    return Polynomial(nvars, terms), draw(st.sampled_from(["x", "y", "z"]))


@given(printable_polynomials())
@example((Polynomial.zero(2), "x"))
@example((Polynomial.constant(3, Fraction(-7, 2)), "y"))
@example((Polynomial(2, {(10, 0): -1, (0, 12): Fraction(3, 11)}), "z"))
def test_print_parse_round_trip(case):
    p, prefix = case
    assert parse(p.to_string(prefix), prefix, nvars=p.nvars) == p


def test_roundtrip_random(seed=7, cases=100):
    rng = random.Random(seed)
    for _ in range(cases):
        f = random_poly(rng)
        assert parse(f.to_string(), nvars=f.nvars) == f


# ----------------------------------------------------------------------
# arithmetic

def test_difference_of_squares():
    a = parse("x0 + x1")
    b = parse("x0 - x1")
    assert a * b == parse("x0^2 - x1^2")


def test_additive_identity():
    f = parse(PAPER_CUBIC)
    assert f + Polynomial.zero(5) == f


def test_binomial_square():
    assert parse("x0 + x1") ** 2 == parse("x0^2 + 2*x0*x1 + x1^2")


def test_variable_count_mismatch():
    with pytest.raises(VariableCountError):
        parse("x0 + x1") * parse("x0 + x2")


def test_ring_axioms_seeded(seed=11, cases=100):
    rng = random.Random(seed)
    for _ in range(cases):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a


@pytest.mark.parametrize("top", [254, 255, 256, 2**70])
def test_product_exponents_beyond_a_byte(top):
    # the largest exponent of a product is top: up to 255 it packs one byte
    # per variable, beyond that wider fields
    a = Polynomial(2, {(top - 1, 0): 2, (0, top - 1): -1, (1, 3): 3})
    b = Polynomial(2, {(1, 0): 5, (0, 1): 1, (0, 0): -4})
    expected = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            expected[e] = expected.get(e, 0) + ca * cb
    assert a * b == Polynomial(2, expected)


# ----------------------------------------------------------------------
# calculus

def test_partial_power_rule():
    assert parse("x0*x3^2").partial(3) == parse("2*x0*x3", nvars=4)


def test_partial_paper_cubic():
    f = parse(PAPER_CUBIC)
    assert f.partial(0) == parse("x3^2", nvars=5)
    assert f.partial(3) == parse("2*x0*x3 + 2*x1*x4")


def test_partial_of_constant():
    assert Polynomial.constant(3, 7).partial(1).is_zero()


def test_mixed_partials_commute(seed=3, cases=50):
    rng = random.Random(seed)
    for _ in range(cases):
        f = random_poly(rng, nvars=4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_euler_relation(seed=5, cases=40):
    # Σ x_i·∂f/∂x_i = d·f for homogeneous f of degree d
    rng = random.Random(seed)
    for _ in range(cases):
        d = rng.randint(1, 5)
        monos = monomials_of_degree(3, d)
        f = Polynomial(3, {e: rng.randint(-9, 9) for e in rng.sample(monos, min(4, len(monos)))})
        if not f:
            continue
        lhs = Polynomial.zero(3)
        for i in range(3):
            lhs = lhs + Polynomial.variable(3, i) * f.partial(i)
        assert lhs == f.scale(d)


# ----------------------------------------------------------------------
# evaluation and composition

def test_evaluate_direct():
    assert parse("x0*x3^2", nvars=5).evaluate((1, 0, 0, 2, 0)) == 4


def test_compose_polar_relation_of_paper_cubic():
    # (2*x3*x4)^2 - 4*(x3^2)*(x4^2) = 0: the polar relation y1^2 - 4*y0*y2
    f = parse(PAPER_CUBIC)
    partials = f.gradient()
    g = parse("y1^2 - 4*y0*y2", var_prefix="y", nvars=5)
    assert g.compose(partials).is_zero()


def test_compose_coordinate_projection():
    f = parse(PAPER_CUBIC)
    partials = f.gradient()
    y0 = parse("y0", var_prefix="y", nvars=5)
    assert y0.compose(partials) == partials[0]


def test_compose_length_mismatch():
    g = parse("y0 + y1", var_prefix="y")
    with pytest.raises(VariableCountError):
        g.compose([Polynomial.variable(3, 0)])


def compose_term_by_term(f, args):
    """The test oracle: each term of f as a product of argument powers, summed."""
    acc = Polynomial.zero(args[0].nvars)
    for e, c in f.terms.items():
        t = Polynomial.constant(args[0].nvars, c)
        for a, k in zip(args, e):
            t = t * a ** k
        acc = acc + t
    return acc


@st.composite
def compose_cases(draw):
    """(F, args) with 1-5 variables each side, int or Fraction coefficients;
    empty dictionaries give zero arguments, and exponent 0 constants."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        coeff = st.integers(-6, 6).filter(bool)
    else:
        coeff = st.fractions(-6, 6, max_denominator=5).filter(bool)

    def poly(nvars, top):
        exps = st.tuples(*[st.integers(0, top)] * nvars)
        return Polynomial(nvars, draw(st.dictionaries(exps, coeff, max_size=4)))

    return poly(n, 3), [poly(m, 2) for _ in range(n)]


COMPOSE_CASES = [
    # zero and constant arguments
    (parse("x0^2*x1 - 3*x1^2 + x2"), [parse("0", nvars=2), parse("5", nvars=2), parse("2*x1^2")]),
    # the terms cancel: (x0 + x1)^2 - (x0 + x1)^2 and x0·x1 - x0·x1
    (parse("x0^2 - x1^2"), [parse("x0 + x1"), parse("x0 + x1")]),
    (parse("x0*x1 - x2"), [parse("x0", nvars=2), parse("x1"), parse("x0*x1")]),
    # three variables into one, with Fractions
    (parse("1/2*x0*x2^2 + x1^3 - 2/3"), [parse("x0 - 1/3"), parse("2*x0^2"), parse("x0")]),
    # deg F · e_max = 40 · 8 = 320 passes a byte, so the wide packing runs
    (parse("x0^40"), [parse("x0^8 + x1^8")]),
    (parse("x0^40*x1 - 2*x1^3"), [parse("x0^8 + x1^8"), parse("x0 - 3*x1")]),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(compose_cases())
@example(COMPOSE_CASES[0])
@example(COMPOSE_CASES[1])
@example(COMPOSE_CASES[2])
@example(COMPOSE_CASES[3])
@example(COMPOSE_CASES[4])
@example(COMPOSE_CASES[5])
def test_compose_matches_term_by_term(case):
    f, args = case
    got = f.compose(args)
    assert got.nvars == args[0].nvars
    assert got == compose_term_by_term(f, args)
    # canonical coefficients: integral values are ints
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def to_sympy(p, symbols):
    return sum((c * sympy.Mul(*(x ** k for x, k in zip(symbols, e))) for e, c in p.terms.items()),
               sympy.Integer(0))


@st.composite
def single_term_compose_cases(draw):
    """(F, args) where most arguments are one term c·x^a (c ≠ 1 and c < 0
    included) or zero, and at most one is a binomial; F's exponents up to 40
    and the arguments' up to 8 take deg F · e_max past one byte."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)).filter(bool)
    top = draw(st.sampled_from([3, 40]))
    exps = st.tuples(*[st.integers(0, top)] * n)
    f = Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)))
    arg_exps = st.tuples(*[st.integers(0, 8)] * m)
    multi = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    args = []
    for v in range(n):
        size = 2 if v == multi else draw(st.sampled_from([0, 1, 1, 1]))
        args.append(Polynomial(m, draw(st.dictionaries(arg_exps, coeff, min_size=size, max_size=size))))
    return f, args


SINGLE_TERM_CASES = [
    # coefficients 3 and -2/3 raised to the exponents of F
    (parse("x0^3*x1 - 5*x1^2"), [parse("3*x1^2"), parse("-2/3*x0", nvars=2)]),
    # a zero argument drops the terms it enters
    (parse("x0^2*x1 + 7*x1^3 - x2"), [parse("0", nvars=2), parse("x0*x1"), parse("x1 - x0")]),
    # deg F · e_max = 41 · 8 = 328 passes a byte, so the wide packing runs
    (parse("x0^40*x1 - 2*x1^3"), [parse("-x0^8", nvars=2), parse("x0 + 2*x1")]),
    # two single-term arguments meet in one monomial and cancel
    (parse("x0 - x1"), [parse("2*x0^2"), parse("2*x0^2")]),
    (parse("x0 - x1 + x0*x1"), [parse("-x0^2"), parse("-x0^2")]),
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(single_term_compose_cases())
@example(SINGLE_TERM_CASES[0])
@example(SINGLE_TERM_CASES[1])
@example(SINGLE_TERM_CASES[2])
@example(SINGLE_TERM_CASES[3])
@example(SINGLE_TERM_CASES[4])
def test_compose_single_term_arguments_match_sympy(case):
    f, args = case
    xs = sympy.symbols(f"y0:{f.nvars}")
    zs = sympy.symbols(f"x0:{args[0].nvars}")
    expected = sympy.expand(to_sympy(f, xs).subs(
        {x: to_sympy(a, zs) for x, a in zip(xs, args)}, simultaneous=True))
    got = f.compose(args)
    assert sympy.expand(to_sympy(got, zs) - expected) == 0
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def _scanned_degrees(p):
    """(degree, is_homogeneous) by a fresh scan of the terms."""
    degrees = {sum(e) for e in p.terms}
    return (max(degrees) if degrees else MINUS_INFINITY), len(degrees) <= 1


@st.composite
def constructed_polynomials(draw):
    """A polynomial from one of the constructors, or from arithmetic on them."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
    exps = st.tuples(*[st.integers(0, 3)] * n)

    def base():
        kind = draw(st.sampled_from(["zero", "constant", "variable", "linear_form", "terms", "parse"]))
        if kind == "zero":
            return Polynomial.zero(n)
        if kind == "constant":
            return Polynomial.constant(n, draw(coeff))
        if kind == "variable":
            return Polynomial.variable(n, draw(st.integers(0, n - 1)))
        if kind == "linear_form":
            return Polynomial.linear_form([draw(coeff) for _ in range(n)])
        p = Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=5)))
        return parse(p.to_string(), nvars=n) if kind == "parse" else p

    a, b = base(), base()
    a.degree()  # a cached scan must not leak into what is built from a
    op = draw(st.sampled_from(["base", "add", "sub", "mul", "neg", "pow", "scale", "partial",
                               "compose", "extend", "monic"]))
    if op == "base":
        return a
    if op in ("add", "sub", "mul"):
        return {"add": a + b, "sub": a - b, "mul": a * b}[op]
    if op == "neg":
        return -a
    if op == "pow":
        return a ** draw(st.integers(0, 3))
    if op == "scale":
        return a.scale(draw(coeff))
    if op == "partial":
        return a.partial(draw(st.integers(0, n - 1)))
    if op == "compose":
        return a.compose([base() for _ in range(n)])
    if op == "extend":
        return a.extend(n + draw(st.integers(0, 2)))
    return a.monic()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(constructed_polynomials())
@example(Polynomial.zero(3))
@example(Polynomial.constant(2, 7))
@example(Polynomial(2, {(2, 0): 1, (0, 1): -3, (0, 0): 5}))
def test_degree_and_homogeneity_match_a_fresh_scan(p):
    for _ in range(2):  # the first call scans, the second reads the cache
        assert (p.degree(), p.is_homogeneous()) == _scanned_degrees(p)


SCALE_FACTORS = [Fraction(1, 3), Fraction(-2, 3), Fraction(7, 4), Fraction(6, 1), Fraction(-1), 5, -2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=6)),
                    max_size=6),
    st.one_of(st.sampled_from(SCALE_FACTORS), st.fractions(-9, 9, max_denominator=12), st.integers(-9, 9)),
)
@example({(2, 0): 6, (1, 0): 4, (0, 0): Fraction(3, 2)}, Fraction(1, 3))
@example({(2, 0): 6, (1, 0): 4, (0, 0): Fraction(3, 2)}, Fraction(2, 3))
@example({(1, 1): 5}, Fraction(0))
def test_scale_matches_the_fraction_route(terms, c):
    # products q does not divide stay Fractions, divisible ones become ints,
    # and Fraction coefficients are multiplied as before
    p = Polynomial(2, terms)
    expected = {e: norm_coeff(Fraction(v) * c) for e, v in p.terms.items() if v * c}
    got = p.scale(c)
    assert got.terms == expected
    assert {e: type(v) for e, v in got.terms.items()} == {e: type(v) for e, v in expected.items()}


# ----------------------------------------------------------------------
# gcd

def test_gcd_monomials():
    a = parse("x3^2*x4", nvars=5)
    b = parse("x3*x4^2", nvars=5)
    assert gcd(a, b) == parse("x3*x4", nvars=5)


def test_gcd_of_paper_cubic_psi_numerators():
    polys = [
        parse("-4*x4^2", nvars=5),
        parse("4*x3*x4", nvars=5),
        parse("-4*x3^2", nvars=5),
        Polynomial.zero(5),
        Polynomial.zero(5),
    ]
    g = gcd_list(polys)
    assert g.degree() == 0
    # trial division confirms no non-unit common factor
    for p in polys:
        if p:
            assert divides(g, p)


def test_gcd_idempotent_and_monic():
    f = parse("2*x0^2 + 4*x0*x1")
    g = gcd(f, f)
    assert g == parse("x0^2 + 2*x0*x1")
    _, lc = g.leading()
    assert lc == 1


def test_gcd_divides_both(seed=13, cases=40):
    rng = random.Random(seed)
    for _ in range(cases):
        a, b = random_poly(rng, nvars=2, max_terms=4), random_poly(rng, nvars=2, max_terms=4)
        if not a and not b:
            continue
        g = gcd(a, b)
        if a:
            assert divides(g, a)
        if b:
            assert divides(g, b)


def test_gcd_with_common_factor():
    common = parse("x0 + x1")
    a = common * parse("x0^2 + 3", nvars=2)
    b = common * parse("x1 - 5", nvars=2)
    g = gcd(a, b)
    assert g == common.monic()


def test_gcd_both_zero_rejected():
    z = Polynomial.zero(2)
    with pytest.raises(DomainError):
        gcd(z, z)


@st.composite
def gcd_cases(draw, max_vars=5):
    """(a·b, a·c) for random a, b, c with int or Fraction coefficients."""
    n = draw(st.integers(1, max_vars))
    if draw(st.booleans()):
        coeff = st.integers(-6, 6).filter(bool)
    else:
        coeff = st.fractions(-6, 6, max_denominator=5).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * n)

    def poly(min_size=0):
        return Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=min_size, max_size=3)))

    a, b, c = poly(min_size=1), poly(), poly()
    return a * b, a * c


def sympy_gcd_monic(a, b):
    xs = sympy.symbols(f"x0:{a.nvars}")

    def expr(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.prod(x ** k for x, k in zip(xs, e))
            for e, c in ((e, Fraction(c)) for e, c in p.terms.items())
        )

    g = sympy.Poly(sympy.gcd(expr(a), expr(b)), *xs)
    terms = {e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()}
    return Polynomial(a.nvars, terms).monic()


CONSTANT_AND_ZERO_CASES = [
    (parse("0", nvars=3), parse("x0*x2 - 3/2*x1^2")),
    (parse("x0^2 - x1", nvars=2), parse("0", nvars=2)),
    (parse("6", nvars=4), parse("4*x3 + 2")),
    (parse("2/3", nvars=2), parse("5/7", nvars=2)),
]

# the first evaluation point clears only the root bound of x0, so it is a
# root of the other input, whose image vanishes there
VANISHING_IMAGE_CASES = [
    (parse("x0 - 31"), parse("x0")),
    (parse("x0 - 31*x1"), parse("x0", nvars=2)),
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gcd_cases())
@example(CONSTANT_AND_ZERO_CASES[0])
@example(CONSTANT_AND_ZERO_CASES[1])
@example(CONSTANT_AND_ZERO_CASES[2])
@example(CONSTANT_AND_ZERO_CASES[3])
@example(VANISHING_IMAGE_CASES[0])
@example(VANISHING_IMAGE_CASES[1])
def test_gcd_matches_sympy(case):
    a, b = case
    if not a and not b:
        with pytest.raises(DomainError):
            gcd(a, b)
        return
    assert gcd(a, b) == sympy_gcd_monic(a, b)


# M is the product of the first eight evaluation points for the pair
# (x0^2 + x0, (x0 + 1)(x0 + M)): 31, 169, 1385, 22702, 744261, 58966268,
# 14015328567 and 13171708628261.  Each divides M, so at each of them the
# image gcd is (xi + 1)·xi, whose digits x0^2 + x0 do not divide the second
# input; the gcd x0 + 1 first shows at the ninth point.
M = 1334555360177676571497380129494860626631764270280


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("x0^2 + x0", f"(x0 + 1)*(x0 + {M})", "x0 + 1"),
        # the inner x0 recursion meets the same eight points
        ("(x0^2 + x0)*(x1 + 1)", f"(x0 + 1)*(x0 + {M})*(x1 + 1)", "(x0 + 1)*(x1 + 1)"),
    ],
)
def test_heuristic_gcd_draws_points_until_one_passes(a, b, expected):
    a, b, expected = parse(a), parse(b), parse(expected)
    g, qa, qb = _heu_gcd(_primitive_ints(a.terms), _primitive_ints(b.terms), sorted(a.variables_used()))
    assert Polynomial(a.nvars, g).monic() == expected
    assert Polynomial(a.nvars, g) * Polynomial(a.nvars, qa) == a
    assert Polynomial(a.nvars, g) * Polynomial(a.nvars, qb) == b
    assert gcd(a, b) == expected


# ----------------------------------------------------------------------
# reducedness proxy

def test_is_reduced_visible_square():
    assert is_reduced(parse("x0^2*x1"), seed=0) is False


def test_is_reduced_paper_cubic():
    f = parse(PAPER_CUBIC)
    assert is_reduced(f, seed=0) is True
    # oracle: gcd with each partial is constant
    for i in range(5):
        assert gcd(f, f.partial(i)).degree() == 0


def test_is_reduced_distinct_linear_factors():
    assert is_reduced(parse("x0*x1*x2"), seed=0) is True


def test_is_reduced_zero_rejected():
    with pytest.raises(DomainError):
        is_reduced(Polynomial.zero(2))


# ----------------------------------------------------------------------
# misc structure

def test_degree_sentinel_below_every_integer():
    z = Polynomial.zero(3)
    assert z.degree() < -(10 ** 18)


def test_monomials_of_degree_order():
    monos = monomials_of_degree(3, 2)
    assert monos[0] == (2, 0, 0)
    assert monos[-1] == (0, 0, 2)
    assert len(monos) == 6


def test_exact_div_and_remainder():
    f = parse("x0^2 - x1^2")
    q = f.exact_div(parse("x0 + x1"))
    assert q == parse("x0 - x1")
    with pytest.raises(InexactDivisionError):
        parse("x0^2 + x1^2").exact_div(parse("x0 + x1"))


def test_exact_div_by_a_monomial_on_a_large_form():
    # the seed-0 9,4,1,2,1,6 GN form: each step of the division takes the
    # remainder's leading term from a heap, not by a scan of 1890 terms
    f = random_instance(GNSkeleton(9, 4, 1, 2, 1, 6), seed=0).f
    assert len(f.terms) == 1890
    assert f.scale(6).exact_div(Polynomial.constant(f.nvars, 4)) == f.scale(Fraction(3, 2))
    x0 = Polynomial.variable(f.nvars, 0)
    assert (f * x0).exact_div(x0) == f
    assert (f * x0 * x0).exact_div(f) == x0 * x0
    with pytest.raises(InexactDivisionError):
        (f * x0 + Polynomial.variable(f.nvars, 1) ** 7).exact_div(x0)


@st.composite
def division_cases(draw):
    """(a, b, r): a and b in 1-3 variables with Fraction coefficients, b
    nonconstant, and r nonzero of lower degree than b, so that b divides
    a·b but not a·b + r."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(-6, 6, max_denominator=5).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * n)

    a = Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=4)))
    b = draw(st.dictionaries(exps, coeff, max_size=3))
    b[draw(exps.filter(any))] = draw(coeff)
    b = Polynomial(n, b)
    lower = exps.filter(lambda e: sum(e) < b.degree())
    return a, b, Polynomial(n, draw(st.dictionaries(lower, coeff, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(division_cases())
def test_exact_div_inverts_multiplication_and_refuses_non_multiples(case):
    a, b, r = case
    assert (a * b).exact_div(b) == a
    with pytest.raises(InexactDivisionError):
        (a * b + r).exact_div(b)


def test_substream_determinism():
    a = substream(42, "unit", 1).random()
    b = substream(42, "unit", 1).random()
    c = substream(42, "unit", 2).random()
    assert a == b
    assert a != c


def test_pow_negative_rejected():
    with pytest.raises(DomainError):
        parse("x0 + x1") ** -1


def test_parse_bare_prefix_rejected():
    with pytest.raises(ParseError, match="numeric index"):
        parse("x + x0")


def test_extend_embeds_and_refuses_shrink():
    f = parse("x0*x1")
    g = f.extend(4)
    assert g.nvars == 4 and g.degree() == 2
    with pytest.raises(VariableCountError):
        g.extend(2)


def test_compose_args_must_share_variable_count():
    g = parse("y0*y1", var_prefix="y")
    with pytest.raises(VariableCountError):
        g.compose([Polynomial.variable(2, 0), Polynomial.variable(3, 1)])

"""Polynomial core: parsing, arithmetic, calculus, gcd, binary forms, reducedness."""

import functools
import itertools
import json
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesse_lab.errors import DomainError, ParseError, VariableCountError
from hesse_lab.fields import norm_coeff, rational_content, substream
from hesse_lab import poly as poly_module
from hesse_lab.gn import GNSkeleton, random_instance
from hesse_lab.poly import (
    FIELD_LIMIT,
    MAX_EXPONENT,
    MAX_VARIABLE_INDEX,
    MINUS_INFINITY,
    Polynomial,
    _heu_gcd,
    _int_quotient,
    _layout,
    _new,
    _primitive_ints,
    binary_gcd,
    binary_quotient,
    dot,
    gcd,
    gcd_cofactors,
    gcd_list,
    is_reduced,
    monomials_of_degree,
    parse,
    substitute_forms,
)
from conftest import sampled_relation

PAPER_CUBIC = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"
GOLDEN = Path(__file__).resolve().parent / "golden"


def quotient(p, g):
    """prim(p)/prim(g) in Z[x] by trial division, as an exponent dict, or
    None; by Gauss's lemma g divides p in Q[x] exactly when this is not None."""
    q = _int_quotient(_layout(p.nvars), _primitive_ints(p._terms), _primitive_ints(g._terms))
    return None if q is None else _new(p.nvars, q).as_dict()


def primitive_dict(p):
    """prim(p) as an exponent dict."""
    return _new(p.nvars, _primitive_ints(p._terms)).as_dict()


def divides(g, p):
    return quotient(p, g) is not None


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
    assert len(f) == 3
    assert f.degree() == 3
    assert f.is_homogeneous()


def test_parse_zero():
    z = parse("0")
    assert z.is_zero()
    assert z.as_dict() == {}


def test_parse_fermat_cubic():
    f = parse("x0^3 + x1^3 + x2^3")
    assert len(f) == 3
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
    # canonical-looking text that the printed-text reader refuses, so that
    # the descent judges it
    ("x0*x0^999", {}, "variable exponent exceeds the cap 999", 3),
    ("x0^600*x0^600", {}, "variable exponent exceeds the cap 999", 7),
    ("x1000", {}, "variable index exceeds the cap 999", 1),
    ("x0^1000", {}, "variable exponent exceeds the cap 999", 0),
    ("1/0*x0", {}, "zero denominator", 0),
    ("y0 + x1", {}, "variable prefix 'y' does not match expected 'x'", 0),
    ("x5", {"nvars": 3}, "variable index 5 exceeds nvars=3", 0),
    ("1" * (sys.get_int_max_str_digits() + 1) + "*x0", {},
     f"number has more than {sys.get_int_max_str_digits()} digits", 0),
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
    assert parse("x01") == Polynomial.variable(2, 1)


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
        ("x0 - x٣", "variable needs a numeric index", 5),
        ("2*x0^²", "unexpected character '²'", 5),
    ],
)
def test_parse_grammar_is_ascii(text, message, position):
    # str.isdigit admits '²' and '٣', which int rejects or reads as 3
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, kwargs, expected",
    [
        ("x0+x1", {}, Polynomial(2, {(1, 0): 1, (0, 1): 1})),
        ("2 * x0 ^ 2", {}, Polynomial(1, {(2,): 2})),
        ("(x0 + x1)*x2", {}, Polynomial(3, {(1, 0, 1): 1, (0, 1, 1): 1})),
        ("0", {}, Polynomial.zero(1)),
        ("0", {"nvars": 4}, Polynomial.zero(4)),
        ("x0^1 + 4/2*x1", {}, Polynomial(2, {(1, 0): 1, (0, 1): 2})),
        ("x01 + x0^0", {}, Polynomial(2, {(0, 1): 1, (0, 0): 1})),
    ],
)
def test_parse_reads_text_outside_the_printed_language(text, kwargs, expected):
    p = parse(text, **kwargs)
    assert p == expected and p.nvars == expected.nvars


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


def _printed_with_names_per_call(p, prefix):
    """The printer before its factor tables, kept as an oracle: variable names
    and one exponent suffix per distinct exponent, made on every call."""
    if not p._terms:
        return "0"
    keys = sorted(p._terms, reverse=True)
    exps = list(_layout(p.nvars).unpack(keys))
    names = tuple(f"{prefix}{i}" for i in range(p.nvars))
    powers = {a: f"^{a}" for a in set(itertools.chain.from_iterable(exps))}
    powers[1] = ""
    out = []
    for k, e in zip(keys, exps):
        c = p._terms[k]
        mono = "*".join([v + powers[a] for v, a in zip(names, e) if a])
        mag = str(abs(c))
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        out.append((" - " if c < 0 else " + ") + body)
    out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]
    return "".join(out)


_PRINTED_COEFFS = st.one_of(
    st.sampled_from([1, -1, 0]),
    st.integers(-(2**61), 2**61),
    st.fractions(min_value=-(2**61), max_value=2**61, max_denominator=2**61),
)


@st.composite
def wide_polynomials(draw):
    nvars = draw(st.integers(1, 12))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, FIELD_LIMIT - 1))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * nvars), _PRINTED_COEFFS, max_size=8))
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(_PRINTED_COEFFS)  # a constant term, or none when 0
    return Polynomial(nvars, terms), draw(st.sampled_from(["x", "y", "z"]))


@settings(max_examples=300, deadline=None)
@given(wide_polynomials())
@example((Polynomial.zero(4), "y"))
@example((Polynomial.constant(12, -1), "z"))
@example((Polynomial(3, {(FIELD_LIMIT - 1, 0, 1): 2**61 - 1, (0, 1, 0): Fraction(-1, 2**61)}), "x"))
def test_factor_tables_print_what_the_per_call_names_print(case):
    # the tables are shared by every example of one (prefix, variable
    # count), so an entry made for one polynomial is read back for the next
    p, prefix = case
    assert p.to_string(prefix) == _printed_with_names_per_call(p, prefix)


def _no_descent(*args):
    raise AssertionError("the descent read printed text")


def assert_reader_matches_descent(text, prefix="x", nvars=None):
    """parse(text) by the printed-text reader with the descent barred equals
    parse(text) by the descent with the reader barred."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(poly_module, "_Parser", _no_descent)
        read = parse(text, prefix, nvars)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(poly_module, "_read_printed", lambda *args: None)
        descended = parse(text, prefix, nvars)
    assert read.nvars == descended.nvars
    # the same keys in the same order, with coefficients of the same type
    assert [(k, c, type(c)) for k, c in read._terms.items()] == [
        (k, c, type(c)) for k, c in descended._terms.items()
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(printable_polynomials())
@example((Polynomial.constant(3, Fraction(-7, 2)), "y"))
@example((Polynomial(2, {(10, 0): -1, (0, 12): Fraction(3, 11), (0, 0): 5}), "z"))
def test_printed_text_is_read_without_the_descent(case):
    p, prefix = case
    text = p.to_string(prefix)
    if p:  # "0" is the descent's
        assert_reader_matches_descent(text, prefix, p.nvars)
        assert_reader_matches_descent(text, prefix)


@pytest.mark.parametrize(
    "text", ["x0 - x0 + 3", "x1*x0 + x0*x1", "x0 - x0 + x1 + x0", "-1/2*x2^3 + 1/2*x2^3"]
)
def test_repeated_monomials_are_summed_as_the_descent_sums_them(text):
    assert_reader_matches_descent(text)


@pytest.mark.parametrize(
    "text, kwargs",
    [
        ("x01", {}), ("x0^1", {}), ("x0^01", {}), ("0", {}), ("+x0", {}), ("x0 + -x1", {}),
        ("x0  + x1", {}), ("x0 +x1", {}), ("x0\n", {}), ("2*3*x0", {}), ("x0*2", {}),
        ("x0*x0^999", {}), ("x0^600*x0^600", {}), ("x1000", {}), ("x0^1000", {}),
        ("x٣", {}), ("x0^²", {}), ("1/0*x0", {}), ("0/2*x0", {}),
        ("y0 + x1", {}), ("x5", {"nvars": 3}), ("x0", {"nvars": 0}), ("x12", {"var_prefix": "x1"}),
        ("x0", {"var_prefix": None}),
        ("1" * (sys.get_int_max_str_digits() + 1) + "*x0", {}),
    ],
)
def test_the_printed_text_reader_leaves_other_text_to_the_descent(text, kwargs):
    assert poly_module._read_printed(text, kwargs.get("var_prefix", "x"), kwargs.get("nvars")) is None


# the rungs of the benchmark's analyze-ladder workload
LADDER = (
    "4,2,1,2,1,3", "4,2,1,2,1,4", "4,2,1,2,1,6",
    "5,2,1,2,1,5", "5,3,1,2,1,6", "5,2,1,2,1,6",
    "6,3,1,2,1,5", "6,3,1,2,1,6",
    "7,4,1,2,1,5", "7,5,1,2,1,6", "7,4,1,2,1,6",
)


@pytest.mark.parametrize("rung", LADDER)
def test_the_ladder_forms_are_read_without_the_descent(rung):
    f = random_instance(GNSkeleton(*map(int, rung.split(","))), seed=0).f
    assert_reader_matches_descent(f.to_string("x"))
    assert parse(f.to_string("x")) == f


def test_the_golden_inputs_are_read_without_the_descent():
    texts = [json.loads(path.read_text()).get("input", {}).get("poly") for path in sorted(GOLDEN.glob("*.json"))]
    texts = [t for t in texts if t is not None]
    assert len(texts) >= 13
    for text in texts:
        assert_reader_matches_descent(text)


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
    # the largest exponent of a product is top: a byte and more fit the
    # 16-bit exponent field, and 2^70 is refused when the form is built
    if top > FIELD_LIMIT:
        with pytest.raises(DomainError):
            Polynomial(2, {(top - 1, 0): 2})
        return
    a = Polynomial(2, {(top - 1, 0): 2, (0, top - 1): -1, (1, 3): 3})
    b = Polynomial(2, {(1, 0): 5, (0, 1): 1, (0, 0): -4})
    expected = {}
    for ea, ca in a.as_dict().items():
        for eb, cb in b.as_dict().items():
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
    for e, c in f.as_dict().items():
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
    assert all(type(c) is int or c.denominator != 1 for c in got.coefficients())


def to_sympy(p, symbols):
    return sum((c * sympy.Mul(*(x ** k for x, k in zip(symbols, e))) for e, c in p.as_dict().items()),
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
    assert all(type(c) is int or c.denominator != 1 for c in got.coefficients())


def _scanned_degrees(p):
    """(degree, is_homogeneous) by a fresh scan of the terms."""
    degrees = {sum(e) for e in p.as_dict()}
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
    expected = {e: norm_coeff(Fraction(v) * c) for e, v in p.as_dict().items() if v * c}
    got = p.scale(c)
    assert got.as_dict() == expected
    assert {e: type(v) for e, v in got.as_dict().items()} == {e: type(v) for e, v in expected.items()}


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
            for e, c in ((e, Fraction(c)) for e, c in p.as_dict().items())
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


@st.composite
def cofactor_cases(draw, max_vars=4):
    """a·b_1, …, a·b_k for k = 1..4, some of them zero."""
    n = draw(st.integers(1, max_vars))
    coeff = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=5)).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * n)
    a = Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)))
    count = draw(st.integers(1, 4))
    return [a * Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=3))) for _ in range(count)]


def primitive(monic):
    """A monic gcd as `gcd_cofactors` returns it: coprime integer
    coefficients, the leading one staying positive."""
    return monic.scale(1 / rational_content(monic.coefficients()))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cofactor_cases())
def test_gcd_cofactors_are_the_exact_quotients_of_the_gcd(polys):
    if not any(polys):
        with pytest.raises(DomainError):
            gcd_cofactors(polys)
        return
    rho, quotients = gcd_cofactors(polys)
    assert rho == primitive(gcd_list(polys))
    assert len(quotients) == len(polys)
    for p, q in zip(polys, quotients):
        assert rho * q == p


@pytest.mark.parametrize("n", [2, 3, 9])
def test_monomial_division_on_keys_refuses_every_borrow(n):
    layout = _layout(n)

    def key(*e):
        return layout.pack(e + (0,) * (n - len(e)))

    # x1 / x0: the difference is negative
    assert key(0, 1) - key(1, 0) < 0
    assert layout.divide(key(0, 1), key(1, 0)) is None
    # x0^2 / (x0·x1): x1's field borrows from x0's; the difference is
    # positive, but its fields sum to 65535 against a degree field of 0
    assert key(2, 0) - key(1, 1) > 0
    assert layout.divide(key(2, 0), key(1, 1)) is None
    # x1^2 / x0: x0's field, the top one, borrows from the degree field
    assert key(0, 2) - key(1, 0) > 0
    assert layout.divide(key(0, 2), key(1, 0)) is None
    if n > 2:
        # x0·x2 / x1: one borrow between inner fields
        assert key(1, 0, 1) - key(0, 1) > 0
        assert layout.divide(key(1, 0, 1), key(0, 1)) is None
        assert layout.divide(key(1, 1, 1), key(0, 1)) == (1, 0, 1) + (0,) * (n - 3)
    # no borrow: the exponents of the quotient, or of 1
    assert layout.divide(key(2, 1), key(1, 1)) == (1,) + (0,) * (n - 1)
    assert layout.divide(key(FIELD_LIMIT - 1, 3), key(0, 3)) == (FIELD_LIMIT - 1,) + (0,) * (n - 1)
    assert layout.divide(key(0, 1), key(0, 1)) == (0,) * n


def from_sympy(expr, xs):
    poly = sympy.Poly(expr, *xs)
    return Polynomial(len(xs), {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


class TopLevelHeuCalls:
    """Counts the calls of `_heu_gcd` that are not made by `_heu_gcd` itself."""

    def __init__(self):
        self.count, self.depth = 0, 0

    def __enter__(self):
        real = poly_module._heu_gcd

        def counted(*args):
            self.count += self.depth == 0
            self.depth += 1
            try:
                return real(*args)
            finally:
                self.depth -= 1

        poly_module._heu_gcd = counted
        self.real = real
        return self

    def __exit__(self, *exc):
        poly_module._heu_gcd = self.real


def check_cofactors_against_sympy(polys):
    """gcd_cofactors(polys) is sympy's monic gcd made primitive, with
    sympy's exact quotients, and runs GCDHEU once per part that the gcd so
    far does not divide; returns that number of GCDHEU runs."""
    xs = sympy.symbols(f"x0:{polys[0].nvars}")
    exprs = [to_sympy(p, xs) for p in polys]
    running, shrinks = exprs[0], 0
    for e in exprs[1:]:
        if sympy.div(e, running, *xs)[1] != 0:
            running, shrinks = sympy.gcd(running, e), shrinks + 1
    with TopLevelHeuCalls() as calls:
        rho, quotients = gcd_cofactors(polys)
    assert calls.count == shrinks
    assert rho == primitive(from_sympy(running, xs).monic())
    # gcd and gcd_list run the same fold without its cofactors, and are monic
    assert gcd_list(polys) == from_sympy(running, xs).monic()
    assert primitive(gcd(*polys[:2])) == gcd_cofactors(polys[:2])[0]
    for e, q in zip(exprs, quotients):
        quo, rem = sympy.div(e, to_sympy(rho, xs), *xs)
        assert rem == 0 and q == from_sympy(quo, xs)
    return calls.count


@st.composite
def gcd_families(draw, shrink):
    """Nonzero P_0 = a·b·c_0 and P_1 = a·b·c_1, then one to three later
    parts in 1-4 variables with int or Fraction coefficients.  With shrink
    False, P_j = P_0·u_j + P_1·v_j, a multiple of gcd(P_0, P_1); with shrink
    True, P_j = a·c_j for a nonconstant b, so the gcd shrinks at P_2 unless
    b divides it."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=5)).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * n)

    def poly(exps=exps):
        return Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)))

    a, b = poly(), poly(exps.filter(any)) if shrink else poly()
    p0, p1 = a * b * poly(), a * b * poly()
    later = [a * poly() if shrink else p0 * poly() + p1 * poly() for _ in range(draw(st.integers(1, 3)))]
    return [p0, p1, *(p or p0 for p in later)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gcd_families(shrink=False))
def test_gcd_cofactors_takes_later_multiples_by_trial_division(polys):
    # at most P_1 needs GCDHEU; each later part divides by the gcd so far
    assert check_cofactors_against_sympy(polys) <= 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gcd_families(shrink=True))
@example([parse("x0^2*x1 + x0*x1^2"), parse("x0^2*x1 - x0*x1^2"), parse("x1^3 + x1", nvars=2)])
def test_gcd_cofactors_rescales_earlier_cofactors_when_the_gcd_shrinks(polys):
    check_cofactors_against_sympy(polys)


def test_gcd_builds_no_quotient_polynomial(monkeypatch):
    # only the gcd itself, before and after it is made monic, is built
    common = parse("2*x0 + x1")
    a, b = common * parse("x0^2 + 3", nvars=2), common * parse("x1 - 5", nvars=2)
    polys, expected = [a, b, a * b], common.monic()
    real, built = poly_module._new, []
    monkeypatch.setattr(poly_module, "_new", lambda n, keyed: built.append(set(keyed)) or real(n, keyed))
    results = gcd(a, b), gcd_list(polys)
    monkeypatch.undo()
    assert results == (expected, expected)
    assert built and all(keys == set(expected._terms) for keys in built)


def test_gcd_cofactors_runs_gcdheu_only_where_the_gcd_shrinks():
    # the paper cubic's parts 4·x4^2, -4·x3·x4, 4·x3^2: gcd x4 after two,
    # which x3^2 refuses, so GCDHEU runs for each later part
    parts = sampled_relation(parse(PAPER_CUBIC), max_degree=2).parts
    with TopLevelHeuCalls() as calls:
        rho, _ = gcd_cofactors(parts)
    assert (rho, calls.count) == (1, 2)
    # a ladder rung's five parts: ρ after two, which divides the other three
    parts = sampled_relation(random_instance(GNSkeleton(7, 4, 1, 2, 1, 5), seed=0).f).parts
    with TopLevelHeuCalls() as calls:
        rho, _ = gcd_cofactors(parts)
    assert (len(parts), rho.degree(), calls.count) == (5, 2, 1)


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
    g, qa, qb = _heu_gcd(_layout(a.nvars), _primitive_ints(a._terms), _primitive_ints(b._terms), sorted(a.variables_used()))
    g, qa, qb = (_new(a.nvars, x) for x in (g, qa, qb))
    assert g.monic() == expected
    assert g * qa == a
    assert g * qb == b
    assert gcd(a, b) == expected


# ----------------------------------------------------------------------
# binary forms: one univariate Euclid

def test_binary_gcd_keeps_the_powers_of_both_coordinates():
    # the cross product of the derivatives of ψ_g's coordinates on the
    # Perazzo quintic: −32·u³v³(u + v)³ times (u^5, v^5, (u + v)^5)
    u, v = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    common = u ** 3 * v ** 3 * (u + v) ** 3
    forms = [common.scale(-32) * p for p in (u ** 5, v ** 5, (u + v) ** 5)]
    assert binary_gcd(forms) == common
    assert [binary_quotient(p, common) for p in forms] == [p.scale(-32) for p in (u ** 5, v ** 5, (u + v) ** 5)]


def test_binary_forms_are_read_in_the_last_two_variables():
    # in five variables the forms in (x3, x4) divide like those in (x0, x1)
    a, b = parse("2*x3^3*x4 - 2*x3*x4^3", nvars=5), parse("3*x3^2 + 3*x3*x4", nvars=5)
    assert binary_gcd([a, b]) == parse("x3^2 + x3*x4", nvars=5)
    assert binary_quotient(a, b) == parse("2/3*x3*x4 - 2/3*x4^2", nvars=5)
    assert binary_quotient(b, a) is None
    with pytest.raises(DomainError):
        binary_gcd([Polynomial.zero(2)])


@st.composite
def binary_pairs(draw):
    """Two or three binary forms of degree 0..9, not all zero, with a common
    factor: v^k times products of linear forms, times random forms of
    degree 0..2.  Coefficients are small, 61-bit (as `is_reduced`'s lines
    give) or Fractions, and one of three forms may be zero."""
    small = st.integers(-3, 3)
    coeff = st.one_of(small, st.integers(-(2 ** 61), 2 ** 61), st.fractions(-9, 9, max_denominator=7))
    pairs = st.tuples(st.one_of(small, coeff), st.one_of(small, coeff)).filter(any)
    v = Polynomial.variable(2, 1)
    common = Polynomial.constant(2, draw(st.sampled_from((1, -2, 3, Fraction(-5, 7))))) * v ** draw(st.integers(0, 3))
    for ab in draw(st.lists(pairs, max_size=3)):
        common = common * Polynomial.linear_form(list(ab))

    def other():
        e = draw(st.integers(0, 2))
        coeffs = draw(st.lists(st.one_of(small, coeff), min_size=e + 1, max_size=e + 1).filter(any))
        return common * Polynomial(2, {(e - i, i): c for i, c in enumerate(coeffs) if c})

    forms = [other(), other()]
    if draw(st.booleans()):
        forms.insert(draw(st.integers(0, 2)), Polynomial.zero(2) if draw(st.booleans()) else other())
    return forms


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(binary_pairs())
def test_binary_gcd_matches_sympy_and_divides_exactly(forms):
    u, v = sympy.symbols("u v")
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * u ** e[0] * v ** e[1] for e, c in p.as_dict().items())
        for p in forms
    ]
    expected = sympy.Poly(functools.reduce(sympy.gcd, exprs), u, v)
    g = binary_gcd(forms)
    got = sympy.Poly(sum(c * u ** e[0] * v ** e[1] for e, c in g.as_dict().items()), u, v)
    assert sympy.expand(got.as_expr() * expected.LC() - expected.as_expr() * got.LC()) == 0
    assert g.leading()[1] > 0 and all(type(c) is int for c in g.coefficients())
    assert math.gcd(*g.coefficients()) == 1
    for p in forms:
        assert binary_quotient(p, g) * g == p
    a, b = [p for p in forms if p][:2]
    assert binary_quotient(a * b, b) == a


# ----------------------------------------------------------------------
# reducedness on a line

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


@st.composite
def reducedness_cases(draw):
    """Nonzero forms of degree 1..4 in 2..4 variables with at most five
    terms (monomials with a squared variable are common), or p²·q for forms
    p of degree 1..2 and q of degree 0..2."""
    n = draw(st.integers(2, 4))

    def form(d):
        coeffs = st.integers(-3, 3).filter(bool)
        return Polynomial(n, draw(st.dictionaries(st.sampled_from(monomials_of_degree(n, d)), coeffs, min_size=1, max_size=5)))

    if draw(st.booleans()):
        return form(draw(st.integers(1, 4)))
    p = form(draw(st.integers(1, 2)))
    return p * p * form(draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reducedness_cases())
# reduced, though its factors vanish at v = (9, −2) and (−6, −5): a test of
# gcd(f, D_v f) at those two directions finds a factor each time and refuses it
@example(parse("(2*x0 + 9*x1)*(5*x0 - 6*x1)"))
def test_is_reduced_matches_sympy_sqf_list(f):
    xs = sympy.symbols(f"x0:{f.nvars}")
    expr = sum(c * sympy.prod(x ** k for x, k in zip(xs, e)) for e, c in f.as_dict().items())
    _, factors = sympy.sqf_list(expr, *xs)
    assert is_reduced(f) is all(k == 1 for _, k in factors)


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


def test_int_quotient_and_remainder():
    f = parse("x0^2 - x1^2")
    assert quotient(f, parse("x0 + x1")) == parse("x0 - x1").as_dict()
    assert quotient(parse("x0^2 + x1^2"), parse("x0 + x1")) is None


def test_int_quotient_by_a_constant_on_61_bit_coefficients():
    # a constant divisor is divided coefficient by coefficient
    rng = random.Random(61)
    a = Polynomial(3, {e: rng.randrange(-(2 ** 61), 2 ** 61) for e in monomials_of_degree(3, 4)})
    layout, c = _layout(3), 2 ** 61 - 1
    assert _int_quotient(layout, a._terms, {0: 1}) == a._terms
    assert _int_quotient(layout, a._terms, {0: -1}) == (-a)._terms
    multiple = a.scale(c)
    assert _int_quotient(layout, multiple._terms, {0: c}) == a._terms
    assert _int_quotient(layout, multiple._terms, {0: -c}) == (-a)._terms
    # one coefficient off a multiple of c
    off = multiple + Polynomial(3, {(0, 0, 4): 1})
    assert _int_quotient(layout, off._terms, {0: c}) is None
    assert _int_quotient(layout, off._terms, {0: 1}) == off._terms


def test_int_quotient_by_a_monomial_on_a_large_form():
    # the seed-0 9,4,1,2,1,6 GN form: each step of the division takes the
    # remainder's leading term from a heap, not by a scan of 1890 terms
    f = random_instance(GNSkeleton(9, 4, 1, 2, 1, 6), seed=0).f
    assert len(f) == 1890
    prim = _primitive_ints(f._terms)
    assert _int_quotient(_layout(f.nvars), {k: 4 * c for k, c in prim.items()}, {0: 4}) == prim
    x0 = Polynomial.variable(f.nvars, 0)
    prim = primitive_dict(f)
    assert quotient(f * x0, x0) == prim
    assert quotient(f * x0 * x0, f) == (x0 * x0).as_dict()
    assert quotient(f * x0 + Polynomial.variable(f.nvars, 1) ** 7, x0) is None


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
def test_int_quotient_inverts_multiplication_and_refuses_non_multiples(case):
    # prim(a·b) = prim(a)·prim(b) by Gauss's lemma
    a, b, r = case
    assert quotient(a * b, b) == (primitive_dict(a) if a else {})
    assert quotient(a * b + r, b) is None


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


# ----------------------------------------------------------------------
# the packed layout against a tuple-dict oracle

def _grlex(e):
    return sum(e), e


def _oracle(terms):
    """terms with canonical coefficients and no zeros, as Polynomial keeps them."""
    return {e: norm_coeff(c) for e, c in terms.items() if c}


def _oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _oracle(out)


def _oracle_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(sum, zip(ea, eb)))
            out[e] = out.get(e, 0) + ca * cb
    return _oracle(out)


def _oracle_string(terms):
    """The graded-lex descending printing, term by term."""
    out = []
    for e in sorted(terms, key=_grlex, reverse=True):
        c = terms[e]
        mono = "*".join(f"x{i}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(e) if a)
        mag = str(abs(c))
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        out.append(("-" if c < 0 else "+", body))
    first = out[0][1] if out[0][0] == "+" else "-" + out[0][1]
    return first + "".join(f" {sign} {body}" for sign, body in out[1:])


@st.composite
def layout_cases(draw):
    """(n, a, b): term dicts in 1-9 variables with int or Fraction
    coefficients; exponents small, or up to one below the field limit."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        coeff = st.integers(-9, 9)
    else:
        coeff = st.fractions(-9, 9, max_denominator=6)
    exponent = st.one_of(
        st.integers(0, 3),
        st.sampled_from((FIELD_LIMIT // 2 - 1, FIELD_LIMIT // 2, FIELD_LIMIT - 2, FIELD_LIMIT - 1)),
        st.integers(0, FIELD_LIMIT - 1),
    )
    exps = st.tuples(*[exponent] * n)
    a, b = (draw(st.dictionaries(exps, coeff, max_size=5)) for _ in range(2))
    return n, a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(layout_cases())
@example((1, {(FIELD_LIMIT - 1,): 1}, {}))  # x^65535·x: times_variable raises
def test_packed_layout_matches_the_tuple_oracle(case):
    n, a, b = case
    p, q = Polynomial(n, a), Polynomial(n, b)
    a, b = _oracle(a), _oracle(b)
    assert p.as_dict() == a
    # key order is graded-lex order
    es = list(a) + list(b)
    assert sorted(es, key=_layout(n).pack) == sorted(es, key=_grlex)
    assert (p + q).as_dict() == _oracle_add(a, b)
    # a product raises exactly when some variable's exponents could pass a field
    if a and b and any(x + y >= FIELD_LIMIT for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))):
        with pytest.raises(DomainError):
            p * q
    else:
        assert (p * q).as_dict() == _oracle_mul(a, b)
    for i in range(n):
        assert p.partial(i).as_dict() == _oracle(
            {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}
        )
    assert p.extend(n + 2).as_dict() == {e + (0, 0): c for e, c in a.items()}
    for i in range(n):
        if any(e[i] == FIELD_LIMIT - 1 for e in a):
            with pytest.raises(DomainError, match="product exponent"):
                p.times_variable(i)
        else:
            assert p.times_variable(i).as_dict() == {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in a.items()}
    # x^h divides x^e on keys exactly when it does on exponents
    pack = _layout(n).pack
    for e in es:
        for h in es:
            d = tuple(x - y for x, y in zip(e, h))
            assert _layout(n).divide(pack(e), pack(h)) == (d if min(d) >= 0 else None)
    if a:
        lead = max(a, key=_grlex)
        assert p.leading() == (lead, a[lead])
        assert p.degree() == sum(lead)
        assert p.to_string() == _oracle_string(a)
    else:
        assert p.degree() == MINUS_INFINITY and p.to_string() == "0"


def _composed_exponent_bound(f, args):
    """max_v Σ_i E_i·D_iv: E_i the largest exponent of x_i in f, D_iv that of
    y_v in args[i]."""
    def top(p):
        return [max(col) for col in zip(*p.as_dict())] or [0] * args[0].nvars
    return max(sum(map(operator.mul, top(f), col)) for col in zip(*map(top, args)))


@st.composite
def layout_compose_cases(draw):
    """(F, args): F with exponents up to 3 in 1-4 variables, args of up to
    three terms in 1-4 variables whose exponents reach near the field limit,
    so that deg F · max deg args passes it in some cases."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)).filter(bool)
    f = Polynomial(n, draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=3)))
    exponent = st.one_of(st.integers(0, 2), st.sampled_from((FIELD_LIMIT // 8, FIELD_LIMIT // 4 - 1)))
    arg = st.dictionaries(st.tuples(*[exponent] * m), coeff, max_size=3)
    return f, [Polynomial(m, draw(arg)) for _ in range(n)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(layout_compose_cases())
def test_packed_compose_matches_sympy_below_the_field_limit(case):
    f, args = case
    top = f.degree() * max((a.degree() for a in args if a), default=0) if f else 0
    if top >= FIELD_LIMIT and _composed_exponent_bound(f, args) >= FIELD_LIMIT:
        with pytest.raises(DomainError, match="composed exponent"):
            f.compose(args)
        return
    xs = sympy.symbols(f"y0:{f.nvars}")
    zs = sympy.symbols(f"x0:{args[0].nvars}")
    expected = sympy.expand(to_sympy(f, xs).subs(
        {x: to_sympy(a, zs) for x, a in zip(xs, args)}, simultaneous=True))
    assert sympy.expand(to_sympy(f.compose(args), zs) - expected) == 0


@st.composite
def substitution_cases(draw):
    """(p, forms, nvars): p of degree at most 3 in r = 0-3 form variables
    and 0-2 tail ones, forms of degree at most 2 in nvars = 1-4 variables,
    zero members among them, with int or Fraction coefficients."""
    r = draw(st.integers(0, 3))
    tail = draw(st.integers(0 if r else 1, 2))
    nvars = draw(st.integers(max(tail, 1), 4))
    coeff = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)).filter(bool)
    exps = st.lists(st.integers(0, 3), min_size=r + tail, max_size=r + tail).filter(lambda e: sum(e) <= 3)
    p = Polynomial(r + tail, draw(st.dictionaries(exps.map(tuple), coeff, max_size=5)))
    form_exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(lambda e: sum(e) <= 2)
    form = st.one_of(
        st.dictionaries(form_exps.map(tuple), coeff, max_size=4),
        st.just({}),
    )
    return p, [Polynomial(nvars, draw(form)) for _ in range(r)], nvars


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(substitution_cases())
def test_substitute_forms_matches_compose(case):
    p, forms, nvars = case
    tail = p.nvars - len(forms)
    args = [*forms, *(Polynomial.variable(nvars, v) for v in range(nvars - tail, nvars))]
    assert substitute_forms(p, forms, nvars) == p.compose(args)


def test_substitute_forms_raises_where_compose_does():
    # z^40000 at Q = 2·x0^2 would reach x0^80000; one term of Q keeps each
    # of the 40000 levels cheap, so a missing check shows as a wrong answer
    p = Polynomial(1, {(40000,): 1})
    q = Polynomial(2, {(2, 0): 2})
    with pytest.raises(DomainError, match="composed exponent"):
        p.compose([q])
    with pytest.raises(DomainError, match="composed exponent"):
        substitute_forms(p, [q], 2)
    # a form in another variable count, and three tail variables for two
    with pytest.raises(VariableCountError):
        substitute_forms(Polynomial(2, {(1, 1): 1}), [Polynomial.variable(3, 0)], 2)
    with pytest.raises(VariableCountError):
        substitute_forms(Polynomial(4, {(1, 1, 1, 1): 1}), [q], 2)


def test_substitute_forms_reads_past_a_carry_in_an_unread_product():
    # p = z0·z1 + z1 at (x0, x1^40000): compose's bound holds (no x1
    # exponent passes 40000), but the packed product at the root also forms
    # Q_1·V_{z0} = x1^80000, which carries out of x1's field into a digit
    # that is never read
    p = Polynomial(2, {(1, 1): 1, (0, 1): 1})
    forms = [Polynomial.variable(2, 0), Polynomial(2, {(0, 40000): 1})]
    expected = Polynomial(2, {(1, 40000): 1, (0, 40000): 1})
    assert p.compose(forms) == expected
    assert substitute_forms(p, forms, 2) == expected


def test_dot_raises_where_a_product_does():
    top = Polynomial(1, {(FIELD_LIMIT - 1,): 1})
    x = Polynomial.variable(1, 0)
    with pytest.raises(DomainError, match="product exponent"):
        dot([x, x], [x, top])
    with pytest.raises(DomainError):
        dot([x], [x, x])


def test_the_field_limit_raises_instead_of_carrying():
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    top = Polynomial(2, {(FIELD_LIMIT - 1, 0): 1})
    with pytest.raises(DomainError):
        Polynomial(2, {(FIELD_LIMIT, 0): 1})
    with pytest.raises(DomainError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(DomainError, match="product exponent"):
        top * x0
    with pytest.raises(DomainError, match="product exponent"):
        top ** 2
    with pytest.raises(DomainError, match="product exponent"):
        top.times_variable(0)
    # past the limit in total degree only: the fields hold, so no error
    assert (top * x1).as_dict() == {(FIELD_LIMIT - 1, 1): 1}
    assert top.times_variable(1) == top * x1
    assert (top * Polynomial(2, {(0, FIELD_LIMIT - 1): 3})).degree() == 2 * FIELD_LIMIT - 2
    with pytest.raises(DomainError, match="composed exponent"):
        Polynomial(1, {(2,): 1}).compose([Polynomial(2, {(FIELD_LIMIT // 2, 0): 1})])


def test_compose_bounds_each_exponent_not_the_total_degree():
    # deg F · max deg args = 80000 passes the field limit, but no exponent
    # of the result passes 40000: x0·x1 at (y0^40000 + y2, y1^40000 + y2)
    big = 40000
    args = [Polynomial(3, {(big, 0, 0): 1, (0, 0, 1): 1}), Polynomial(3, {(0, big, 0): 1, (0, 0, 1): 1})]
    composed = parse("x0*x1").compose(args)
    ys = sympy.symbols("y0:3")
    expected = sympy.expand((ys[0] ** big + ys[2]) * (ys[1] ** big + ys[2]))
    assert sympy.expand(to_sympy(composed, ys) - expected) == 0
    assert composed.as_dict() == {(big, big, 0): 1, (big, 0, 1): 1, (0, big, 1): 1, (0, 0, 2): 1}
    # a real overflow still raises: x0^2 at y0^40000 + y1 holds y0^80000
    with pytest.raises(DomainError, match="composed exponent"):
        parse("x0^2").compose([Polynomial(2, {(big, 0): 1, (0, 1): 1})])

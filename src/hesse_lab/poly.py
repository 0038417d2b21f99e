"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a map from exponent tuples to nonzero rational coefficients
(int / Fraction, see fields.py).  Terms are kept canonical: no zero
coefficients, no duplicate monomials, and all printing/iteration uses
graded-lexicographic descending order, so equal polynomials print identically.

Degree of the zero polynomial is the sentinel ``MINUS_INFINITY``, which
compares below every integer.

Products and compositions work on dicts keyed by packed exponent ints, where
a monomial product is one int add; ``_mul_packed`` is the one multiply loop.
``compose`` applies each single-term argument as a key offset and a
coefficient power, runs Horner's rule over the multi-term arguments one
variable at a time on such dicts, adds in place and unpacks once.
``gn.build_Q`` builds its ψ-rows by the same Horner's rule (``_horner``),
and keeps their minors and its cofactor sums on packed keys too.  A polynomial
reads its least and greatest total degree on first use and keeps them, so
``degree`` and ``is_homogeneous`` scan the terms once.

``gcd`` is the heuristic GCDHEU over the integers (evaluation at large
integers, integer gcd, reconstruction from symmetric digits).  It accepts a
result only after exact trial division and draws larger points until one
passes, which always happens; the comment above ``_heu_gcd`` proves both.
Results are monic.  ``exact_div`` is the same integer trial division
(``_int_quotient``) on the primitive integer parts.

``parse`` reads text in one recursive-descent pass over ASCII tokens,
folding each term into one exponent vector as it goes, and refuses a
variable index past ``MAX_VARIABLE_INDEX``, a variable exponent past
``MAX_EXPONENT`` and a number longer than the interpreter's int-string limit.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
import sys
from fractions import Fraction

from .errors import DomainError, InexactDivisionError, ParseError, VariableCountError
from .fields import coeff_div, norm_coeff, rational_content, substream

MINUS_INFINITY = float("-inf")


def _packing(top, nvars):
    """(pack, unpack) between exponent tuples and ints, one field per
    variable wide enough for exponents up to top, so that the sum of two
    packed tuples whose exponent sums stay within top packs their sum."""
    if top < 256:
        # one byte per variable, so both directions run in C
        return (
            lambda e: int.from_bytes(bytes(e), "little"),
            lambda k: tuple(k.to_bytes(nvars, "little")),
        )
    width = top.bit_length()
    shifts = range(0, width * nvars, width)
    mask = (1 << width) - 1
    return (
        lambda e: sum(x << s for x, s in zip(e, shifts)),
        lambda k: tuple(k >> s & mask for s in shifts),
    )


def _add_into(acc, pairs):
    """acc += the (key, coefficient) pairs in place, dropping the sums that
    cancel; returns acc."""
    for k, c in pairs:
        s = acc.get(k, 0) + c
        if s:
            acc[k] = s
        else:
            del acc[k]
    return acc


def _mul_packed(a, b):
    """Product of two term dicts keyed by packed exponents: a monomial product
    is one int add.  The one multiply loop, behind __mul__ and compose."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _horner(terms, packed, i):
    """Σ_k a_v^k·F_k(a) by Horner's rule in (v, a_v) = packed[i], for terms
    the (exponents, (packed key, coefficient)) pairs of F that agree on the
    variables of packed[:i]; each F_k(a) alike from packed[i + 1]."""
    if i == len(packed):
        return _add_into({}, map(operator.itemgetter(1), terms))
    v, a = packed[i]
    parts = {}
    for t in terms:
        parts.setdefault(t[0][v], []).append(t)
    acc = {}
    for k in range(max(parts), -1, -1):
        acc = _mul_packed(acc, a)
        if k in parts:
            _add_into(acc, _horner(parts[k], packed, i + 1).items())
    return acc


def grlex_key(exps):
    """Sort key realizing graded-lex: higher total degree first, then lex on
    exponents with x0 heaviest.  Use with reverse=True for descending order."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables x0..x_{nvars-1}."""

    # _low and _high: the least and greatest total degree of a term, read on
    # first use; _high is None until then
    __slots__ = ("nvars", "terms", "_low", "_high")

    def __init__(self, nvars, terms):
        if nvars < 1:
            raise VariableCountError("a polynomial needs at least one variable")
        self.nvars = nvars
        self.terms = {e: norm_coeff(c) for e, c in terms.items() if c}
        self._high = None

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(nvars):
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars, c):
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars, i):
        if not 0 <= i < nvars:
            raise VariableCountError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, {tuple(e): 1})

    @staticmethod
    def linear_form(coeffs):
        """Σ coeffs[i]·x_i in len(coeffs) variables."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return Polynomial(n, terms)

    # ------------------------------------------------------------------
    # structure

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _scan_degrees(self):
        degrees = list(map(sum, self.terms)) or [MINUS_INFINITY]
        self._low, self._high = min(degrees), max(degrees)

    def degree(self):
        if self._high is None:
            self._scan_degrees()
        return self._high

    def is_homogeneous(self):
        if self._high is None:
            self._scan_degrees()
        return self._low == self._high

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def variables_used(self):
        return {i for e in self.terms for i, a in enumerate(e) if a}

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise VariableCountError(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compat(other)
        return Polynomial(self.nvars, _add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compat(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.nvars)
        a, b = self.terms, other.terms
        pack, unpack = _packing(max(map(max, a)) + max(map(max, b)), self.nvars)
        out = _mul_packed({pack(e): c for e, c in a.items()}, {pack(e): c for e, c in b.items()})
        return Polynomial(self.nvars, {unpack(k): c for k, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative exponent")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        """c·self.  For c = p/q in lowest terms, an int coefficient v becomes
        v·p // q when q divides v·p, else the Fraction v·p/q: the values and
        types of the Fraction product, without building one per term."""
        c = norm_coeff(c)
        if not c:
            return Polynomial.zero(self.nvars)
        if type(c) is not Fraction:
            return Polynomial(self.nvars, {e: v * c for e, v in self.terms.items()})
        p, q = c.numerator, c.denominator
        out = {}
        for e, v in self.terms.items():
            if type(v) is int:
                w, r = divmod(v * p, q)
                out[e] = Fraction(v * p, q) if r else w
            else:
                out[e] = v * c
        return Polynomial(self.nvars, out)

    # ------------------------------------------------------------------
    # calculus, evaluation, substitution

    def partial(self, i):
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.nvars:
            raise VariableCountError(f"variable index {i} out of range")
        # distinct terms differentiate to distinct monomials, so nothing collects
        return Polynomial(self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]
        })

    def gradient(self):
        return [self.partial(i) for i in range(self.nvars)]

    def evaluate(self, point):
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise VariableCountError(
                f"point length {len(point)} != variable count {self.nvars}"
            )
        acc = 0
        for e, c in self.terms.items():
            t = c
            for i, a in enumerate(e):
                if a:
                    t = t * point[i] ** a
            acc = acc + t
        return norm_coeff(acc)

    def compose(self, args):
        """Substitute args[i] for x_i; args share one variable count.

        A single-term argument c·x^a turns x_v^k into c^k·x^(k·a): a key
        offset and a coefficient power on each term, and a zero argument
        drops the terms it enters.  Over the multi-term arguments, Horner's
        rule one variable at a time: F = Σ_k x_v^k·F_k gives
        F(a) = (…(F_K(a)·a_v + F_{K−1}(a))·a_v + …)·a_v + F_0(a), each F_k(a)
        composed alike from the next one, on dicts keyed by packed exponents."""
        if len(args) != self.nvars:
            raise VariableCountError(
                f"{len(args)} substitution arguments for {self.nvars} variables"
            )
        m = args[0].nvars
        if any(a.nvars != m for a in args):
            raise VariableCountError("substitution arguments disagree on variable count")
        if not self.terms:
            return Polynomial.zero(m)
        # Horner forms only monomials of a_v^j·F_k(a), products and offsets
        # included, with j <= k and k + deg F_k <= deg F, so no exponent
        # passes deg F · e_max
        e_max = max((max(map(max, a.terms)) for a in args if a.terms), default=0)
        pack, unpack = _packing(self.degree() * e_max, m)
        single = [(v, pack(e), c) for v, a in enumerate(args) if len(a.terms) == 1
                  for e, c in a.terms.items()]
        zero = [v for v, a in enumerate(args) if not a.terms]
        # each term of F as (exponents, (packed key, coefficient)) of what
        # the single-term arguments make of it
        terms = []
        for e, c in self.terms.items():
            if zero and any(e[v] for v in zero):
                continue
            k = 0
            for v, kv, cv in single:
                x = e[v]
                if x:
                    k += x * kv
                    if cv != 1:
                        c *= cv ** x
            terms.append((e, (k, c)))
        packed = [(v, {pack(e): c for e, c in a.terms.items()})
                  for v, a in enumerate(args) if len(a.terms) > 1]
        out = _horner(terms, packed, 0) if terms else {}
        return Polynomial(m, {unpack(k): c for k, c in out.items()})

    def extend(self, new_nvars):
        """Embed into a larger variable set by padding trailing exponents."""
        if new_nvars < self.nvars:
            raise VariableCountError("cannot shrink the variable set")
        if new_nvars == self.nvars:
            return self
        pad = (0,) * (new_nvars - self.nvars)
        return Polynomial(new_nvars, {e + pad: c for e, c in self.terms.items()})

    # ------------------------------------------------------------------
    # division and normalization

    def exact_div(self, g):
        """self / g, or InexactDivisionError when g does not divide self.

        Trial division of the primitive integer parts, rescaled by the ratio
        of the contents: by Gauss's lemma their quotient lies in Z[x]
        whenever it lies in Q[x]."""
        if not g:
            raise DomainError("division by the zero polynomial")
        self._check_compat(g)
        if not self.terms:
            return self
        q = _int_quotient(_primitive_ints(self.terms), _primitive_ints(g.terms))
        if q is None:
            raise InexactDivisionError("division left a nonzero remainder")
        ratio = rational_content(self.terms.values()) / rational_content(g.terms.values())
        return Polynomial(self.nvars, {e: c * ratio for e, c in q.items()})

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == 1:
            return self
        return Polynomial(
            self.nvars, {e: coeff_div(c, lc) for e, c in self.terms.items()}
        )

    # ------------------------------------------------------------------
    # printing

    def to_string(self, prefix="x"):
        """The terms in graded-lex descending order.  Each factor is a cached
        variable name and an exponent suffix, made once per distinct exponent
        of the polynomial, so no name or suffix is formatted per term."""
        if not self.terms:
            return "0"
        terms = self.terms
        names = _variable_names(prefix, self.nvars)
        powers = {a: f"^{a}" for a in set(itertools.chain.from_iterable(terms))}
        powers[1] = ""
        out = []
        for _, e in sorted(zip(map(sum, terms), terms), reverse=True):
            c = terms[e]
            mono = "*".join([v + powers[a] for v, a in zip(names, e) if a])
            mag = str(abs(c))
            body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
            out.append((" - " if c < 0 else " + ") + body)
        # the first term has no spaces around its sign, and no "+"
        out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]
        return "".join(out)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"


@functools.lru_cache(maxsize=64)
def _variable_names(prefix, nvars):
    """("x0", "x1", …) for prefix "x", shared by every polynomial printed
    with the same prefix and variable count."""
    return tuple(f"{prefix}{i}" for i in range(nvars))


def linear_combination(nvars, pairs):
    """Σ c·p over (scalar c, polynomial p) pairs, summed in one dict."""
    acc = {}
    for c, p in pairs:
        if c:
            for e, v in p.terms.items():
                acc[e] = acc.get(e, 0) + c * v
    return Polynomial(nvars, acc)


def directional_derivative(f, v):
    """D_v f = Σ v_i·∂f/∂x_i."""
    return linear_combination(f.nvars, ((vi, f.partial(i)) for i, vi in enumerate(v) if vi))


# ----------------------------------------------------------------------
# parsing

# after optional whitespace: ASCII digits, a name and its index digits, or
# one other character; no group matches at the end of the text
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_]+)([0-9]*)|(\S))?")
_INDEX = re.compile(r"[A-Za-z_]+([0-9]+)")
# The largest variable index `parse` accepts.  Exponent tuples are as wide as
# the largest index, and no exact kernel here finishes on a thousand variables.
MAX_VARIABLE_INDEX = 999
# The largest exponent of a variable `parse` accepts in a term, written out or
# reached by a product.  H_f(a) is read from a table of each coordinate's
# powers up to the largest exponent, which a huge exponent could not hold.
MAX_EXPONENT = 999


def _capped_index(digits):
    """The index that ASCII digits spell, or None past MAX_VARIABLE_INDEX; a
    long digit string is refused by its length, before any conversion."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VARIABLE_INDEX)) or int(digits) > MAX_VARIABLE_INDEX:
        return None
    return int(digits)


class _Parser:
    """One recursive descent over: expr := [sign] term ((+|-) term)*;
    term := factor (* factor)*; factor := coeff | var [^ int] | ( expr ).

    `cur` is the (kind, value, position) of the next token; a variable's
    value is its index digits and its position that of its name.  Each term
    folds its coefficients and variables into one exponent vector with a
    slot per index in `indices`; only a parenthesized factor is multiplied
    out."""

    def __init__(self, text, prefix, indices):
        self.text, self.prefix = text, prefix
        self.slots = {i: k for k, i in enumerate(indices)}
        self.width = max(len(indices), 1)
        self.pos = 0
        self.advance()

    def advance(self):
        m = _TOKEN.match(self.text, self.pos)
        self.pos = m.end()
        digits, name, index, other = m.groups()
        if digits:
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                raise ParseError(f"number has more than {limit} digits", m.start(1))
            self.cur = ("int", digits, m.start(1))
        elif name:
            if name != self.prefix:
                raise ParseError(
                    f"variable prefix {name!r} does not match expected {self.prefix!r}",
                    m.start(2),
                )
            if not index:
                raise ParseError("variable needs a numeric index", m.start(2))
            if _capped_index(index) is None:
                raise ParseError(
                    f"variable index exceeds the cap {MAX_VARIABLE_INDEX}", m.start(3)
                )
            self.cur = ("var", index, m.start(2))
        elif other is None:
            self.cur = ("end", "", self.pos)
        elif other in "+-*^/()":
            self.cur = (other, other, m.start(4))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))

    def expect(self, kind):
        if self.cur[0] != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur[1]!r}", self.cur[2])
        value = self.cur[1]
        self.advance()
        return value

    def parse(self):
        terms = self.expr()
        if self.cur[0] != "end":
            raise ParseError(f"unexpected trailing {self.cur[1]!r}", self.cur[2])
        return terms

    def sign(self):
        """Consume a '+' or '-' and return its sign; 1 when there is none."""
        kind = self.cur[0]
        if kind not in ("+", "-"):
            return 1
        self.advance()
        return -1 if kind == "-" else 1

    def expr(self):
        acc = {}
        sign = self.sign()
        while True:
            _add_into(acc, self.term(sign).items())
            if self.cur[0] not in ("+", "-"):
                return acc
            sign = self.sign()

    def term(self, c):
        e = [0] * self.width
        inner = []
        while True:
            kind, value, pos = self.cur
            if kind == "int":
                self.advance()
                if self.cur[0] == "/":
                    self.advance()
                    den = int(self.expect("int"))
                    if den == 0:
                        raise ParseError("zero denominator", pos)
                    c *= Fraction(int(value), den)
                else:
                    c *= int(value)
            elif kind == "var":
                self.advance()
                exp = 1
                if self.cur[0] == "^":
                    self.advance()
                    if self.cur[0] == "-":
                        raise ParseError("negative exponent", self.cur[2])
                    exp = int(self.expect("int"))
                slot = self.slots[int(value)]
                e[slot] += exp
                if e[slot] > MAX_EXPONENT:
                    raise _exponent_error(pos)
            elif kind == "(":
                self.advance()
                inner.append((self.expr(), pos))
                self.expect(")")
            else:
                raise ParseError(f"expected coefficient, variable, or '(', found {value!r}", pos)
            if self.cur[0] != "*":
                break
            self.advance()
        if not c:
            return {}
        term = {tuple(e): c}
        for p, pos in inner:
            term = (Polynomial(self.width, term) * Polynomial(self.width, p)).terms
            if any(x > MAX_EXPONENT for m in term for x in m):
                raise _exponent_error(pos)
        return term


def _exponent_error(position):
    return ParseError(f"variable exponent exceeds the cap {MAX_EXPONENT}", position)


def parse(text, var_prefix="x", nvars=None):
    """Parse polynomial text; variables are var_prefix + index.

    The variable count defaults to one more than the largest index used
    (at least 1); pass ``nvars`` to embed in a larger variable set.
    """
    # the pass keeps one exponent slot per index used, so that no tuple as
    # wide as the largest index is built before the text is known to parse
    indices = sorted({i for i in map(_capped_index, _INDEX.findall(text)) if i is not None})
    terms = _Parser(text, var_prefix, indices).parse()
    inferred = indices[-1] + 1 if indices else 0
    width = max(inferred, 1) if nvars is None else nvars
    if inferred > width:
        raise ParseError(f"variable index {inferred - 1} exceeds nvars={nvars}", 0)
    if len(indices) < width:  # some index is unused
        def spread(e):
            full = [0] * width
            for i, a in zip(indices, e):
                full[i] = a
            return tuple(full)

        terms = {spread(e): c for e, c in terms.items()}
    return Polynomial(width, terms)


# ----------------------------------------------------------------------
# monomial enumeration

def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, graded-lex descending: each
    pass extends every prefix by its next exponent, largest first."""
    prefixes = [()]
    for _ in range(nvars - 1):
        prefixes = [p + (a,) for p in prefixes for a in range(d - sum(p), -1, -1)]
    return [p + (d - sum(p),) for p in prefixes]


# ----------------------------------------------------------------------
# gcd: GCDHEU over Z
#
# The heuristic works on primitive integer parts held as plain dicts
# (exponent tuple -> int).  It evaluates one variable x_v at an integer xi,
# takes the gcd and cofactors of the images recursively (down to integers),
# and reads three candidates back from symmetric xi-adic digits: the
# primitive part of the gcd's digits, and each input divided by the digits of
# its cofactor.  A candidate is accepted only when it divides both inputs
# exactly; otherwise xi grows and the next point is tried.
#
# Why an accepted candidate h is the gcd G: write G = h·q.  The image gcd is
# G(xi)·k for some k.  For the first candidate the digit polynomial is c·h
# with |c| <= xi/2, so q(xi)·k = c; for a cofactor candidate q(xi)·k = 1.
# Either way q(xi) is an integer of modulus at most xi/2.  View an input as a
# polynomial in the other variables with univariate coefficients in x_v.  If
# q involved those variables, its leading coefficient would vanish at xi and
# divide a univariate coefficient of the input; a nonconstant univariate q
# divides every such coefficient.  Every xi below is at least twice a strict
# (Cauchy) root bound R of all those coefficients, so neither can happen: a
# root has modulus < R <= xi/2, and a nonconstant q has |q(xi)| > xi/2.  So q
# is a constant, a unit since h and G are primitive.
#
# Why some point is accepted: write a = G·A and b = G·B with A, B coprime,
# and view them over Z[x_v] in the other variables y.  Each splits as
# A = cA·PA, with cA in Z[x_v] the gcd of its y-coefficients and PA
# primitive; the same for B.  cA and cB are coprime, and so are the
# y-coefficients of PA alone, so the ideals they generate in Z[x_v] hold
# nonzero integers: r (the resultant of cA and cB), and NA, NB for PA, PB.
# Set aside the finitely many xi where an image vanishes, where cA or cB
# vanishes, or, for each y_j in which A and B both have positive degree,
# where their leading coefficients in y_j or all coefficients of
# res_{y_j}(A, B) vanish (that resultant is nonzero, as A and B are coprime
# in Q(x_v)[y]).  At every other xi, A(xi) and B(xi) share no factor of
# positive degree in any y_j, so gcd(a(xi), b(xi)) = ±Δ·G(xi) with Δ an
# integer.  Δ divides the integer contents cA(xi)·(content of PA(xi)) and
# cB(xi)·(content of PB(xi)), so it divides r·NA·NB.  The recursive call,
# on fewer variables, returns that gcd by induction.  Once also
# xi > 2·|r·NA·NB|·‖G‖∞, the digits of the image gcd are ±Δ·G, and their
# primitive part G passes trial division.  Each step multiplies xi by more
# than 2, so the points grow without bound and the loop ends.
# (Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989.)


def _primitive_ints(terms):
    """Coprime integer coefficients proportional to the given rationals."""
    l = 1
    for c in terms.values():
        if type(c) is not int:
            l = math.lcm(l, c.denominator)
    ints = {e: int(c * l) for e, c in terms.items()}
    g = math.gcd(*ints.values())
    return {e: c // g for e, c in ints.items()} if g != 1 else ints


def _root_bound(a, v):
    """1 + max |coefficient| / |leading coefficient| over the coefficients of
    a viewed as univariate in x_v: every root of each of them is smaller."""
    norm, lead = {}, {}
    for e, c in a.items():
        k = e[:v] + e[v + 1:]
        m = abs(c)
        if m > norm.get(k, 0):
            norm[k] = m
        if k not in lead or e[v] > lead[k][0]:
            lead[k] = (e[v], m)
    return 1 + max(-(-norm[k] // lc) for k, (_, lc) in lead.items())


def _heu_first_xi(a, b, v):
    """GCDHEU's usual first point, raised to twice the root bound that the
    acceptance argument above needs."""
    bound = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    return max(min(bound, 99 * math.isqrt(bound)), 2 * min(_root_bound(a, v), _root_bound(b, v)))


def _eval_var(a, v, xi):
    """a with x_v := xi; the x_v exponent slot becomes 0."""
    out = {}
    powers = [1]
    for e, c in a.items():
        d = e[v]
        while len(powers) <= d:
            powers.append(powers[-1] * xi)
        k = e[:v] + (0,) + e[v + 1:]
        out[k] = out.get(k, 0) + c * powers[d]
    return {k: c for k, c in out.items() if c}


def _interpolate(g, v, xi):
    """Spread each coefficient of g over powers of x_v by its symmetric
    xi-adic digits, each in (-xi/2, xi/2]."""
    half = xi // 2
    out = {}
    for e, c in g.items():
        i = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:v] + (i,) + e[v + 1:]] = r
            c = (c - r) // xi
            i += 1
    return out


def _int_quotient(a, h):
    """a / h in Z[x], or None when h does not divide a there.  Lex-leading-term
    division stops at the first term that proves the division inexact: one
    not divisible by the leading term of h, or one beyond the degree of the
    quotient in some variable, deg_j(a) - deg_j(h).  The remainder's
    exponents wait, negated, in a min-heap, so each step finds its leading
    term without a scan; a cancelled exponent is skipped when it comes up."""
    cap = tuple(x - y for x, y in zip(map(max, zip(*a)), map(max, zip(*h))))
    he = max(h)
    hc = h[he]
    r = dict(a)
    heap = [tuple(map(operator.neg, e)) for e in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        re = tuple(map(operator.neg, heapq.heappop(heap)))
        if re not in r:
            continue
        d = tuple(map(operator.sub, re, he))
        if min(d) < 0 or any(map(operator.gt, d, cap)):
            return None
        qc, rem = divmod(r[re], hc)
        if rem:
            return None
        q[d] = qc
        for e, c in h.items():
            k = tuple(map(operator.add, e, d))
            s = r.get(k)
            if s is None:
                r[k] = -qc * c
                heapq.heappush(heap, tuple(map(operator.neg, k)))
            elif s != qc * c:
                r[k] = s - qc * c
            else:
                del r[k]
    return q


def _heu_candidate(a, b, g, qa, qb):
    """(h, a/h, b/h) for the first of three candidates that divides both a
    and b: the primitive part of g, a/qa and b/qb.  g, qa and qb are read
    from the digits of the image gcd and of its two cofactors."""
    # quotients of nonzero polynomials are nonempty, so None is the only falsy one
    hc = math.gcd(*g.values())
    h = {e: c // hc for e, c in g.items()}
    ha = _int_quotient(a, h)
    hb = ha and _int_quotient(b, h)
    if hb:
        return h, ha, hb
    h = _int_quotient(a, qa)
    hb = h and _int_quotient(b, h)
    if hb:
        return h, qa, hb
    h = _int_quotient(b, qb)
    ha = h and _int_quotient(a, h)
    if ha:
        return h, ha, qb
    return None


def _scaled(a, k):
    return a if k == 1 else {e: c * k for e, c in a.items()}


def _heu_gcd(a, b, vs):
    """(g, a/g, b/g) for the gcd g in Z[x] of nonzero integer dicts whose
    exponents vanish outside the variables vs."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    cont = math.gcd(ca, cb)
    for x in (a, b):
        if len(x) == 1 and not any(next(iter(x))):
            g = {next(iter(x)): cont}
            return g, {e: c // cont for e, c in a.items()}, {e: c // cont for e, c in b.items()}
    if ca != 1:
        a = {e: c // ca for e, c in a.items()}
    if cb != 1:
        b = {e: c // cb for e, c in b.items()}
    v, rest = vs[-1], vs[:-1]
    xi = _heu_first_xi(a, b, v)
    while True:
        ea, eb = _eval_var(a, v, xi), _eval_var(b, v, xi)
        # xi clears the root bound of only one input, so the other may vanish
        if ea and eb:
            image = _heu_gcd(ea, eb, rest)
            found = _heu_candidate(a, b, *(_interpolate(x, v, xi) for x in image))
            if found is not None:
                h, ha, hb = found
                return _scaled(h, cont), _scaled(ha, ca // cont), _scaled(hb, cb // cont)
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def gcd(a, b):
    """A gcd of two polynomials, normalized monic (graded-lex leading coeff 1).

    GCDHEU on the primitive integer parts; see the comment above `_heu_gcd`
    for why its answer is the gcd and why it always gives one."""
    if a.nvars != b.nvars:
        raise VariableCountError("gcd arguments disagree on variable count")
    if not a and not b:
        raise DomainError("gcd(0, 0) is undefined")
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    used = sorted(a.variables_used() | b.variables_used())
    if not used:
        return Polynomial.constant(a.nvars, 1)
    g, _, _ = _heu_gcd(_primitive_ints(a.terms), _primitive_ints(b.terms), used)
    return Polynomial(a.nvars, g).monic()


def gcd_list(polys):
    """Fold gcd over a list, skipping zeros; error if all zero."""
    acc = None
    for p in polys:
        if not p:
            continue
        acc = p.monic() if acc is None else gcd(acc, p)
        if acc.degree() == 0:
            break
    if acc is None:
        raise DomainError("gcd of an all-zero list")
    return acc


def is_reduced(f, seed=0):
    """Squarefreeness proxy: gcd(f, D_v f) constant for a seeded random
    direction v, with one deterministic retry on a second direction.  A
    repeated square factor divides D_v f for every v, so it is always caught."""
    if not f:
        raise DomainError("is_reduced is undefined for the zero polynomial")
    if not f.is_homogeneous():
        raise DomainError("is_reduced expects a homogeneous polynomial")
    for attempt in range(2):
        rng = substream(seed + attempt, "is_reduced")
        v = [rng.randint(-9, 9) for _ in range(f.nvars)]
        if not any(v):
            v[0] = 1
        dv = directional_derivative(f, v)
        if not dv:
            # degree-0 input or a degenerate direction: gcd(f, 0) = f
            if f.degree() == 0:
                return True
            continue
        if gcd(f, dv).degree() == 0:
            return True
    return False

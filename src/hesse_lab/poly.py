"""Exact sparse multivariate polynomial arithmetic.

A polynomial maps monomials to nonzero rational coefficients (int /
Fraction, see fields.py).  A monomial x^e in n variables is one int key: from
the top, the total degree |e| (an unbounded field), then e_0, …, e_{n−1} in
fields of FIELD_BITS bits.  Key order is graded-lex order with x0 heaviest,
a monomial product is one key add, `extend` one shift, and ∂/∂x_i subtracts
x_i's key; a product or composition whose exponents could pass a field
raises DomainError instead of carrying.  Exponent tuples appear only at the
edges: the public constructor, `as_dict`, `coefficient`, printing and
parsing.

Degree of the zero polynomial is the sentinel ``MINUS_INFINITY``, which
compares below every integer.

``_mul_packed`` is the one multiply loop; ``ColumnMinors``, the one Laplace
memo of minors, adds its products into term dicts, with no Polynomial for
any sub-minor.  A polynomial reads its least and greatest total degree on
first use and keeps them; its partials (``gradient``) and the table its
values are read from (``term_table``) are kept the same way, so every
caller of one form shares one copy.

``Digits`` packs a family on its index as Σ_k p_k·2^(bits·k) and reads a
Z-linear image of it back digit by digit.  ``dot`` reads Σ_ℓ x_ℓ·y_ℓ off one
product of two families so packed, ``vanishing`` which parts of each F_k∘args
vanish off one composition, and ``substitute_forms`` expands
p(Q_1, …, Q_r, tail) with one such product per z-degree of p and the tail
variables as key offsets.  ``compose`` keeps Horner's rule, as its callers'
arguments are often packed families already.

``gcd`` is the heuristic GCDHEU over the integers (evaluation at large
integers, integer gcd, reconstruction from symmetric digits), on keys.  It
accepts a result only after exact trial division and draws larger points
until one passes, which always happens; the comment above ``_primitive_ints``
proves both.  One fold runs trial divisions over a list, GCDHEU only where
the gcd so far fails to divide, and the one re-check of its cofactors; only
``gcd_cofactors`` keeps them, and only ``psi`` calls it.  ``gcd`` and
``gcd_list`` return the monic gcd; ``gcd_cofactors`` returns the fold's own,
with coprime integer coefficients and a positive leading one.
``binary_gcd`` is one primitive remainder sequence in Z[u] on binary forms;
``repeated_root`` asks it for the gcd of a binary form's partials, and
``is_reduced`` asks that of f on a seeded line.  ``binary_quotient`` divides
binary forms exactly by long division over Q.

``parse`` has two routes.  Text in the printer's own language (what
``to_string`` writes) is read by splitting it at its term joins and each
term at ``*``, validating and keying each distinct factor string once.  All
other text goes to one recursive-descent pass over ASCII tokens, which folds
each term into one key as it goes and is the only place a ``ParseError`` is
raised: it refuses a variable index past ``MAX_VARIABLE_INDEX``, a variable
exponent past ``MAX_EXPONENT`` and a number longer than the interpreter's
int-string limit.  Both routes give the same polynomial.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
import struct
import sys
from fractions import Fraction

from .errors import DomainError, InternalCheckError, ParseError, VariableCountError
from .fields import DEFAULT_PRIME, norm_coeff, rational_content, substream
from .linalg import primitive_vector

MINUS_INFINITY = float("-inf")

# The width of one exponent field of a key.  An exponent must stay below
# FIELD_LIMIT; struct's "H" packs and unpacks 16-bit fields in C.
FIELD_BITS = 16
FIELD_LIMIT = 1 << FIELD_BITS
_FIELD_MASK = FIELD_LIMIT - 1


class _Layout:
    """The keys of monomials in n variables: `shift` is where the degree
    field starts, offsets[i] where e_i's field starts, and units[i] the key
    of x_i."""

    def __init__(self, n):
        if n < 1:
            raise VariableCountError("a polynomial needs at least one variable")
        self.shift = FIELD_BITS * n
        self.offsets = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.units = tuple((1 << self.shift) | (1 << s) for s in self.offsets)
        self.fields = struct.Struct(f">{n}H")
        self.low = (1 << self.shift) - 1

    def pack(self, e):
        try:
            fields = self.fields.pack(*e)
        except struct.error:
            raise DomainError(f"{tuple(e)} is no exponent vector below {FIELD_LIMIT}") from None
        return sum(e) << self.shift | int.from_bytes(fields, "big")

    def unpack(self, keys):
        """The exponent tuples of keys, in order, unpacked in C."""
        size, order = itertools.repeat(self.fields.size), itertools.repeat("big")
        return map(self.fields.unpack, map(int.to_bytes, map(self.low.__and__, keys), size, order))

    def divide(self, k, h):
        """The exponents of x^k / x^h, or None when x^h does not divide x^k."""
        d = k - h
        e = self.fields.unpack((d & self.low).to_bytes(self.fields.size, "big"))
        return e if d >= 0 and sum(e) == d >> self.shift else None

    def used(self, keys):
        """The indices of the variables with a nonzero exponent in some key."""
        used = functools.reduce(operator.or_, keys, 0)
        return [i for i, s in enumerate(self.offsets) if used >> s & _FIELD_MASK]


_layout = functools.cache(_Layout)


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


def _mul_packed(a, b, out=None):
    """Product of two term dicts keyed by monomial keys, added into `out`
    when given: a monomial product is one int add.  The one multiply loop,
    behind __mul__, compose and `ColumnMinors`."""
    if len(a) < len(b):
        a, b = b, a
    out = {} if out is None else out
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _horner(terms, args, i):
    """Σ_k a_v^k·F_k(a) by Horner's rule in (v, a_v) = args[i], for terms
    the (exponents, (key, coefficient)) pairs of F that agree on the
    variables of args[:i]; each F_k(a) alike from args[i + 1]."""
    if i == len(args):
        return _add_into({}, map(operator.itemgetter(1), terms))
    v, a = args[i]
    parts = {}
    for t in terms:
        parts.setdefault(t[0][v], []).append(t)
    acc = {}
    for k in range(max(parts), -1, -1):
        acc = _mul_packed(acc, a)
        if k in parts:
            _add_into(acc, _horner(parts[k], args, i + 1).items())
    return acc


def _check_product(a, b):
    """DomainError when an exponent of a·b, both nonzero, could reach
    FIELD_LIMIT: below it in total degree no field can carry; beyond it, the
    largest exponents of each variable decide."""
    if a.degree() + b.degree() >= FIELD_LIMIT and any(
        x + y >= FIELD_LIMIT for x, y in zip(a._top_exponents(), b._top_exponents())
    ):
        raise DomainError(f"a product exponent would reach {FIELD_LIMIT}")


def _check_composition(f, args):
    """DomainError when an exponent of f(args), f nonzero, could reach
    FIELD_LIMIT.  Both substitution routes keep only products of at most E_i
    monomials of each args[i], E_i the largest exponent of x_i in f:
    Horner's a_v^j·F_k(a) in `compose` has j <= k and k + deg F_k <= deg f,
    and the sums that `substitute_forms` reads off its levels are sums of
    Q^β·t over terms z^γ·t of f with β <= γ.  So no total degree passes
    deg f · max deg args, and no y_v exponent passes Σ_i E_i·D_iv, D_iv the
    largest exponent of y_v in args[i]."""
    m = args[0].nvars
    if f.degree() * max((a.degree() for a in args if a._terms), default=0) >= FIELD_LIMIT and any(
        sum(map(operator.mul, f._top_exponents(), col)) >= FIELD_LIMIT
        for col in zip(*(a._top_exponents() if a._terms else (0,) * m for a in args))
    ):
        raise DomainError(f"a composed exponent could reach {FIELD_LIMIT}")


def _new(nvars, keyed):
    """The polynomial with the given key -> coefficient items."""
    p = Polynomial.__new__(Polynomial)
    p._init(nvars, keyed)
    return p


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables x0..x_{nvars-1}."""

    # _terms: key -> coefficient; _low and _high: the least and greatest
    # total degree of a term, _grad and _table: `gradient` and `term_table`;
    # each None until first use
    __slots__ = ("nvars", "_terms", "_low", "_high", "_grad", "_table")

    def __init__(self, nvars, terms):
        """Σ c·x^e over the (exponent tuple e, coefficient c) items of terms."""
        self._init(nvars, dict(zip(map(_layout(nvars).pack, terms), terms.values())))

    def _init(self, nvars, keyed):
        self.nvars = nvars
        self._terms = {k: norm_coeff(c) for k, c in keyed.items() if c}
        self._high = self._grad = self._table = None

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
        return _new(nvars, {_layout(nvars).units[i]: 1})

    @staticmethod
    def linear_form(coeffs):
        """Σ coeffs[i]·x_i in len(coeffs) variables."""
        return _new(len(coeffs), dict(zip(_layout(len(coeffs)).units, coeffs)))

    # ------------------------------------------------------------------
    # structure and exponents

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    def _scan_degrees(self):
        shift = FIELD_BITS * self.nvars
        self._low, self._high = (
            (min(self._terms) >> shift, max(self._terms) >> shift) if self._terms else (MINUS_INFINITY,) * 2
        )

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
        if not self._terms:
            raise DomainError("zero polynomial has no leading term")
        k = max(self._terms)
        return next(_layout(self.nvars).unpack([k])), self._terms[k]

    def variables_used(self):
        return set(_layout(self.nvars).used(self._terms))

    def as_dict(self):
        """{exponent tuple: coefficient}, one entry per term."""
        return dict(zip(_layout(self.nvars).unpack(self._terms), self._terms.values()))

    def _top_exponents(self):
        """The largest exponent of each variable over the terms."""
        return tuple(map(max, zip(*_layout(self.nvars).unpack(self._terms))))

    def coefficient(self, e):
        """The coefficient of x^e, 0 when x^e is not a term."""
        return self._terms.get(_layout(self.nvars).pack(e), 0)

    def coefficients(self):
        return self._terms.values()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

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
        return _new(self.nvars, _add_into(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.nvars, {k: -c for k, c in self._terms.items()})

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
        return self._times(other)

    __rmul__ = __mul__

    def times_variable(self, i):
        """self·x_i, one key add per term; DomainError where x_i's exponent
        would reach FIELD_LIMIT."""
        if not 0 <= i < self.nvars:
            raise VariableCountError(f"variable index {i} out of range for {self.nvars} variables")
        layout = _layout(self.nvars)
        s, unit = layout.offsets[i], layout.units[i]
        if self.degree() >= _FIELD_MASK and any(k >> s & _FIELD_MASK == _FIELD_MASK for k in self._terms):
            raise DomainError(f"a product exponent would reach {FIELD_LIMIT}")
        return _new(self.nvars, {k + unit: c for k, c in self._terms.items()})

    def _times(self, other):
        self._check_compat(other)
        if not self._terms or not other._terms:
            return Polynomial.zero(self.nvars)
        _check_product(self, other)
        return _new(self.nvars, _mul_packed(self._terms, other._terms))

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
            return _new(self.nvars, {k: v * c for k, v in self._terms.items()})
        p, q = c.numerator, c.denominator
        out = {}
        for k, v in self._terms.items():
            if type(v) is int:
                w, r = divmod(v * p, q)
                out[k] = Fraction(v * p, q) if r else w
            else:
                out[k] = v * c
        return _new(self.nvars, out)

    # ------------------------------------------------------------------
    # calculus, evaluation, substitution

    def partial(self, i):
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.nvars:
            raise VariableCountError(f"variable index {i} out of range")
        layout = _layout(self.nvars)
        s, unit = layout.offsets[i], layout.units[i]
        # distinct terms differentiate to distinct monomials, so nothing collects
        return _new(self.nvars, {
            k - unit: c * x for k, c in self._terms.items() if (x := k >> s & _FIELD_MASK)
        })

    def gradient(self):
        """The partials (∂_0 f, …, ∂_n f), built on first use and kept."""
        if self._grad is None:
            self._grad = tuple(self.partial(i) for i in range(self.nvars))
        return self._grad

    def term_table(self):
        """(top, coefficients, supports): the largest exponent, and per term its
        coefficient and nonzero exponents ((i, e_i), …) as shared pairs; built once."""
        if self._table is None:
            exps = list(_layout(self.nvars).unpack(self._terms))
            top = max(map(max, exps), default=0)
            pairs = [[(i, x) for x in range(top + 1)] for i in range(self.nvars)]
            supports = [tuple(itertools.compress(map(operator.getitem, pairs, e), e)) for e in exps]
            self._table = top, tuple(self._terms.values()), supports
        return self._table

    def evaluate(self, point):
        """Exact evaluation at a rational point, off `term_table`."""
        if len(point) != self.nvars:
            raise VariableCountError(
                f"point length {len(point)} != variable count {self.nvars}"
            )
        acc = 0
        _, coeffs, supports = self.term_table()
        for c, support in zip(coeffs, supports):
            for i, x in support:
                c *= point[i] ** x
            acc += c
        return norm_coeff(acc)

    def compose(self, args):
        """Substitute args[i] for x_i; args share one variable count.

        A single-term argument c·x^a turns x_v^k into c^k·x^(k·a): a key
        offset and a coefficient power on each term, and a zero argument
        drops the terms it enters.  Over the multi-term arguments, Horner's
        rule one variable at a time: F = Σ_k x_v^k·F_k gives
        F(a) = (…(F_K(a)·a_v + F_{K−1}(a))·a_v + …)·a_v + F_0(a), each F_k(a)
        composed alike from the next one.  Raises DomainError when an
        exponent of the result could reach FIELD_LIMIT."""
        if len(args) != self.nvars:
            raise VariableCountError(
                f"{len(args)} substitution arguments for {self.nvars} variables"
            )
        m = args[0].nvars
        if any(a.nvars != m for a in args):
            raise VariableCountError("substitution arguments disagree on variable count")
        if not self._terms:
            return Polynomial.zero(m)
        _check_composition(self, args)
        single = [(v, *next(iter(a._terms.items()))) for v, a in enumerate(args) if len(a._terms) == 1]
        zero = [v for v, a in enumerate(args) if not a._terms]
        # each term of F as (exponents, (key, coefficient)) of what the
        # single-term arguments make of it
        terms = []
        for e, c in zip(_layout(self.nvars).unpack(self._terms), self._terms.values()):
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
        multi = [(v, a._terms) for v, a in enumerate(args) if len(a._terms) > 1]
        return _new(m, _horner(terms, multi, 0) if terms else {})

    def extend(self, new_nvars):
        """Embed into a larger variable set, the new variables last."""
        if new_nvars < self.nvars:
            raise VariableCountError("cannot shrink the variable set")
        if new_nvars == self.nvars:
            return self
        shift = FIELD_BITS * (new_nvars - self.nvars)
        return _new(new_nvars, {k << shift: c for k, c in self._terms.items()})

    # ------------------------------------------------------------------
    # division and normalization

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._terms:
            return self
        _, lc = self.leading()
        return self if lc == 1 else self.scale(Fraction(1, lc))

    # ------------------------------------------------------------------
    # printing

    def to_string(self, prefix="x"):
        """The terms in graded-lex descending order, which is descending key
        order.  Each factor, `x3` or `x3^2`, is read from a table kept per
        (prefix, variable count) and made on its first use."""
        if not self._terms:
            return "0"
        keys = sorted(self._terms, reverse=True)
        tables = _factors(prefix, self.nvars)
        out = []
        for k, e in zip(keys, _layout(self.nvars).unpack(keys)):
            try:
                mono = "*".join([t[a] for t, a in zip(tables, e) if a])
            except KeyError:  # a new exponent
                for i, a in enumerate(e):
                    tables[i].setdefault(a, f"{prefix}{i}^{a}")
                mono = "*".join([t[a] for t, a in zip(tables, e) if a])
            c = self._terms[k]
            mag = str(abs(c))
            body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
            out.append((" - " if c < 0 else " + ") + body)
        # the first term has no spaces around its sign, and no "+"
        out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]
        return "".join(out)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"


@functools.lru_cache(maxsize=64)
def _factors(prefix, nvars):
    """Per variable i, {a: "x{i}^a"} for prefix "x", with "x{i}" at a = 1."""
    return [{1: f"{prefix}{i}"} for i in range(nvars)]


def linear_combination(nvars, pairs):
    """Σ c·p over (scalar c, polynomial p) pairs, summed in one dict."""
    acc = {}
    for c, p in pairs:
        if c:
            for k, v in p._terms.items():
                acc[k] = acc.get(k, 0) + c * v
    return _new(nvars, acc)


def linear_combinations(nvars, weights, polys):
    """[Σ_u w_u·polys[u] for w in weights]: each coefficient one dot product
    of w with the monomial's coefficients in polys, read from one table."""
    table = {}
    for u, p in enumerate(polys):
        for k, c in p._terms.items():
            table.setdefault(k, [0] * len(polys))[u] = c
    return [_new(nvars, {k: sum(map(operator.mul, w, cs)) for k, cs in table.items()}) for w in weights]


def head_linear_form(polys, degree):
    """Σ_i x_i·polys[i] as one dict of keys offset by x_i's unit, for forms of
    the given degree in the variables past the first len(polys), whose head
    fields keep the terms of distinct i apart; None if a term is not such."""
    n, head = polys[0].nvars, len(polys)
    tail, top, terms = FIELD_BITS * (n - head), degree << FIELD_BITS * head, {}
    for p, unit in zip(polys, _layout(n).units):
        for k, c in p._terms.items():
            if k >> tail != top:
                return None
            terms[k + unit] = c
    return _new(n, terms)


class _OverBudget(Exception):
    pass


class ColumnMinors:
    """minors(mask): the det of the last popcount(mask) rows on the columns
    in mask, by expansion along its first row over memoized sub-minors.
    The entries are polynomials of one variable count, expanded on their
    term dicts.  With a budget, each product a·b spends len(a)·len(b) of it,
    and a minor that would overspend is None."""

    def __init__(self, rows, budget=None):
        self.budget = budget
        self.nvars = rows[0][0].nvars
        if any(e.nvars != self.nvars for row in rows for e in row):
            raise VariableCountError("minor entries disagree on variable count")
        # a minor's exponents are at most its degree, so below FIELD_LIMIT
        # no product carries; past it, each is checked as __mul__ would
        self.checked = sum(max(e.degree() for e in row) for row in rows) >= FIELD_LIMIT
        self.rows = [[e._terms for e in row] for row in rows]
        self.memo = {0: {0: 1}, **{1 << j: e for j, e in enumerate(self.rows[-1])}}

    def __call__(self, mask):
        try:
            return _new(self.nvars, self._minor(mask))
        except _OverBudget:
            return None

    def coefficients(self, masks, exponents):
        """[[the coefficient of x^e in minor(mask) for mask in masks] for e in exponents]."""
        minors = [self._minor(mask) for mask in masks]
        return [[minor.get(k, 0) for minor in minors] for k in map(_layout(self.nvars).pack, exponents)]

    def _minor(self, mask):
        """The minor as a term dict; the terms of even and of odd position in
        the expansion are summed apart, then subtracted."""
        if mask in self.memo:
            return self.memo[mask]
        entries = self.rows[len(self.rows) - mask.bit_count()]
        parts = [{}, {}]
        rest, odd = mask, 0
        while rest:
            low = rest & -rest
            e = entries[low.bit_length() - 1]
            if e and (sub := self._minor(mask ^ low)):
                if self.budget is not None:
                    self.budget -= len(e) * len(sub)
                    if self.budget < 0:
                        raise _OverBudget
                if self.checked:
                    _check_product(_new(self.nvars, e), _new(self.nvars, sub))
                _mul_packed(e, sub, parts[odd])
            odd ^= 1
            rest ^= low
        even, odd = parts
        minor = _add_into(even, [(k, -c) for k, c in odd.items()])
        self.memo[mask] = minor
        return minor


def directional_derivative(f, v):
    """D_v f = Σ v_i·∂f/∂x_i."""
    return linear_combination(f.nvars, ((vi, f.partial(i)) for i, vi in enumerate(v) if vi))


def derivative_rows(f):
    """The rows (c_{μ+ε_j}·(μ_j + 1))_j of v ↦ D_v f, one per monomial μ of
    the partials, each built by key lookups when read, in the order of μ's
    first appearance as x^e/x_i over f's keys in ascending order of their
    exponent bits (lex order of e): on every GN form tried, the first nvars
    rows had full rank."""
    layout, terms = _layout(f.nvars), f._terms
    seen = set()
    for k in sorted(terms, key=layout.low.__and__):
        for s, unit in zip(layout.offsets, layout.units):
            if k >> s & _FIELD_MASK:
                mu = k - unit
                if mu in seen:
                    continue
                seen.add(mu)
                row = []
                for t, u in zip(layout.offsets, layout.units):
                    c = terms.get(mu + u)
                    row.append(c * ((mu >> t & _FIELD_MASK) + 1) if c else 0)
                yield row


# ----------------------------------------------------------------------
# Kronecker packing on the index of a family: dot products and substitution


class Digits:
    """Kronecker substitution on the index of a family: integer polynomials
    p_k are packed into Σ_k p_k·2^(bits·k), and a Z-linear image of them is
    read back digit by digit.  With 2^(bits−1) > bound ≥ |a_k|, a coefficient
    c = Σ_k a_k·2^(bits·k) of the image has the plain base-2^bits digits
    a_k + 2^(bits−1) ∈ [1, 2^bits) once offset = Σ_k 2^(bits·k + bits − 1) is
    added, so a_k = 0 exactly when field k of (c + offset) XOR offset is."""

    def __init__(self, bound, count):
        self.bits, self.count = bound.bit_length() + 1, count
        self.offset = sum(1 << (self.bits * k + self.bits - 1) for k in range(count))

    def _pack(self, placed):
        """Σ 2^(bits·k)·t over the (digit k, term dict t) pairs, each k once
        and each coefficient of t at most the bound, so no sum is zero."""
        acc = {}
        for k, terms in placed:
            shift = self.bits * k
            for key, c in terms.items():
                acc[key] = acc.get(key, 0) + (c << shift)
        return acc

    def _digit(self, terms, k):
        shift, mask, half, offset = self.bits * k, (1 << self.bits) - 1, 1 << (self.bits - 1), self.offset
        return {key: a for key, c in terms.items() if (a := ((c + offset) >> shift & mask) - half)}

    def nonzero(self, coeffs):
        """Per digit k < count: whether a_k ≠ 0 in some coefficient."""
        flags, offset = 0, self.offset
        for c in coeffs:
            flags |= (c + offset) ^ offset
        mask = (1 << self.bits) - 1
        return [bool(flags >> (self.bits * k) & mask) for k in range(self.count)]


def _integral_terms(dicts):
    """(l, [l·t for t in dicts]) for l the lcm of their denominators."""
    l = 1
    for terms in dicts:
        for c in terms.values():
            if type(c) is not int:
                l = math.lcm(l, c.denominator)
    if l == 1:
        return 1, dicts
    return l, [
        {k: c * l if type(c) is int else c.numerator * (l // c.denominator) for k, c in t.items()} for t in dicts
    ]


def _norm(terms):
    return sum(map(abs, terms.values()))


def vanishing(family, args, var):
    """{a: [F_k∘args has no term of x_var exponent a, for each k]} over every
    a that some F_k∘args reaches, for homogeneous forms F_k, off one
    composition of P = Σ_k F_k·2^(bits·k) (`Digits`): P∘args is
    Σ_k (F_k∘args)·2^(bits·k).  The family and the args are each scaled to
    integers by the lcm of their denominators, and F_k(l·args) =
    l^(deg F_k)·F_k(args) changes no part's vanishing.  A term c·x^e of F_k
    goes to c·Π_i args_i^e_i, of absolute coefficient sum at most
    |c|·M^(deg F_k), M = max_i ‖args_i‖₁: max_k ‖F_k‖₁·M^(deg F_k) bounds
    every digit."""
    (_, forms), (_, ints) = (_integral_terms([p._terms for p in ps]) for ps in (family, args))
    m = max(map(_norm, ints))
    digits = Digits(max(_norm(t) * m ** max(F.degree(), 0) for F, t in zip(family, forms)), len(family))
    packed = _new(family[0].nvars, digits._pack(enumerate(forms)))
    composed, parts = packed.compose([_new(a.nvars, t) for a, t in zip(args, ints)]), {}
    s = _layout(composed.nvars).offsets[var]
    for key, c in composed._terms.items():
        parts.setdefault(key >> s & _FIELD_MASK, []).append(c)
    return {a: [not x for x in digits.nonzero(cs)] for a, cs in parts.items()}


def _dots(xs, families):
    """[Σ_ℓ xs[ℓ]·ys[ℓ] for ys in families], for term dicts xs[ℓ] and each
    family a dict ℓ -> term dict, exactly, from one product.

    Over r = len(xs) ≥ 2, with w = 2r − 1, the product of
    X = Σ_a xs[a]·2^(bits·a) and Y = Σ_i Σ_ℓ ys_i[ℓ]·2^(bits·(w·i + r − 1 − ℓ))
    has digit w·i + j the sum Σ_{a − ℓ = j − r + 1} xs[a]·ys_i[ℓ], so digit
    w·i + r − 1 is family i's dot product, and block i's digits, j < w, meet
    no other block's.  Both sides are scaled to integers first and the sums
    divided back.  A digit's sum holds one product per ℓ, so its coefficient
    at any key is at most max_a ‖xs[a]‖₁·Σ_ℓ ‖ys_i[ℓ]‖₁, wherever its
    products land: the products with a ≠ ℓ, which are never read, may carry
    between exponent fields, and only the products read must fit them,
    which the callers check.  One form (r = 1) is one plain product per
    family."""
    if not any(families):
        return [{} for _ in families]
    r = len(xs)
    if r == 1:
        return [_mul_packed(xs[0], ys[0]) if ys else {} for ys in families]
    lx, xs = _integral_terms(xs)
    ly, ints = _integral_terms([t for ys in families for t in ys.values()])
    ints = iter(ints)
    families = [dict(zip(ys, ints)) for ys in families]
    bound = max(map(_norm, xs)) * max(sum(map(_norm, ys.values())) for ys in families)
    if not bound:
        return [{} for _ in families]
    w = 2 * r - 1
    digits = Digits(bound, w * len(families))
    product = _mul_packed(
        digits._pack(enumerate(xs)),
        digits._pack((w * i + r - 1 - l, t) for i, ys in enumerate(families) for l, t in ys.items()),
    )
    sums = [digits._digit(product, w * i + r - 1) for i in range(len(families))]
    l = lx * ly
    return sums if l == 1 else [_divided(t, l) for t in sums]


def _divided(terms, l):
    """The term dict terms/l, an int coefficient where l divides it."""
    out = {}
    for k, c in terms.items():
        q, m = divmod(c, l)
        out[k] = Fraction(c, l) if m else q
    return out


def dot(xs, ys):
    """Σ_ℓ xs[ℓ]·ys[ℓ] over two families of one length and variable count:
    digit r − 1 of one product of the families packed on ℓ (`_dots`), exact
    over Q.  DomainError where some xs[ℓ]·ys[ℓ] would raise it."""
    if len(xs) != len(ys) or not xs:
        raise DomainError("dot needs two nonempty families of one length")
    nvars = xs[0].nvars
    for x, y in zip(xs, ys):
        x._check_compat(y)
        if x.nvars != nvars:
            raise VariableCountError("dot arguments disagree on variable count")
        if x._terms and y._terms:
            _check_product(x, y)
    return _new(nvars, _dots([x._terms for x in xs], [dict(enumerate(y._terms for y in ys))])[0])


def _parent(alpha):
    """(α − ε_v, v) for v the last variable of a nonzero exponent tuple α."""
    v = max(i for i, x in enumerate(alpha) if x)
    return alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:], v


def substitute_forms(p, forms, nvars):
    """p(Q_1, …, Q_r, x_{n−T}, …, x_{n−1}) for p in r + T variables, the
    z_ℓ and then T tail ones, and forms Q_ℓ in n = nvars variables: the
    value `compose` gives at those arguments, with one packed product per
    level in the Q_ℓ.

    Write p = p_0 + Σ_ℓ z_ℓ·r_ℓ, ℓ the first z-variable of each monomial,
    so p(Q) = p_0 + Σ_ℓ Q_ℓ·r_ℓ(Q), and split each r_ℓ alike in z_ℓ, …, z_r.
    Each z-exponent α of a term of p, and each one below it on the way, is
    a node of value V_α = c_α + Σ_{ℓ ≥ last(α)} Q_ℓ·V_{α+ε_ℓ}, with c_α the
    tail part of p at z^α, whose tail variables become key offsets, and
    last(α) the last z-variable of α.  The nodes of one z-degree take their
    sums from one `_dots` product, the deepest first, and p(Q) = V_0.
    DomainError exactly where `compose` raises it."""
    r, tail = len(forms), p.nvars - len(forms)
    if not 0 <= tail <= nvars or any(q.nvars != nvars for q in forms):
        raise VariableCountError(f"{r} forms in {nvars} variables cannot substitute into {p.nvars} variables")
    if not p._terms:
        return Polynomial.zero(nvars)
    _check_composition(p, [*forms, *(Polynomial.variable(nvars, v) for v in range(nvars - tail, nvars))])
    # the tail fields are the lowest of p's keys and of the result's alike,
    # so a tail monomial keeps them under its own degree field
    shift, low = FIELD_BITS * p.nvars, (1 << FIELD_BITS * tail) - 1
    # levels[j]: node α of z-degree j -> c_α; parents[α] = (α − ε_v, v)
    levels, parents = {}, {}
    for e, (k, c) in zip(_layout(p.nvars).unpack(p._terms), p._terms.items()):
        alpha = e[:r]
        j = sum(alpha)
        levels.setdefault(j, {}).setdefault(alpha, {})[((k >> shift) - j) << FIELD_BITS * nvars | (k & low)] = c
    top = max(levels)
    for j in range(top, 0, -1):
        below = levels.setdefault(j - 1, {})
        for alpha in levels[j]:
            parents[alpha] = parent, _ = _parent(alpha)
            below.setdefault(parent, {})
    xs, values = [q._terms for q in forms], levels[top]
    for j in range(top - 1, -1, -1):
        families = {alpha: {} for alpha in levels[j]}
        for alpha, value in values.items():
            parent, v = parents[alpha]
            families[parent][v] = value
        sums = _dots(xs, list(families.values()))
        values = {alpha: _add_into(s, levels[j][alpha].items()) for alpha, s in zip(families, sums)}
    return _new(nvars, values[(0,) * r])


# ----------------------------------------------------------------------
# parsing

# after optional whitespace: ASCII digits, a name and its index digits, or
# one other character; no group matches at the end of the text
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_]+)([0-9]*)|(\S))?")
_INDEX = re.compile(r"[A-Za-z_]+([0-9]+)")
# The largest variable index `parse` accepts.  Keys spend FIELD_BITS bits per
# variable up to the largest index, and no exact kernel here finishes on a
# thousand variables.
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
    value is its index digits and its position that of its name.  `index`
    maps index digits to the index, or to None past the cap.  Each term folds
    its coefficients and variables into one key of `layout`; only a
    parenthesized factor is multiplied out."""

    def __init__(self, text, prefix, layout, index):
        self.text, self.prefix, self.layout, self.index = text, prefix, layout, index
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
            if self.index[index] is None:
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
        key = 0
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
                i = self.index[value]
                if (key >> self.layout.offsets[i] & _FIELD_MASK) + exp > MAX_EXPONENT:
                    raise _exponent_error(pos)
                key += exp * self.layout.units[i]
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
        term = {key: c}
        for p, pos in inner:
            # fields of at most MAX_EXPONENT add without a carry
            term = _mul_packed(term, p)
            if term and max(term) >> self.layout.shift > MAX_EXPONENT and any(
                x > MAX_EXPONENT for e in self.layout.unpack(term) for x in e
            ):
                raise _exponent_error(pos)
        return term


def _exponent_error(position):
    return ParseError(f"variable exponent exceeds the cap {MAX_EXPONENT}", position)


# the joins between the printer's terms
_JOIN = re.compile(r" ([+-]) ")
_NAME = re.compile(r"[A-Za-z_]+")
# a number without leading zeros up to either cap has at most this many digits
_CAP_DIGITS = len(str(max(MAX_VARIABLE_INDEX, MAX_EXPONENT)))


def _ascii_number(digits, limit):
    """Whether digits spell [1-9][0-9]* in ASCII, at most limit long."""
    return digits.isascii() and digits.isdigit() and digits[0] != "0" and len(digits) <= limit


def _read_printed(text, prefix, nvars):
    """(variable count, key -> coefficient) of text in the printer's own
    language, or None for any other text.

    The language: terms joined by " + " or " - ", and a "-" before the first
    term only; a term is an optional coefficient a or a/b, then "*"-joined
    factors prefix + index or prefix + index^e, with no leading zeros, an
    index up to MAX_VARIABLE_INDEX and below nvars, 2 <= e <= MAX_EXPONENT
    and no variable twice (a term may be the coefficient alone).  Such text
    parses without error, so the descent reads everything else and alone
    raises.  Each distinct factor string is validated and keyed once."""
    # a prefix the descent could not read as one name refuses every text
    if not isinstance(prefix, str) or not _NAME.fullmatch(prefix):
        return None
    limit = sys.get_int_max_str_digits() or len(text)
    negative = text[:1] == "-"
    pieces = _JOIN.split(text[1:] if negative else text)
    coeffs, monomials = [], []
    for sign, term in zip(["-" if negative else "+", *pieces[1::2]], pieces[::2]):
        factors = term.split("*")
        head = factors[0]
        if head[:1].isdigit():
            num, slash, den = head.partition("/")
            if not _ascii_number(num, limit) or slash and not _ascii_number(den, limit):
                return None
            c = Fraction(int(num), int(den)) if slash else int(num)
            del factors[0]
        else:
            c = 1
        coeffs.append(-c if sign == "-" else c)
        monomials.append(factors)
    factor = {}
    for f in set(itertools.chain.from_iterable(monomials)):
        name, caret, exp = f.partition("^")
        digits = name[len(prefix):]
        if not (name.startswith(prefix) and (digits == "0" or _ascii_number(digits, _CAP_DIGITS))
                and int(digits) <= MAX_VARIABLE_INDEX):
            return None
        if not caret:
            exp = 1
        elif _ascii_number(exp, _CAP_DIGITS) and 2 <= int(exp) <= MAX_EXPONENT:
            exp = int(exp)
        else:
            return None
        factor[f] = (int(digits), exp)
    inferred = max((i for i, _ in factor.values()), default=-1) + 1
    width = max(inferred, 1) if nvars is None else nvars
    if width < 1 or inferred > width:
        return None
    units = _layout(width).units
    inc = {f: e * units[i] for f, (i, e) in factor.items()}
    bit = {f: 1 << i for f, (i, _) in factor.items()}
    keys = []
    for factors in monomials:
        # the bits of distinct variables add without a carry
        if len(factors) > 1 and sum(map(bit.__getitem__, factors)).bit_count() < len(factors):
            return None
        keys.append(sum(map(inc.__getitem__, factors)))
    terms = dict(zip(keys, coeffs))
    if len(terms) < len(keys):
        terms = _add_into({}, zip(keys, coeffs))
    return width, terms


def parse(text, var_prefix="x", nvars=None):
    """Parse polynomial text; variables are var_prefix + index.

    The variable count defaults to one more than the largest index used
    (at least 1); pass ``nvars`` to embed in a larger variable set.

    Printed text is read term by term (`_read_printed`); everything else,
    including all malformed text, by the descent (`_Parser`), which alone
    raises, so the result, message and position do not depend on the route.
    """
    read = _read_printed(text, var_prefix, nvars)
    if read is not None:
        return _new(*read)
    # each distinct index is converted once, before the pass; past nvars,
    # the pass runs in the wider layout, so that a syntax error is reported
    # before the index
    index = {digits: _capped_index(digits) for digits in set(_INDEX.findall(text))}
    inferred = max((i for i in index.values() if i is not None), default=-1) + 1
    width = max(inferred, 1) if nvars is None else nvars
    terms = _Parser(text, var_prefix, _layout(max(width, inferred, 1)), index).parse()
    if inferred > width:
        raise ParseError(f"variable index {inferred - 1} exceeds nvars={nvars}", 0)
    if width < 1:
        raise VariableCountError("a polynomial needs at least one variable")
    return _new(width, terms)


# ----------------------------------------------------------------------
# monomial enumeration

def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, graded-lex descending: each
    pass extends every prefix by its next exponent, largest first."""
    prefixes = [()]
    for _ in range(nvars - 1):
        prefixes = [p + (a,) for p in prefixes for a in range(d - sum(p), -1, -1)]
    return [p + (d - sum(p),) for p in prefixes]


def power_levels(forms):
    """{γ: F^γ} for the forms F, level k over `monomials_of_degree(len(forms), k)`
    for k = 0, 1, …: the constant 1, the forms themselves, and above them
    each F^γ one product F^(γ − ε_v)·F_v with the level below (`_parent`)."""
    yield {(0,) * len(forms): Polynomial.constant(forms[0].nvars, 1)}
    level = dict(zip(monomials_of_degree(len(forms), 1), forms))
    for k in itertools.count(2):
        yield level
        below, level = level, {}
        for gamma in monomials_of_degree(len(forms), k):
            parent, v = _parent(gamma)
            level[gamma] = below[parent] * forms[v]


# ----------------------------------------------------------------------
# binary forms: one gcd in Z[u], repeated roots, reducedness on a line
#
# A binary form here is a form in the last two variables (u, v) of its
# ring, whose exponents fill the two lowest fields of a key.  Of degree d,
# it is read as its coefficients at u^d, u^(d−1)·v, …, v^d: those of
# p(u, 1), leading first, where k leading zeros are the factor v^k of p.
# Writing p = v^k·p' with v ∤ p', p'(u, 1) has the degree of p', so a
# common factor of forms is v^(least k) times the common factor of the
# p'(u, 1) made homogeneous: one primitive remainder sequence in Z[u].

def _binary_coefficients(p):
    """The coefficients of a nonzero binary form at u^d, u^(d−1)·v, …, v^d."""
    d = p.degree()
    coeffs = [0] * (d + 1)
    for k, c in p._terms.items():
        coeffs[d - (k >> FIELD_BITS & _FIELD_MASK)] = c
    return coeffs


def _binary_form(nvars, coeffs):
    """The binary form in nvars variables with the given coefficients at
    u^d, …, v^d."""
    d = len(coeffs) - 1
    top = d << FIELD_BITS * nvars
    return _new(nvars, {top | (d - i) << FIELD_BITS | i: c for i, c in enumerate(coeffs) if c})


def _leading_zeros(coeffs):
    return next(i for i, c in enumerate(coeffs) if c)


def _long_division(a, b):
    """(quotient, remainder) of one-variable coefficient lists, leading
    first, b[0] ≠ 0; a leading zero of a is a quotient coefficient 0.  An
    int quotient coefficient stays an int."""
    quotient = []
    while len(a) >= len(b):
        x, y = a[0], b[0]
        q = x // y if type(x) is int and type(y) is int and not x % y else Fraction(x, y)
        quotient.append(q)
        a = [s - q * t for s, t in zip(a[1:], b[1:])] + a[len(b):]
    return quotient, a


def _pseudo_remainder(a, b):
    """A nonzero multiple of the remainder of integer coefficient lists a by
    b, leading first, b[0] ≠ 0; each step scales a by b[0]/gcd(a[0], b[0])."""
    y = b[0]
    while len(a) >= len(b):
        g = math.gcd(a[0], y)
        x, z = a[0] // g, y // g
        a = [z * s - x * t for s, t in zip(a[1:], b[1:])] + [z * s for s in a[len(b):]]
    return a


def binary_gcd(forms):
    """The gcd of binary forms, not all zero, with coprime integer
    coefficients and a positive leading one: v^k, k the least order of v,
    times the gcd of the forms at v = 1 made homogeneous, up to a scalar
    the last nonzero term of their primitive remainder sequence in Z[u]."""
    lists = [_binary_coefficients(p) for p in forms if p]
    if not lists:
        raise DomainError("gcd of an all-zero list")
    k = min(map(_leading_zeros, lists))
    g, *rest = (primitive_vector(a[_leading_zeros(a):]) for a in lists)
    for b in rest:
        while any(b):
            b = b[_leading_zeros(b):]
            g, b = b, primitive_vector(_pseudo_remainder(g, b))
    return _binary_form(forms[0].nvars, [0] * k + list(g))


def binary_quotient(a, b):
    """a/b for binary forms, b ≠ 0, or None when b does not divide a: with
    a = v^i·a' and b = v^j·b' as above, b divides a exactly when j <= i and
    b'(u, 1) divides a'(u, 1)."""
    if not a:
        return a
    p, q = _binary_coefficients(a), _binary_coefficients(b)
    i, j = _leading_zeros(p), _leading_zeros(q)
    if j > i:
        return None
    quotient, remainder = _long_division(p[i:], q[j:])
    return None if any(remainder) else _binary_form(a.nvars, [0] * (i - j) + quotient)


def repeated_root(r):
    """(has_repeated_root, root_or_None) for a nonzero binary form r(u, v)
    of degree at least two.

    By Euler's identity deg(r)·r = u·∂_u r + v·∂_v r, a linear form divides
    both partials exactly when its square divides r, so r has a repeated
    root iff g = gcd(∂_u r, ∂_v r) (`binary_gcd`) is not constant.  When
    g = a·u + b·v the repeated root is the single point (b : −a)."""
    g = binary_gcd([r.partial(0), r.partial(1)])
    if g.degree() == 0:
        return False, None
    if g.degree() == 1:
        return True, (g.coefficient((0, 1)), -g.coefficient((1, 0)))
    return True, None


def is_reduced(f, seed=0):
    """Whether f|_L = f(u·a + v·b) has no repeated root, on a seeded line L,
    a and b in range(DEFAULT_PRIME)^(n+1), redrawn once while f|_L ≡ 0.
    True is exact: p² | f gives (p|_L)² | f|_L.  A reduced f of degree d is
    refused with probability at most 2d(d−1)/DEFAULT_PRIME (Schwartz–Zippel
    on the discriminant of f|_L, of degree 2d(d−1) in a and b)."""
    if not f:
        raise DomainError("is_reduced is undefined for the zero polynomial")
    if not f.is_homogeneous():
        raise DomainError("is_reduced expects a homogeneous polynomial")
    if f.degree() <= 1:
        return True
    for attempt in range(2):
        rng = substream(seed + attempt, "is_reduced")
        line = [[rng.randrange(DEFAULT_PRIME) for _ in range(2)] for _ in range(f.nvars)]
        restricted = f.compose([Polynomial.linear_form(a) for a in line])
        if restricted:
            return not repeated_root(restricted)[0]
    return False


# ----------------------------------------------------------------------
# gcd: GCDHEU over Z
#
# The heuristic works on primitive integer parts held as term dicts (key ->
# int) in the layout of their variable count.  It evaluates one variable x_v
# at an integer xi, takes the gcd and cofactors of the images recursively
# (down to integers), and reads three candidates back from symmetric xi-adic
# digits: the primitive part of the gcd's digits, and each input divided by
# the digits of its cofactor.  A candidate is accepted only when it divides
# both inputs exactly; otherwise xi grows and the next point is tried.  On
# keys, x_v := xi subtracts e_v times x_v's key, and digit i adds i times it.
#
# Why x^h divides x^k exactly when d = k − h is ≥ 0 and the exponent fields
# of d sum to its degree field (`_Layout.divide`): subtract field by field
# from the bottom, and let B fields borrow from the one above, t ∈ {0, 1} of
# them (the top exponent field) from the degree field.  Each borrower gains
# 2^16 and each of the B − t exponent fields that lend loses 1, so the
# exponent fields of d sum to |k| − |h| + 65535·B + t while its degree field
# holds |k| − |h| − t: the two agree exactly when nothing borrows.
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
    ints = _integral_terms([terms])[1][0]
    g = math.gcd(*ints.values())
    return {k: c // g for k, c in ints.items()} if g != 1 else ints


def _root_bound(layout, a, v):
    """1 + max |coefficient| / |leading coefficient| over the coefficients of
    a viewed as univariate in x_v: every root of each of them is smaller."""
    s, unit = layout.offsets[v], layout.units[v]
    norm, lead = {}, {}
    for k, c in a.items():
        x = k >> s & _FIELD_MASK
        k -= x * unit
        m = abs(c)
        if m > norm.get(k, 0):
            norm[k] = m
        if k not in lead or x > lead[k][0]:
            lead[k] = (x, m)
    return 1 + max(-(-norm[k] // lc) for k, (_, lc) in lead.items())


def _heu_first_xi(layout, a, b, v):
    """GCDHEU's usual first point, raised to twice the root bound that the
    acceptance argument above needs."""
    bound = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    return max(min(bound, 99 * math.isqrt(bound)), 2 * min(_root_bound(layout, a, v), _root_bound(layout, b, v)))


def _eval_var(layout, a, v, xi):
    """a with x_v := xi; the x_v field of every key becomes 0."""
    s, unit = layout.offsets[v], layout.units[v]
    out = {}
    powers = [1]
    for k, c in a.items():
        d = k >> s & _FIELD_MASK
        while len(powers) <= d:
            powers.append(powers[-1] * xi)
        k -= d * unit
        out[k] = out.get(k, 0) + c * powers[d]
    return {k: c for k, c in out.items() if c}


def _interpolate(layout, g, v, xi):
    """Spread each coefficient of g over powers of x_v by its symmetric
    xi-adic digits, each in (-xi/2, xi/2]; DomainError past x_v's field."""
    half, unit = xi // 2, layout.units[v]
    out, top = {}, FIELD_LIMIT * unit
    for k0, c in g.items():
        k = k0
        while c:
            c, r = divmod(c, xi)
            if r > half:
                r -= xi
                c += 1
            if r:
                out[k] = r
            k += unit
        if k - k0 > top:
            raise DomainError(f"an xi-adic digit index would reach {FIELD_LIMIT}")
    return out


def _int_quotient(layout, a, h):
    """a / h in Z[x], or None when h does not divide a there.  Leading-term
    division stops at the first term that proves it inexact: one not
    divisible by the leading term of h, or one beyond the degree of the
    quotient in some variable, deg_j(a) - deg_j(h).  The remainder's keys
    wait, negated, in a min-heap, so each step finds its leading term
    without a scan; a cancelled key is skipped when it comes up."""
    if h.keys() == {0}:  # a constant: divide coefficient by coefficient
        return None if any(x % h[0] for x in a.values()) else {k: x // h[0] for k, x in a.items()}
    cap = tuple(map(operator.sub, *(map(max, zip(*layout.unpack(p))) for p in (a, h))))
    hk = max(h)
    hc = h[hk]
    r = dict(a)
    heap = [-k for k in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        k = -heapq.heappop(heap)
        if k not in r:
            continue
        e = layout.divide(k, hk)
        if e is None or any(map(operator.gt, e, cap)):
            return None
        qc, rem = divmod(r[k], hc)
        if rem:
            return None
        d = k - hk
        q[d] = qc
        for kh, c in h.items():
            k = kh + d
            s = r.get(k)
            if s is None:
                r[k] = -qc * c
                heapq.heappush(heap, -k)
            elif s != qc * c:
                r[k] = s - qc * c
            else:
                del r[k]
    return q


def _heu_candidate(layout, a, b, g, qa, qb):
    """(h, a/h, b/h) for the first of three candidates that divides both a
    and b: the primitive part of g, a/qa and b/qb.  g, qa and qb are read
    from the digits of the image gcd and of its two cofactors."""
    # quotients of nonzero polynomials are nonempty, so None is the only falsy one
    hc = math.gcd(*g.values())
    h = {k: c // hc for k, c in g.items()}
    if (ha := _int_quotient(layout, a, h)) and (hb := _int_quotient(layout, b, h)):
        return h, ha, hb
    if (h := _int_quotient(layout, a, qa)) and (hb := _int_quotient(layout, b, h)):
        return h, qa, hb
    if (h := _int_quotient(layout, b, qb)) and (ha := _int_quotient(layout, a, h)):
        return h, ha, qb
    return None


def _heu_gcd(layout, a, b, vs):
    """(g, a/g, b/g) for the gcd g in Z[x] of nonzero integer term dicts
    whose exponents vanish outside the variables vs."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    cont = math.gcd(ca, cb)
    if a.keys() == {0} or b.keys() == {0}:  # a constant; its key is 0
        return {0: cont}, {k: c // cont for k, c in a.items()}, {k: c // cont for k, c in b.items()}
    if ca != 1:
        a = {k: c // ca for k, c in a.items()}
    if cb != 1:
        b = {k: c // cb for k, c in b.items()}
    v, rest = vs[-1], vs[:-1]
    xi = _heu_first_xi(layout, a, b, v)
    while True:
        ea, eb = _eval_var(layout, a, v, xi), _eval_var(layout, b, v, xi)
        # xi clears the root bound of only one input, so the other may vanish
        if ea and eb:
            image = _heu_gcd(layout, ea, eb, rest)
            found = _heu_candidate(layout, a, b, *(_interpolate(layout, x, v, xi) for x in image))
            if found is not None:
                scales = (cont, ca // cont, cb // cont)
                return tuple(x if m == 1 else {k: c * m for k, c in x.items()} for x, m in zip(found, scales))
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def _gcd_fold(polys):
    """(g, [p/g]) as term dicts, over the primitive integer parts p of the
    nonzero polys, for g their primitive gcd.

    The fold divides each part by g, the gcd so far; the quotient is the
    part's cofactor.  Where g does not divide, GCDHEU returns gcd(g, p) = g/q
    with both cofactors, and each earlier cofactor gains the factor q.  Once
    g is 1, each later part is its own cofactor.  Last, g·b = p is
    re-checked in integers for every part p and its cofactor b."""
    parts = [_primitive_ints(p._terms) for p in polys if p]
    if not parts:
        raise DomainError("gcd of an all-zero list")
    n = polys[0].nvars
    if any(p.nvars != n for p in polys):
        raise VariableCountError("gcd arguments disagree on variable count")
    layout, g, cofactors = _layout(n), parts[0], [{0: 1}]
    for j, a in enumerate(parts[1:], 1):
        if g == {0: 1}:
            cofactors += parts[j:]
            break
        b = _int_quotient(layout, a, g)
        if b is None:
            # g does not divide a, so q = g/gcd(g, a) is not constant
            g, q, b = _heu_gcd(layout, g, a, layout.used(itertools.chain(g, a)))
            cofactors = [_mul_packed(c, q) for c in cofactors]
        cofactors.append(b)
    if any(_mul_packed(g, b) != a for a, b in zip(parts, cofactors)):
        raise InternalCheckError("g·b != p for a part p and its cofactor b in the gcd fold")
    return g, cofactors


def gcd(a, b):
    """A gcd of two polynomials, normalized monic (graded-lex leading coeff 1)."""
    return gcd_list([a, b])


def gcd_cofactors(polys):
    """(ρ, [p/ρ for p in polys]) for ρ the gcd of polys, not all zero, as
    `_gcd_fold` holds it: coprime integer coefficients, the leading one
    made positive."""
    g, cofactors = _gcd_fold(polys)
    quotients, sign = iter(cofactors), 1 if g[max(g)] > 0 else -1
    # p = content(p)·g·q_p, and ρ = sign·g
    return _new(polys[0].nvars, g).scale(sign), [
        _new(p.nvars, next(quotients)).scale(rational_content(p.coefficients()) * sign) if p else p
        for p in polys
    ]


def gcd_list(polys):
    """The monic gcd of a list, skipping zeros; error if all zero."""
    return _new(polys[0].nvars, _gcd_fold(polys)[0]).monic()

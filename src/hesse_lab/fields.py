"""The coefficient domain: exact rationals, with plain-int images mod p.

Every coefficient is a rational, stored as plain ``int`` when integral and
``fractions.Fraction`` otherwise; both interoperate transparently, and keeping
the integer fast path matters in the symbolic-determinant kernels.  Prime
fields appear only as ints in [0, p): in the kernel's row selection, and
through ``rational_to_mod`` in the ψ_g image sampling of
``analyze --field p:MODULUS``, whose modulus ``is_prime`` vets.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import DomainError, FieldMismatchError

# The Mersenne prime 2^61 - 1: the kernel's row-selection modulus and the
# coordinate range of the Hessian verdict's sample points.
DEFAULT_PRIME = (1 << 61) - 1


def norm_coeff(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    # `type` skips the ABC isinstance check, which is slow on hot paths
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def coeff_div(a, b):
    """Exact division of rational coefficients."""
    return norm_coeff(Fraction(a) / Fraction(b))


def rational_to_mod(c, p):
    """Reduce an int or Fraction to GF(p) via modular inverse of the denominator."""
    if isinstance(c, int):
        return c % p
    if c.denominator % p == 0:
        raise FieldMismatchError(f"denominator divisible by modulus {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 2017).
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for n < PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise DomainError(f"{n} is beyond the exact primality test (< {PRIME_TEST_LIMIT})")
    if n < 2:
        return False
    for q in _PRIME_TEST_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_TEST_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational_content(coeffs):
    """Positive rational c such that dividing the coefficients by c leaves
    coprime integers.  Input must be nonempty rational coefficients."""
    nums, dens = [], []
    for c in coeffs:
        f = c if isinstance(c, Fraction) else Fraction(c)
        nums.append(abs(f.numerator))
        dens.append(f.denominator)
    g = 0
    for n in nums:
        g = math.gcd(g, n)
    l = 1
    for d in dens:
        l = l * d // math.gcd(l, d)
    return Fraction(g, l)


def substream(seed, *labels):
    """Deterministic named RNG substream derived from one master seed.

    Labels keep draws independent between modules, instances, and trials,
    so adding samples to one consumer never shifts another's stream.
    """
    return random.Random(f"{seed}::" + "/".join(str(x) for x in labels))

"""The coefficient domain: exact rationals.

Every coefficient is a rational, stored as plain ``int`` when integral and
``fractions.Fraction`` otherwise; both interoperate transparently, and keeping
the integer fast path matters in the symbolic-determinant kernels.  The one
prime field, GF(DEFAULT_PRIME) as ints in [0, p), appears only in exact
kernels, which are solved mod p and lifted to Q (``linalg.kernel_of_rows``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# The Mersenne prime 2^61 - 1: the modulus exact kernels are solved in before
# they are lifted, and the coordinate range of the Hessian verdict's samples.
DEFAULT_PRIME = (1 << 61) - 1


def norm_coeff(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    # `type` skips the ABC isinstance check, which is slow on hot paths
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def rational_content(coeffs):
    """Positive rational c such that dividing the coefficients by c leaves
    coprime integers.  Input must be nonempty rational coefficients."""
    g, l = 0, 1
    for c in coeffs:
        if type(c) is int:
            g = math.gcd(g, c)
        else:
            g = math.gcd(g, c.numerator)
            l = math.lcm(l, c.denominator)
    return Fraction(g, l)


def substream(seed, *labels):
    """Deterministic named RNG substream derived from one master seed.

    Labels keep draws independent between modules, instances, and trials,
    so adding samples to one consumer never shifts another's stream.
    """
    return random.Random(f"{seed}::" + "/".join(str(x) for x in labels))

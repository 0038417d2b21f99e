"""Deterministic primality test for user-supplied moduli, against sympy."""

import pytest
import sympy

from hesse_lab.errors import DomainError
from hesse_lab.fields import PRIME_TEST_LIMIT, is_prime


def test_is_prime_matches_sympy():
    for n in range(-3, 3000):
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to many small bases, and primes near the limit
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              (1 << 61) - 1, (1 << 61) + 1, sympy.prevprime(PRIME_TEST_LIMIT)):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_to_guess_beyond_limit():
    with pytest.raises(DomainError):
        is_prime(PRIME_TEST_LIMIT)

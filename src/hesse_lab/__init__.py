"""Exact-arithmetic toolkit for hypersurfaces with vanishing Hessian.

Everything here is computed exactly over the rationals, with integers mod a
large prime reserved for probabilistic identity testing; no floating point
enters any verdict.
"""

from .fields import DEFAULT_PRIME, substream
from .poly import Polynomial, gcd, gcd_list, is_reduced, parse

__all__ = [
    "DEFAULT_PRIME",
    "Polynomial",
    "gcd",
    "gcd_list",
    "is_reduced",
    "parse",
    "substream",
]

__version__ = "0.1.0"

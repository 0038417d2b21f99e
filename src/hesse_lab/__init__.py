"""Exact-arithmetic toolkit for hypersurfaces with vanishing Hessian.

Everything here is computed exactly over the rationals; no floating point
enters any verdict.  Integers mod a large prime serve only exact kernels
(``linalg.kernel_of_rows``), solved mod p, lifted to Q and re-checked exactly.
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

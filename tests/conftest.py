"""Oracles shared by several test modules."""

from fractions import Fraction

import pytest
from sympy import QQ, ring
from sympy.polys.matrices import DomainMatrix

from hesse_lab.hessian import sample_kernels
from hesse_lab.poly import Polynomial
from hesse_lab.psi import DEFAULT_MAX_RELATION_DEGREE, find_polar_relation


def _sympy_det(rows):
    """det of a square list of polynomial rows by sympy's own determinant
    over Q[x], read back as a Polynomial."""
    nvars = rows[0][0].nvars
    r, *_ = ring([f"x{i}" for i in range(nvars)], QQ)
    entries = [[r.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.as_dict().items()})
                for p in row] for row in rows]
    det = DomainMatrix(entries, (len(rows), len(rows)), r.to_domain()).det()
    return Polynomial(nvars, {e: Fraction(int(c.numerator), int(c.denominator))
                              for e, c in det.items()})


def sampled_relation(f, max_degree=DEFAULT_MAX_RELATION_DEGREE):
    """The polar relation of f on its seed-0 W, the W the suites sample."""
    return find_polar_relation(f, sample_kernels(f).span, max_degree)


@pytest.fixture
def sympy_det():
    """The oracle for `hessian.symbolic_determinant`."""
    return _sympy_det

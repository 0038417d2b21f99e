"""Oracles shared by several test modules."""

from fractions import Fraction

import pytest
from sympy import QQ, ring
from sympy.polys.matrices import DomainMatrix

from hesse_lab.poly import Polynomial


def _sympy_det(m):
    """det of a PolyMatrix by sympy's own determinant over Q[x], read back
    as a Polynomial."""
    r, *_ = ring([f"x{i}" for i in range(m.nvars)], QQ)
    rows = [[r.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.as_dict().items()})
             for p in row] for row in m.entries]
    det = DomainMatrix(rows, (m.rows, m.cols), r.to_domain()).det()
    return Polynomial(m.nvars, {e: Fraction(int(c.numerator), int(c.denominator))
                                for e, c in det.items()})


@pytest.fixture
def sympy_det():
    """The oracle for `hessian.symbolic_determinant`."""
    return _sympy_det

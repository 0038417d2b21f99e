"""Exception types shared across the package."""


class HesseLabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HesseLabError):
    """Polynomial text does not conform to the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableCountError(HesseLabError):
    """Operands disagree on the number of variables."""


class DimensionError(HesseLabError):
    """Matrix/vector shapes are incompatible."""


class DomainError(HesseLabError):
    """Input outside an operation's stated precondition (degree, zero input, ...)."""


class RestrictionZeroError(HesseLabError):
    """Hyperplane restriction of a polynomial vanished identically (H is inside V(f))."""


class DegenerateDataError(HesseLabError):
    """Construction data produced a degenerate object (zero determinant, zero form)."""


class RetryBudgetError(HesseLabError):
    """Seeded retry loop exhausted its budget without a usable draw."""


class ValidationError(HesseLabError):
    """Structured parameter validation failure; `violations` lists each broken constraint."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SampleBudgetError(HesseLabError):
    """All sampled points hit a base locus / indeterminacy; resample with a new seed."""


class InternalCheckError(HesseLabError):
    """A cross-check the implementation guarantees has failed (implementation bug)."""

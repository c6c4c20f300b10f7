"""Exception types shared across the engine."""


class JethamError(Exception):
    """Base class for all engine errors (configuration, domain, dimension)."""


class ExprSyntaxError(JethamError):
    """Raised by the expression parser; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(JethamError):
    """Evaluation left the domain of an elementary function.

    Carries the offending subexpression so the user can see which factor
    blew up (log of a non-positive value, division by zero, zero raised
    to a negative power, fractional power of a non-positive base).
    """

    def __init__(self, message: str, subexpr=None):
        if subexpr is not None:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)
        self.subexpr = subexpr


class MissingSubstitutionError(JethamError):
    """A substitution map does not cover every variable of the expression."""


class DimensionError(JethamError):
    """Ambient dimension outside the supported range, or mismatched lengths."""


class RegularityError(JethamError):
    """A coordinate change is singular at the requested point."""


class ChartInverseError(JethamError):
    """User-supplied inverse expressions disagree with the forward map."""


class SignatureMismatchError(JethamError):
    """Two d-tensors were compared with different index signatures."""


class ProblemFormatError(JethamError):
    """A problem file is malformed or violates its invariants."""

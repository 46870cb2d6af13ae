"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class NotUnimodular(DomainError):
    """Matrix determinant is not +1 or -1."""


class NotSL2(DomainError):
    """Matrix determinant is not +1."""


class NotAnosov(DomainError):
    """Matrix trace has absolute value <= 2 (periodic or fixes a slope)."""


class TraceTooSmall(DomainError):
    """Trace parameter with |t| <= 2 where a hyperbolic trace is required."""


class NotCommuting(DomainError):
    """Matrices were required to commute but do not."""


class NotStandardForm(DomainError):
    """Matrix is not of the shape [[m, -1], [1, 0]] with |m| >= 3."""


class NotExpressible(DomainError):
    """Commuting matrix has determinant -1, so it is not a signed power."""


class InconsistentWitness(DomainError):
    """A supplied conjugation witness does not verify against its matrix."""


class NotUpperHalfPlane(DomainError):
    """Point does not have positive imaginary part."""


class ParseError(ValueError):
    """Malformed matrix, slope, or integer text."""


class VerificationError(RuntimeError):
    """An exact identity that must hold at emission time failed to verify."""

"""Exception types shared across the package."""


class InvalidPartitionError(ValueError):
    """Partition-point count not an integer, or too small to form a periodic mesh."""


class InvalidDomainError(ValueError):
    """Domain side length not finite and positive."""


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class SingularMatrixError(RuntimeError):
    """Factorization or solve broke down; carries the pivot and corrections made."""

    def __init__(self, message, pivot=0.0, corrections=0):
        super().__init__(message)
        self.pivot = pivot
        self.corrections = corrections


class NotSpdError(ValueError):
    """Quadratic form came out negative beyond round-off."""


class EvaluationError(ValueError):
    """A user-supplied field returned a non-finite value; carries the location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigurationError(ValueError):
    """Mismatched problem/grid configuration."""


class OracleSizeError(ValueError):
    """Dense oracle refused: grid too large for brute-force assembly."""


class NonFiniteError(ArithmeticError):
    """A solver iterate or its relative update came out NaN or infinite."""

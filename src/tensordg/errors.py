"""Exception types shared across the estimation pipeline."""


class _Located:
    """``where`` identifies the offending group or mode, when known."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class DimensionError(_Located, ValueError):
    """Shapes or index bounds do not line up."""


class NonFiniteError(_Located, ValueError):
    """Input data hold NaN or infinite values."""


class ConditioningError(_Located, RuntimeError):
    """A linear system is too ill conditioned to solve reliably."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    ``residual`` carries the final optimality (KKT) residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

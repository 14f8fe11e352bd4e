"""Exception types shared across the estimation pipeline."""


class DimensionError(ValueError):
    """Shapes or index bounds do not line up."""


class NonFiniteError(ValueError):
    """Input data hold NaN or infinite values.

    ``where`` identifies the offending group.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class ConditioningError(RuntimeError):
    """A linear system is too ill conditioned to solve reliably.

    ``where`` identifies the offending group or mode so callers can report
    which block of the problem failed.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    ``residual`` carries the final optimality (KKT) residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

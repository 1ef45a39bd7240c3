"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shape or length is inconsistent with the declared dimensions."""


class DivergenceError(RuntimeError):
    """An iterative solver produced values beyond the float32 range, NaN and +-inf included.

    Carries the iteration index at which divergence was detected and the
    trace accumulated up to that point, so callers can flush diagnostics.
    """

    def __init__(self, message, iteration=None, trace=None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


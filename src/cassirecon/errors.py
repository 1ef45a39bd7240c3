"""Exception types shared across the package, and the solvers' divergence check."""

import numpy as np


class DimensionError(ValueError):
    """Array shape or length is inconsistent with the declared dimensions."""


class DivergenceError(RuntimeError):
    """An iterative solver produced non-finite values.

    Carries the iteration index at which divergence was detected and the
    trace accumulated up to that point, so callers can flush diagnostics.
    """

    def __init__(self, message, iteration=None, trace=None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


def check_finite(v, what: str, iteration: int, trace) -> None:
    """Raise :class:`DivergenceError` unless every value of ``v`` is finite.

    ``what`` names the stage in the message; ``iteration`` and the partial
    ``trace`` travel with the error.
    """
    if not np.all(np.isfinite(v)):
        raise DivergenceError(
            f"non-finite values in {what} at iteration {iteration}",
            iteration=iteration,
            trace=trace,
        )

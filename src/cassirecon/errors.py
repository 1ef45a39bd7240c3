"""Exception types shared across the package, and the one divergence rule:
a value is usable when the float32 payload of the files can hold it."""

import numpy as np


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


def fits_float32(values) -> bool:
    """Whether a float32 payload holds every one of ``values``; NaN and +-inf it cannot.

    The values are cast a row chunk at a time, so no cast copy of a whole
    cube is made.
    """
    from .cubes import row_chunks  # cubes imports this module

    with np.errstate(over="ignore"):
        return all(np.isfinite(c.astype("<f4")).all() for c in row_chunks(np.asarray(values)))


def check_float32_range(v, what: str, iteration: int, trace) -> None:
    """Raise :class:`DivergenceError` unless :func:`fits_float32` holds for ``v``.

    ``what`` names the stage in the message; ``iteration`` and the partial
    ``trace`` travel with the error.
    """
    if not fits_float32(v):
        raise DivergenceError(
            f"values beyond the float32 range in {what} at iteration {iteration}",
            iteration=iteration,
            trace=trace,
        )

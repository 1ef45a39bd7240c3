"""Hyperspectral cube and measurement containers plus the flat-index convention.

Every vector exchanged between modules (cube iterates, transform
coefficients, measurements) uses one normative flattening:

* voxel ``(i, j, l)``        ->  ``i + M*j + M*N*l``
* measurement ``(i, j', k)`` ->  ``i + M*j' + M*(N+L+1)*k``

i.e. Fortran order of ``(M, N, L)`` and ``(M, N+L+1, K)`` arrays, with the
row index fastest. These formulas are binding for the on-disk formats and
the materialized measurement matrix alike. :func:`flat_vector` is the one
length check and :func:`cube_view` the one flat-to-array view that every
module applies to the vectors it receives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


WEIGHT_SUM_TOL = 1e-12

#: Default split of a voxel's energy over the 3 detector columns it reaches.
#: Symmetric and unit-sum; configurable per model.
DEFAULT_WEIGHTS = (0.25, 0.5, 0.25)


def check_dims(*dims: int) -> None:
    """The one dimension rule: every size is at least 1."""
    for d in dims:
        if int(d) < 1:
            raise DimensionError(f"dimensions must be >= 1, got {dims}")


def voxel_flat_index(i: int, j: int, l: int, M: int, N: int) -> int:
    """Flat position of voxel (i, j, l) in a vectorized M x N x L cube."""
    return i + M * j + M * N * l


def measurement_flat_index(i: int, jp: int, k: int, M: int, N: int, L: int) -> int:
    """Flat position of detector sample (i, j', k); the FPA is M x (N+L+1)."""
    width = N + L + 1
    return i + M * jp + M * width * k


def measurement_shape(M: int, N: int, L: int, K: int) -> tuple[int, int, int]:
    """Shape (M, N+L+1, K) of the K detector frames of an M x N x L scene."""
    check_dims(M, N, L, K)
    return (M, N + L + 1, K)


def measurement_count(M: int, N: int, L: int, K: int) -> int:
    """Number of detector samples collected in K shots: K*M*(N+L+1)."""
    return math.prod(measurement_shape(M, N, L, K))


def flat_vector(v, n: int, what: str) -> np.ndarray:
    """``v`` as a flat float64 vector, which must hold exactly ``n`` values."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != n:
        raise DimensionError(f"expected {n} {what}, got {v.size}")
    return v


def cube_view(v, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A flat vector viewed as an array of ``shape`` in the flat-index order."""
    return flat_vector(v, math.prod(shape), what).reshape(shape, order="F")


def _freeze_values(owner, n: int, what: str) -> None:
    """Replace ``owner.values`` with a read-only, finite float64 copy of length ``n``."""
    v = flat_vector(owner.values, n, what).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    v.flags.writeable = False
    object.__setattr__(owner, "values", v)


@dataclass(frozen=True)
class DispersionWeights:
    """Energy fractions (w0, w1, w2) landing on the 3 dispersed columns.

    Must be finite, nonnegative and sum to 1 (total energy is preserved). Setting
    (0, 1, 0) collapses the model to a single-diagonal, first-order system
    while keeping the same detector width.
    """

    w0: float
    w1: float
    w2: float

    def __post_init__(self):
        w = (float(self.w0), float(self.w1), float(self.w2))
        if not all(np.isfinite(x) and x >= 0.0 for x in w):
            raise ValueError(f"dispersion weights must be finite and nonnegative, got {w}")
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"dispersion weights must sum to 1, got sum={sum(w)!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w0, self.w1, self.w2)


@dataclass(frozen=True)
class HyperCube:
    """A 3D spatio-spectral image: M rows x N cols x L spectral bands.

    Values are stored flat (see module docstring for the ordering) as
    float64, locked read-only after construction so instances can be shared
    freely.
    """

    rows: int
    cols: int
    bands: int
    values: np.ndarray

    def __post_init__(self):
        check_dims(self.rows, self.cols, self.bands)
        _freeze_values(self, self.n, "cube values")

    @property
    def n(self) -> int:
        return self.rows * self.cols * self.bands

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.rows, self.cols, self.bands)

    def as_array(self) -> np.ndarray:
        """Read-only (M, N, L) view of the flat values."""
        return self.values.reshape(self.shape, order="F")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "HyperCube":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionError(f"expected a 3D array, got ndim={arr.ndim}")
        M, N, L = arr.shape
        return cls(M, N, L, arr.reshape(-1, order="F"))


@dataclass(frozen=True)
class MeasurementSet:
    """Vectorized FPA measurements from K shots, with acquisition provenance.

    ``values`` has length K*M*(N+L+1). Metadata mirrors what the measurement
    file format records: dispersion weights, the run seed and the realized
    noise standard deviation (0 when noiseless). Every field is checked here,
    so any instance can be written and read back: the weights obey
    :class:`DispersionWeights`, ``sigma_noise`` is finite and >= 0, and
    ``seed`` fits the file's unsigned 64-bit field.
    """

    shots: int
    rows: int
    cols: int
    bands: int
    values: np.ndarray
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    seed: int = 0
    sigma_noise: float = 0.0

    def __post_init__(self):
        DispersionWeights(*self.weights)
        if not (math.isfinite(self.sigma_noise) and self.sigma_noise >= 0.0):
            raise ValueError(f"sigma_noise must be finite and >= 0, got {self.sigma_noise}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        _freeze_values(self, self.m, "measurements")

    @property
    def m(self) -> int:
        return measurement_count(self.rows, self.cols, self.bands, self.shots)

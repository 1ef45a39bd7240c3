"""Hyperspectral cube and measurement containers plus the flat-index convention.

Every vector exchanged between modules (cube iterates, transform
coefficients, measurements) uses one normative flattening:

* voxel ``(i, j, l)``        ->  ``i + M*j + M*N*l``
* measurement ``(i, j', k)`` ->  ``i + M*j' + M*(N+L+1)*k``

i.e. Fortran order of ``(M, N, L)`` and ``(M, N+L+1, K)`` arrays, with the
row index fastest. These formulas are binding for the on-disk formats and
the materialized measurement matrix alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def _check_dims(*dims: int) -> None:
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
        _check_dims(self.rows, self.cols, self.bands)
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.n:
            raise DimensionError(
                f"expected {self.n} values for a "
                f"{self.rows}x{self.cols}x{self.bands} cube, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("cube values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

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
    noise standard deviation (0 when noiseless).
    """

    shots: int
    rows: int
    cols: int
    bands: int
    values: np.ndarray
    weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    seed: int = 0
    sigma_noise: float = 0.0

    def __post_init__(self):
        _check_dims(self.shots, self.rows, self.cols, self.bands)
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.m:
            raise DimensionError(
                f"expected {self.m} measurements for K={self.shots}, "
                f"dims {self.rows}x{self.cols}x{self.bands}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("measurements must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def fpa_width(self) -> int:
        return self.cols + self.bands + 1

    @property
    def m(self) -> int:
        return self.shots * self.rows * self.fpa_width

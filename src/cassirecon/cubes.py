"""Hyperspectral cube and measurement containers plus the flat-index convention.

Every vector exchanged between modules (cube iterates, transform
coefficients, measurements) uses one normative flattening:

* voxel ``(i, j, l)``        ->  ``i + M*j + M*N*l``
* measurement ``(i, j', k)`` ->  ``i + M*j' + M*(N+L+1)*k``

i.e. Fortran order of ``(M, N, L)`` and ``(M, N+L+1, K)`` arrays, with the
row index fastest. These formulas are binding for the on-disk formats and
the materialized measurement matrix alike; ``tests/test_cubes.py`` checks
:func:`cube_view`, :func:`measurement_shape` and :meth:`HyperCube.from_array`
against them. :func:`flat_vector` is the one length check and
:func:`cube_view` the one flat-to-array view that every module applies to
the vectors it receives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError


WEIGHT_SUM_TOL = 1e-12

#: Default split of a voxel's energy over the 3 detector columns it reaches.
#: Symmetric and unit-sum; configurable per model.
DEFAULT_WEIGHTS = (0.25, 0.5, 0.25)


#: Bytes of float64 planes a band chunk may span (see :func:`band_chunks`).
#: Sweep of one ``denoise_cube`` call at 256x256x24 (2-CPU VM, 2 MiB L2 per
#: core; median ms): 0.25 MiB 78, 0.5 MiB 74, 1 MiB 75, 2 MiB 84, 4 MiB 89,
#: 8 MiB 93, one chunk per cube 107. 1 MiB leaves room in L2 for the one
#: scratch buffer the wavelet levels read while they write over the chunk.
CHUNK_BYTES = 1 << 20


def check_dims(*dims: int) -> None:
    """The one dimension rule: every size is at least 1."""
    for d in dims:
        if int(d) < 1:
            raise DimensionError(f"dimensions must be >= 1, got {dims}")


def check_seed(seed: int, what: str = "seed") -> None:
    """The one seed rule: an integer, Python or NumPy, in [0, 2**64).

    NumPy's generators reject negative seeds and the measurement header
    stores the seed as an unsigned 64-bit field.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must lie in [0, 2**64), got {seed}")


def check_max_iter(max_iter: int) -> None:
    """The one iteration-budget rule: an integer, Python or NumPy, of at least 1."""
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def check_peak(peak: float) -> float:
    """The one peak rule: positive, with a finite positive square, which it returns."""
    peak2 = float(peak) * float(peak)
    if not (peak > 0.0 and 0.0 < peak2 < np.inf):
        raise ValueError(f"peak must be positive with a finite positive square, got {peak}")
    return peak2


def fits_float32(values) -> bool:
    """The one divergence rule: a float32 payload holds every one of ``values``.

    NaN and +-inf it cannot. The values are cast a row chunk at a time, so
    no cast copy of a whole cube is made.
    """
    with np.errstate(over="ignore"):
        return all(np.isfinite(c.astype("<f4")).all() for c in row_chunks(np.asarray(values)))


def sum_of_squares(v: np.ndarray) -> float:
    """The one sum-of-squares rule: NumPy's pairwise sum of ``v * v``.

    Not a BLAS dot, whose last bits follow the thread count. Overflow to
    inf is left to the caller's divergence check.
    """
    with np.errstate(over="ignore"):
        return float(np.add.reduce(v * v))


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


def measurement_shape(M: int, N: int, L: int, K: int) -> tuple[int, int, int]:
    """Shape (M, N+L+1, K) of the K detector frames of an M x N x L scene."""
    check_dims(M, N, L, K)
    return (M, N + L + 1, K)


def measurement_count(M: int, N: int, L: int, K: int) -> int:
    """Number of detector samples collected in K shots: K*M*(N+L+1)."""
    return math.prod(measurement_shape(M, N, L, K))


def band_chunks(rows: int, cols: int, bands: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` band ranges covering ``bands`` bands.

    Each range spans at most :data:`CHUNK_BYTES` of float64 ``(rows, cols)``
    planes and at least one band; only the last range may be shorter. In
    Fortran order the bands ``a:b`` of an ``(M, N, L)`` array are one
    contiguous block, so a chunk stays in cache while it is worked on.
    """
    step = max(1, CHUNK_BYTES // (8 * max(1, rows * cols)))
    return [(a, min(a + step, bands)) for a in range(0, bands, step)]


def row_chunks(a: np.ndarray) -> list[np.ndarray]:
    """Views of ``a`` along its first axis that cover it, a 0-d array as one row.

    Each view spans at most :data:`CHUNK_BYTES` of ``a`` and at least one
    row; basic slices are views whatever the layout, so writes reach ``a``.
    """
    a = np.atleast_1d(a)
    step = max(1, CHUNK_BYTES // max(1, a[:1].nbytes))
    return [a[i : i + step] for i in range(0, len(a), step)]


def flat_vector(v, n: int, what: str) -> np.ndarray:
    """``v`` as a flat float64 vector, which must hold exactly ``n`` values."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != n:
        raise DimensionError(f"expected {n} {what}, got {v.size}")
    return v


def cube_view(v, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A flat vector viewed as an array of ``shape`` in the flat-index order."""
    return flat_vector(v, math.prod(shape), what).reshape(shape, order="F")


def is_out_vector(out) -> bool:
    """Whether ``out`` is a writeable, contiguous, 1-D float64 vector.

    Only such a vector can take a result through :func:`cube_view`, which
    views it without a copy; any other array would be copied and the
    result written into the copy.
    """
    return (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.ndim == 1
        and out.flags.c_contiguous
        and out.flags.writeable
    )


def in_place(out, source) -> bool:
    """Whether to write over ``source``: ``out`` must be ``None`` or ``source`` itself."""
    if out is None:
        return False
    if not (out is source and is_out_vector(out)):
        raise ValueError(
            "out must be None or the input itself, a writeable, contiguous, 1-D float64 vector"
        )
    return True


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

    Must be finite, nonnegative and sum to 1 (total energy is preserved),
    and are kept as the floats these checks read. Setting (0, 1, 0)
    collapses the model to a single-diagonal, first-order system while
    keeping the same detector width.
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
        for name, x in zip(("w0", "w1", "w2"), w):
            object.__setattr__(self, name, x)

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
        object.__setattr__(self, "weights", DispersionWeights(*self.weights).as_tuple())
        if not (math.isfinite(self.sigma_noise) and self.sigma_noise >= 0.0):
            raise ValueError(f"sigma_noise must be finite and >= 0, got {self.sigma_noise}")
        check_seed(self.seed)
        _freeze_values(self, self.m, "measurements")

    @property
    def m(self) -> int:
        return measurement_count(self.rows, self.cols, self.bands, self.shots)

"""Measurement-noise injection, reconstruction-quality metrics and solver traces.

The SNR convention here is a mean-to-standard-deviation ratio,
``10*log10(mean(g) / sigma_noise)``, written "cassi-snr" in CLI output to
distinguish it from the usual power-ratio SNR. PSNR is computed per 2D
spectral slice against a configured peak (1.0 for normalized cubes, 255
for raw 8-bit data) and averaged over bands.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np

from .cubes import band_chunks, check_peak, cube_view
from .errors import DimensionError


def check_snr(snr_db: float) -> float:
    """The part of the cassi-snr rule that needs no data; returns ``10 ** (snr_db / 10)``.

    The target must be finite and the ratio must neither overflow nor underflow to 0.
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"cassi-snr must be finite, got {snr_db} dB")
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:  # a Python float raises on overflow and underflows to 0
        ratio = 0.0
    if ratio == 0.0:
        raise ValueError(f"cassi-snr {snr_db} dB gives no finite positive noise level")
    return ratio


def add_noise(g_clean: np.ndarray, snr_db: float, seed: int = 0) -> tuple[np.ndarray, float]:
    """Add seeded zero-mean Gaussian noise at a target cassi-snr.

    Returns (noisy measurements, noise standard deviation). The clean
    measurements must have positive mean or the SNR target is undefined, and
    the target must pass :func:`check_snr` and give a finite, positive
    standard deviation.
    """
    ratio = check_snr(snr_db)
    g = np.asarray(g_clean, dtype=np.float64).reshape(-1)
    mu = float(g.mean())
    if mu <= 0.0:
        raise ValueError(f"cassi-snr needs positive measurement mean, got {mu}")
    sigma = mu / ratio
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"cassi-snr {snr_db} dB gives no finite positive noise level")
    rng = np.random.default_rng(seed)
    return g + rng.normal(0.0, sigma, g.size), sigma


def measure_snr(g_clean: np.ndarray, g_noisy: np.ndarray) -> float:
    """Realized cassi-snr in dB; +inf when the two vectors are identical."""
    clean = np.asarray(g_clean, dtype=np.float64).reshape(-1)
    noisy = np.asarray(g_noisy, dtype=np.float64).reshape(-1)
    if clean.size != noisy.size:
        raise DimensionError(f"length mismatch {clean.size} vs {noisy.size}")
    mu = float(clean.mean())
    if mu <= 0.0:
        raise ValueError(f"cassi-snr needs positive measurement mean, got {mu}")
    sigma = float(np.std(noisy - clean))
    if sigma == 0.0:
        return float("inf")
    return 10.0 * np.log10(mu / sigma)


def per_band_psnr(ref_cube: np.ndarray, est_cube: np.ndarray, peak: float = 1.0) -> np.ndarray:
    """PSNR in dB of every spectral band of two (M, N, L) cubes; +inf where the MSE is zero.

    The per-band MSE is taken a band chunk at a time (:func:`.cubes.band_chunks`),
    so the squared difference is never a cube-sized temporary. The peak
    must pass :func:`.cubes.check_peak`.
    """
    ref = np.asarray(ref_cube, dtype=np.float64)
    est = np.asarray(est_cube, dtype=np.float64)
    if ref.shape != est.shape or ref.ndim != 3:
        raise DimensionError(f"expected matching 3D cubes, got {ref.shape} vs {est.shape}")
    peak2 = check_peak(peak)
    mse = np.empty(ref.shape[2])
    for a, b in band_chunks(*ref.shape):
        mse[a:b] = np.mean((ref[:, :, a:b] - est[:, :, a:b]) ** 2, axis=(0, 1))
    with np.errstate(divide="ignore", over="ignore"):
        psnr = 10.0 * np.log10(peak2 / mse)
        # a nonzero MSE that overflows the quotient takes the logs apart
        apart = 10.0 * (np.log10(peak2) - np.log10(mse))
        return np.where(np.isposinf(psnr) & (mse > 0.0), apart, psnr)


class PsnrSummary(NamedTuple):
    value: float
    infinite_bands: int

    @classmethod
    def from_bands(cls, band_psnr: np.ndarray) -> "PsnrSummary":
        """Mean PSNR of the bands that differ and the count of identical ones.

        Only a +inf band (MSE exactly zero) counts as identical; a -inf or
        NaN band carries into the mean. When every band is identical the
        sentinel propagates as value = +inf.
        """
        identical = band_psnr == np.inf
        n_inf = int(identical.sum())
        if identical.all():
            return cls(float("inf"), n_inf)
        return cls(float(band_psnr[~identical].mean()), n_inf)


def avg_psnr(ref_cube: np.ndarray, est_cube: np.ndarray) -> PsnrSummary:
    """Mean per-band PSNR at peak 1.0; infinite bands are excluded and counted."""
    return PsnrSummary.from_bands(per_band_psnr(ref_cube, est_cube))


class Trace:
    """Per-iteration solver diagnostics: named columns, one row per iteration.

    The columns named at construction are written even when no row was
    recorded, so a run that fails at once still leaves its CSV header.
    Every row names exactly these columns, so they stay of equal length.
    ``trace.<column>`` reads one column as a list.
    """

    def __init__(self, *names: str):
        self.columns: dict[str, list[float]] = {name: [] for name in names}
        self.truth: Optional[np.ndarray] = None

    def __getattr__(self, name: str) -> list[float]:
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return max(map(len, self.columns.values()), default=0)

    @classmethod
    def for_solver(cls, truth: Optional[np.ndarray], shape: tuple[int, int, int], *names: str) -> "Trace":
        """A solver's columns ``names``, then ``psnr`` when ``truth`` is given, then ``wall_ms``.

        The flat ``truth`` is checked once and kept as a ``shape`` view to score rows against.
        """
        if truth is None:
            return cls(*names, "wall_ms")
        trace = cls(*names, "psnr", "wall_ms")
        trace.truth = cube_view(truth, shape, "truth values")
        return trace

    def append(self, **row: float) -> None:
        """Append one row; it must name exactly the trace's columns, in any order."""
        if row.keys() != self.columns.keys():
            raise ValueError(
                f"row columns {list(row)} differ from the trace's columns {list(self.columns)}"
            )
        for name, value in row.items():
            self.columns[name].append(value)

    def append_iteration(self, start: float, estimate: np.ndarray, **row: float) -> None:
        """Append one solver row in the :meth:`for_solver` column order.

        ``psnr`` compares the flat ``estimate`` with the trace's ``truth``
        when it holds one; ``wall_ms`` is the time since ``start``, a
        ``time.perf_counter()`` reading.
        """
        if self.truth is not None:
            estimate = cube_view(estimate, self.truth.shape, "estimate values")
            row["psnr"] = avg_psnr(self.truth, estimate).value
        self.append(**row, wall_ms=(time.perf_counter() - start) * 1e3)

    def to_csv(self) -> str:
        lines = [",".join(["iter", *self.columns])]
        for i, row in enumerate(zip(*self.columns.values()), start=1):
            lines.append(",".join([str(i), *map(repr, row)]))
        return "\n".join(lines) + "\n"

"""Compressive hyperspectral imaging toolkit.

Simulates coded-aperture snapshot spectral (CASSI) measurements and
reconstructs 3D hyperspectral cubes from them, either with damped
approximate message passing using an adaptive per-subband Wiener denoiser,
or with an accelerated proximal-gradient l1 baseline.
"""

from .amp import AmpConfig, AmpTrace, run_amp
from .cubes import HyperCube, MeasurementSet
from .errors import DimensionError, DivergenceError
from .fista import L1Config, fista_run, power_method, soft_threshold, sweep_lambda
from .metrics import add_noise, avg_psnr, measure_snr, psnr_slice
from .operator import (
    CassiModel,
    CodedApertureSet,
    DispersionWeights,
    adjoint_apply,
    forward_apply,
    generate_apertures,
    materialize,
    measurement_count,
    normalized_backprojection,
)
from .phantoms import phantom_cube
from .transforms import SparsifyingTransform, SubbandMap, subband_map
from .wiener import denoise_cube, estimate_stats, shrink_derivative_mean, wiener_shrink

__version__ = "0.1.0"

#: The operator has a single NumPy implementation; kept for run records.
KERNEL_BACKEND = "numpy"

__all__ = [
    "AmpConfig",
    "AmpTrace",
    "run_amp",
    "HyperCube",
    "MeasurementSet",
    "DimensionError",
    "DivergenceError",
    "L1Config",
    "fista_run",
    "power_method",
    "soft_threshold",
    "sweep_lambda",
    "KERNEL_BACKEND",
    "add_noise",
    "avg_psnr",
    "measure_snr",
    "psnr_slice",
    "CassiModel",
    "CodedApertureSet",
    "DispersionWeights",
    "adjoint_apply",
    "forward_apply",
    "generate_apertures",
    "materialize",
    "measurement_count",
    "normalized_backprojection",
    "phantom_cube",
    "SparsifyingTransform",
    "SubbandMap",
    "subband_map",
    "denoise_cube",
    "estimate_stats",
    "shrink_derivative_mean",
    "wiener_shrink",
    "__version__",
]

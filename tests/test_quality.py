"""Quality per iteration as exact numbers: the first iteration each solver
reaches 25, 28 and 30 dB on a fixed 32x32x16, K=2 instance, and its PSNR
after 150 iterations.

These are solver outputs, like criterion 10's bytes: a change that makes a
solver need more iterations, or end lower, fails here. A change that moves
them on purpose states the new values in CHANGES.md. The counts are the same
under every OpenBLAS kernel in CI's loop, and the final PSNRs differ between
kernel families by about 1e-14 dB, well inside the 1e-9 dB tolerance.
"""

import numpy as np
import pytest

from cassirecon.amp import AmpConfig, run_amp
from cassirecon.fista import L1Config, fista_run
from cassirecon.metrics import add_noise
from cassirecon.operator import CassiModel, DispersionWeights, forward_apply, generate_apertures
from cassirecon.phantoms import phantom_cube
from cassirecon.transforms import SparsifyingTransform

M, N, L, K = 32, 32, 16, 2
ITERS = 150
TARGETS_DB = (25.0, 28.0, 30.0)


def amp_haar(g, model, truth):
    return run_amp(g, model, AmpConfig(alpha=0.2, max_iter=ITERS, wavelet="haar"), truth=truth)


def amp_db4(g, model, truth):
    return run_amp(g, model, AmpConfig(alpha=0.45, max_iter=ITERS, wavelet="db4"), truth=truth)


def fista_db4(g, model, truth):
    transform = SparsifyingTransform(M, N, L, wavelet="db4")
    return fista_run(g, model, transform, L1Config(lam=0.03, max_iter=ITERS), truth=truth)


# (solver, seed) -> (first iteration at 25, 28, 30 dB; None if never), PSNR at 150
EXPECTED = {
    ("amp-haar", 0): ((68, None, None), 26.19238008082511),
    ("amp-haar", 1): ((50, None, None), 26.490786861952095),
    ("amp-db4", 0): ((10, 49, 135), 30.260553844441226),
    ("amp-db4", 1): ((11, 44, 110), 30.948179811336715),
    ("fista-db4", 0): ((45, 71, None), 29.371402430829377),
    ("fista-db4", 1): ((59, 93, None), 29.87445084934209),
}
SOLVERS = {"amp-haar": amp_haar, "amp-db4": amp_db4, "fista-db4": fista_db4}


def first_reaching(psnr, target):
    """1-based iteration of the first PSNR at or above ``target``, or None."""
    hits = np.flatnonzero(np.asarray(psnr) >= target)
    return int(hits[0]) + 1 if hits.size else None


@pytest.mark.parametrize("solver, seed", list(EXPECTED), ids=[f"{s}-s{k}" for s, k in EXPECTED])
def test_iterations_to_quality(solver, seed):
    truth = phantom_cube(M, N, L, "gaussian-blobs", seed=seed).values
    model = CassiModel(
        generate_apertures(M, N, K, "complementary", seed=seed),
        DispersionWeights(0.25, 0.5, 0.25),
        bands=L,
    )
    g, _ = add_noise(forward_apply(model, truth), 20.0, seed=seed)
    _, trace = SOLVERS[solver](g, model, truth)
    counts, final = EXPECTED[(solver, seed)]
    assert len(trace) == ITERS
    assert tuple(first_reaching(trace.psnr, db) for db in TARGETS_DB) == counts
    assert trace.psnr[-1] == pytest.approx(final, abs=1e-9)

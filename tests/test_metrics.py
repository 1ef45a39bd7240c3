import re

import numpy as np
import pytest

from cassirecon.amp import AmpTrace
from cassirecon.errors import DimensionError
from cassirecon.metrics import (
    PsnrSummary, Trace, add_noise, avg_psnr, check_snr, measure_snr, per_band_psnr,
)
from cassirecon.phantoms import PHANTOM_KINDS, _spectral_profile, phantom_cube
from cassirecon.transforms import SparsifyingTransform, subband_map


def test_add_noise_sigma_from_target():
    g = np.full(20000, 2.0)
    _, sigma = add_noise(g, 20.0, seed=0)
    assert sigma == pytest.approx(2.0 / 100.0, rel=1e-12)
    _, sigma0 = add_noise(g, 0.0, seed=0)
    assert sigma0 == pytest.approx(2.0, rel=1e-12)


def test_add_noise_empirical_std():
    rng = np.random.default_rng(1)
    g = rng.uniform(0.5, 1.5, 20000)
    noisy, sigma = add_noise(g, 15.0, seed=42)
    emp = np.std(noisy - g)
    assert abs(emp - sigma) <= 0.02 * sigma


def test_add_noise_requires_positive_mean():
    with pytest.raises(ValueError):
        add_noise(np.zeros(10), 20.0, seed=0)


@pytest.mark.parametrize("snr_db, message", [
    (np.nan, "cassi-snr must be finite, got nan dB"),
    (4000.0, "cassi-snr 4000.0 dB gives no finite positive noise level"),
    (-4000.0, "cassi-snr -4000.0 dB gives no finite positive noise level"),
])
def test_check_snr_needs_no_data(snr_db, message):
    assert check_snr(20.0) == 100.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_snr(snr_db)
    # add_noise applies the same rule before it looks at the measurements
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        add_noise(np.zeros(10), snr_db, seed=0)


def test_add_noise_deterministic():
    g = np.ones(100)
    a, _ = add_noise(g, 10.0, seed=7)
    b, _ = add_noise(g, 10.0, seed=7)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("target", [15.0, 20.0])
def test_snr_round_trip(target):
    rng = np.random.default_rng(2)
    g = rng.uniform(0.5, 1.5, 15000)
    noisy, _ = add_noise(g, target, seed=3)
    assert measure_snr(g, noisy) == pytest.approx(target, abs=0.2)


def test_measure_snr_zero_noise_sentinel():
    g = np.ones(100)
    assert measure_snr(g, g) == np.inf


def test_measure_snr_scale_invariant():
    rng = np.random.default_rng(3)
    g = rng.uniform(1.0, 2.0, 5000)
    noisy, _ = add_noise(g, 18.0, seed=4)
    assert measure_snr(5.0 * g, 5.0 * noisy) == pytest.approx(measure_snr(g, noisy), rel=1e-12)


def test_psnr_formula():
    ref = np.zeros((4, 4, 1))
    est = np.full((4, 4, 1), 0.1)
    assert per_band_psnr(ref, est, peak=1.0)[0] == pytest.approx(20.0, abs=1e-12)
    assert per_band_psnr(ref, ref)[0] == np.inf
    with pytest.raises(DimensionError):
        per_band_psnr(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))
    # peak^2 / mse overflows although the bands differ: a finite PSNR, not +inf
    assert per_band_psnr(ref, np.full((4, 4, 1), 1e-160))[0] == pytest.approx(3200.0, rel=1e-6)
    for peak in (0.0, np.nan, np.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="peak"):
            per_band_psnr(ref, est, peak=peak)


def test_psnr_translation_consistent():
    rng = np.random.default_rng(4)
    ref = rng.random((8, 8, 1))
    est = ref + 0.05 * rng.standard_normal((8, 8, 1))
    shifted = per_band_psnr(ref + 0.3, est + 0.3)[0]
    assert shifted == pytest.approx(per_band_psnr(ref, est)[0], rel=1e-12)


def test_per_band_psnr_by_chunks_matches_whole_cube_expression(multi_chunk_shape):
    rng = np.random.default_rng(9)
    ref, est = (rng.random(multi_chunk_shape).copy(order="F") for _ in range(2))
    est[:, :, 5] = ref[:, :, 5]  # one band of zero MSE
    with np.errstate(divide="ignore"):
        want = 10.0 * np.log10(4.0 / np.mean((ref - est) ** 2, axis=(0, 1)))
    assert np.array_equal(per_band_psnr(ref, est, peak=2.0), want)


def test_avg_psnr_mean_and_sentinels():
    rng = np.random.default_rng(5)
    ref = rng.random((4, 4, 2))
    est = ref.copy()
    est[:, :, 0] += 0.1                       # 20 dB
    est[:, :, 1] += np.sqrt(10.0 ** (-3.0))   # 30 dB
    summary = avg_psnr(ref, est)
    assert summary.value == pytest.approx(25.0, abs=1e-9)
    assert summary.infinite_bands == 0

    identical = avg_psnr(ref, ref)
    assert identical.value == np.inf
    assert identical.infinite_bands == 2

    # one identical band: excluded from the mean and counted
    est2 = ref.copy()
    est2[:, :, 0] += 0.1
    partial = avg_psnr(ref, est2)
    assert partial.value == pytest.approx(20.0, abs=1e-9)
    assert partial.infinite_bands == 1

    # only +inf counts as identical: a -inf (infinite MSE) or NaN band
    # carries into the mean instead of vanishing from it
    summary = PsnrSummary.from_bands(np.array([20.0, -np.inf, np.inf]))
    assert summary.value == -np.inf and summary.infinite_bands == 1
    nan = PsnrSummary.from_bands(np.array([20.0, np.nan]))
    assert np.isnan(nan.value) and nan.infinite_bands == 0



def test_avg_psnr_band_permutation_invariant():
    rng = np.random.default_rng(6)
    ref = rng.random((4, 4, 5))
    est = ref + 0.03 * rng.standard_normal((4, 4, 5))
    perm = rng.permutation(5)
    a = avg_psnr(ref, est).value
    b = avg_psnr(ref[:, :, perm], est[:, :, perm]).value
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("kind", PHANTOM_KINDS)
def test_phantom_values_in_unit_interval(kind):
    cube = phantom_cube(16, 16, 4, kind, seed=0)
    assert cube.values.min() >= 0.0
    assert cube.values.max() == 1.0


@pytest.mark.parametrize("kind", PHANTOM_KINDS)
def test_phantom_deterministic(kind):
    a = phantom_cube(16, 16, 4, kind, seed=5)
    b = phantom_cube(16, 16, 4, kind, seed=5)
    assert np.array_equal(a.values, b.values)
    c = phantom_cube(16, 16, 4, kind, seed=6)
    assert not np.array_equal(a.values, c.values)


def broadcast_phantom(M, N, L, seed):
    """The phantom as one broadcast expression per blob on a C-ordered cube."""
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
    arr = np.zeros((M, N, L))
    for _ in range(int(rng.integers(3, 9))):
        ci = rng.uniform(0.15 * M, 0.85 * M)
        cj = rng.uniform(0.15 * N, 0.85 * N)
        width = rng.uniform(0.06, 0.18) * min(M, N)
        amp = rng.uniform(0.4, 1.0)
        spatial = np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * width**2))
        arr += amp * spatial[:, :, None] * _spectral_profile(rng, L)
    return arr / arr.max()


@pytest.mark.parametrize("dims", [(32, 32, 16), (8, 64, 1), (6, 10, 5), (1, 1, 1)])
@pytest.mark.parametrize("seed", [0, 3])
def test_phantom_matches_broadcast_form_exactly(dims, seed):
    assert np.array_equal(phantom_cube(*dims, seed=seed).as_array(), broadcast_phantom(*dims, seed))


def test_phantom_holds_two_cubes(traced_peak):
    # the Fortran-ordered accumulator and the frozen copy; a broadcast
    # temporary and a C-ordered reshape copy would add two more (4.13 here)
    dims = (64, 64, 16)
    cube = phantom_cube(*dims)  # first-use caches
    assert traced_peak(lambda: phantom_cube(*dims)) / cube.values.nbytes < 2.5


def test_phantom_unknown_kind():
    with pytest.raises(ValueError):
        phantom_cube(8, 8, 2, "swirl", seed=0)


def test_spectral_cosine_single_spectral_group():
    # A rank-1 cube: one spatial pattern times the flat (zero-frequency)
    # spectral profile puts every transform coefficient in spectral band 0.
    M, N, L = 16, 16, 8
    spatial = phantom_cube(M, N, 1, "gaussian-blobs", seed=1).as_array()[:, :, 0]
    cube = spatial[:, :, None] * np.full(L, np.sqrt(1.0 / L))
    t = SparsifyingTransform(M, N, L)
    smap = subband_map(M, N, L, t.levels)
    theta = t.forward(cube.reshape(-1, order="F"))
    per_band = 3 * t.levels + 1
    groups = np.unique(smap.labels[np.abs(theta) > 1e-10 * np.abs(theta).max()])
    assert {int(g) // per_band for g in groups} == {0}


def test_gaussian_blobs_compressible():
    # >= 95% of transform energy within <= 20% of the coefficients
    cube = phantom_cube(32, 32, 8, "gaussian-blobs", seed=0)
    t = SparsifyingTransform(32, 32, 8)
    energy = np.sort(t.forward(cube.values) ** 2)[::-1]
    k = int(0.2 * energy.size)
    assert energy[:k].sum() >= 0.95 * energy.sum()


def test_trace_columns_csv_and_attribute_read():
    trace = Trace("a", "b")
    assert len(trace) == 0
    assert trace.to_csv() == "iter,a,b\n"
    trace.append(a=1.5, b=2.0)
    trace.append(a=0.25, b=-1.0)
    assert len(trace) == 2
    assert trace.a == [1.5, 0.25] and trace.b == [2.0, -1.0]
    assert trace.to_csv() == "iter,a,b\n1,1.5,2.0\n2,0.25,-1.0\n"
    with pytest.raises(AttributeError):
        trace.missing


def test_trace_append_rejects_rows_with_other_columns():
    trace = Trace("a", "b")
    trace.append(b=2.0, a=1.0)
    for row in ({"a": 3.0}, {"a": 3.0, "b": 4.0, "c": 5.0}):
        msg = f"{list(row)} differ from the trace's columns ['a', 'b']"
        with pytest.raises(ValueError, match=re.escape(msg)):
            trace.append(**row)
    assert len(trace) == 1
    assert trace.to_csv() == "iter,a,b\n1,1.0,2.0\n"


def test_amp_trace_is_the_shared_trace():
    assert AmpTrace is Trace

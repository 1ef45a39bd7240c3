import tracemalloc

import numpy as np
import pytest

from cassirecon.cubes import band_chunks
from cassirecon.errors import DimensionError
from cassirecon.selfcheck import scalar_wiener_reference
from cassirecon.transforms import SparsifyingTransform, default_levels, subband_map
from cassirecon.wiener import (
    denoise_cube,
    estimate_stats,
    shrink_derivative_mean,
    wiener_shrink,
)


def small_map():
    # 2x2, L=1, J=1: four singleton groups
    return subband_map(2, 2, 1, 1)


def test_stats_identical_coefficients():
    smap = subband_map(4, 4, 1, 1)
    theta = np.full(16, 2.5)
    stats = estimate_stats(theta, smap)
    assert np.all(stats.mean == 2.5)
    assert np.all(stats.var == 0.0)
    assert stats.mean.shape == stats.var.shape == (4,)


def test_stats_pair_example():
    # a group holding {1, 3}: mean 2, population variance 1
    smap = subband_map(2, 4, 1, 1)  # four groups of two coefficients
    theta = np.zeros(8)
    g0 = np.where(smap.labels == 0)[0]
    theta[g0] = [1.0, 3.0]
    stats = estimate_stats(theta, smap)
    assert stats.mean[0] == 2.0
    assert stats.var[0] == 1.0


def test_stats_match_scalar_reference():
    rng = np.random.default_rng(0)
    smap = subband_map(8, 8, 3, 2)
    theta = rng.standard_normal(smap.labels.size)
    stats = estimate_stats(theta, smap)
    means, variances, _, _ = scalar_wiener_reference(theta, smap.labels, smap.n_groups, 0.1)
    assert np.abs(stats.mean - means).max() <= 1e-12
    assert np.abs(stats.var - variances).max() <= 1e-12


def test_shrink_direct_substitution():
    # nu^2 = 4, sigma^2 = 1, mu = 0, theta = 2 -> (3/4)*2 = 1.5
    smap = subband_map(4, 4, 1, 1)
    theta = np.zeros(16)
    ll = np.where(smap.labels == 0)[0]
    theta[ll] = [2.0, -2.0, 2.0, -2.0]  # mean 0, variance 4
    out = wiener_shrink(theta, estimate_stats(theta, smap), 1.0, smap)
    assert out[ll[0]] == pytest.approx(1.5, abs=1e-15)
    assert out[ll[1]] == pytest.approx(-1.5, abs=1e-15)


def test_shrink_collapse_to_mean_when_noise_dominates():
    rng = np.random.default_rng(1)
    smap = subband_map(4, 4, 2, 1)
    theta = rng.standard_normal(smap.labels.size)
    stats = estimate_stats(theta, smap)
    sigma2 = float(stats.var.max()) + 1.0
    out = wiener_shrink(theta, stats, sigma2, smap)
    assert np.array_equal(out, stats.mean[smap.labels])
    assert shrink_derivative_mean(stats, sigma2, smap) == 0.0


def test_shrink_zero_noise_is_identity():
    # dyadic-exact data: the shrinkage arithmetic cancels exactly
    smap = subband_map(4, 4, 1, 1)
    theta = np.arange(16, dtype=np.float64)  # integer-valued, group means dyadic
    stats = estimate_stats(theta, smap)
    out = wiener_shrink(theta, stats, 0.0, smap)
    assert np.array_equal(out, theta)
    assert shrink_derivative_mean(stats, 0.0, smap) == 1.0


def test_shrink_bit_for_bit_against_scalar_reference():
    # Groups of 8 or more members, single-band and non-square maps included.
    # np.add.reduce over a block picks its summation order from the layout
    # and goes pairwise on a single band, which changes the last bits there.
    rng = np.random.default_rng(2)
    cases = [
        ((8, 8, 2, 2), 50), ((8, 8, 3, 2), 20), ((32, 32, 1, 1), 20), ((8, 64, 1, 3), 20),
        ((64, 16, 2, 2), 10),
    ]
    for dims, trials in cases:
        smap = subband_map(*dims)
        for trial in range(trials):
            theta = rng.standard_normal(smap.labels.size)
            sigma2 = float(rng.uniform(0.0, 2.0))
            stats = estimate_stats(theta, smap)
            got = wiener_shrink(theta, stats, sigma2, smap)
            got_d = shrink_derivative_mean(stats, sigma2, smap)
            means, variances, want, want_d = scalar_wiener_reference(
                theta, smap.labels, smap.n_groups, sigma2
            )
            assert np.array_equal(stats.mean, means) and np.array_equal(stats.var, variances)
            assert np.array_equal(got, want)
            assert got_d == want_d


def test_shrinkage_never_moves_past_the_mean():
    rng = np.random.default_rng(3)
    smap = subband_map(8, 8, 4, 1)
    theta = rng.standard_normal(smap.labels.size) * 3.0
    stats = estimate_stats(theta, smap)
    for sigma2 in (0.0, 0.5, 5.0):
        out = wiener_shrink(theta, stats, sigma2, smap)
        mu = stats.mean[smap.labels]
        assert np.all(np.abs(out - mu) <= np.abs(theta - mu) + 1e-15)


def test_gains_monotone_in_noise():
    rng = np.random.default_rng(4)
    smap = subband_map(8, 8, 2, 1)
    theta = rng.standard_normal(smap.labels.size)
    stats = estimate_stats(theta, smap)
    prev = shrink_derivative_mean(stats, 0.0, smap)
    for sigma2 in (0.1, 0.3, 1.0, 3.0):
        cur = shrink_derivative_mean(stats, sigma2, smap)
        assert cur <= prev + 1e-15
        prev = cur


def test_derivative_mean_alternating_variances():
    # equal-size groups with variances alternating {4, 1}, sigma^2 = 1:
    # gains alternate {3/4, 0}, so the mean gain is exactly 0.375
    smap = subband_map(2, 4, 1, 1)  # four groups of size 2
    theta = np.zeros(8)
    for gid in range(4):
        members = np.where(smap.labels == gid)[0]
        theta[members] = [2.0, -2.0] if gid % 2 == 0 else [1.0, -1.0]
    stats = estimate_stats(theta, smap)
    assert list(stats.var) == [4.0, 1.0, 4.0, 1.0]
    assert shrink_derivative_mean(stats, 1.0, smap) == 0.375


def test_negative_noise_rejected():
    smap = small_map()
    theta = np.ones(4)
    stats = estimate_stats(theta, smap)
    with pytest.raises(ValueError):
        wiener_shrink(theta, stats, -1e-9, smap)
    with pytest.raises(ValueError):
        shrink_derivative_mean(stats, -1.0, smap)


def test_length_mismatch_rejected():
    smap = small_map()
    with pytest.raises(DimensionError):
        estimate_stats(np.ones(5), smap)


def test_stats_from_another_map_rejected():
    fine = subband_map(16, 16, 4, 3)  # 40 groups
    coarse = subband_map(16, 16, 4, 1)  # 16 groups
    rng = np.random.default_rng(30)
    theta = rng.standard_normal(fine.n)
    for stats_map, smap in ((fine, coarse), (coarse, fine)):
        stats = estimate_stats(theta, stats_map)
        with pytest.raises(DimensionError, match="groups"):
            wiener_shrink(theta, stats, 0.1, smap)
        with pytest.raises(DimensionError, match="groups"):
            shrink_derivative_mean(stats, 0.1, smap)


def test_denoise_rejects_a_map_of_another_layout():
    t = SparsifyingTransform(16, 16, 4)
    q = np.random.default_rng(31).standard_normal(t.n)
    # too few levels, then the same n in another shape
    for smap in (subband_map(16, 16, 4, 1), subband_map(8, 32, 4, 2)):
        with pytest.raises(DimensionError, match="does not fit"):
            denoise_cube(q, 0.1, t, smap)


def test_denoise_zero_noise_round_trip():
    t = SparsifyingTransform(8, 8, 4)
    smap = subband_map(8, 8, 4, t.levels)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(t.n)
    out, deriv = denoise_cube(q, 0.0, t, smap)
    assert np.abs(out - q).max() <= 1e-12
    assert deriv == 1.0


def test_denoise_heavy_noise_collapses_to_group_means():
    t = SparsifyingTransform(8, 8, 2)
    smap = subband_map(8, 8, 2, t.levels)
    rng = np.random.default_rng(6)
    q = rng.standard_normal(t.n)
    theta = t.forward(q)
    stats = estimate_stats(theta, smap)
    sigma2 = float(stats.var.max()) * 2.0
    out, deriv = denoise_cube(q, sigma2, t, smap)
    expected = t.inverse(stats.mean[smap.labels])
    assert np.abs(out - expected).max() <= 1e-12
    assert deriv == 0.0


def test_denoise_reduces_mse_on_noisy_cube():
    from cassirecon.phantoms import phantom_cube

    t = SparsifyingTransform(16, 16, 4)
    smap = subband_map(16, 16, 4, t.levels)
    clean = phantom_cube(16, 16, 4, "gaussian-blobs", seed=0).values
    sigma = 0.15
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        q = clean + rng.normal(0.0, sigma, clean.size)
        out, _ = denoise_cube(q, sigma**2, t, smap)
        if np.mean((out - clean) ** 2) < np.mean((q - clean) ** 2):
            wins += 1
    assert wins >= 9


def test_denoise_derivative_consistent_with_stats():
    t = SparsifyingTransform(8, 8, 2)
    smap = subband_map(8, 8, 2, t.levels)
    rng = np.random.default_rng(7)
    q = rng.standard_normal(t.n)
    sigma2 = 0.2
    _, deriv = denoise_cube(q, sigma2, t, smap)
    stats = estimate_stats(t.forward(q), smap)
    assert abs(deriv - shrink_derivative_mean(stats, sigma2, smap)) <= 1e-15


def test_denoise_cube_matches_public_shrink_bit_for_bit():
    # the in-place shrink in denoise_cube runs the arithmetic criterion 04 checks
    t = SparsifyingTransform(16, 8, 3)
    smap = subband_map(16, 8, 3, t.levels)
    q = np.random.default_rng(9).standard_normal(t.n)
    sigma2 = 0.7
    theta = t.forward(q)
    stats = estimate_stats(theta, smap)
    out, deriv = denoise_cube(q, sigma2, t, smap)
    assert np.array_equal(out, t.inverse(wiener_shrink(theta, stats, sigma2, smap)))
    assert deriv == shrink_derivative_mean(stats, sigma2, smap)
    assert np.array_equal(theta, t.forward(q))  # wiener_shrink leaves its input alone


def test_stats_and_shrink_across_band_chunks_match_scalar_reference(multi_chunk_shape):
    # three band chunks, the last one shorter: group sums, the shrink and
    # the mean gain's left-to-right chain must not see the chunk seams
    M, N, L = multi_chunk_shape
    smap = subband_map(M, N, L, default_levels(M, N))
    theta = np.random.default_rng(12).standard_normal(smap.n)
    sigma2 = 0.8
    stats = estimate_stats(theta, smap)
    means, variances, want, want_d = scalar_wiener_reference(
        theta.tolist(), smap.labels.tolist(), smap.n_groups, sigma2
    )
    assert np.array_equal(stats.mean, means) and np.array_equal(stats.var, variances)
    assert np.array_equal(wiener_shrink(theta, stats, sigma2, smap), want)
    assert shrink_derivative_mean(stats, sigma2, smap) == want_d


def test_denoise_cube_scratch_is_chunk_sized(multi_chunk_shape):
    # Psi^T holds its input and its fresh output (two cubes); every other
    # buffer of the call is chunk-sized. Cube-sized scratch (a ping-pong
    # buffer, tap temporaries, filled gain and mean cubes) lifts the peak
    # to four cubes.
    M, N, _ = multi_chunk_shape
    L = 22
    assert len(band_chunks(M, N, L)) >= 6
    t = SparsifyingTransform(M, N, L)
    smap = subband_map(M, N, L, t.levels)
    q = np.random.default_rng(13).standard_normal(t.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        denoise_cube(q, 0.5, t, smap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / q.nbytes < 3.0


def test_denoise_cube_into_its_input_matches_fresh(multi_chunk_shape):
    M, N, L = multi_chunk_shape
    t = SparsifyingTransform(M, N, L, "db4")
    smap = subband_map(M, N, L, t.levels)
    q = np.random.default_rng(16).standard_normal(t.n)
    want, want_deriv = denoise_cube(q.copy(), 0.6, t, smap)
    got, deriv = denoise_cube(q, 0.6, t, smap, out=q)
    assert got is q
    assert np.array_equal(got, want) and deriv == want_deriv


def test_denoise_cube_into_its_input_holds_one_more_cube(multi_chunk_shape):
    # Psi's output is the one cube-sized array of the call when Psi^T
    # writes into q; a fresh Psi^T output adds a second
    M, N, _ = multi_chunk_shape
    L = 22
    t = SparsifyingTransform(M, N, L)
    smap = subband_map(M, N, L, t.levels)
    q = np.random.default_rng(17).standard_normal(t.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        denoise_cube(q, 0.5, t, smap, out=q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / q.nbytes < 2.0

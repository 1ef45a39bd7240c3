"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).
"""

import time

import numpy as np
import pytest

from cassirecon import fileio
from cassirecon.amp import AmpConfig, AmpState, amp_iteration, run_amp
from cassirecon.cli import main as cli_main
from cassirecon.cubes import HyperCube
from cassirecon.fista import sweep_lambda
from cassirecon.metrics import add_noise, avg_psnr, measure_snr
from cassirecon.operator import (
    CassiModel,
    DispersionWeights,
    adjoint_apply,
    forward_apply,
    generate_apertures,
    materialize,
    measurement_count,
    normalized_backprojection,
)
from cassirecon.phantoms import phantom_cube
from cassirecon.transforms import SparsifyingTransform, subband_map
from cassirecon.wiener import denoise_cube, estimate_stats, shrink_derivative_mean, wiener_shrink

W = DispersionWeights(0.25, 0.5, 0.25)


def report(num: int, label: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"criterion {num:02d} [{status}] {label}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {label}: {detail}"


def desk_model(M, N, L, K, seed):
    apertures = generate_apertures(M, N, K, "complementary", seed=seed + 100)
    return CassiModel(apertures, W, bands=L)


def desk_measurements(seed, K=4, M=32, N=32, L=8, snr_db=20.0):
    cube = phantom_cube(M, N, L, "gaussian-blobs", seed=seed)
    model = desk_model(M, N, L, K, seed)
    g, _ = add_noise(forward_apply(model, cube.values), snr_db, seed=seed + 200)
    return cube, model, g


def test_criterion_01_measurement_arithmetic(tmp_path, capsys):
    started = time.perf_counter()
    counts_ok = (
        measurement_count(8, 8, 4, 1) == 104
        and measurement_count(256, 256, 24, 2) == 143872
        and measurement_count(512, 512, 33, 2) == 559104
    )

    rates = {}
    for M, N, L in ((256, 256, 24), (512, 512, 33)):
        cube_path = tmp_path / f"flat_{M}.hsc"
        fileio.write_cube(cube_path, HyperCube(M, N, L, np.full(M * N * L, 0.5)))
        ap_path = tmp_path / f"ap_{M}.hsa"
        assert cli_main([
            "aperture", "--rows", str(M), "--cols", str(N), "--shots", "2",
            "--scheme", "complementary", "--seed", "1", "--out", str(ap_path),
        ]) == 0
        assert cli_main([
            "simulate", "--cube", str(cube_path), "--apertures", str(ap_path),
            "--out", str(tmp_path / f"m_{M}.hsm"),
        ]) == 0
        out = capsys.readouterr().out
        rate_field = [f for f in out.split() if f.startswith("rate=")][-1]
        rates[M] = float(rate_field.split("=")[1])

    rates_ok = abs(rates[256] - 0.0915) <= 0.0005 and abs(rates[512] - 0.0646) <= 0.0005
    with capsys.disabled():
        report(
            1, "measurement-count arithmetic", counts_ok and rates_ok,
            f"counts ok={counts_ok}, printed rates {rates[256]:.4f}/{rates[512]:.4f}",
            started,
        )


def test_criterion_02_operator_correctness():
    started = time.perf_counter()
    max_rel = 0.0
    rng = np.random.default_rng(2024)
    for M, N, L, K in ((8, 8, 4, 2), (16, 16, 8, 2), (32, 8, 4, 4)):
        model = desk_model(M, N, L, K, seed=M + K)
        for _ in range(100):
            f = rng.standard_normal(model.n)
            g = rng.standard_normal(model.m)
            lhs = forward_apply(model, f) @ g
            rhs = f @ adjoint_apply(model, g)
            max_rel = max(max_rel, abs(lhs - rhs) / (np.linalg.norm(f) * np.linalg.norm(g)))

    model = desk_model(8, 8, 4, 2, seed=0)
    H = materialize(model)
    dense_err = 0.0
    for _ in range(10):
        f = rng.standard_normal(model.n)
        dense_err = max(dense_err, float(np.abs(H @ f - forward_apply(model, f)).max()))

    ok = max_rel <= 1e-10 and dense_err <= 1e-12 and H.shape == (208, 256)
    report(
        2, "operator adjoint + dense equivalence", ok,
        f"adjoint rel err {max_rel:.2e}, dense err {dense_err:.2e}", started,
    )


def test_criterion_03_transform_orthonormality():
    started = time.perf_counter()
    worst_rt, worst_energy = 0.0, 0.0
    rng = np.random.default_rng(3)
    for M in (8, 16, 32):
        for N in (8, 16, 32):
            for L in (1, 4, 8):
                t = SparsifyingTransform(M, N, L)
                x = rng.standard_normal(t.n)
                theta = t.forward(x)
                back = t.inverse(theta)
                nrm = np.linalg.norm(x)
                worst_rt = max(worst_rt, np.linalg.norm(back - x) / nrm)
                worst_energy = max(worst_energy, abs(np.linalg.norm(theta) / nrm - 1.0))
    ok = worst_rt <= 1e-10 and worst_energy <= 1e-10
    report(
        3, "transform orthonormality grid", ok,
        f"round trip {worst_rt:.2e}, energy {worst_energy:.2e}", started,
    )


def _scalar_shrink_reference(theta, labels, n_groups, sigma2):
    sums = [0.0] * n_groups
    counts = [0] * n_groups
    for i in range(len(theta)):
        sums[labels[i]] += theta[i]
        counts[labels[i]] += 1
    means = [sums[g] / counts[g] for g in range(n_groups)]
    sq = [0.0] * n_groups
    for i in range(len(theta)):
        d = theta[i] - means[labels[i]]
        sq[labels[i]] += d * d
    variances = [sq[g] / counts[g] for g in range(n_groups)]
    gains = [max(0.0, v - sigma2) / v if v > 0.0 else 0.0 for v in variances]
    out = np.empty(len(theta))
    acc = 0.0
    for i in range(len(theta)):
        g = labels[i]
        out[i] = gains[g] * (theta[i] - means[g]) + means[g]
        acc += gains[g]
    return out, acc / len(theta)


def test_criterion_04_denoiser_oracle_equivalence():
    started = time.perf_counter()
    smap = subband_map(8, 8, 2, 2)
    rng = np.random.default_rng(4)
    exact = 0
    trials = 1000
    for _ in range(trials):
        theta = rng.standard_normal(smap.labels.size)
        sigma2 = float(rng.uniform(0.0, 2.0))
        stats = estimate_stats(theta, smap)
        got = wiener_shrink(theta, stats, sigma2, smap)
        got_d = shrink_derivative_mean(stats, sigma2, smap)
        want, want_d = _scalar_shrink_reference(theta, smap.labels, smap.n_groups, sigma2)
        if np.array_equal(got, want) and got_d == want_d:
            exact += 1

    # limit behaviors, exact: sigma2=0 identity on dyadic-exact data, and
    # variance <= noise collapses every coefficient to its group mean
    theta_int = np.arange(smap.labels.size, dtype=np.float64)
    stats_int = estimate_stats(theta_int, smap)
    identity_ok = np.array_equal(wiener_shrink(theta_int, stats_int, 0.0, smap), theta_int)
    theta_r = rng.standard_normal(smap.labels.size)
    stats_r = estimate_stats(theta_r, smap)
    sigma_big = float(stats_r.var.max()) + 1.0
    collapse_ok = np.array_equal(
        wiener_shrink(theta_r, stats_r, sigma_big, smap), stats_r.mean[smap.labels]
    )

    ok = exact == trials and identity_ok and collapse_ok
    report(
        4, "denoiser scalar-oracle equivalence", ok,
        f"{exact}/{trials} bit-for-bit, identity {identity_ok}, collapse {collapse_ok}",
        started,
    )


def test_criterion_05_iteration_transcription():
    started = time.perf_counter()
    model = desk_model(8, 8, 4, 2, seed=7)
    H = materialize(model)
    t = SparsifyingTransform(8, 8, 4)
    smap = subband_map(8, 8, 4, t.levels)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(model.n)
    r_prev = rng.standard_normal(model.m)
    g = rng.standard_normal(model.m)
    d_prev, alpha = 0.37, 0.2

    # straight-line dense reference of one iteration
    r = g - H @ f + (1.0 / model.rate) * r_prev * d_prev
    r = alpha * r + (1.0 - alpha) * r_prev
    q = H.T @ r + f
    sigma2 = float(np.mean(r**2))
    theta = t.forward(q)
    stats = estimate_stats(theta, smap)
    theta_hat = wiener_shrink(theta, stats, sigma2, smap)
    f_ref = alpha * t.inverse(theta_hat) + (1.0 - alpha) * f

    state = AmpState(f=f, r=r_prev, sigma2=0.1, deriv_mean=d_prev, t=2)
    new = amp_iteration(state, g, model, t, alpha)
    iter_err = max(
        float(np.abs(new.f - f_ref).max()),
        float(np.abs(new.r - r).max()),
        abs(new.sigma2 - sigma2),
    )

    # t=1 with zero state: residual is exactly g
    state1 = AmpState(f=np.zeros(model.n), r=np.zeros(model.m))
    first = amp_iteration(state1, g, model, t, 1.0)
    first_ok = np.array_equal(first.r, g)

    # alpha=1 equals the undamped composition bit-for-bit
    from cassirecon.amp import noise_estimate, pseudo_data, residual_step

    ru = residual_step(f, r_prev, d_prev, g, model)
    qu = pseudo_data(f, ru, model)
    fu, _ = denoise_cube(qu, noise_estimate(ru), t)
    undamped = amp_iteration(state, g, model, t, 1.0)
    undamped_ok = np.array_equal(undamped.f, fu) and np.array_equal(undamped.r, ru)

    ok = iter_err <= 1e-12 and first_ok and undamped_ok
    report(
        5, "iteration matches dense transcription", ok,
        f"max err {iter_err:.2e}, t=1 exact {first_ok}, undamped {undamped_ok}",
        started,
    )


def _criterion6_cell(seed):
    cube, model, g = desk_measurements(seed)
    f_hat, trace = run_amp(
        g, model, AmpConfig(alpha=0.2, max_iter=100), truth=cube.values
    )
    truth3 = cube.as_array()
    baseline = normalized_backprojection(model, g).reshape(truth3.shape, order="F")
    gain = trace.psnr[-1] - avg_psnr(truth3, baseline).value
    stability = float(np.std(trace.psnr[-10:]))
    return f_hat, trace, gain, stability


def test_criterion_06_end_to_end_quality():
    started = time.perf_counter()
    passed, details = 0, []
    for seed in range(5):
        _, _, gain, stability = _criterion6_cell(seed)
        ok = gain >= 5.0 and stability < 0.5
        passed += ok
        details.append(f"s{seed}: +{gain:.1f}dB/std{stability:.2f}")
    report(
        6, "end-to-end reconstruction quality", passed >= 4,
        f"{passed}/5 seeds ({'; '.join(details)})", started,
    )


def _criterion7_cell(seed, K):
    cube = phantom_cube(32, 32, 8, "gaussian-blobs", seed=seed)
    model = desk_model(32, 32, 8, K, seed)
    g, _ = add_noise(forward_apply(model, cube.values), 20.0, seed=seed + 200)
    _, trace = run_amp(g, model, AmpConfig(alpha=0.2, max_iter=100), truth=cube.values)
    return trace.psnr[-1]


def test_criterion_07_shots_trend():
    started = time.perf_counter()
    shots = (2, 4, 6, 8)
    good_seeds = 0
    rows = []
    for seed in range(5):
        psnrs = [_criterion7_cell(seed, K) for K in shots]
        monotone = all(b >= a - 0.3 for a, b in zip(psnrs, psnrs[1:]))
        good_seeds += monotone
        rows.append("s{}: {}".format(seed, "/".join(f"{p:.1f}" for p in psnrs)))
    report(
        7, "shots-vs-psnr monotone trend", good_seeds >= 3,
        f"{good_seeds}/5 seeds monotone ({'; '.join(rows)})", started,
    )


def test_criterion_08_noise_protocol():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    g = rng.uniform(0.5, 1.5, 12000)
    errs = []
    for target in (15.0, 20.0):
        noisy, _ = add_noise(g, target, seed=81)
        errs.append(abs(measure_snr(g, noisy) - target))
    ok = all(e <= 0.2 for e in errs)
    report(
        8, "noise protocol round trip", ok,
        "errors " + "/".join(f"{e:.3f}dB" for e in errs), started,
    )


def test_criterion_09_baseline_harness():
    started = time.perf_counter()
    cube, model, g = desk_measurements(seed=0)
    transform = SparsifyingTransform(32, 32, 8)
    lambdas = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    results = sweep_lambda(g, model, transform, lambdas, max_iter=100, truth=cube.values)
    psnrs = {lam: trace.psnr[-1] for lam, _, trace in results}
    complete = len(psnrs) == len(lambdas) and all(np.isfinite(p) for p in psnrs.values())
    monotone = all(
        np.all(np.diff(np.array(trace.objective)) <= 1e-9) for _, _, trace in results
    )
    # expected (not gating): the damped-AMP result on the same instance beats
    # the best swept baseline
    _, amp_trace, _, _ = _criterion6_cell(0)
    detail = (
        "psnr "
        + "/".join(f"{lam:g}:{p:.1f}" for lam, p in psnrs.items())
        + f", objectives monotone={monotone}"
        + f"; observed amp {amp_trace.psnr[-1]:.1f}dB vs best baseline "
        + f"{max(psnrs.values()):.1f}dB (not gated)"
    )
    report(9, "baseline sweep harness", complete and monotone, detail, started)


def _strip_wall_ms(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()

    def run_cell(seed, K):
        cube, model, g = desk_measurements(seed, K=K)
        f_hat, trace = run_amp(
            g, model, AmpConfig(alpha=0.2, max_iter=100), truth=cube.values
        )
        path = tmp_path / f"cell_{seed}_{K}.hsc"
        fileio.write_cube(path, HyperCube(32, 32, 8, f_hat))
        return path.read_bytes(), _strip_wall_ms(trace.to_csv())

    ok = True
    for seed, K in ((0, 4), (2, 6)):
        cube_a, trace_a = run_cell(seed, K)
        cube_b, trace_b = run_cell(seed, K)
        ok = ok and cube_a == cube_b and trace_a == trace_b
    report(
        10, "determinism of end-to-end runs", ok,
        "cube bytes and traces identical on reruns (wall-clock column excluded)",
        started,
    )

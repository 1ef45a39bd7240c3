import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cassirecon import fileio
from cassirecon.cli import _solver_config, build_parser, main
from cassirecon.phantoms import phantom_cube
from cassirecon.transforms import WAVELET_FILTERS


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    cube = phantom_cube(16, 16, 4, "gaussian-blobs", seed=3)
    fileio.write_cube(tmp_path / "cube.hsc", cube)
    assert run_cli(
        "aperture", "--rows", 16, "--cols", 16, "--shots", 2,
        "--scheme", "complementary", "--seed", 5, "--out", tmp_path / "ap.hsa",
    ) == 0
    assert run_cli(
        "simulate", "--cube", tmp_path / "cube.hsc", "--apertures", tmp_path / "ap.hsa",
        "--snr", 20, "--seed", 7, "--out", tmp_path / "meas.hsm",
    ) == 0
    return tmp_path


def test_aperture_deterministic_and_complementary(tmp_path):
    out1, out2 = tmp_path / "a1.hsa", tmp_path / "a2.hsa"
    for out in (out1, out2):
        assert run_cli(
            "aperture", "--rows", 8, "--cols", 8, "--shots", 2,
            "--scheme", "complementary", "--seed", 11, "--out", out,
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    masks = fileio.read_apertures(out1).masks
    assert np.all(masks[0] + masks[1] == 1)


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["aperture", "--rows", "4"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--no-such-flag"])
    assert exc.value.code == 2


def test_out_of_memory_exit_2_one_line(tmp_path, monkeypatch, capsys):
    # the allocation is faked: a real one this size would exhaust the host
    def too_big(*args):
        raise MemoryError("Unable to allocate 922. GiB for an array with shape (99, 99999, 99999)")

    monkeypatch.setattr("cassirecon.cli.generate_apertures", too_big)
    code = run_cli(
        "aperture", "--rows", 99999, "--cols", 99999, "--shots", 99,
        "--scheme", "random", "--out", tmp_path / "big.hsa",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 922. GiB for an array with shape "
        "(99, 99999, 99999)\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_aperture_odd_complementary_exit_2(tmp_path, capsys):
    code = run_cli(
        "aperture", "--rows", 8, "--cols", 8, "--shots", 3,
        "--scheme", "complementary", "--out", tmp_path / "x.hsa",
    )
    assert code == 2
    assert "even shot count" in capsys.readouterr().err


def test_simulate_prints_m_and_rate(workdir, capsys):
    capsys.readouterr()
    assert run_cli(
        "simulate", "--cube", workdir / "cube.hsc", "--apertures", workdir / "ap.hsa",
        "--out", workdir / "m2.hsm",
    ) == 0
    out = capsys.readouterr().out
    assert "m=672" in out  # 2*16*(16+4+1)
    assert "rate=0.656250" in out
    assert "noiseless" in out
    ms = fileio.read_measurements(workdir / "m2.hsm")
    assert ms.sigma_noise == 0.0
    assert ms.seed == 0


def test_simulate_records_noise_sigma(workdir):
    ms = fileio.read_measurements(workdir / "meas.hsm")
    assert ms.sigma_noise > 0.0
    assert ms.seed == 7


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "4000", "-4000"])
def test_simulate_out_of_range_snr_exit_2(workdir, capsys, snr):
    out = workdir / "bad.hsm"
    code = run_cli(
        "simulate", "--cube", workdir / "cube.hsc", "--apertures", workdir / "ap.hsa",
        f"--snr={snr}", "--out", out,
    )
    assert code == 2
    assert "cassi-snr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_seed_beyond_u64_exit_2(workdir, capsys, seed):
    # without --snr the seed reaches only the file's u64 header field; with
    # --snr and in `aperture` it seeds NumPy, which rejects negative seeds
    inputs = ["--cube", workdir / "cube.hsc", "--apertures", workdir / "ap.hsa"]
    commands = [
        ["simulate", *inputs],
        ["simulate", *inputs, "--snr", 20],
        ["aperture", "--rows", 16, "--cols", 16, "--shots", 2],
    ]
    for command in commands:
        out = workdir / "bad.out"
        capsys.readouterr()
        assert run_cli(*command, f"--seed={seed}", "--out", out) == 2
        assert capsys.readouterr().err == f"error: --seed must lie in [0, 2**64), got {seed}\n"
        assert not out.exists()


def test_simulate_dim_mismatch_exit_2(workdir, tmp_path):
    other = phantom_cube(8, 8, 4, "gaussian-blobs", seed=0)
    fileio.write_cube(tmp_path / "small.hsc", other)
    assert run_cli(
        "simulate", "--cube", tmp_path / "small.hsc", "--apertures", workdir / "ap.hsa",
        "--out", tmp_path / "x.hsm",
    ) == 2


def test_missing_file_exit_3(tmp_path):
    assert run_cli(
        "simulate", "--cube", tmp_path / "nope.hsc", "--apertures", tmp_path / "nope.hsa",
        "--out", tmp_path / "x.hsm",
    ) == 3


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["simulate", "--cube", "{dir}/cube.hsc", "--apertures", "ap.hsa", "--out", "cube.hsc"],
         ("--out", "--cube")),
        (["reconstruct", "--measurements", "meas.hsm", "--apertures", "ap.hsa",
          "--out", "rec.hsc", "--trace", "{dir}/rec.hsc"], ("--out", "--trace")),
        (["eval", "--truth", "cube.hsc", "--estimate", "cube.hsc", "--report", "{dir}/cube.hsc"],
         ("--report", "--truth")),
    ],
    ids=["simulate-out-is-cube", "reconstruct-out-is-trace", "eval-report-is-truth"],
)
def test_output_path_naming_another_path_exit_2_before_touching_files(
    workdir, capsys, monkeypatch, argv, flags
):
    # one spelling relative to the working directory, one absolute
    monkeypatch.chdir(workdir)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    code = run_cli(*(a.format(dir=workdir) for a in argv))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} and {flags[1]} name the same file")
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_reconstruct_unwritable_output_exit_3_before_reading(workdir, capsys, monkeypatch, flag):
    def unexpected_read(path):
        raise AssertionError(f"read {path} before checking the output paths")

    monkeypatch.setattr("cassirecon.fileio.read_measurements", unexpected_read)
    paths = {"--out": workdir / "rec.hsc", "--trace": workdir / "trace.csv"}
    paths[flag] = workdir / "missing" / "x"
    before = sorted(workdir.iterdir())
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 2,
        "--out", paths["--out"], "--trace", paths["--trace"],
    )
    assert code == 3
    assert f"cannot write {paths[flag]}" in capsys.readouterr().err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_reconstruct_output_is_directory_exit_3_before_reading(workdir, capsys, monkeypatch, flag):
    def unexpected_read(path):
        raise AssertionError(f"read {path} before checking the output paths")

    monkeypatch.setattr("cassirecon.fileio.read_measurements", unexpected_read)
    paths = {"--out": workdir / "rec.hsc", "--trace": workdir / "trace.csv"}
    paths[flag] = workdir / "d"
    paths[flag].mkdir()
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 2,
        "--out", paths["--out"], "--trace", paths["--trace"],
    )
    assert code == 3
    assert f"cannot write {paths[flag]}: " in capsys.readouterr().err
    assert not paths["--out"].is_file()
    assert list(paths[flag].iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "pathconf"), reason="NAME_MAX comes from os.pathconf")
@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_output_the_write_cannot_name_exit_3_before_reading(workdir, capsys, monkeypatch, flag):
    # a legal name, but the write's <name>.<16 hex>.tmp is 21 bytes longer than NAME_MAX
    def unexpected_read(path):
        raise AssertionError(f"read {path} before checking the output paths")

    monkeypatch.setattr("cassirecon.fileio.read_measurements", unexpected_read)
    long_name = "t" * (os.pathconf(workdir, "PC_NAME_MAX") - 4) + ".csv"
    paths = {"--out": workdir / "ok.hsc", "--trace": workdir / "trace.csv"}
    paths[flag] = workdir / long_name
    before = sorted(workdir.iterdir())
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 2,
        "--out", paths["--out"], "--trace", paths["--trace"],
    )
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write {paths[flag]}: File name too long\n"
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize(
    "target",
    [
        "directory",
        "missing-parent",
        pytest.param(
            "fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
        ),
    ],
)
@pytest.mark.parametrize("command", ["aperture", "simulate", "eval"])
def test_unwritable_output_names_its_path_exit_3(workdir, capsys, monkeypatch, command, target):
    # the error names the flag's path, not the temp file, and no temp file is
    # left; simulate and eval find the bad output before they read a cube
    def unexpected_read(path):
        raise AssertionError(f"read {path} before checking the output path")

    monkeypatch.setattr("cassirecon.fileio.read_cube", unexpected_read)
    if target == "directory":
        out, reason = workdir / "d", "Is a directory"
        out.mkdir()
    elif target == "fifo":
        out, reason = workdir / "f", "not a regular file"
        os.mkfifo(out)
    else:
        out, reason = workdir / "nodir" / "r.csv", "No such file or directory"
    argv = {
        "aperture": ["--rows", 8, "--cols", 8, "--shots", 2, "--out", out],
        "simulate": ["--cube", workdir / "cube.hsc", "--apertures", workdir / "ap.hsa", "--out", out],
        "eval": ["--truth", workdir / "cube.hsc", "--estimate", workdir / "cube.hsc", "--report", out],
    }[command]
    before = sorted(workdir.rglob("*"))
    assert run_cli(command, *argv) == 3
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert sorted(workdir.rglob("*")) == before
    assert target != "fifo" or out.is_fifo()


@pytest.mark.parametrize(
    "solver_args, flag",
    [
        (["--solver", "fista"], "--lambda"),
        (["--alpha", 3], "--alpha"),
        (["--iters", 0], "--iters"),
    ],
    ids=["fista-without-lambda", "alpha-3", "iters-0"],
)
def test_reconstruct_bad_solver_argument_exit_2_before_reading(tmp_path, capsys, solver_args, flag):
    # the inputs do not exist: a solver argument error must win over exit 3
    code = run_cli(
        "reconstruct", "--measurements", tmp_path / "nope.hsm",
        "--apertures", tmp_path / "nope.hsa", *solver_args,
        "--out", tmp_path / "rec.hsc", "--trace", tmp_path / "trace.csv",
    )
    assert code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "solver_args", [[], ["--solver", "fista", "--lambda", 0.1]], ids=["amp", "fista"]
)
def test_reconstruct_levels_flag_exit_2_before_reading(tmp_path, capsys, solver_args):
    # the transform picks its own depth: --levels is not a flag
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "reconstruct", "--measurements", tmp_path / "nope.hsm",
            "--apertures", tmp_path / "nope.hsa", *solver_args, "--levels", 3,
            "--out", tmp_path / "rec.hsc", "--trace", tmp_path / "trace.csv",
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --levels 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "solver_args, message",
    [
        (["--solver", "fista", "--lambda", 0.1, "--alpha", 7],
         "--alpha does not apply to --solver fista"),
        (["--lambda", 0.1], "--lambda does not apply to --solver amp"),
    ],
    ids=["alpha-under-fista", "lambda-under-amp"],
)
def test_reconstruct_flag_of_the_other_solver_exit_2_before_reading(
    tmp_path, capsys, solver_args, message
):
    code = run_cli(
        "reconstruct", "--measurements", tmp_path / "nope.hsm",
        "--apertures", tmp_path / "nope.hsa", *solver_args,
        "--out", tmp_path / "rec.hsc", "--trace", tmp_path / "trace.csv",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_defaults():
    parser = build_parser()
    args = parser.parse_args(
        ["reconstruct", "--measurements", "m", "--apertures", "a", "--out", "o"]
    )
    assert args.solver == "amp"
    assert args.alpha is None  # AmpConfig's default applies
    assert _solver_config(args).alpha == 0.2
    assert args.iters == 400
    assert args.wavelet == "haar"


def test_reconstruct_wavelet_choices_are_the_filter_families():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    wavelet = next(a for a in sub.choices["reconstruct"]._actions if a.dest == "wavelet")
    assert wavelet.choices == sorted(WAVELET_FILTERS)


def test_reconstruct_non_power_of_two_size(tmp_path):
    # 100 halves only twice, so the default wavelet depth must stop at 2
    fileio.write_cube(tmp_path / "cube.hsc", phantom_cube(100, 100, 4, "gaussian-blobs", seed=1))
    assert run_cli(
        "aperture", "--rows", 100, "--cols", 100, "--shots", 2, "--out", tmp_path / "ap.hsa",
    ) == 0
    assert run_cli(
        "simulate", "--cube", tmp_path / "cube.hsc", "--apertures", tmp_path / "ap.hsa",
        "--snr", 20, "--out", tmp_path / "meas.hsm",
    ) == 0
    assert run_cli(
        "reconstruct", "--measurements", tmp_path / "meas.hsm",
        "--apertures", tmp_path / "ap.hsa", "--iters", 5, "--out", tmp_path / "rec.hsc",
    ) == 0
    assert fileio.read_cube(tmp_path / "rec.hsc").shape == (100, 100, 4)


def test_reconstruct_amp_with_trace(workdir):
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 20,
        "--out", workdir / "rec.hsc", "--truth", workdir / "cube.hsc",
        "--trace", workdir / "trace.csv",
    )
    assert code == 0
    rec = fileio.read_cube(workdir / "rec.hsc")
    assert rec.shape == (16, 16, 4)
    lines = (workdir / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,sigma2,residual_norm,derivative_mean,psnr,wall_ms"
    assert len(lines) == 21


def test_reconstruct_alpha_one_runs(workdir):
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--alpha", 1.0, "--iters", 3,
        "--out", workdir / "rec1.hsc",
    )
    assert code == 0


def test_reconstruct_fista_with_truth_trace_header(workdir):
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--solver", "fista",
        "--lambda", 0.01, "--iters", 4, "--out", workdir / "recf.hsc",
        "--truth", workdir / "cube.hsc", "--trace", workdir / "tracef.csv",
    )
    assert code == 0
    lines = (workdir / "tracef.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,residual_norm,psnr,wall_ms"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "solver_args",
    [("--solver", "amp"), ("--solver", "fista", "--lambda", 0.01)],
    ids=["amp", "fista"],
)
def test_reconstruct_db4_with_truth_trace(tmp_path, solver_args):
    # db4 runs the general tap loop; every other CLI test runs Haar
    fileio.write_cube(tmp_path / "cube.hsc", phantom_cube(16, 16, 8, "gaussian-blobs", seed=3))
    assert run_cli(
        "aperture", "--rows", 16, "--cols", 16, "--shots", 2, "--seed", 5,
        "--out", tmp_path / "ap.hsa",
    ) == 0
    assert run_cli(
        "simulate", "--cube", tmp_path / "cube.hsc", "--apertures", tmp_path / "ap.hsa",
        "--snr", 20, "--seed", 7, "--out", tmp_path / "meas.hsm",
    ) == 0
    code = run_cli(
        "reconstruct", "--measurements", tmp_path / "meas.hsm",
        "--apertures", tmp_path / "ap.hsa", *solver_args, "--wavelet", "db4",
        "--iters", 20, "--out", tmp_path / "rec.hsc",
        "--truth", tmp_path / "cube.hsc", "--trace", tmp_path / "trace.csv",
    )
    assert code == 0
    assert fileio.read_cube(tmp_path / "rec.hsc").shape == (16, 16, 8)
    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) == 20
    psnr = header.split(",").index("psnr")
    assert all(np.isfinite(float(row.split(",")[psnr])) for row in rows)


@pytest.mark.parametrize("truth", [False, True])
@pytest.mark.parametrize(
    "solver, patched, broken, header",
    [
        # a non-finite noise estimate (AMP) or iterate (FISTA) in iteration 1
        ("amp", "cassirecon.amp.noise_estimate", lambda r: float("nan"),
         "iter,sigma2,residual_norm,derivative_mean{psnr},wall_ms"),
        ("fista", "cassirecon.fista.soft_threshold",
         lambda theta, tau, out=None: np.full_like(theta, np.nan),
         "iter,objective,residual_norm{psnr},wall_ms"),
    ],
)
def test_divergence_at_first_iteration_flushes_header(
    workdir, monkeypatch, solver, patched, broken, header, truth
):
    monkeypatch.setattr(patched, broken)
    extra = ["--truth", workdir / "cube.hsc"] if truth else []
    lam = ["--lambda", 0.01] if solver == "fista" else []
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--solver", solver, *lam,
        "--iters", 5, "--out", workdir / "x.hsc", "--trace", workdir / "t.csv", *extra,
    )
    assert code == 4
    expected = header.format(psnr=",psnr" if truth else "")
    assert (workdir / "t.csv").read_text() == expected + "\n"
    assert not (workdir / "x.hsc").exists()


@pytest.fixture
def instance32(tmp_path):
    """A 32x32x8 phantom and K=4 complementary apertures, default seeds."""
    fileio.write_cube(tmp_path / "cube.hsc", phantom_cube(32, 32, 8, "gaussian-blobs", seed=0))
    assert run_cli(
        "aperture", "--rows", 32, "--cols", 32, "--shots", 4, "--out", tmp_path / "ap.hsa"
    ) == 0
    return tmp_path


def test_simulate_beyond_float32_exit_2(instance32, capsys):
    # sigma_noise is about 6.6e299: finite in float64, inf once stored as float32
    out = instance32 / "meas.hsm"
    capsys.readouterr()
    code = run_cli(
        "simulate", "--cube", instance32 / "cube.hsc", "--apertures", instance32 / "ap.hsa",
        "--snr=-3000", "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "float32" in err and err.count("\n") == 1
    assert not out.exists()


def test_divergence_names_first_non_finite_stage(instance32, capsys):
    # Undamped AMP runs away here. At iteration 23 the residual still fits
    # the float32 range; its mean square, the noise estimate, does not.
    assert run_cli(
        "simulate", "--cube", instance32 / "cube.hsc", "--apertures", instance32 / "ap.hsa",
        "--snr", 20, "--out", instance32 / "meas.hsm",
    ) == 0
    capsys.readouterr()
    code = run_cli(
        "reconstruct", "--measurements", instance32 / "meas.hsm",
        "--apertures", instance32 / "ap.hsa", "--alpha", 1.0, "--iters", 400,
        "--out", instance32 / "x.hsc", "--trace", instance32 / "t.csv",
    )
    assert code == 4
    assert capsys.readouterr().err == (
        "error: values beyond the float32 range in noise estimate at iteration 23\n"
    )
    assert len((instance32 / "t.csv").read_text().splitlines()) == 1 + 22
    assert not (instance32 / "x.hsc").exists()


def test_eval_report(workdir, capsys):
    run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 20,
        "--out", workdir / "rec.hsc",
    )
    capsys.readouterr()
    code = run_cli(
        "eval", "--truth", workdir / "cube.hsc", "--estimate", workdir / "rec.hsc",
        "--report", workdir / "report.csv",
    )
    assert code == 0
    lines = (workdir / "report.csv").read_text().splitlines()
    assert lines[0] == "band,psnr_db"
    assert len(lines) == 1 + 4 + 1  # header, L bands, average
    band_vals = [float(line.split(",")[1]) for line in lines[1:5]]
    avg = float(lines[5].split(",")[1])
    assert avg == pytest.approx(np.mean(band_vals), abs=1e-9)
    assert "average psnr" in capsys.readouterr().out


def test_eval_identical_cubes_inf_flag(workdir, capsys):
    capsys.readouterr()
    code = run_cli(
        "eval", "--truth", workdir / "cube.hsc", "--estimate", workdir / "cube.hsc",
        "--report", workdir / "same.csv",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "inf sentinel" in out
    lines = (workdir / "same.csv").read_text().splitlines()
    assert all(line.split(",")[1] == "inf" for line in lines[1:])


def test_eval_dim_mismatch_exit_2(workdir, tmp_path):
    other = phantom_cube(8, 8, 4, "gaussian-blobs", seed=0)
    fileio.write_cube(tmp_path / "other.hsc", other)
    assert run_cli(
        "eval", "--truth", workdir / "cube.hsc", "--estimate", tmp_path / "other.hsc",
        "--report", tmp_path / "r.csv",
    ) == 2


def test_eval_nan_truth_names_the_file(workdir, capsys):
    bad = workdir / "nan.hsc"
    raw = bytearray((workdir / "cube.hsc").read_bytes())
    raw[16:20] = np.float32(np.nan).tobytes()  # first value after magic and 3 u32 dims
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run_cli(
        "eval", "--truth", bad, "--estimate", workdir / "cube.hsc", "--report", workdir / "r.csv",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: cube values must be finite\n"
    assert not (workdir / "r.csv").exists()


def test_selfcheck_passes_and_corrupt_hook_fails(capsys, monkeypatch):
    assert run_cli("selfcheck") == 0
    out = capsys.readouterr().out
    assert "7/7 checks passed" in out
    assert "208" in out  # the 208-measurement instance is exercised
    monkeypatch.setattr("cassirecon.selfcheck.measurement_count", lambda M, N, L, K: 0)
    assert run_cli("selfcheck") == 1


def test_export_slices(workdir, capsys):
    capsys.readouterr()
    code = run_cli(
        "export-slices", "--cube", workdir / "cube.hsc", "--outdir", workdir / "slices",
    )
    assert code == 0
    files = sorted((workdir / "slices").iterdir())
    assert [f.name for f in files] == [f"band_{l:02d}.pgm" for l in range(4)]


@pytest.mark.parametrize(
    "outdir, reason", [("afile", "File exists"), ("afile/slices", "Not a directory")]
)
def test_export_slices_unwritable_outdir_names_it_exit_3(workdir, capsys, outdir, reason):
    (workdir / "afile").write_bytes(b"")
    capsys.readouterr()
    code = run_cli("export-slices", "--cube", workdir / "cube.hsc", "--outdir", workdir / outdir)
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write {workdir / outdir}: {reason}\n"


@pytest.mark.parametrize("peak", ["nan", "inf", "1e200", "1e-200"])
def test_eval_non_finite_peak_exit_2(workdir, tmp_path, capsys, peak):
    other = phantom_cube(16, 16, 4, "gaussian-blobs", seed=4)
    fileio.write_cube(tmp_path / "other.hsc", other)
    code = run_cli(
        "eval", "--truth", workdir / "cube.hsc", "--estimate", tmp_path / "other.hsc",
        "--report", tmp_path / "r.csv", "--peak", peak,
    )
    assert code == 2
    assert "peak" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("peak", ["nan", "inf", "1e300", "1e-320"])
def test_export_slices_non_finite_peak_exit_2(workdir, capsys, peak):
    capsys.readouterr()
    code = run_cli(
        "export-slices", "--cube", workdir / "cube.hsc", "--outdir", workdir / "slices",
        "--peak", peak,
    )
    assert code == 2
    # the one message on stderr: no NumPy RuntimeWarning from scaling by the peak
    want = f"error: peak must be positive with a finite positive square, got {float(peak)}\n"
    assert capsys.readouterr().err == want
    assert not (workdir / "slices").exists()


@pytest.mark.parametrize("command, message", [
    ("eval --truth {d}/truth.hsc --estimate {d}/est.hsc --report {d}/r.csv --peak 1e200",
     "peak must be positive with a finite positive square, got 1e+200"),
    ("export-slices --cube {d}/cube.hsc --outdir {d}/slices --peak nan",
     "peak must be positive with a finite positive square, got nan"),
    ("simulate --cube {d}/cube.hsc --apertures {d}/ap.hsa --out {d}/m.hsm --snr nan",
     "cassi-snr must be finite, got nan dB"),
    ("simulate --cube {d}/cube.hsc --apertures {d}/ap.hsa --out {d}/m.hsm --weights 1,1,1",
     "dispersion weights must sum to 1, got sum=3.0"),
], ids=["eval-peak", "export-slices-peak", "simulate-snr", "simulate-weights"])
def test_bad_flag_exit_2_before_any_file_is_read(tmp_path, capsys, command, message):
    # every input file is missing: reading one first would exit 3
    assert run_cli(*command.format(d=tmp_path).split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_pipeline_reruns_byte_identical(workdir, tmp_path):
    sim = [
        "simulate", "--cube", workdir / "cube.hsc", "--apertures", workdir / "ap.hsa",
        "--snr", 20, "--seed", 7,
    ]
    assert run_cli(*sim, "--out", tmp_path / "m1.hsm") == 0
    assert run_cli(*sim, "--out", tmp_path / "m2.hsm") == 0
    assert (tmp_path / "m1.hsm").read_bytes() == (tmp_path / "m2.hsm").read_bytes()

    rec = [
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--iters", 15,
    ]
    assert run_cli(*rec, "--out", tmp_path / "r1.hsc") == 0
    assert run_cli(*rec, "--out", tmp_path / "r2.hsc") == 0
    assert (tmp_path / "r1.hsc").read_bytes() == (tmp_path / "r2.hsc").read_bytes()


@pytest.mark.parametrize(
    "name, reader, argv",
    [
        ("cube.hsc", "read_cube", ["simulate", "--cube", "{cube}", "--apertures", "{ap}"]),
        ("meas.hsm", "read_measurements",
         ["reconstruct", "--measurements", "{meas}", "--apertures", "{ap}", "--iters", "1"]),
        ("ap.hsa", "read_apertures", ["simulate", "--cube", "{cube}", "--apertures", "{ap}"]),
    ],
)
@pytest.mark.parametrize("keep", [6, 15])
def test_truncated_header_exit_2(workdir, capsys, name, reader, argv, keep):
    bad = workdir / name
    bad.write_bytes(bad.read_bytes()[:keep])  # valid magic, short header
    with pytest.raises(ValueError, match="truncated header") as exc:
        getattr(fileio, reader)(bad)
    assert str(bad) in str(exc.value)
    paths = {"cube": workdir / "cube.hsc", "meas": workdir / "meas.hsm", "ap": workdir / "ap.hsa"}
    capsys.readouterr()
    assert run_cli(*(a.format(**paths) for a in argv), "--out", workdir / "out.bin") == 2
    assert "truncated header" in capsys.readouterr().err


def test_measurements_with_nan_weights_exit_2(workdir, capsys):
    path = workdir / "meas.hsm"
    raw = bytearray(path.read_bytes())
    raw[20:28] = np.float64(np.nan).tobytes()  # w0 follows magic and 4 u32 dims
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run_cli(
        "reconstruct", "--measurements", path, "--apertures", workdir / "ap.hsa",
        "--iters", 3, "--out", workdir / "x.hsc",
    )
    assert code == 2
    assert "weights" in capsys.readouterr().err
    assert not (workdir / "x.hsc").exists()


def test_reconstruct_fista_nan_lambda_exit_2(workdir, capsys):
    capsys.readouterr()
    code = run_cli(
        "reconstruct", "--measurements", workdir / "meas.hsm",
        "--apertures", workdir / "ap.hsa", "--solver", "fista", "--lambda", "nan",
        "--iters", 3, "--out", workdir / "x.hsc",
    )
    assert code == 2
    assert "regularization weight" in capsys.readouterr().err


def test_module_entry_point():
    # what `python -m cassirecon.cli` runs, as the benchmark's CLI workload does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(*args):
        cmd = [sys.executable, "-m", "cassirecon.cli", *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    done = cli("selfcheck")
    assert done.returncode == 0
    assert "7/7 checks passed" in done.stdout
    assert cli("selfcheck", "--no-such-flag").returncode == 2


def test_package_imports_without_scipy():
    # the package does not depend on SciPy; CI installs it only for the benchmark
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cassirecon, cassirecon.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

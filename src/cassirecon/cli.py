"""Command-line interface.

Subcommands cover the full workflow: generate apertures, simulate
measurements from a cube, reconstruct (AMP or the l1 baseline), evaluate
PSNR against a reference, export band images, and run the numerical
self-check suite.

Exit codes: 0 success, 1 a failed self-check, 2 usage, validation or
out-of-memory error, 3 I/O failure, 4 solver divergence (with any partial
trace flushed first).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

from . import fileio
from .amp import DEFAULT_ALPHA, DEFAULT_MAX_ITER, AmpConfig, run_amp
from .cubes import DEFAULT_WEIGHTS, DispersionWeights, HyperCube, MeasurementSet, check_peak, check_seed
from .errors import DivergenceError
from .fista import L1Config, fista_run
from .metrics import PsnrSummary, add_noise, check_snr, per_band_psnr
from .operator import CassiModel, forward_apply, generate_apertures
from .selfcheck import format_results, run_selfcheck
from .transforms import DEFAULT_WAVELET, WAVELET_FILTERS, SparsifyingTransform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def _parse_weights(text: str) -> DispersionWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated weights, got {text!r}")
    return DispersionWeights(*(float(p) for p in parts))


def _load_model(measurements_path: str, apertures_path: str):
    ms = fileio.read_measurements(measurements_path)
    apertures = fileio.read_apertures(apertures_path)
    if (apertures.shots, apertures.rows, apertures.cols) != (ms.shots, ms.rows, ms.cols):
        raise ValueError(
            f"aperture file is K={apertures.shots}, {apertures.rows}x{apertures.cols} "
            f"but measurements expect K={ms.shots}, {ms.rows}x{ms.cols}"
        )
    model = CassiModel(apertures, DispersionWeights(*ms.weights), bands=ms.bands)
    return ms, model


def _cmd_aperture(args) -> int:
    check_seed(args.seed, "--seed")
    apertures = generate_apertures(args.rows, args.cols, args.shots, args.scheme, args.seed)
    fileio.write_apertures(args.out, apertures)
    fill = apertures.masks.mean()
    print(
        f"wrote {args.out}: K={apertures.shots} {apertures.rows}x{apertures.cols} "
        f"scheme={args.scheme} seed={args.seed} open-fraction={fill:.4f}"
    )
    return EXIT_OK


def _check_distinct(args, outputs: tuple[str, ...], inputs: tuple[str, ...]) -> None:
    """Reject an output path that is another path flag's file; flags go by ``args`` name."""
    given = [dest for dest in (*outputs, *inputs) if getattr(args, dest)]
    paths = {dest: Path(getattr(args, dest)).resolve() for dest in given}
    for (dest, path), (other, other_path) in itertools.combinations(paths.items(), 2):
        if dest in outputs and path == other_path:  # outputs come first in each pair
            raise ValueError(f"--{dest} and --{other} name the same file {path}")


def _cmd_simulate(args) -> int:
    _check_distinct(args, ("out",), ("cube", "apertures"))
    check_seed(args.seed, "--seed")
    weights = _parse_weights(args.weights)
    if args.snr is not None:
        check_snr(args.snr)
    fileio.check_writable(args.out)
    cube = fileio.read_cube(args.cube)
    apertures = fileio.read_apertures(args.apertures)
    if (apertures.rows, apertures.cols) != (cube.rows, cube.cols):
        raise ValueError(
            f"aperture size {apertures.rows}x{apertures.cols} does not match "
            f"cube {cube.rows}x{cube.cols}"
        )
    model = CassiModel(apertures, weights, bands=cube.bands)
    g = forward_apply(model, cube.values)
    sigma = 0.0
    if args.snr is not None:
        g, sigma = add_noise(g, args.snr, args.seed)
    ms = MeasurementSet(
        shots=model.shots, rows=model.rows, cols=model.cols, bands=model.bands,
        values=g, weights=weights.as_tuple(), seed=args.seed, sigma_noise=sigma,
    )
    fileio.write_measurements(args.out, ms)
    snr_note = f"cassi-snr={args.snr}dB sigma_noise={sigma:.6g}" if args.snr is not None else "noiseless"
    print(f"wrote {args.out}: m={model.m} n={model.n} rate={model.rate:.6f} {snr_note}")
    return EXIT_OK


def _write_trace(path: str, trace) -> None:
    if path:
        fileio.atomic_write(path, trace.to_csv().encode("ascii"))


def _solver_config(args):
    """The solver's config from its flags, checked before any file is touched.

    A flag of the other solver is an error, not silently dropped.
    """
    for flag, value, solver in (("--alpha", args.alpha, "amp"), ("--lambda", args.lam, "fista")):
        if value is not None and args.solver != solver:
            raise ValueError(f"{flag} does not apply to --solver {args.solver}")
    if args.solver == "fista" and args.lam is None:
        raise ValueError("--lambda is required for the fista solver")
    try:
        if args.solver == "amp":
            return AmpConfig(
                alpha=DEFAULT_ALPHA if args.alpha is None else args.alpha,
                max_iter=args.iters, wavelet=args.wavelet,
            )
        return L1Config(lam=args.lam, max_iter=args.iters)
    except ValueError as err:
        given = {"--alpha": args.alpha, "--lambda": args.lam, "--iters": args.iters}
        flags = " ".join(f"{flag} {value}" for flag, value in given.items() if value is not None)
        raise ValueError(f"{flags}: {err}") from None


def _cmd_reconstruct(args) -> int:
    _check_distinct(args, ("out", "trace"), ("measurements", "apertures", "truth"))
    config = _solver_config(args)
    for path in filter(None, (args.out, args.trace)):
        fileio.check_writable(path)
    ms, model = _load_model(args.measurements, args.apertures)
    truth = None
    if args.truth:
        truth_cube = fileio.read_cube(args.truth)
        if truth_cube.shape != (model.rows, model.cols, model.bands):
            raise ValueError(
                f"truth cube {truth_cube.shape} does not match model "
                f"{(model.rows, model.cols, model.bands)}"
            )
        truth = truth_cube.values

    start = time.perf_counter()
    try:
        if args.solver == "amp":
            f_hat, trace = run_amp(ms.values, model, config, truth=truth)
        else:
            transform = SparsifyingTransform(model.rows, model.cols, model.bands, wavelet=args.wavelet)
            f_hat, trace = fista_run(ms.values, model, transform, config, truth=truth)
    except DivergenceError as err:
        if err.trace is not None:
            _write_trace(args.trace, err.trace)
        raise
    elapsed = time.perf_counter() - start

    fileio.write_cube(args.out, HyperCube(model.rows, model.cols, model.bands, f_hat))
    _write_trace(args.trace, trace)
    note = f" final-psnr={trace.psnr[-1]:.2f}dB" if "psnr" in trace.columns else ""
    print(
        f"wrote {args.out}: solver={args.solver} iters={args.iters} "
        f"elapsed={elapsed:.2f}s{note}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_distinct(args, ("report",), ("truth", "estimate"))
    check_peak(args.peak)
    fileio.check_writable(args.report)
    truth = fileio.read_cube(args.truth)
    estimate = fileio.read_cube(args.estimate)
    band_psnr = per_band_psnr(truth.as_array(), estimate.as_array(), args.peak)
    average, n_inf = PsnrSummary.from_bands(band_psnr)
    lines = ["band,psnr_db"]
    lines += [f"{l},{repr(float(p))}" for l, p in enumerate(band_psnr)]
    lines.append(f"average,{repr(average)}")
    fileio.atomic_write(args.report, ("\n".join(lines) + "\n").encode("ascii"))
    flag = f" ({n_inf} band(s) identical: inf sentinel)" if n_inf else ""
    print(f"average psnr: {average:.4f} dB over {truth.bands} bands{flag}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck()
    print(format_results(results))
    return EXIT_OK if all(r.ok for r in results) else 1


def _cmd_export_slices(args) -> int:
    check_peak(args.peak)
    cube = fileio.read_cube(args.cube)
    paths = fileio.export_pgm_slices(cube, args.outdir, peak=args.peak)
    print(f"wrote {len(paths)} slices to {args.outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cassirecon",
        description="Simulate and reconstruct coded-aperture snapshot spectral measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aperture", help="generate a coded aperture set")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--scheme", choices=["random", "complementary"], default="complementary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aperture)

    p = sub.add_parser("simulate", help="apply the measurement model to a cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--apertures", required=True)
    p.add_argument("--weights", default=",".join(str(w) for w in DEFAULT_WEIGHTS))
    p.add_argument("--snr", type=float, default=None, help="target cassi-snr in dB (omit for noiseless)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a cube from measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--apertures", required=True)
    p.add_argument("--solver", choices=["amp", "fista"], default="amp")
    p.add_argument("--alpha", type=float, default=None,
                   help=f"AMP damping factor in (0, 1] (default {DEFAULT_ALPHA})")
    p.add_argument("--iters", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="l1 regularization weight (required for fista, rejected for amp)")
    p.add_argument("--wavelet", choices=sorted(WAVELET_FILTERS), default=DEFAULT_WAVELET)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="reference cube for per-iteration PSNR")
    p.add_argument("--trace", default=None, help="per-iteration CSV trace path")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("eval", help="per-band PSNR report")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("selfcheck", help="run the numerical verification suite")
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("export-slices", help="write one PGM image per band")
    p.add_argument("--cube", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.set_defaults(func=_cmd_export_slices)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

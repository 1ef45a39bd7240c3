#!/usr/bin/env python3
"""The cassirecon benchmark: closed-loop solves, one at a time, on one workload.

Run from the root of a source checkout (README.md defines every metric):

    python3 perfbench/run.py --workload amp_256 --seed 1 --seconds 30 --trace 0

``--seed`` draws the apertures and the measurement noise. The scene is the
workload's fixed reference phantom: over ten scenes PSNR spreads by 8-22%
of its median (interquartile), more than any bound on quality can allow,
while solve time does not depend on the scene. Input generation is not
timed, and every operation's output is checked (see ``failure``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Workload:
    solver: str  # "amp", "fista" or "cli"
    dims: tuple  # (M, N, L, K)
    iters: int
    psnr_floor_db: float
    lam: float = 0.0


# Iteration counts keep one solve near a second, so that a run of 30 s
# holds more than 20 solves and the tail percentile is above the median.
WORKLOADS = {
    # the main solver at a realistic size; Psi, Psi^T and Wiener dominate
    "amp_256": Workload("amp", (256, 256, 24, 2), 3, 10.0),
    # the CLI in the multi-shot regime: file I/O, per-iteration PSNR, the
    # trace CSV and interpreter start-up; the operator dominates
    "cli_multishot": Workload("cli", (32, 32, 16, 8), 100, 20.0),
    # the l1 baseline: 3 H, 1 H^T, 2 Psi, 1 Psi^T per iteration, no Wiener
    "fista_128": Workload("fista", (128, 128, 24, 2), 10, 18.0, lam=0.1),
}

# tiny instances for the benchmark's own smoke test
SMOKE = {
    "amp_256": Workload("amp", (32, 32, 8, 2), 3, 5.0),
    "cli_multishot": Workload("cli", (16, 16, 8, 2), 5, 5.0),
    "fista_128": Workload("fista", (32, 32, 8, 2), 3, 5.0, lam=0.1),
}

SCENE_SEED = 0


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list, workdir: Path) -> tuple[int, str, str, float, float]:
    """Run one child to completion; returns (exit code, stdout, stderr, wall s, peak RSS MB).

    The child is reaped with ``os.wait4`` so that its own peak RSS is known,
    and killed if it outlives CHILD_TIMEOUT_S.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage.ru_maxrss / 1024.0)


def worker(mode: str, spec: dict, workdir: Path, *extra: str) -> tuple[dict, float]:
    """Run a worker mode that must succeed; returns (its JSON result, peak RSS MB)."""
    cmd = [sys.executable, str(WORKER), mode, "--spec", json.dumps(spec), *extra]
    code, out, err, _, rss = run_child(cmd, workdir)
    if code != 0:
        raise RuntimeError(f"worker {mode} exited {code}:\n{err}")
    return json.loads(out.strip().splitlines()[-1]), rss


def cli_operation(spec: dict, files: dict, workdir: Path, traced: bool) -> dict:
    """One ``cassirecon reconstruct`` subprocess, checked like an in-process solve."""
    import quality

    out, csv = workdir / "estimate.hsc", workdir / "trace.csv"
    for stale in (out, csv):
        stale.unlink(missing_ok=True)
    argv = ["reconstruct", "--measurements", files["measurements"], "--apertures", files["apertures"],
            "--truth", files["scene"], "--trace", str(csv), "--out", str(out), "--iters", str(spec["iters"])]
    if traced:
        spans_path = workdir / "spans.json"
        cmd = [sys.executable, str(WORKER), "cli", str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "cassirecon.cli", *argv]
    code, _, err, wall, rss = run_child(cmd, workdir)
    record = {"traced": traced, "wall_s": wall, "rss_mb": rss}
    if code != 0:
        record["error"] = f"cassirecon exited {code}: {err.strip()[-500:]}"
        return record
    try:
        dims, values = quality.read_cube_file(out)
        rows = csv.read_text().splitlines()
    except (OSError, ValueError) as exc:
        record["error"] = f"unreadable output: {exc}"
        return record
    record.update(dims=list(dims), iters=len(rows) - 1, digest=hashlib.sha256(out.read_bytes()).hexdigest())
    if traced:
        record["spans"] = json.loads(spans_path.read_text())
    if list(dims) == files["dims"]:
        record["psnr_db"] = quality.psnr_db(files["truth"], quality.as_cube(values, dims))
        header = rows[0].split(",")
        if "psnr" not in header:
            record["error"] = "trace has no psnr column"
        else:
            reported = float(rows[-1].split(",")[header.index("psnr")])
            # the CLI scores its float64 estimate, the file holds float32
            if not math.isclose(reported, record["psnr_db"], abs_tol=0.01):
                record["error"] = f"trace reports {reported} dB, output scores {record['psnr_db']} dB"
    return record


def run_cli(spec: dict, seconds: float, trace: bool, workdir: Path) -> tuple[list, dict, float]:
    import quality

    files, _ = worker("prepare", spec, workdir, "--dir", str(workdir))
    dims, truth = quality.read_cube_file(files["scene"])
    files.update(dims=list(dims), truth=quality.as_cube(truth, dims))
    ops = [dict(cli_operation(spec, files, workdir, False), warmup=True)]
    deadline = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < deadline or len(ops) < 2 + trace:
        ops.append(cli_operation(spec, files, workdir, traced))
        traced = trace and not traced
    return ops, files["env"], max(op["rss_mb"] for op in ops)


def failure(op: dict, workload: Workload, reference: str | None) -> str | None:
    """Why an operation failed its checks, or None when it passed."""
    # the CLI writes an (M, N, L) cube file, the solvers return a flat vector
    expected = list(workload.dims[:3]) if workload.solver == "cli" else [math.prod(workload.dims[:3])]
    if "error" in op:
        return op["error"].strip().splitlines()[-1]
    if op["dims"] != expected:
        return f"output has dimensions {op['dims']}, expected {expected}"
    if op["iters"] != workload.iters:
        return f"trace has {op['iters']} iterations, expected {workload.iters}"
    psnr = op["psnr_db"]
    if not (math.isfinite(psnr) and psnr >= workload.psnr_floor_db):
        return f"PSNR {psnr} dB is below the floor of {workload.psnr_floor_db} dB"
    if op["digest"] != reference:
        return "reconstruction differs from the run's first solve"
    return None


def tail(samples: list) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and its percentile.

    With fewer than eleven samples no such statistic exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(traced: list, untraced_walls: list, setup_spans: dict | None, iters: int) -> dict:
    layers: dict = {}
    counters: dict = {}
    root = 0.0
    for op in traced:
        for name, (calls, total, own) in op["spans"]["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in op["spans"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        root += op["spans"]["root_s"]
    n_ops = len(traced)
    n_iter = n_ops * iters

    def calls(*names):
        return sum(layers.get(name, [0])[0] for name in names)

    def total(*names):
        return sum(layers.get(name, [0, 0.0])[1] for name in names)

    def own(*names):
        return sum(layers.get(name, [0, 0.0, 0.0])[2] for name in names)

    solver = total("amp.run", "fista.run")
    walls = [op["wall_s"] for op in traced]
    power = (setup_spans or {"layers": {}})["layers"].get("fista.power_method", [0, 0.0])[1]
    return {
        "transforms.psi_ms": 1e3 * own("transforms.psi") / n_iter,
        "transforms.psi_t_ms": 1e3 * own("transforms.psi_t") / n_iter,
        "transforms.share": own("transforms.psi", "transforms.psi_t") / solver,
        "transforms.psi_per_iter": calls("transforms.psi") / n_iter,
        "transforms.psi_t_per_iter": calls("transforms.psi_t") / n_iter,
        "wiener.stats_ms": 1e3 * own("wiener.stats") / n_iter,
        "wiener.shrink_ms": 1e3 * own("wiener.shrink") / n_iter,
        "wiener.deriv_ms": 1e3 * own("wiener.deriv") / n_iter,
        "wiener.share": own("wiener.stats", "wiener.shrink", "wiener.deriv") / solver,
        "operator.forward_ms": 1e3 * own("operator.forward") / n_iter,
        "operator.adjoint_ms": 1e3 * own("operator.adjoint") / n_iter,
        "operator.share": own("operator.forward", "operator.adjoint") / solver,
        "operator.forward_per_iter": calls("operator.forward") / n_iter,
        "operator.adjoint_per_iter": calls("operator.adjoint") / n_iter,
        "amp.self_ms": 1e3 * own("amp.run", "amp.iteration") / n_iter,
        "fista.self_ms": 1e3 * own("fista.run") / n_iter,
        "fista.soft_threshold_ms": 1e3 * own("fista.soft_threshold") / n_iter,
        "fista.power_method_s": power,
        "metrics.psnr_ms": 1e3 * own("metrics.psnr") / n_iter,
        "metrics.psnr_per_iter": calls("metrics.psnr") / n_iter,
        "fileio.read_ms": 1e3 * own("fileio.read") / n_ops,
        "fileio.write_ms": 1e3 * own("fileio.write") / n_ops,
        "fileio.bytes_read": counters.get("fileio.read.bytes", 0) / n_ops,
        "fileio.bytes_written": counters.get("fileio.write.bytes", 0) / n_ops,
        "amp.trace_csv_ms": 1e3 * own("amp.trace_csv") / n_ops,
        "cli.import_ms": 1e3 * own("cli.import") / n_ops,
        "cli.self_ms": 1e3 * own("cli.main") / n_ops,
        "trace.overhead_frac": statistics.median(walls) / statistics.median(untraced_walls) - 1.0,
        "trace.unaccounted_frac": (sum(walls) - root) / sum(walls),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy as np

    workload = (SMOKE if smoke else WORKLOADS)[name]
    aperture_seed, noise_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    spec = dict(asdict(workload), scene_seed=SCENE_SEED, aperture_seed=aperture_seed, noise_seed=noise_seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        samples = 0 if trace else 1 if smoke else SETUP_SAMPLES
        setups = [worker("setup", spec, workdir)[0]["setup_s"] for _ in range(samples)]
        setup_spans = None
        if workload.solver == "cli":
            ops, env, peak_rss = run_cli(spec, seconds, trace, workdir)
        else:
            result, peak_rss = worker("solve", spec, workdir, "--seconds", str(seconds), "--trace", str(int(trace)))
            ops, env, setup_spans = result["ops"], result["env"], result["setup_spans"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run is still using it

    reference = next((op["digest"] for op in ops if "digest" in op), None)
    passed = []
    for op in ops:
        reason = failure(op, workload, reference)
        if reason is None:
            passed.append(op)
        else:
            print(f"failed operation: {reason}", file=sys.stderr)
    failed = len(ops) - len(passed)
    # failed solves count against success_rate, not in the timings
    timed = [op for op in passed if not op.get("warmup")]
    untraced = [op["wall_s"] for op in timed if not op["traced"]]
    if not untraced or (trace and len(untraced) == len(timed)):
        raise RuntimeError(f"{failed} of {len(ops)} operations failed; no timings to report")
    env.update(
        python=platform.python_version(), nproc=os.cpu_count(), git_commit=git_commit(), workload=name,
        seed=seed, dims_mnlk=list(workload.dims), iterations=workload.iters, seconds=seconds, trace=int(trace),
    )
    print("env " + json.dumps(env))
    print(f"solve_samples {len(untraced)} count")
    print(f"error_rate {failed / len(ops)} fraction")
    if trace:
        metrics = layer_metrics([op for op in timed if op["traced"]], untraced, setup_spans, workload.iters)
        units = declared_units("per_layer")
    else:
        tail_s, tail_pct = tail(untraced)
        print(f"solve_tail_percentile {tail_pct:.1f} %")
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(untraced),
            "solve_tail_s": tail_s,
            "final_psnr_db": statistics.median(op["psnr_db"] for op in ops if "psnr_db" in op),
            "peak_rss_mb": peak_rss,
            "success_rate": 1.0 - failed / len(ops),
        }
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="cassirecon benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "cassirecon" / "__init__.py").is_file():
        print(f"error: no cassirecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

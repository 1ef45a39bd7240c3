"""Child process of the benchmark; every mode starts in a fresh interpreter.

Modes (the parent passes the workload as a JSON spec):

* ``setup``:   time ``import cassirecon`` plus building the model (and, for
  FISTA, the transform and the power-method step size); print the seconds.
* ``solve``:   make the inputs, then run closed-loop solves until the time
  is up; print one record per solve.
* ``prepare``: write the scene, aperture and measurement files a CLI
  workload reads.
* ``cli SPANS ARGS...``: run ``cassirecon.cli.main(ARGS)`` under the
  tracer and write the span summary to the file SPANS.

Only the standard library is imported before ``setup`` starts its clock.
"""

import argparse
import hashlib
import json
import sys
import time
import traceback

SCENE = "gaussian-blobs"
APERTURES = "complementary"
WEIGHTS = (0.25, 0.5, 0.25)
SNR_DB = 20.0


def _model(cassirecon, spec):
    M, N, L, K = spec["dims"]
    apertures = cassirecon.generate_apertures(M, N, K, APERTURES, seed=spec["aperture_seed"])
    return cassirecon.CassiModel(apertures, cassirecon.DispersionWeights(*WEIGHTS), bands=L)


def setup(spec) -> dict:
    start = time.perf_counter()
    if spec["solver"] == "cli":
        import cassirecon.cli  # noqa: F401
    else:
        import cassirecon
        from cassirecon import fista

        model = _model(cassirecon, spec)
        if spec["solver"] == "fista":
            cassirecon.SparsifyingTransform(model.rows, model.cols, model.bands)
            fista.operator_norm_squared(model)
    return {"setup_s": time.perf_counter() - start}


def _versions(cassirecon) -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": cassirecon.KERNEL_BACKEND,
    }


def _traced(use_tracer, fn):
    """Run ``fn`` with a fresh tracer installed when asked; returns (result, summary)."""
    if not use_tracer:
        return fn(), None
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        result = fn()
    finally:
        t.uninstall()
    return result, t.summary()


def solve(spec, seconds: float, trace: bool) -> dict:
    import cassirecon
    import quality
    from cassirecon import amp, fista

    M, N, L, _ = spec["dims"]
    iters = spec["iters"]
    scene = cassirecon.phantom_cube(M, N, L, SCENE, seed=spec["scene_seed"])
    model = _model(cassirecon, spec)
    g, _ = cassirecon.add_noise(
        cassirecon.forward_apply(model, scene.values), SNR_DB, seed=spec["noise_seed"]
    )
    truth = scene.as_array()

    setup_spans = None
    if spec["solver"] == "fista":
        transform = cassirecon.SparsifyingTransform(M, N, L)
        # the sweep_lambda pattern: one power-method step size, then the solve
        lip, setup_spans = _traced(trace, lambda: fista.operator_norm_squared(model))
        config = cassirecon.L1Config(lam=spec["lam"], max_iter=iters, step=1.0 / lip)

        def run():
            return fista.fista_run(g, model, transform, config)

    else:
        config = cassirecon.AmpConfig(max_iter=iters)

        def run():
            return amp.run_amp(g, model, config)

    def timed_run():
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start

    def operation(traced: bool) -> dict:
        record = {"traced": traced}
        try:
            ((f_hat, solver_trace), wall), spans = _traced(traced, timed_run)
        except Exception:  # a failed solve is counted, and the loop goes on
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
            return record
        record.update(wall_s=wall, spans=spans, dims=list(f_hat.shape), iters=len(solver_trace))
        if f_hat.shape == (model.n,):
            record["psnr_db"] = quality.psnr_db(truth, quality.as_cube(f_hat, (M, N, L)))
            record["digest"] = hashlib.sha256(f_hat.tobytes()).hexdigest()
        return record

    # the first solve fills lazy caches; it is checked but not timed
    ops = [dict(operation(False), warmup=True)]
    deadline = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < deadline or len(ops) < 2 + trace:
        ops.append(operation(traced))
        traced = trace and not traced
    return {"ops": ops, "setup_spans": setup_spans, "env": _versions(cassirecon)}


def prepare(spec, outdir: str) -> dict:
    import cassirecon
    from cassirecon import cli, fileio

    M, N, L, K = spec["dims"]
    scene, apertures, measurements = (f"{outdir}/{name}" for name in ("scene.hsc", "apertures.hsa", "meas.hsm"))
    fileio.write_cube(scene, cassirecon.phantom_cube(M, N, L, SCENE, seed=spec["scene_seed"]))
    steps = (
        ["aperture", "--rows", str(M), "--cols", str(N), "--shots", str(K), "--scheme", APERTURES,
         "--seed", str(spec["aperture_seed"]), "--out", apertures],
        ["simulate", "--cube", scene, "--apertures", apertures, "--weights", ",".join(map(str, WEIGHTS)),
         "--snr", str(SNR_DB), "--seed", str(spec["noise_seed"]), "--out", measurements],
    )
    for argv in steps:
        if cli.main(argv) != 0:
            raise RuntimeError(f"cassirecon {argv[0]} failed")
    return {"scene": scene, "apertures": apertures, "measurements": measurements, "env": _versions(cassirecon)}


def traced_cli(spans_path: str, argv: list) -> int:
    import tracer

    t = tracer.Tracer()
    start = time.perf_counter()
    import cassirecon.cli

    t.add_span("cli.import", start, time.perf_counter())
    t.install()
    try:
        code = cassirecon.cli.main(argv)
    finally:
        t.uninstall()
    with open(spans_path, "w") as fh:
        json.dump(t.summary(), fh)
    return code


def main() -> int:
    if sys.argv[1:2] == ["cli"]:
        return traced_cli(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "solve", "prepare"])
    parser.add_argument("--spec", help="workload spec as JSON")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--dir", help="output directory for prepare")
    args = parser.parse_args()
    spec = json.loads(args.spec)
    if args.mode == "setup":
        result = setup(spec)
    elif args.mode == "solve":
        result = solve(spec, args.seconds, bool(args.trace))
    else:
        result = prepare(spec, args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

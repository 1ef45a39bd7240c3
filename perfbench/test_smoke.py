"""Smoke test of the benchmark itself, on tiny instances.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 + trace
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"{name} {metric['value']!r} {metric['unit']}" in lines


def test_tracer_puts_back_every_attribute():
    before = tracer.snapshot()
    t = tracer.Tracer()
    t.install()
    wrapped = tracer.snapshot()
    t.uninstall()
    after = tracer.snapshot()
    assert all(wrapped[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_self_times_add_up_and_bytes_are_counted(tmp_path):
    from cassirecon import fileio
    from cassirecon.cubes import HyperCube

    path = tmp_path / "cube.hsc"
    t = tracer.Tracer()
    t.install()
    try:
        fileio.write_cube(path, HyperCube(4, 4, 2, [0.5] * 32))
        fileio.read_cube(path)
    finally:
        t.uninstall()
    summary = t.summary()
    layers = summary["layers"]
    # write_cube calls atomic_write: two write spans, one nested in the other
    assert layers["fileio.write"][0] == 2 and layers["fileio.read"][0] == 1
    assert math.isclose(sum(own for _, _, own in layers.values()), summary["root_s"], rel_tol=1e-9)
    size = path.stat().st_size
    assert summary["counters"] == {"fileio.write.bytes": size, "fileio.read.bytes": size}

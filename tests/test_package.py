import ast
import inspect
import types
from pathlib import Path

import pytest

import cassirecon
from cassirecon import amp, fileio, fista

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cassirecon"


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cassirecon"):
                continue
            found += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_the_benchmarks_entry_points_exist_with_the_call_shapes_it_uses():
    # perfbench/tracer.py wraps these names from outside the package, and
    # perfbench/worker.py makes these calls; the file is read, not imported
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), vars(tracer))
    assert set(tracer.snapshot()) == {(owner, attr) for _, owner, attr, _ in tracer.TARGETS}
    assert isinstance(cassirecon.KERNEL_BACKEND, str)
    # (callable, positional parameters in the benchmark's order, keywords)
    calls = [
        (fista.fista_run, ("g", "model", "transform", "config"), ()),
        (amp.run_amp, ("g", "model", "config"), ()),
        (cassirecon.L1Config, (), ("lam", "max_iter", "step")),
        (cassirecon.AmpConfig, (), ("max_iter",)),
        (cassirecon.phantom_cube, ("M", "N", "L", "kind"), ("seed",)),
        (cassirecon.generate_apertures, ("M", "N", "K", "scheme"), ("seed",)),
        (cassirecon.CassiModel, ("apertures", "weights"), ("bands",)),
        (cassirecon.DispersionWeights, ("w0", "w1", "w2"), ()),
        (cassirecon.forward_apply, ("model", "f"), ()),
        (cassirecon.add_noise, ("g_clean", "snr_db"), ("seed",)),
        (cassirecon.SparsifyingTransform, ("rows", "cols", "bands"), ()),
        (fista.operator_norm_squared, ("model",), ()),
        (fileio.write_cube, ("path", "cube"), ()),
        (cassirecon.HyperCube.as_array, ("self",), ()),
    ]
    for fn, positional, keywords in calls:
        try:
            bound = inspect.signature(fn).bind(*positional, **{k: k for k in keywords})
        except TypeError as err:
            pytest.fail(f"{fn.__qualname__} no longer takes the benchmark's call: {err}")
        assert list(bound.arguments) == [*positional, *keywords], fn.__qualname__

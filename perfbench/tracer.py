"""Span tracing of cassirecon's layers, wrapped from outside the package.

Each target is a public entry point, patched where its callers look it up:
``amp.py`` and ``fista.py`` bind ``forward_apply`` and friends at import
time, so the wrapper goes on their module attribute, not on
``cassirecon.operator``; methods are patched on their class. While a
:class:`Tracer` is installed, every call records a span (layer, start, end,
parent span). ``uninstall`` puts each original attribute back and checks
that it did.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.
"""

from __future__ import annotations

import os
import time
from importlib import import_module


def _path_size(args):
    return os.path.getsize(args[0])


def _data_size(args):
    return len(args[1])


# (layer, owner, attribute, byte counter or None); an owner is a module or
# "module:Class".
TARGETS = (
    ("operator.forward", "cassirecon.amp", "forward_apply", None),
    ("operator.forward", "cassirecon.fista", "forward_apply", None),
    ("operator.adjoint", "cassirecon.amp", "adjoint_apply", None),
    ("operator.adjoint", "cassirecon.fista", "adjoint_apply", None),
    ("transforms.psi", "cassirecon.transforms:SparsifyingTransform", "forward", None),
    ("transforms.psi_t", "cassirecon.transforms:SparsifyingTransform", "inverse", None),
    ("wiener.stats", "cassirecon.wiener", "estimate_stats", None),
    ("wiener.shrink", "cassirecon.wiener", "wiener_shrink", None),
    ("wiener.deriv", "cassirecon.wiener", "shrink_derivative_mean", None),
    ("metrics.psnr", "cassirecon.amp", "avg_psnr", None),
    ("metrics.psnr", "cassirecon.fista", "avg_psnr", None),
    ("amp.run", "cassirecon.amp", "run_amp", None),
    ("amp.run", "cassirecon.cli", "run_amp", None),
    ("amp.iteration", "cassirecon.amp", "amp_iteration", None),
    ("amp.trace_csv", "cassirecon.amp:AmpTrace", "to_csv", None),
    ("fista.run", "cassirecon.fista", "fista_run", None),
    ("fista.run", "cassirecon.cli", "fista_run", None),
    ("fista.soft_threshold", "cassirecon.fista", "soft_threshold", None),
    ("fista.power_method", "cassirecon.fista", "operator_norm_squared", None),
    ("fileio.read", "cassirecon.fileio", "read_cube", _path_size),
    ("fileio.read", "cassirecon.fileio", "read_measurements", _path_size),
    ("fileio.read", "cassirecon.fileio", "read_apertures", _path_size),
    ("fileio.write", "cassirecon.fileio", "write_cube", None),
    ("fileio.write", "cassirecon.fileio", "write_measurements", None),
    ("fileio.write", "cassirecon.fileio", "write_apertures", None),
    # every file write, the CLI's trace CSV included, ends in atomic_write
    ("fileio.write", "cassirecon.fileio", "atomic_write", _data_size),
    ("cli.main", "cassirecon.cli", "main", None),
)


def resolve_owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = import_module(module)
    return getattr(owner, cls) if cls else owner


def snapshot() -> dict:
    """The current attribute object of every target, keyed by (owner, attribute)."""
    return {(owner, attr): vars(resolve_owner(owner))[attr] for _, owner, attr, _ in TARGETS}


class Tracer:
    """Records spans and byte counts while installed; one instance per traced operation."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index or -1)
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: dict = {}

    def _wrap(self, layer, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
                if count is not None:
                    key = layer + ".bytes"
                    counters[key] = counters.get(key, 0) + count(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._saved = snapshot()
        for layer, owner, attr, count in TARGETS:
            setattr(resolve_owner(owner), attr, self._wrap(layer, self._saved[owner, attr], count))

    def uninstall(self) -> None:
        for (owner, attr), original in self._saved.items():
            setattr(resolve_owner(owner), attr, original)
        restored = snapshot() == self._saved
        self._saved = {}
        if not restored:
            raise RuntimeError("tracer left a wrapped attribute behind")

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a root span timed by the caller, such as an import."""
        self.spans.append((layer, start, end, -1))

    def summary(self) -> dict:
        """Per layer: calls, total seconds, self seconds; plus byte counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, list] = {}
        for (layer, start, end, _), inner in zip(self.spans, child):
            entry = layers.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        root = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"layers": layers, "counters": dict(self.counters), "root_s": root}

"""Corrupt headers fed to the three file readers through the CLI.

Every case must exit 2 or 3 with one ``error: <bad path>: `` line on
stderr, no traceback and no allocation sized by the header instead of the
file.
"""

import contextlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cassirecon import fileio
from cassirecon.cli import main
from cassirecon.operator import generate_apertures
from cassirecon.phantoms import phantom_cube

U32_MAX = 2**32 - 1
PAYLOAD_CAP = 256  # payload bytes written for a header that claims more

dims = st.one_of(st.sampled_from([0, 1, 4, U32_MAX]), st.integers(0, U32_MAX))
weights = st.one_of(
    st.just((0.25, 0.5, 0.25)),
    st.sampled_from(
        [(math.nan, 0.5, 0.25), (-0.25, 1.0, 0.25), (0.25, 0.5, 0.25 + 5e-10), (0.5, 0.5, 0.5)]
    ),
    st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3),
)
sigmas = st.sampled_from([0.0, math.nan, -1.0, math.inf])


@st.composite
def payloads(draw, claimed_bytes):
    """Zero bytes around the claimed payload length: short, exact or long."""
    size = max(0, min(claimed_bytes, PAYLOAD_CAP) + draw(st.integers(-6, 6)))
    return bytes(size), size == claimed_bytes


@st.composite
def cube_files(draw):
    M, N, L = draw(dims), draw(dims), draw(dims)
    payload, exact = draw(payloads(4 * M * N * L))
    assume(not exact or 0 in (M, N, L))
    return struct.pack("<4sIII", b"HSC1", M, N, L) + payload


@st.composite
def measurement_files(draw):
    K, M, N, L = draw(dims), draw(dims), draw(dims), draw(dims)
    w, sigma = draw(weights), draw(sigmas)
    payload, exact = draw(payloads(4 * K * M * (N + L + 1)))
    # an exact payload reaches the solver only through a bad header field
    assume(not exact or 0 in (K, M, N, L) or w != (0.25, 0.5, 0.25) or sigma != 0.0)
    return struct.pack("<4sIIII3dQd", b"HSM1", K, M, N, L, *w, 0, sigma) + payload


@st.composite
def aperture_files(draw):
    K, M, N = draw(dims), draw(dims), draw(dims)
    payload, exact = draw(payloads(K * M * N))
    assume(not exact or 0 in (K, M, N))
    return struct.pack("<4sIII", b"HSA1", K, M, N) + payload


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid 4x4x2 cube and K=2 apertures, and the path each corrupt case goes to."""
    root = tmp_path_factory.mktemp("fuzz")
    fileio.write_cube(root / "cube.hsc", phantom_cube(4, 4, 2, seed=0))
    fileio.write_apertures(root / "ap.hsa", generate_apertures(4, 4, 2, seed=0))
    return root


def run_on_corrupt_file(root, data, argv):
    bad = root / "bad"
    bad.write_bytes(data)
    out = root / "out.bin"
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err):
            code = main([a.format(bad=bad, root=root, out=out) for a in argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code in (2, 3)
    assert err.getvalue().startswith(f"error: {bad}: ") and err.getvalue().count("\n") == 1
    assert peak <= len(data) + 2**20
    assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(data=cube_files())
@example(data=struct.pack("<4sIII", b"HSC1", 0, 4, 2))  # no rows, so no payload
@example(data=struct.pack("<4sIII", b"HSC1", 1, 1, 1) + np.float32(math.nan).tobytes())
def test_read_cube_rejects_corrupt_headers(files, data):
    argv = ["eval", "--truth", "{bad}", "--estimate", "{root}/cube.hsc", "--report", "{out}"]
    run_on_corrupt_file(files, data, argv)


@settings(max_examples=50, deadline=None)
@given(data=measurement_files())
@example(  # the apertures' K=2, 4x4 with a well-sized payload and a NaN noise level
    data=struct.pack("<4sIIII3dQd", b"HSM1", 2, 4, 4, 2, 0.25, 0.5, 0.25, 0, math.nan)
    + bytes(4 * 2 * 4 * 7)
)
def test_read_measurements_rejects_corrupt_headers(files, data):
    argv = [
        "reconstruct", "--measurements", "{bad}", "--apertures", "{root}/ap.hsa",
        "--iters", "1", "--out", "{out}",
    ]
    run_on_corrupt_file(files, data, argv)


@settings(max_examples=50, deadline=None)
@given(data=aperture_files())
@example(data=struct.pack("<4sIII", b"HSA1", 0, 4, 4))  # no shots, the cube's size
def test_read_apertures_rejects_corrupt_headers(files, data):
    argv = [
        "simulate", "--cube", "{root}/cube.hsc", "--apertures", "{bad}", "--snr", "20",
        "--out", "{out}",
    ]
    run_on_corrupt_file(files, data, argv)

import hashlib
import os
import threading

import numpy as np
import pytest

from cassirecon import fileio
from cassirecon.cubes import HyperCube, MeasurementSet
from cassirecon.operator import CodedApertureSet, generate_apertures
from cassirecon.phantoms import phantom_cube


def test_cube_round_trip_bit_exact(tmp_path):
    cube = phantom_cube(8, 8, 3, "gaussian-blobs", seed=0)
    p1 = tmp_path / "a.hsc"
    p2 = tmp_path / "b.hsc"
    fileio.write_cube(p1, cube)
    back = fileio.read_cube(p1)
    fileio.write_cube(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.shape == cube.shape
    # values survive to float32 precision
    assert np.abs(back.values - cube.values).max() <= 1e-7


def test_cube_header_layout(tmp_path):
    cube = HyperCube(2, 3, 4, np.arange(24, dtype=np.float64))
    path = tmp_path / "c.hsc"
    fileio.write_cube(path, cube)
    raw = path.read_bytes()
    assert raw[:4] == b"HSC1"
    assert len(raw) == 16 + 4 * 24
    header = np.frombuffer(raw[4:16], dtype="<u4")
    assert list(header) == [2, 3, 4]
    values = np.frombuffer(raw[16:], dtype="<f4")
    assert np.array_equal(values, np.arange(24, dtype=np.float32))


def test_cube_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.hsc"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(ValueError):
        fileio.read_cube(path)
    cube = HyperCube(2, 2, 1, np.ones(4))
    fileio.write_cube(path, cube)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ValueError):
        fileio.read_cube(path)


def test_measurements_round_trip(tmp_path):
    ms = MeasurementSet(
        shots=2, rows=4, cols=4, bands=3, values=np.linspace(0, 1, 2 * 4 * 8),
        weights=(0.25, 0.5, 0.25), seed=123456789, sigma_noise=0.0125,
    )
    p1 = tmp_path / "m1.hsm"
    p2 = tmp_path / "m2.hsm"
    fileio.write_measurements(p1, ms)
    back = fileio.read_measurements(p1)
    fileio.write_measurements(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.shots == 2 and back.bands == 3
    assert back.seed == 123456789
    assert back.sigma_noise == 0.0125
    assert back.weights == (0.25, 0.5, 0.25)


def test_measurements_weight_invariant(tmp_path):
    ms = MeasurementSet(shots=1, rows=2, cols=2, bands=1, values=np.zeros(8))
    path = tmp_path / "m.hsm"
    fileio.write_measurements(path, ms)
    raw = bytearray(path.read_bytes())
    # the reader applies the model's weight rule: a sum off by 5e-10 or a
    # negative weight fails there, with the file named, not later in CassiModel
    for weights in [(0.9, 0.5, 0.25), (0.25, 0.5, 0.25 + 5e-10), (-0.25, 1.0, 0.25)]:
        raw[20:44] = np.array(weights, dtype="<f8").tobytes()  # w0..w2 follow magic and 4 u32 dims
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as exc:
            fileio.read_measurements(path)
        assert str(exc.value).startswith(f"{path}: dispersion weights")


@pytest.mark.parametrize("write", ["cube", "measurements"])
def test_writers_reject_values_beyond_float32(tmp_path, write):
    values = np.full(8, 1e300)  # finite in float64, inf in float32
    path = tmp_path / "out.bin"
    with pytest.raises(ValueError, match="float32") as exc:
        if write == "cube":
            fileio.write_cube(path, HyperCube(2, 2, 2, values))
        else:
            fileio.write_measurements(path, MeasurementSet(1, 2, 2, 1, values))
    assert str(exc.value).startswith(f"{path}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("write", ["cube", "measurements", "apertures"])
def test_writer_errors_start_with_the_path(tmp_path, write):
    path = str(tmp_path / "bad\0name")
    with pytest.raises(ValueError) as exc:
        if write == "cube":
            fileio.write_cube(path, HyperCube(1, 1, 1, [0.0]))
        elif write == "measurements":
            fileio.write_measurements(path, MeasurementSet(1, 1, 1, 1, np.zeros(3)))
        else:
            fileio.write_apertures(path, generate_apertures(2, 2, 2, "complementary", seed=0))
    assert str(exc.value).startswith(f"{path}: ")


def test_apertures_round_trip_and_layout(tmp_path):
    apertures = generate_apertures(4, 5, 2, "complementary", seed=3)
    p1 = tmp_path / "a1.hsa"
    p2 = tmp_path / "a2.hsa"
    fileio.write_apertures(p1, apertures)
    back = fileio.read_apertures(p1)
    fileio.write_apertures(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.masks, apertures.masks)
    raw = p1.read_bytes()
    assert raw[:4] == b"HSA1"
    body = np.frombuffer(raw[16:], dtype=np.uint8)
    # flat order: i fastest, then j, then k
    assert body[0] == apertures.masks[0, 0, 0]
    assert body[1] == apertures.masks[0, 1, 0]
    assert body[4] == apertures.masks[0, 0, 1]
    assert body[4 * 5] == apertures.masks[1, 0, 0]
    assert set(np.unique(body)) <= {0, 1}


def test_aperture_rejects_non_binary(tmp_path):
    apertures = CodedApertureSet(np.ones((1, 2, 2), dtype=np.uint8))
    path = tmp_path / "a.hsa"
    fileio.write_apertures(path, apertures)
    raw = bytearray(path.read_bytes())
    raw[-1] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        fileio.read_apertures(path)


RAMP = np.arange(60, dtype=np.float64) - 6.0


def pgm_pixels(path, rows, cols):
    """Pixels of a PGM file that starts with exactly the header write_pgm writes."""
    data = path.read_bytes()
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    assert data[: len(header)] == header
    assert len(data) == len(header) + rows * cols
    return np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape((rows, cols))


def test_pgm_round_trip_quantization(tmp_path):
    cube = phantom_cube(6, 7, 3, "gaussian-blobs", seed=2)
    paths = fileio.export_pgm_slices(cube, tmp_path / "slices", peak=1.0)
    assert [p.name for p in paths] == ["band_00.pgm", "band_01.pgm", "band_02.pgm"]
    arr = cube.as_array()
    for l, path in enumerate(paths):
        img = pgm_pixels(path, 6, 7)
        assert np.abs(img / 255.0 - arr[:, :, l]).max() <= 1.0 / 255.0


def test_pgm_constant_band_uniform(tmp_path):
    cube = HyperCube(4, 4, 1, np.full(16, 0.5))
    paths = fileio.export_pgm_slices(cube, tmp_path, peak=1.0)
    img = pgm_pixels(paths[0], 4, 4)
    assert len(np.unique(img)) == 1


@pytest.mark.parametrize("peak, values, digest", [
    (1.0, RAMP / 50.0, "01c9d288f9dbf75536f2f41be3ced9ef9b21bd042f964ba9c1e8569a0346ff97"),
    (255.0, RAMP * 4.7, "75d67199d6a81e622cb22c76f1a39f3c5019d1deb238f9c33000d5683306b760"),
])
def test_pgm_bytes_at_valid_peaks_are_pinned(tmp_path, peak, values, digest):
    # SHA-256 of the three slices as written before the peak rule moved to cubes.check_peak
    paths = fileio.export_pgm_slices(HyperCube(4, 5, 3, values), tmp_path, peak=peak)
    assert hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest() == digest


@pytest.mark.parametrize("peak", [0.0, -1.0, np.nan, np.inf, 1e300, 1e-320])
def test_pgm_peak_without_a_finite_positive_square_rejected(tmp_path, peak):
    cube = HyperCube(4, 5, 3, RAMP / 50.0)
    with pytest.raises(ValueError, match="peak must be positive with a finite positive square"):
        fileio.export_pgm_slices(cube, tmp_path / "slices", peak=peak)
    assert not (tmp_path / "slices").exists()


def test_no_temp_files_left_behind(tmp_path):
    cube = phantom_cube(4, 4, 2, "gaussian-blobs", seed=1)
    fileio.write_cube(tmp_path / "x.hsc", cube)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize(
    "umask, mode", [(0o077, 0o600), (0o022, 0o644), (0o002, 0o664)], ids=["077", "022", "002"]
)
def test_written_files_take_the_umask_at_the_write(tmp_path, umask, mode):
    # the umask is set after import, as a process that tightens it late does
    cube = phantom_cube(4, 4, 2, "gaussian-blobs", seed=1)
    old = os.umask(umask)
    try:
        fileio.write_cube(tmp_path / "x.hsc", cube)
    finally:
        os.umask(old)
    assert (tmp_path / "x.hsc").stat().st_mode & 0o777 == mode


@pytest.mark.parametrize(
    "target, reason",
    [
        ("directory", "Is a directory"),
        ("missing-parent", "No such file or directory"),
        ("name-too-long", "File name too long"),
    ],
    ids=["directory", "missing-parent", "name-too-long"],
)
def test_check_writable_meets_what_atomic_write_meets(tmp_path, target, reason):
    if target == "directory":
        path = tmp_path / "d"
        path.mkdir()
    elif target == "missing-parent":
        path = tmp_path / "nodir" / "x.hsc"
    else:
        if not hasattr(os, "pathconf"):
            pytest.skip("NAME_MAX comes from os.pathconf")
        # a legal name whose temp name is too long
        path = tmp_path / ("t" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv")
    before = sorted(tmp_path.rglob("*"))
    errors = []
    for attempt in (fileio.check_writable, lambda p: fileio.atomic_write(p, b"x")):
        with pytest.raises(OSError) as exc:
            attempt(path)
        errors.append(str(exc.value))
        assert sorted(tmp_path.rglob("*")) == before
    assert errors == [f"cannot write {path}: {reason}"] * 2


def test_check_writable_leaves_no_file(tmp_path):
    fileio.check_writable(tmp_path / "x.hsc")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_concurrent_writers(tmp_path):
    path = tmp_path / "shared.bin"
    payloads = [bytes([1]) * 100_000, bytes([2]) * 150_000]
    fileio.atomic_write(path, payloads[0])
    errors = []

    def writer(data):
        try:
            for _ in range(50):
                fileio.atomic_write(path, data)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    reads = []
    while any(t.is_alive() for t in threads):
        reads.append(path.read_bytes())
    for t in threads:
        t.join()
    reads.append(path.read_bytes())
    assert not errors
    assert all(r in payloads for r in reads)
    assert list(tmp_path.glob("*.tmp")) == []

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


def test_no_temp_files_left_behind(tmp_path):
    cube = phantom_cube(4, 4, 2, "gaussian-blobs", seed=1)
    fileio.write_cube(tmp_path / "x.hsc", cube)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


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

import math

import numpy as np
import pytest

from cassirecon import fileio
from cassirecon.cubes import (
    CHUNK_BYTES,
    DispersionWeights,
    HyperCube,
    MeasurementSet,
    band_chunks,
    cube_view,
    fits_float32,
    measurement_shape,
    row_chunks,
)
from cassirecon.errors import DimensionError


def test_vectorize_degenerate():
    cube = HyperCube.from_array(np.full((1, 1, 1), 7.0))
    assert list(cube.values) == [7.0]


def test_vectorize_2x1x2_order():
    # band 0 column (a, b), band 1 column (c, d)
    arr = np.empty((2, 1, 2))
    arr[:, 0, 0] = [1.0, 2.0]
    arr[:, 0, 1] = [3.0, 4.0]
    cube = HyperCube.from_array(arr)
    assert list(cube.values) == [1.0, 2.0, 3.0, 4.0]


def test_devectorize_2x1x2():
    cube = HyperCube(2, 1, 2, [1.0, 2.0, 3.0, 4.0])
    arr = cube.as_array()
    assert list(arr[:, 0, 0]) == [1.0, 2.0]
    assert list(arr[:, 0, 1]) == [3.0, 4.0]


def test_devectorize_length_mismatch():
    with pytest.raises(DimensionError):
        HyperCube(1, 1, 1, [])


def test_round_trips_random_dims():
    rng = np.random.default_rng(42)
    for _ in range(20):
        M, N, L = rng.integers(1, 9, size=3)
        v = rng.standard_normal(M * N * L)
        cube = HyperCube(M, N, L, v)
        assert np.array_equal(cube.values, v)
        again = HyperCube.from_array(cube.as_array())
        assert np.array_equal(again.values, cube.values)


def test_flat_index_round_trip():
    # the module docstring's formulas: voxel (i, j, l) at i + M*j + M*N*l,
    # detector sample (i, j', k) at i + M*j' + M*(N+L+1)*k
    M, N, L, K = 3, 5, 4, 2
    cube = cube_view(np.arange(M * N * L), (M, N, L), "voxels")
    i, j, l = np.indices((M, N, L))
    assert np.array_equal(cube, i + M * j + M * N * l)
    assert np.array_equal(HyperCube.from_array(cube).values, np.arange(M * N * L))

    shape = measurement_shape(M, N, L, K)
    assert shape == (M, N + L + 1, K)
    frames = cube_view(np.arange(math.prod(shape)), shape, "samples")
    i, jp, k = np.indices(shape)
    assert np.array_equal(frames, i + M * jp + M * (N + L + 1) * k)


def test_flat_index_is_fortran_order():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((4, 3, 2))
    cube = HyperCube.from_array(arr)
    for _ in range(10):
        i, j, l = rng.integers(0, (4, 3, 2))
        assert cube.values[i + 4 * j + 4 * 3 * l] == arr[i, j, l]
    assert np.array_equal(cube_view(cube.values, (4, 3, 2), "voxels"), arr)


def test_cube_invariants():
    with pytest.raises(DimensionError):
        HyperCube(0, 1, 1, [])
    with pytest.raises(DimensionError):
        HyperCube(2, 2, 1, [1.0, 2.0])
    with pytest.raises(ValueError):
        HyperCube(1, 1, 2, [1.0, np.nan])


def test_cube_values_are_immutable():
    cube = HyperCube(1, 1, 2, [1.0, 2.0])
    with pytest.raises(ValueError):
        cube.values[0] = 9.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("weights", (1.0, 1.0, 1.0)),
        ("weights", (np.nan, 0.5, 0.5)),
        ("sigma_noise", np.nan),
        ("sigma_noise", np.inf),
        ("sigma_noise", -0.1),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 2.5),
    ],
)
def test_measurement_set_checks_every_header_field(field, value):
    # each field the HSM1 header stores is checked, so write -> read always works
    with pytest.raises(ValueError, match="weights" if field == "weights" else field):
        MeasurementSet(1, 2, 2, 1, np.zeros(8), **{field: value})


def test_measurement_set_keeps_the_floats_it_checks(tmp_path):
    # the checks read the weights as floats, and those floats are what the
    # file stores; a NumPy integer is a seed
    weights = ("0.25", "0.5", "0.25")
    assert DispersionWeights(*weights).as_tuple() == (0.25, 0.5, 0.25)
    ms = MeasurementSet(1, 2, 2, 1, np.zeros(8), weights=weights, seed=np.uint64(2**64 - 1))
    path = tmp_path / "m.hsm"
    fileio.write_measurements(path, ms)
    back = fileio.read_measurements(path)
    assert back.weights == (0.25, 0.5, 0.25)
    assert all(type(w) is float for w in ms.weights + back.weights)
    assert back.seed == 2**64 - 1


def test_measurement_set_length_checked():
    # K=1, M=2, N=2, L=1 -> m = 2*(2+1+1) = 8
    MeasurementSet(1, 2, 2, 1, np.zeros(8))
    with pytest.raises(DimensionError):
        MeasurementSet(1, 2, 2, 1, np.zeros(7))
    with pytest.raises(ValueError):
        MeasurementSet(1, 2, 2, 1, np.full(8, np.inf))


@pytest.mark.parametrize(
    "rows, cols, bands", [(32, 32, 16), (64, 512, 10), (256, 256, 24), (1024, 256, 3), (3, 5, 7)]
)
def test_band_chunks_tile_the_bands_within_the_budget(rows, cols, bands):
    chunks = band_chunks(rows, cols, bands)
    assert chunks[0][0] == 0 and chunks[-1][1] == bands
    assert all(a < b for a, b in chunks)
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(chunks, chunks[1:]))
    widths = [b - a for a, b in chunks]
    assert all(w == widths[0] for w in widths[:-1]) and widths[-1] <= widths[0]
    # at least one band; more only while the chunk fits the budget
    band_bytes = rows * cols * 8
    assert widths[0] == 1 or widths[0] * band_bytes <= CHUNK_BYTES
    assert len(chunks) == 1 or (widths[0] + 1) * band_bytes > CHUNK_BYTES


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fits_float32_at_the_rounding_edge(sign):
    # 2^128 - 2^103 is the midpoint between float32's largest value and 2^128,
    # so the cast rounds it to inf; its float64 predecessor rounds down
    edge = sign * (2.0**128 - 2.0**103)
    assert not fits_float32(edge)
    assert fits_float32(np.nextafter(edge, 0.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fits_float32_rejects_nan_and_inf(value):
    assert not fits_float32([0.0, value])


def test_fits_float32_reads_every_row_chunk():
    v = np.zeros(2 * CHUNK_BYTES // 8 + 5)
    assert len(row_chunks(v)) == 3
    assert fits_float32(v)
    v[-1] = 1e39
    assert not fits_float32(v)

import numpy as np
import pytest

from cassirecon.cubes import (
    HyperCube,
    MeasurementSet,
    measurement_flat_index,
    voxel_flat_index,
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
    # visited row fastest, then column, then band/shot, the indices count up
    M, N, L, K = 3, 5, 4, 2
    voxels = [
        voxel_flat_index(i, j, l, M, N)
        for l in range(L) for j in range(N) for i in range(M)
    ]
    assert voxels == list(range(M * N * L))

    width = N + L + 1
    samples = [
        measurement_flat_index(i, jp, k, M, N, L)
        for k in range(K) for jp in range(width) for i in range(M)
    ]
    assert samples == list(range(K * M * width))


def test_flat_index_is_fortran_order():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((4, 3, 2))
    cube = HyperCube.from_array(arr)
    for _ in range(10):
        i, j, l = rng.integers(0, (4, 3, 2))
        assert cube.values[voxel_flat_index(i, j, l, 4, 3)] == arr[i, j, l]


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
    ],
)
def test_measurement_set_checks_every_header_field(field, value):
    # each field the HSM1 header stores is checked, so write -> read always works
    with pytest.raises(ValueError, match="weights" if field == "weights" else field):
        MeasurementSet(1, 2, 2, 1, np.zeros(8), **{field: value})


def test_measurement_set_length_checked():
    # K=1, M=2, N=2, L=1 -> m = 2*(2+1+1) = 8
    MeasurementSet(1, 2, 2, 1, np.zeros(8))
    with pytest.raises(DimensionError):
        MeasurementSet(1, 2, 2, 1, np.zeros(7))
    with pytest.raises(ValueError):
        MeasurementSet(1, 2, 2, 1, np.full(8, np.inf))

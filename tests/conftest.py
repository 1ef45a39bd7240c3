import tracemalloc

import pytest

from cassirecon.cubes import CHUNK_BYTES, band_chunks


@pytest.fixture
def traced_peak():
    """Peak bytes ``call()`` holds under ``tracemalloc`` above what was held at its start.

    Warm-up calls, which fill first-use caches, stay in the tests.
    """

    def peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def multi_chunk_shape():
    """(M, N, L) whose bands form three chunks, the last one shorter.

    Derived from the chunk budget: a band is a quarter of it, so a chunk
    holds four bands and ten bands split 4 + 4 + 2.
    """
    M = 64
    N = CHUNK_BYTES // (4 * 8 * M)
    L = 10
    assert band_chunks(M, N, L) == [(0, 4), (4, 8), (8, 10)]
    return M, N, L

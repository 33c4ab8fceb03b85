import pytest

import lir


@pytest.fixture
def openblas_threads():
    """(get, set) for numpy's OpenBLAS thread count, restored after the test."""
    controls = lir.linalg._openblas_threads()
    if controls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count setter")
    get_threads, set_threads = controls
    original = get_threads()
    yield get_threads, set_threads
    set_threads(original)

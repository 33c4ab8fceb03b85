import pytest

import lir

# OpenBLAS accepts more threads than cores, so two cores suffice to reach 8.
THREAD_COUNTS = (1, 2, 4, 8)


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


@pytest.fixture
def across_threads(openblas_threads):
    """run(fn) -> {threads: fn()} at each of THREAD_COUNTS OpenBLAS threads in
    turn. Each call must leave the count it was given, and the caller's count
    is restored when run returns. At most 8 BLAS threads start."""
    get_threads, set_threads = openblas_threads

    def run(fn):
        original = get_threads()
        outputs = {}
        try:
            for threads in THREAD_COUNTS:
                set_threads(threads)
                outputs[threads] = fn()
                assert get_threads() == threads, f"the call changed the thread count from {threads}"
        finally:
            set_threads(original)
        return outputs

    return run

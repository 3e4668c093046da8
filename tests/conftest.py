import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)`` calls ``fn(*args)`` under tracemalloc and returns
    its result and the peak of the memory traced meanwhile, in bytes."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak

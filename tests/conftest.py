import tracemalloc
from pathlib import Path

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


def pytest_terminal_summary(terminalreporter):
    """Print the package's line count, as ``wc -l src/latentaxes/*.py``
    counts it, after every run."""
    src = Path(__file__).resolve().parent.parent / "src" / "latentaxes"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    terminalreporter.write_line(f"src/latentaxes/*.py: {lines} lines")

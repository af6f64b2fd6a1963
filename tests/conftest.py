"""Test the package in src/ without installing it.

src/ goes first on sys.path for this process and first on PYTHONPATH for the
subprocesses the CLI tests start, so a plain `python -m pytest` from a fresh
checkout tests the working tree.  The ``traced_peak`` fixture measures
allocation peaks for the memory tests.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def traced_peak():
    """peak(f) -> (f(), bytes): f's tracemalloc peak above what was allocated
    before it ran."""

    def peak(f):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = f()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return peak

"""Test the package in src/ without installing it.

src/ goes first on sys.path for this process and first on PYTHONPATH for the
subprocesses the CLI tests start, so a plain `python -m pytest` from a fresh
checkout tests the working tree.  The ``traced_peak`` fixture measures
allocation peaks for the memory tests, and ``every_kind`` holds one coloring
of each kind.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from sumset_ramsey import (
    ExplicitColoring,
    PeriodicColoring,
    SeededRandomColoring,
    case2_coloring,
    geometric_3coloring,
    parse_poly,
    power_2coloring,
    recursive_log_coloring,
    triple_2coloring,
)


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


@pytest.fixture(scope="module")
def every_kind():
    N2 = parse_poly("n^2")
    return [
        power_2coloring(1, 2),
        geometric_3coloring(1, 2),
        triple_2coloring(1, 2, 3),
        case2_coloring(N2, parse_poly("n^2 + n")),
        recursive_log_coloring(N2, parse_poly("n^3"), a0=15, window_n=10**4),
        PeriodicColoring([1, 1, 2]),
        SeededRandomColoring(seed=5, palette=3),
        ExplicitColoring([2, 1, 2, 2]),
    ]

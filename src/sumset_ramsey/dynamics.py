"""Finite-window shift dynamics: return sets, gap statistics, dichotomy scans.

A coloring restricted to [1, N] is read through its ``ColorWindow``. The
operations here measure how often two arithmetic subsamples of the same window
agree (return sets), how evenly such agreement times are spread (max_gap,
density_profile), and whether two windows separate along the paired
progressions d + a(b-a)k / d + b(b-a)k (dichotomy_detect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coloring import WINDOW_CAP_ENV, ColorWindow, Coloring, window_cap
from .errors import BadPair, DomainError, WindowOverrun

__all__ = [
    "ReturnSet",
    "word_from_coloring",
    "return_set",
    "max_gap",
    "dichotomy_detect",
    "density_profile",
]


@dataclass(frozen=True)
class ReturnSet:
    """Agreement times {n <= M : x(h+an) = x(h+bn)} of one window with itself."""

    a: int
    b: int
    h: int
    M: int
    elements: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "h": self.h,
            "M": self.M,
            "count": len(self.elements),
            "max_gap": max_gap(self.elements, self.M),
            "elements": list(self.elements),
        }


def word_from_coloring(c: Coloring, n: int) -> ColorWindow:
    return c.window(n)


def return_set(x: ColorWindow, a: int, b: int, h: int, M: int) -> ReturnSet:
    """Times n <= M at which the a-subsample and b-subsample of x agree.

    Requires h + b*M <= x.n so every queried position exists.
    """
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    if M < 1:
        raise DomainError(f"horizon must be positive, got {M}")
    if h < 0:
        raise DomainError(f"shift must be nonnegative, got {h}")
    if h + b * M > x.n:
        raise WindowOverrun(
            f"window of length {x.n} does not cover h + b*M = {h + b * M}"
        )
    ns = np.arange(1, M + 1, dtype=np.int64)
    sym = x.colors
    hit = sym[h + a * ns] == sym[h + b * ns]
    elems = tuple(int(v) for v in ns[hit])
    return ReturnSet(a=a, b=b, h=h, M=M, elements=elems)


def max_gap(S: Iterable[int], M: int) -> int:
    """Largest spacing of S inside [1, M], with sentinels at 0 and M+1."""
    pts = sorted({int(s) for s in S})
    seq = [0] + pts + [M + 1]
    return max(q - p for p, q in zip(seq, seq[1:]))


def dichotomy_detect(y: ColorWindow, z: ColorWindow, a: int, b: int, D: int, K: int) -> int | None:
    """Smallest d <= D where y and z differ yet each is K-fold periodic along
    its own progression: y(d) = y(d + a(b-a)k) and z(d) = z(d + b(b-a)k) for
    all 1 <= k <= K. Returns None when no such d exists.
    """
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    if D < 1:
        raise DomainError(f"scan bound must be positive, got {D}")
    if K < 0:
        raise DomainError(f"repetition count must be nonnegative, got {K}")
    step_y = a * (b - a)
    step_z = b * (b - a)
    # Each window only needs to cover the positions it is actually asked for.
    if D + step_y * K > y.n:
        raise WindowOverrun(
            f"first window of length {y.n} does not cover D + a(b-a)K = {D + step_y * K}"
        )
    if D + step_z * K > z.n:
        raise WindowOverrun(
            f"second window of length {z.n} does not cover D + b(b-a)K = {D + step_z * K}"
        )
    sy, sz = y.colors, z.colors
    ds = np.arange(1, D + 1, dtype=np.int64)
    ok = sy[ds] != sz[ds]
    for k in range(1, K + 1):
        if not ok.any():
            return None
        ok &= sy[ds + step_y * k] == sy[ds]
        ok &= sz[ds + step_z * k] == sz[ds]
    hits = np.flatnonzero(ok)
    return int(ds[hits[0]]) if hits.size else None


def density_profile(
    S: Iterable[int], M: int, window_sizes: Sequence[int]
) -> list[tuple[int, float]]:
    """Per window size W, the maximum of |S ∩ (t, t+W]| / W over 0 <= t <= M-W."""
    cap = window_cap()
    if M > cap:
        raise DomainError(f"horizon {M} exceeds cap {cap}; raise {WINDOW_CAP_ENV} to allow it")
    sizes = [int(w) for w in window_sizes]
    for w in sizes:
        if not 1 <= w <= M:
            raise DomainError(f"window size {w} outside [1, {M}]")
    ind = np.zeros(M + 1, dtype=np.int64)
    for s in S:
        s = int(s)
        if 1 <= s <= M:
            ind[s] = 1
    csum = np.cumsum(ind)
    out = []
    for w in sizes:
        counts = csum[w:] - csum[: M + 1 - w]
        out.append((w, float(counts.max()) / w))
    return out

"""Finite-window shift dynamics: return sets, gap statistics, dichotomy scans.

A coloring restricted to [1, N] is treated as a word over its palette. The
operations here measure how often two arithmetic subsamples of the same word
agree (return sets), how evenly such agreement times are spread (max_gap,
density_profile), and whether two words separate along the paired
progressions d + a(b-a)k / d + b(b-a)k (dichotomy_detect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .coloring import Coloring, ExplicitColoring, read_runlength, write_runlength
from .errors import BadPair, BadParams, DomainError, WindowOverrun

__all__ = [
    "Word",
    "ReturnSet",
    "word_from_coloring",
    "read_word",
    "write_word",
    "return_set",
    "max_gap",
    "dichotomy_detect",
    "density_profile",
]


@dataclass(frozen=True)
class Word:
    """Symbols 1..palette on positions 1..n; slot 0 of the array is padding."""

    symbols: np.ndarray
    palette: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.symbols, dtype=np.uint8)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise BadParams("word needs at least one position")
        if self.palette < 1:
            raise BadParams(f"palette must be positive, got {self.palette}")
        body = arr[1:]
        if int(body.min()) < 1 or int(body.max()) > self.palette:
            raise BadParams(f"symbols must lie in 1..{self.palette}")
        object.__setattr__(self, "symbols", arr)

    @classmethod
    def from_symbols(cls, values: Sequence[int], palette: int | None = None) -> "Word":
        vals = [int(v) for v in values]
        if not vals:
            raise BadParams("word needs at least one symbol")
        pal = int(palette) if palette is not None else max(2, max(vals))
        arr = np.empty(len(vals) + 1, dtype=np.uint8)
        arr[0] = 0
        arr[1:] = vals
        return cls(arr, pal)

    @property
    def n(self) -> int:
        return self.symbols.shape[0] - 1

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise WindowOverrun(f"index {i} outside word of length {self.n}")
        return int(self.symbols[i])

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class ReturnSet:
    """Agreement times {n <= M : x(h+an) = x(h+bn)} of one word with itself."""

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


def word_from_coloring(c: Coloring, n: int) -> Word:
    w = c.window(n)
    return Word(w.colors, w.palette)


def read_word(stream: IO[str]) -> Word:
    col = read_runlength(stream)
    return word_from_coloring(col, int(col.values.shape[0]))


def write_word(x: Word, stream: IO[str]) -> None:
    col = ExplicitColoring([int(v) for v in x.symbols[1:]], palette=x.palette)
    write_runlength(col, x.n, stream)


def return_set(x: Word, a: int, b: int, h: int, M: int) -> ReturnSet:
    """Times n <= M at which the a-subsample and b-subsample of x agree.

    Requires h + b*M <= len(x) so every queried position exists.
    """
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    if M < 1:
        raise DomainError(f"horizon must be positive, got {M}")
    if h < 0:
        raise DomainError(f"shift must be nonnegative, got {h}")
    if h + b * M > x.n:
        raise WindowOverrun(
            f"word of length {x.n} does not cover h + b*M = {h + b * M}"
        )
    ns = np.arange(1, M + 1, dtype=np.int64)
    sym = x.symbols
    hit = sym[h + a * ns] == sym[h + b * ns]
    elems = tuple(int(v) for v in ns[hit])
    return ReturnSet(a=a, b=b, h=h, M=M, elements=elems)


def max_gap(S: Iterable[int], M: int) -> int:
    """Largest spacing of S inside [1, M], with sentinels at 0 and M+1."""
    pts = sorted({int(s) for s in S})
    seq = [0] + pts + [M + 1]
    return max(q - p for p, q in zip(seq, seq[1:]))


def dichotomy_detect(y: Word, z: Word, a: int, b: int, D: int, K: int) -> int | None:
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
    # Each word only needs to cover the positions it is actually asked for.
    if D + step_y * K > y.n:
        raise WindowOverrun(
            f"first word of length {y.n} does not cover D + a(b-a)K = {D + step_y * K}"
        )
    if D + step_z * K > z.n:
        raise WindowOverrun(
            f"second word of length {z.n} does not cover D + b(b-a)K = {D + step_z * K}"
        )
    sy, sz = y.symbols, z.symbols
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

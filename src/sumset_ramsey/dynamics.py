"""Shift dynamics: return sets, gap statistics, dichotomy scans.

A return set {n <= M : x(h+an) = x(h+bn)} holds the C-values that put
{h} + aC and {h} + bC in one color: the union over the colors of
``search.bad_set`` under the polynomials a·n and b·n.  max_gap and
density_profile measure how evenly a set is spread in [1, M], and
dichotomy_detect whether two windows separate along the paired progressions
d + a(b-a)k / d + b(b-a)k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._deps import np
from .coloring import ColorWindow, Coloring, check_cap
from .errors import BadPair, DomainError, WindowOverrun
from .poly import IntPolynomial, int_array, int_value
from .search import bad_set

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
    """Agreement times {n <= M : x(h+an) = x(h+bn)} of one coloring with itself."""

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


def return_set(coloring: Coloring, a: int, b: int, h: int, M: int) -> ReturnSet:
    """Times n <= M at which positions h + an and h + bn agree; h + b*M is held to the cap."""
    a, b, h, M = map(int_value, (a, b, h, M))
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    if h < 0:
        raise DomainError(f"shift must be nonnegative, got {h}")
    check_cap(h + b * M, "h + b*M =")
    polys = (IntPolynomial((0, a)), IntPolynomial((0, b)))
    # the colors' sets are disjoint, so sorting their union drops nothing
    parts = [bad_set(coloring, h, polys, color, M)[0] for color in range(1, coloring.palette + 1)]
    return ReturnSet(a=a, b=b, h=h, M=M, elements=tuple(np.sort(np.concatenate(parts)).tolist()))


def _members(S: Iterable[int], M: int) -> np.ndarray:
    """The distinct members of S in [1, M], sorted, in ``int_array``'s dtype."""
    s = int_array(S if isinstance(S, np.ndarray) else list(S))
    s = np.sort(s[(s >= 1) & (s <= M)])
    return s[np.append(True, s[1:] != s[:-1])] if s.size else s


def max_gap(S: Iterable[int], M: int) -> int:
    """Largest spacing of S inside [1, M], with sentinels at 0 and M+1."""
    M = int_value(M)
    ends = int_array([0, M + 1])
    return int(np.diff(np.concatenate((ends[:1], _members(S, M), ends[1:]))).max())


def dichotomy_detect(y: ColorWindow, z: ColorWindow, a: int, b: int, D: int, K: int) -> int | None:
    """Smallest d <= D where y and z differ yet each is K-fold periodic along
    its own progression: y(d) = y(d + a(b-a)k) and z(d) = z(d + b(b-a)k) for
    all 1 <= k <= K. Returns None when no such d exists.
    """
    a, b, D, K = map(int_value, (a, b, D, K))
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


def density_profile(S: Iterable[int], M: int, window_sizes: Sequence[int]) -> list[tuple[int, float]]:
    """Per window size W, the maximum of |S ∩ (t, t+W]| / W over 0 <= t <= M-W.

    A densest window can be taken to end at a member s of S, or to start at 0
    when s < W; so each W is one ``searchsorted`` over the sorted members.
    """
    M = int_value(M)
    sizes = int_array(list(window_sizes)).tolist()
    for w in sizes:
        if not 1 <= w <= M:
            raise DomainError(f"window size {w} outside [1, {M}]")
    pts = _members(S, M)
    out = []
    for w in sizes:
        # a w past the largest member counts the same, and keeps pts - w in int64
        low = pts - min(w, int(pts[-1])) if pts.size else pts
        counts = np.arange(1, pts.size + 1) - np.searchsorted(pts, low, side="right")
        out.append((w, int(counts.max(initial=0)) / w))
    return out

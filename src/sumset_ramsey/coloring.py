"""Colorings of the positive integers and their windowed materializations.

Every coloring is a total map from {1, 2, ...} onto a palette {1, ..., k}.
Three families are built in:

* geometric band colorings: ``band_coloring(l, points)`` gives color i + 1
  from ceil(points[i] * l^m) for every m >= 1 and color 1 below l, and
  ``power2``, ``geo3`` and ``triple`` are its (l, points) choices,
* band colorings for equal-degree, equal-lead polynomial pairs (the three
  part shapes from the band-offset split),
* a recursive logarithmic-width coloring for pairs whose growth map expands
  (built from a base level a0 and the iterates a_{n+1} = psi(a_n)).

Each of them is a ``BreakpointColoring``: its color is constant between
consecutive integer breakpoints, which a generator yields in order, or, for
the band-offset colorings, closed forms give for any value range.  So are
explicit streams and run-length files, whose generator stops after their last
run.  The periodic and seeded random kinds color position by position.

Positions of any size are answered exactly.  ``colors_at`` reads them
through ``poly.int_array``, the one rule for integers handed to the array
layer (int64 when every value fits, Python ints in an object array
otherwise, as ``poly._fits_int64`` rules for polynomial values), and each
kind answers both dtypes in its own array kernel.  ``color`` is the scalar
oracle on a path of its own.

All membership decisions at integers are exact: rational boundaries are
ceilings by integer floor division of numerator and denominator, polynomial
boundaries are exact integers, and the recursive construction's real levels
are held in high-precision floats wide enough that integer rounding is stable.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from ._deps import mpmath, np
from .errors import (
    BadPair,
    BadParams,
    DomainError,
    EmptyPattern,
    InadmissibleA0,
    NoAdmissibleA0,
    ParseError,
    WindowTooSmall,
)
from .poly import (
    GrowthCase,
    I64_MAX,
    IntPolynomial,
    a_star,
    affine_ladder,
    band_offset,
    BandPart,
    first_at_least,
    format_poly,
    increasing_from,
    int_array,
    int_value,
    psi_eval,
    psi_prime,
    psi_profile,
    rational_value,
    values,
)

DEFAULT_WINDOW_CAP = 10_000_000
WINDOW_CAP_ENV = "SUMSET_RAMSEY_NMAX"
# colors are stored as uint8
MAX_PALETTE = 255
# positions per pass of the per-position paths (window, bad_set's per-m walk):
# a chunk's int64 temporaries take 512 KB and stay in cache
POSITION_CHUNK = 1 << 16


def window_cap() -> int:
    """Largest window the materializers will build; env override wins."""
    raw = os.environ.get(WINDOW_CAP_ENV)
    if raw is None:
        return DEFAULT_WINDOW_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{WINDOW_CAP_ENV} must be an integer, got {raw!r}")


def _check_palette(palette: int) -> int:
    if palette > MAX_PALETTE:
        raise BadParams(f"palette {palette} exceeds {MAX_PALETTE}")
    return palette


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class ColorWindow:
    """Colors of [1, N] as an array plus one bit-vector per palette color.

    ``mask(i)`` is a Python int whose bit n (1-indexed) is set exactly when
    color(n) == i; the k masks partition [1, N].  ``colors[n]`` is the color
    of n; slot 0 is unused and held at 0.  A uint8 array whose slot 0 is
    already 0, as ``Coloring.window`` builds it, is kept without a copy.
    """

    def __init__(self, colors: np.ndarray, palette: int):
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.ndim != 1 or colors.shape[0] < 2:
            raise DomainError("window needs at least one colored position")
        self.n = colors.shape[0] - 1
        self.palette = palette
        if colors[0]:
            colors = colors.copy()
            colors[0] = 0
        body = colors[1:]
        if body.min() < 1 or body.max() > palette:
            raise DomainError("window colors must lie in 1..palette")
        self.colors = colors
        self._masks: dict[int, int] = {}

    def mask(self, color: int) -> int:
        if color < 1 or color > self.palette:
            raise DomainError(f"color {color} outside palette 1..{self.palette}")
        m = self._masks.get(color)
        if m is None:
            bits = np.packbits(self.colors == color, bitorder="little")
            m = int.from_bytes(bits.tobytes(), "little")
            self._masks[color] = m
        return m

    def counts(self) -> list[int]:
        return [int(np.count_nonzero(self.colors[1:] == i + 1)) for i in range(self.palette)]


# ---------------------------------------------------------------------------
# coloring base
# ---------------------------------------------------------------------------

class Coloring:
    """Total coloring of the positive integers with palette {1..k}."""

    palette: int
    descriptor: str

    def color(self, n: int) -> int:
        """Color of position n: the scalar oracle, computed on its own path."""
        raise NotImplementedError

    def colors_at(self, zs) -> np.ndarray:
        """Colors of the positions zs as a uint8 array, equal to color() at each.

        zs holds integers >= 1 of any size: a list, or an int64, uint64 or
        object ndarray.  Every kind answers all of them in its own array
        kernel, never through color().  Non-integers and positions below 1
        raise DomainError, as color() does.
        """
        raise NotImplementedError

    def window(self, n: int) -> ColorWindow:
        cap = window_cap()
        if n < 1:
            raise WindowTooSmall(f"window must cover at least [1,1], got {n}")
        if n > cap:
            raise DomainError(
                f"window {n} exceeds cap {cap}; raise {WINDOW_CAP_ENV} to allow it"
            )
        colors = np.zeros(n + 1, dtype=np.uint8)
        for lo in range(1, n + 1, POSITION_CHUNK):
            hi = min(n, lo + POSITION_CHUNK - 1)
            colors[lo : hi + 1] = self.colors_at(np.arange(lo, hi + 1, dtype=np.int64))
        return ColorWindow(colors, self.palette)

    def runs(self, n: int) -> Iterator[tuple[int, int]]:
        """Run-length pairs (color, length) covering [1, n] in order."""
        colors = self.window(n).colors[1:]
        edges = np.nonzero(np.diff(colors))[0] + 1
        starts = np.concatenate(([0], edges))
        ends = np.concatenate((edges, [len(colors)]))
        for s, e in zip(starts, ends):
            yield int(colors[s]), int(e - s)


def _position(n) -> int:
    """n as a Python int position, or DomainError: the check of every color()."""
    n = int_value(n)
    if n < 1:
        raise DomainError(f"positions start at 1, got {n}")
    return n


def _positions(zs) -> np.ndarray:
    """zs by ``int_array``, rejecting positions below 1 as color() does."""
    zs = int_array(zs)
    if zs.size and zs.min() < 1:
        raise DomainError("positions start at 1")
    return zs


# ---------------------------------------------------------------------------
# breakpoint colorings: color is constant between consecutive integer breakpoints
# ---------------------------------------------------------------------------

Block = tuple[Sequence[int], Sequence[int]]


class BreakpointColoring(Coloring):
    """Coloring given by an unbounded increasing sequence of integer breakpoints.

    ``gen`` yields blocks (breakpoints, colors): two sequences of one length,
    the breakpoints an int64 ndarray, an object ndarray of Python ints, or a
    short list, non-decreasing within and across blocks.  Color colors[i]
    holds from breakpoint i up to the next one; positions below the first
    breakpoint get color 1.  Equal breakpoints collapse into one, which
    takes the color of the last of them, so a run equal to the last stored
    breakpoint recolors that breakpoint's segment.  A generator that stops
    leaves its last color for good.

    The breakpoints are stored once: an int64 array up to 2^63 - 1, then a
    list of the Python ints past it.  ``color``, ``colors_at`` and
    ``segments`` read them through ``_segments``, the runs of one value
    range; a subclass that computes those in closed form stores none.
    """

    def __init__(self, palette: int, gen: Iterator[Block], descriptor: str):
        self.palette = palette
        self.descriptor = descriptor
        self._gen = gen
        # _table[i] is the color from breakpoint i - 1 up to breakpoint i,
        # _table[0] = 1; breakpoint i is _bp64[i] or _tail[i - len(_bp64)]
        self._table = np.array([1], dtype=np.uint8)
        self._bp64 = np.zeros(0, dtype=np.int64)
        self._tail: list[int] = []
        # the largest breakpoint taken, math.inf once the generator stops
        self._last: int | float | None = None

    def _over_cap(self, cap: int) -> DomainError:
        return DomainError(
            f"{self.descriptor} needs more than {cap} breakpoints; "
            f"raise {WINDOW_CAP_ENV} to allow it"
        )

    def _extend(self, z: int) -> None:
        """Take blocks from the generator until a breakpoint passes z; more
        than ``window_cap()`` breakpoints in all raise DomainError."""
        last = self._last
        if last is not None and last > z:
            return
        cap = window_cap()
        held = self._table.shape[0] - 1
        bps_blocks: list[np.ndarray] = []
        col_blocks: list[np.ndarray] = []
        for bps, cols in self._gen:
            if len(bps):
                bps = int_array(bps)
                bps_blocks.append(bps)
                col_blocks.append(np.asarray(cols, dtype=np.uint8))
                held += len(bps)
                last = int(bps[-1])
                if last > z or held > cap:
                    break
        else:
            last = math.inf
        if bps_blocks:
            bps, cols = np.concatenate(bps_blocks), np.concatenate(col_blocks)
            if bool((bps[1:] < bps[:-1]).any()) or (self._last is not None and int(bps[0]) < self._last):
                raise DomainError("breakpoint generator went backwards")
            keep = np.append(bps[1:] != bps[:-1], True)
            bps, cols = bps[keep], cols[keep]
            if self._last is not None and int(bps[0]) == self._last:
                self._table[-1] = cols[0]
                bps, cols = bps[1:], cols[1:]
            fit = bps.shape[0] if bps.dtype == np.int64 else int(np.count_nonzero(bps <= I64_MAX))
            self._bp64 = np.concatenate((self._bp64, bps[:fit].astype(np.int64)))
            self._tail.extend(bps[fit:].tolist())
            self._table = np.concatenate((self._table, cols))
        self._last = last
        if held > cap:
            raise self._over_cap(cap)

    def _rank(self, z: int) -> int:
        """Number of breakpoints <= z."""
        if z <= I64_MAX:
            return int(np.searchsorted(self._bp64, z, side="right"))
        return self._bp64.shape[0] + bisect_right(self._tail, z)

    def _segments(self, a: int, hi: int, most: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """``segments(a, hi)`` for 1 <= a <= hi: a, then each breakpoint in
        (a, hi], with the color from each on.

        A kind that can color positions without their breakpoints returns
        None when more than `most` breakpoints lie in the range, and
        colors_at then asks its ``_invert``; stored breakpoints are always
        returned.
        """
        self._extend(hi)
        i = self._rank(a)
        j = i if hi == a else self._rank(hi)
        if hi <= I64_MAX:
            starts = np.concatenate((np.array([a], dtype=np.int64), self._bp64[i:j]))
        else:
            n64 = self._bp64.shape[0]
            wide = self._tail[max(i - n64, 0) : max(j - n64, 0)]
            starts = np.array([a] + self._bp64[i:j].tolist() + wide, dtype=object)
        return starts, self._table[i : j + 1]

    def color(self, n: int) -> int:
        n = _position(n)
        return int(self._segments(n, n)[1][0])

    def colors_at(self, zs) -> np.ndarray:
        zs = _positions(zs)
        if not zs.size:
            return np.zeros(0, dtype=np.uint8)
        runs = self._segments(int(zs.min()), int(zs.max()), zs.shape[0])
        if runs is None:
            return self._invert(zs)
        # starts and zs are both int64, or both hold Python ints past it
        starts, colors = runs
        return colors[np.searchsorted(starts[1:], zs, side="right")]

    def segments(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Color runs of the values lo..hi as (starts, colors), starts[0] == lo.

        Run i covers [starts[i], starts[i+1]) inside [lo, hi] and has color
        colors[i]; values below 1 have no color and get 0.  The starts are
        int64 when lo and hi fit in int64 and Python ints otherwise.
        """
        if lo > hi:
            raise DomainError(f"empty value range [{lo}, {hi}]")
        if lo >= 1:
            return self._segments(lo, hi)
        head = np.array([lo], dtype=np.int64 if lo >= -I64_MAX else object)
        if hi < 1:
            return head, np.zeros(1, dtype=np.uint8)
        starts, colors = self._segments(1, hi)
        return np.concatenate((head, starts)), np.concatenate((np.zeros(1, dtype=np.uint8), colors))

    def runs(self, n: int) -> Iterator[tuple[int, int]]:
        """Run-length pairs (color, length) covering [1, n], from the breakpoints."""
        starts, colors = self.segments(1, n)
        new = np.append(True, colors[1:] != colors[:-1])
        bounds = starts[new].tolist() + [n + 1]
        for i, color in enumerate(colors[new].tolist()):
            yield color, bounds[i + 1] - bounds[i]


def band_coloring(l: Fraction, points: Sequence[Fraction], descriptor: str) -> BreakpointColoring:
    """Geometric bands of ratio l: for each m >= 1, color i + 1 from
    ceil(points[i] * l^m), where 1 = points[0] < points[1] < ... < l; below
    l -> 1.  l^m = num/den goes from block to block by one exact multiply,
    and each ceiling is one integer floor division."""
    fracs = [Fraction(p) for p in points]

    def gen() -> Iterator[Block]:
        num, den = l.numerator, l.denominator
        while True:
            yield [-(-p.numerator * num // (p.denominator * den)) for p in fracs], range(1, len(fracs) + 1)
            num, den = num * l.numerator, den * l.denominator

    return BreakpointColoring(len(points), gen(), descriptor)


def power_2coloring(a: int, b: int) -> BreakpointColoring:
    """2-coloring by geometric bands of ratio q = b/a: [q^{2m}, q^{2m+1}) -> 1,
    [q^{2m+1}, q^{2m+2}) -> 2 for m >= 1, everything below q^2 -> 1."""
    a, b = int_value(a), int_value(b)
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    q = Fraction(b, a)
    return band_coloring(q * q, (1, q), f"power2:{a},{b}")


def geometric_3coloring(
    a: int,
    b: int,
    l: Fraction | None = None,
    x: Fraction | None = None,
    y: Fraction | None = None,
) -> BreakpointColoring:
    """3-coloring with bands [l^m, y l^m) -> 1, [y l^m, x l^m) -> 2,
    [x l^m, l^{m+1}) -> 3 for m >= 1; below l -> 1.

    Parameter ranges: l in [b^2/a^2, b^3/a^3), x in (l a/b, b^2/a^2),
    y in (x a/b, sqrt(x)); defaults are rational midpoints, with y nudged
    down until y^2 < x holds exactly.  The ranges give 1 < y < x < l.
    """
    a, b = int_value(a), int_value(b)
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    q = Fraction(b, a)
    if l is None:
        l = (q**2 + q**3) / 2
    else:
        l = rational_value(l)
    if not (q**2 <= l < q**3):
        raise BadParams(f"l must lie in [b^2/a^2, b^3/a^3), got {l}")
    if x is None:
        x = (l / q + q**2) / 2
    else:
        x = rational_value(x)
    if not (l / q < x < q**2):
        raise BadParams(f"x must lie in (l*a/b, b^2/a^2), got {x}")
    lo = x / q
    if y is None:
        # rational just below sqrt(x): 12-digit truncation, bisected into range
        approx = Fraction(math.isqrt(x.numerator * 10**24 // x.denominator), 10**12)
        y = (lo + (approx if approx > lo else x)) / 2
        while y * y >= x:
            y = (lo + y) / 2
    else:
        y = rational_value(y)
    if not (lo < y and y * y < x):
        raise BadParams(f"y must lie in (x*a/b, sqrt(x)), got {y}")
    desc = f"geo3:{a},{b},l={_frac_str(l)},x={_frac_str(x)},y={_frac_str(y)}"
    return band_coloring(l, (1, y, x), desc)


def triple_2coloring(
    a: int,
    b: int,
    c: int,
    x: Fraction | None = None,
    l: Fraction | None = None,
) -> BreakpointColoring:
    """2-coloring for shift triples: bands [l^m, x l^m) -> 1, [x l^m, l^{m+1}) -> 2
    for m >= 1; below l -> 1.  y = max(c/b, b/a), x in (y, c/a), l in (x y, x c/a)."""
    a, b, c = int_value(a), int_value(b), int_value(c)
    if not (0 < a < b < c):
        raise BadPair(f"need 0 < a < b < c, got ({a}, {b}, {c})")
    y = max(Fraction(c, b), Fraction(b, a))
    ca = Fraction(c, a)
    if x is None:
        x = (y + ca) / 2
    else:
        x = rational_value(x)
    if not (y < x < ca):
        raise BadParams(f"x must lie in (max(c/b, b/a), c/a), got {x}")
    if l is None:
        l = (x * y + x * ca) / 2
    else:
        l = rational_value(l)
    if not (x * y < l < x * ca):
        raise BadParams(f"l must lie in (x*y, x*c/a), got {l}")
    desc = f"triple:{a},{b},{c},x={_frac_str(x)},l={_frac_str(l)}"
    return band_coloring(l, (1, x), desc)


class Case2Coloring(BreakpointColoring):
    """2-coloring adapted to an equal-degree, equal-lead pair via its band offset.

    ``band_offset`` proves that P and Q increase from n0 on and that
    P(n+l-1) <= Q(n) < P(n+l) there, so every breakpoint is a value of a
    polynomial ladder in k >= 0:

    * PartI: L(k) = P(n0+l-1+k) starts color 2 and U(k) = Q(n0+k) color 1,
      with L(k) <= U(k) < L(k+1); where L(k) = U(k) the pair collapses to 1;
    * PartII: R(k) = Q(n0+kl), and PartIII: R(k) = P(n0+k(l-1)); R(k) starts
      color 1 for even k and 2 for odd k.

    Everything below the first breakpoint has color 1.  No breakpoint is
    stored: ``first_at_least`` finds the k-range of a value range, and one
    ``values`` call per ladder evaluates exactly that range.
    """

    def __init__(self, P: IntPolynomial, Q: IntPolynomial):
        off = band_offset(P, Q)
        n0, l = off.n0, off.l
        self.palette = 2
        self.descriptor = f"case2:P={format_poly(P)},Q={format_poly(Q)}"
        # (ladder, constant) pairs: L and U for PartI, R otherwise
        if off.part is BandPart.PART_I:
            self._ladders = (affine_ladder(P, n0 + l - 1, 1), affine_ladder(Q, n0, 1))
        elif off.part is BandPart.PART_II:
            self._ladders = (affine_ladder(Q, n0, l),)
        else:
            self._ladders = (affine_ladder(P, n0, l - 1),)

    def _segments(self, a: int, hi: int, most: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        (R, c), *upper = self._ladders
        # ladder values at or below a and hi: the least k with c + R(k) > z
        ka, kh = first_at_least(R, c - 1, [a, hi], 0).tolist()
        if upper:
            # U(k) <= L(k + 1): U's count at z is L's or one less, and the
            # last breakpoint at or below a is L's (color 2) when it is less
            U, cu = upper[0]
            ua = ka - (ka > 0 and cu + U(ka - 1) > a)
            uh = kh - (kh > 0 and cu + U(kh - 1) > hi)
            count, below = kh - ka + uh - ua, 2 if ka > ua else 1
        else:
            count, below = kh - ka, (1 + (ka - 1) % 2 if ka else 1)
        cap = window_cap()
        if most is not None and count > min(most, cap):
            return None
        if count > cap:
            raise self._over_cap(cap)
        dtype = np.int64 if hi <= I64_MAX else object
        if not count:
            return np.array([a], dtype=dtype), np.array([below], dtype=np.uint8)
        if upper:
            # a slot, then L(k), U(k) for k in [ua, kh); a takes the slot
            # before the first breakpoint past it (L(ua) when that is at or
            # below a), and the runs end at U(kh - 1) unless it is past hi
            ks = _k_range(ua, kh)
            lower, upper_v = values(R, ks, c), values(U, ks, cu)
            starts = np.empty(2 * ks.shape[0] + 1, dtype=np.result_type(lower, upper_v))
            starts[1::2], starts[2::2] = lower, upper_v
            colors = np.tile(np.array([1, 2], dtype=np.uint8), ks.shape[0] + 1)[:-1]
            first, stop = ka - ua, 2 * (kh - ua) - (kh - uh) + 1
            starts[first], colors[first] = a, below
            starts, colors = starts[first:stop], colors[first:stop]
            same = lower == upper_v
            if same.any():
                # an L(k) equal to U(k) gives way to it
                keep = np.ones(2 * ks.shape[0] + 1, dtype=bool)
                keep[1::2] = ~same
                starts, colors = starts[keep[first:stop]], colors[keep[first:stop]]
        else:
            vals = values(R, _k_range(ka, kh), c)
            starts = np.empty(count + 1, dtype=vals.dtype)
            starts[0], starts[1:] = a, vals
            # the color of R(k) is 1 for even k: slot i holds R(ka - 1 + i)'s
            colors = np.tile(np.array([2, 1] if ka % 2 == 0 else [1, 2], dtype=np.uint8), count // 2 + 1)[: count + 1]
            colors[0] = below
        return starts.astype(dtype, copy=False), colors

    def _invert(self, zs: np.ndarray) -> np.ndarray:
        """colors_at for positions too few for their breakpoints: each z is
        inverted on the ladders."""
        (R, c), *upper = self._ladders
        k = first_at_least(R, c - 1, zs, 0)
        if not upper:
            return np.where(k == 0, 1, 1 + (k - 1) % 2).astype(np.uint8)
        # the last breakpoint at or below z is L(k - 1), of color 2, unless
        # U(k - 1) is too
        U, cu = upper[0]
        return np.where((k > 0) & (values(U, np.maximum(k - 1, 0), cu) > zs), 2, 1).astype(np.uint8)


def _k_range(k0: int, k1: int) -> np.ndarray:
    """The ladder indices k0 .. k1 - 1: int64, or Python ints past it."""
    if k1 <= I64_MAX:
        return np.arange(k0, k1, dtype=np.int64)
    return np.arange(k1 - k0, dtype=np.int64).astype(object) + k0


def case2_coloring(P: IntPolynomial, Q: IntPolynomial) -> Case2Coloring:
    """The equal-degree, equal-lead pair's band coloring; see ``Case2Coloring``."""
    return Case2Coloring(P, Q)


# ---------------------------------------------------------------------------
# custom colorings: explicit, periodic, seeded random
# ---------------------------------------------------------------------------

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _U64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _U64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _U64
    return x ^ (x >> 31)


class SeededRandomColoring(Coloring):
    """Deterministic pseudo-random coloring: a 64-bit mix of (seed, n)."""

    def __init__(self, seed: int, palette: int):
        self.seed, palette = int_value(seed), int_value(palette)
        if palette < 2:
            raise BadParams(f"palette must be at least 2, got {palette}")
        self.palette = _check_palette(palette)
        self.descriptor = f"random:seed={self.seed},k={self.palette}"
        self._base = (self.seed * _SM_GAMMA) & _U64

    def color(self, n: int) -> int:
        return _mix64(self._base + _position(n)) % self.palette + 1

    def colors_at(self, zs) -> np.ndarray:
        zs = _positions(zs)
        # the mix works mod 2^64
        x = (zs if zs.dtype == np.int64 else zs % (1 << 64)).astype(np.uint64) + np.uint64(self._base)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_MUL1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_MUL2)
        x = x ^ (x >> np.uint64(31))
        return (x % np.uint64(self.palette) + np.uint64(1)).astype(np.uint8)


class PeriodicColoring(Coloring):
    """Coloring repeating a finite pattern, position 1 = first entry."""

    def __init__(self, pattern: Sequence[int]):
        pat = [int_value(p) for p in pattern]
        if not pat:
            raise EmptyPattern("periodic pattern is empty")
        if min(pat) < 1:
            raise BadParams("pattern colors start at 1")
        self.pattern = tuple(pat)
        self.palette = _check_palette(max(2, max(pat)))
        self._arr = np.array(pat, dtype=np.uint8)
        self.descriptor = "periodic:" + ("".join(str(p) for p in pat) if max(pat) <= 9 else "-".join(str(p) for p in pat))

    def color(self, n: int) -> int:
        return self.pattern[(_position(n) - 1) % len(self.pattern)]

    def colors_at(self, zs) -> np.ndarray:
        zs = _positions(zs)
        return self._arr[((zs - 1) % len(self.pattern)).astype(np.int64, copy=False)]


def _run_blocks(starts: Sequence[int], colors: Sequence[int], end: int) -> Iterator[Block]:
    """A finite stream as one block: run i from starts[i] on has colors[i],
    and color 1 holds from end on."""
    yield int_array([*starts, end]), [*colors, 1]


class ExplicitColoring(BreakpointColoring):
    """Coloring from an explicit finite stream; positions beyond it get color 1."""

    def __init__(self, values: Sequence[int], palette: int | None = None):
        vals = [int_value(v) for v in values]
        if not vals:
            raise EmptyPattern("explicit color stream is empty")
        if min(vals) < 1:
            raise BadParams("colors start at 1")
        palette = _check_palette(int_value(palette) if palette is not None else max(2, max(vals)))
        if max(vals) > palette:
            raise BadParams("stream color exceeds palette")
        arr = np.array(vals, dtype=np.uint8)
        starts = np.flatnonzero(np.append(True, arr[1:] != arr[:-1]))
        desc = "explicit:" + ("".join(map(str, vals)) if max(vals) <= 9 else "-".join(map(str, vals)))
        super().__init__(palette, _run_blocks(starts + 1, arr[starts], len(vals) + 1), desc)

    # kept in the class dict: perfbench's span table names this method
    colors_at = BreakpointColoring.colors_at


# ---------------------------------------------------------------------------
# run-length file format
# ---------------------------------------------------------------------------

def write_runlength(coloring: Coloring, n: int, stream: TextIO) -> None:
    """Serialize colors of [1, n]: header lines then one "color length" per run."""
    stream.write(f"palette {coloring.palette}\n")
    stream.write("start 1\n")
    for color, length in coloring.runs(n):
        stream.write(f"{color} {length}\n")


def _int_tok(tok: str, text: str, pos: int | None = None) -> int:
    """An integer token of textual input, or ParseError."""
    try:
        return int(tok.strip())
    except ValueError:
        raise ParseError(f"expected integer, got {tok.strip()!r}", text, pos) from None


def read_runlength(stream: TextIO, descriptor: str = "file@<stream>") -> BreakpointColoring:
    """Parse the run-length format into a coloring; color 1 holds past its runs."""
    lines = [ln.strip() for ln in stream if ln.strip()]
    if len(lines) < 3:
        raise ParseError("run-length input needs a header and at least one run")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "palette":
        raise ParseError(f"expected 'palette k', got {lines[0]!r}")
    palette = _check_palette(_int_tok(head[1], lines[0]))
    if lines[1].split() != ["start", "1"]:
        raise ParseError(f"expected 'start 1', got {lines[1]!r}")
    colors: list[int] = []
    starts = [1]
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'color length', got {ln!r}")
        color, length = _int_tok(parts[0], ln), _int_tok(parts[1], ln)
        if not (1 <= color <= palette):
            raise ParseError(f"run color {color} outside palette 1..{palette}")
        if length < 1:
            raise ParseError(f"run length must be positive, got {length}")
        colors.append(color)
        starts.append(starts[-1] + length)
    return BreakpointColoring(palette, _run_blocks(starts[:-1], colors, starts[-1]), descriptor)


# ---------------------------------------------------------------------------
# recursive logarithmic-width coloring
# ---------------------------------------------------------------------------

# grid points per range in the admissibility checks
ADMISSIBLE_GRID = 100
# largest base level recursive_log_coloring tries when none is given
A0_SCAN_LIMIT = 1_000_000


@dataclass(frozen=True)
class AdmissibleParams:
    """Constants certified by the base-level admissibility check."""

    a0: int
    lam0: float
    eps0: float
    u: float


def _f_ln(x) -> mpmath.mpf:
    return mpmath.ln(x)


def _floor_strict(x: mpmath.mpf) -> int:
    fl = int(mpmath.floor(x))
    return fl - 1 if fl == x else fl


def _ceil_mpf(x: mpmath.mpf) -> int:
    return int(mpmath.ceil(x))


def check_admissible(P: IntPolynomial, Q: IntPolynomial, a0: int) -> AdmissibleParams:
    """Run the base-level admissibility checks; raise InadmissibleA0 on failure.

    Checks (the three properties of a usable base level):
    * unique representation r + Q(s) with small r across the relevant range,
    * the expansion inequality psi(t + f(t) - h) - psi(t) > f(psi(t)) - h on a
      grid of t with the full h-range (the difference is decreasing in h, so
      the supremum h dominates),
    * slope/width constants: lam0 with psi' > lam0^2 beyond f(a0), eps0, u,
      and the jump bound psi(a0 - f(a0)) - a0 - f(psi(a0)) >= u * f(a0).
    """
    a0 = int_value(a0)
    prof = psi_profile(P, Q)
    if prof.case is not GrowthCase.CASE_I:
        raise DomainError("recursive coloring requires an expanding growth profile")
    if Q.degree < 2:
        raise InadmissibleA0("unique-representation check requires deg Q > 1")
    if a0 < 4:
        raise InadmissibleA0(f"a0 = {a0} is too small")
    floor_dom = P(a_star(P, Q))
    with mpmath.workprec(max(192, a0.bit_length() + 128)):
        f_a0 = _f_ln(a0)
        # numeric domain: every psi argument used below must exceed P(a*)
        if not (mpmath.mpf(a0) / 2 > floor_dom and f_a0 > floor_dom and a0 - f_a0 > floor_dom):
            raise InadmissibleA0(f"a0 = {a0}: checks leave psi's domain (P(a*) = {floor_dom})")
        delta = mpmath.mpf(prof.delta.numerator) / prof.delta.denominator
        cval = mpmath.mpf(prof.c.numerator) / prof.c.denominator

        # slope constant lam0 from the minimum of psi' over (f(a0), 4 a0]
        lam_lo = None
        t0, t1 = f_a0 * (1 + mpmath.mpf("1e-9")), mpmath.mpf(4 * a0)
        for i in range(ADMISSIBLE_GRID):
            t = t0 + (t1 - t0) * i / (ADMISSIBLE_GRID - 1)
            dp = psi_prime(P, Q, t)
            lam_lo = dp if lam_lo is None else min(lam_lo, dp)
        lam0 = mpmath.sqrt(lam_lo)
        if not lam0 > delta:
            raise InadmissibleA0(f"a0 = {a0}: slope constant {lam0} does not exceed delta {delta}")
        eps0 = (lam0 - delta) / 2
        lam_eff = lam0 - eps0
        if not lam_eff > 1:
            raise InadmissibleA0(f"a0 = {a0}: lam0 - eps0 = {lam_eff} must exceed 1")
        u = (lam_eff * (lam_eff - 1)) / (2 * lam0 * eps0 - eps0 * eps0)

        # width growth: f(psi(t)) < (lam0 - eps0) f(t) for t > a0/2; the
        # expansion inequality below reuses the grid's (t, f(t), psi(t), f(psi(t)))
        ta, tb = mpmath.mpf(a0) / 2, mpmath.mpf(4 * a0)
        points = []
        for i in range(ADMISSIBLE_GRID):
            t = ta + (tb - ta) * i / (ADMISSIBLE_GRID - 1)
            ft, psi_t = _f_ln(t), psi_eval(P, Q, t)
            f_psi_t = _f_ln(psi_t)
            if not f_psi_t < lam_eff * ft:
                raise InadmissibleA0(f"a0 = {a0}: width growth fails at t = {t}")
            points.append((t, ft, psi_t, f_psi_t))

        # jump bound
        lhs = psi_eval(P, Q, a0 - f_a0)
        if not lhs - a0 - _f_ln(psi_eval(P, Q, a0)) >= u * f_a0:
            raise InadmissibleA0(f"a0 = {a0}: jump bound fails")

        # expansion inequality over the h-range
        if prof.delta > 1:
            h_cap = lambda ft: ft / 2
        else:
            h_cap = lambda ft: (2 * cval - 2) / (3 * cval) * ft
        for t, ft, psi_t, f_psi_t in points:
            for h in (mpmath.mpf(0), h_cap(ft) / 2, h_cap(ft)):
                if not psi_eval(P, Q, t + ft - h) - psi_t > f_psi_t - h:
                    raise InadmissibleA0(f"a0 = {a0}: expansion inequality fails at t = {t}")

        # unique representation of r + Q(s) across [a0/2, psi(4 a0)]
        hi = psi_eval(P, Q, mpmath.mpf(4 * a0))
        width = _floor_strict(_f_ln(hi))
        lo_v = _ceil_mpf(mpmath.mpf(a0) / 2)
        hi_v = _ceil_mpf(hi)
        jq = increasing_from(Q)
        seen: dict[int, tuple[int, int]] = {}
        s = 0
        while True:
            qs = Q(s)
            if qs > hi_v and s >= jq:
                break
            for r in range(0, max(0, width) + 1):
                v = r + qs
                if lo_v <= v <= hi_v:
                    if v in seen and seen[v] != (r, s):
                        raise InadmissibleA0(
                            f"a0 = {a0}: ambiguous representation {v} = {seen[v]} and {(r, s)}"
                        )
                    seen[v] = (r, s)
            s += 1
        return AdmissibleParams(a0=a0, lam0=float(lam0), eps0=float(eps0), u=float(u))


def find_admissible_a0(P: IntPolynomial, Q: IntPolynomial, scan_limit: int) -> int:
    """Smallest base level a0 <= scan_limit passing the admissibility checks."""
    return _first_admissible(P, Q, scan_limit).a0


def _first_admissible(P: IntPolynomial, Q: IntPolynomial, scan_limit: int) -> AdmissibleParams:
    """The certified constants of the smallest admissible a0 <= scan_limit."""
    scan_limit = int_value(scan_limit)
    prof = psi_profile(P, Q)
    if prof.case is not GrowthCase.CASE_I:
        raise DomainError("recursive coloring requires an expanding growth profile")
    if Q.degree < 2:
        raise InadmissibleA0("unique-representation check requires deg Q > 1")
    for a0 in range(4, scan_limit + 1):
        try:
            return check_admissible(P, Q, a0)
        except InadmissibleA0:
            continue
    raise NoAdmissibleA0(f"no admissible base level up to {scan_limit}")


class RecursiveLogColoring(BreakpointColoring):
    """2-coloring built from levels a_{n+1} = psi(a_n) and log-width sets A_n.

    A_0 is the first block [a_0, a_0 + f(a_0)); A_{n+1} is its own first block
    plus w - P(j) + Q(j) for each member w of A_n and each j >= 0 with
    0 <= w - P(j) < f(a_n).  The sets are finite and small, so they are built
    from their members, one level at a time as the ladder grows.

    Band [a_m, a_{m+1}) gets the parity color of m (2 for even m, 1 for odd);
    a member of A_{m+1} that dips into band m, at or above the bound c_{m+1},
    takes the parity color of m + 1; positions below a_0 get color 1.  The
    band edges and the dip members are the breakpoints.  ``window_n`` only
    decides what ``levels`` lists: A_0 .. A_{top+1} cut to [1, window_n],
    where band top holds window_n.
    """

    def __init__(self, P: IntPolynomial, Q: IntPolynomial, a0: int, window_n: int,
                 params: AdmissibleParams):
        if window_n < a0:
            raise WindowTooSmall(f"window {window_n} is below a0 = {a0}")
        self.P, self.Q, self.a0 = P, Q, a0
        self.window_n = window_n
        self.params = params
        # level data, all mpf snapshots taken at generous precision
        self._a: list[mpmath.mpf] = []      # band edges a_n
        self._blo: list[int] = []           # ceil(a_n)
        self._bhi: list[int] = []           # floor_strict(a_n + f(a_n)) (first block end)
        self._c: list[mpmath.mpf] = []      # lower bounds for inf A_n
        self._clo: list[int] = []           # ceil of those
        self._members: list[list[int]] = []  # A_n, sorted
        with mpmath.workprec(256):
            a = mpmath.mpf(a0)
            self._push_level(a, a)
        super().__init__(
            2, self._breakpoints(),
            f"recursive:P={format_poly(P)},Q={format_poly(Q)},a0={a0},window={window_n}",
        )
        self._extend(window_n)
        top = bisect_right(self._blo, window_n) - 1
        self.levels = [[z for z in A if z <= window_n] for A in self._members[: top + 2]]
        for lo_set, hi_set in zip(self.levels[1:], self.levels[:-1]):
            if lo_set and hi_set:
                if min(lo_set) <= max(hi_set):
                    raise DomainError("level sets must be separated")

    # kept in the class dict: perfbench's span table names this method
    colors_at = BreakpointColoring.colors_at

    # -- level ladder -------------------------------------------------------

    def _push_level(self, a: mpmath.mpf, c: mpmath.mpf) -> None:
        self._a.append(a)
        self._blo.append(_ceil_mpf(a))
        self._bhi.append(_floor_strict(a + _f_ln(a)))
        self._c.append(c)
        # slack of 2 below the proven lower bound absorbs rounding of c
        self._clo.append(max(1, _ceil_mpf(c) - 2))
        members = set(range(max(1, self._blo[-1]), self._bhi[-1] + 1))
        if len(self._a) >= 2:
            # level sets may dip below their band edge but never into the band
            # two levels down, and the dip bounds must stay ordered
            if self._clo[-1] <= self._blo[-2]:
                raise DomainError("level lower bound fell too far")
            if self._clo[-1] < self._clo[-2]:
                raise DomainError("level lower bounds not monotone")
            # each w takes the j >= 0 with w - width <= P(j) <= w: those below
            # P's increasing branch are checked directly, the rest come from
            # inverting P at the two ends for every w at once
            P, Q, jp = self.P, self.Q, increasing_from(self.P)
            width = _floor_strict(_f_ln(self._a[-2]))
            ws = self._members[-1]
            j0 = first_at_least(P, 0, [w - width for w in ws], jp).tolist()
            j1 = first_at_least(P, 0, [w + 1 for w in ws], jp).tolist()
            for w, lo, hi in zip(ws, j0, j1):
                for j in (*range(jp), *range(lo, hi)):
                    pj = P(j)
                    z = w - pj + Q(j)
                    if w - width <= pj <= w and z >= 1:
                        members.add(z)
        self._members.append(sorted(members))

    def _next_level(self) -> None:
        prec = max(256, int(mpmath.ceil(mpmath.log(self._a[-1], 2))) * 4 + 128)
        with mpmath.workprec(prec):
            a_prev = self._a[-1]
            f_prev = _f_ln(a_prev)
            a_next = psi_eval(self.P, self.Q, a_prev)
            c_next = min(a_next, psi_eval(self.P, self.Q, self._c[-1] - f_prev) + f_prev)
            self._push_level(+a_next, +c_next)

    def _breakpoints(self) -> Iterator[Block]:
        """One block per level m: the flips where A_m dips into band m - 1,
        then the band edge a_m; the ladder grows one level per block."""
        m = 0
        while True:
            if len(self._a) == m:
                self._next_level()
            parity, below = (2, 1) if m % 2 == 0 else (1, 2)
            bps: list[int] = []
            cols: list[int] = []
            if m:
                A = self._members[m]
                lo = bisect_left(A, max(self._blo[m - 1], self._clo[m]))
                for z in A[lo : bisect_left(A, self._blo[m])]:
                    bps += (z, z + 1)
                    cols += (parity, below)
            yield bps + [self._blo[m]], cols + [parity]
            m += 1

    def in_level_set(self, z: int, level: int) -> bool:
        """Exact membership of z in A_level (not restricted to the window)."""
        z, level = int_value(z), int_value(level)
        if z < 1 or level < 0:
            return False
        # the ladder then reaches past z, and the sets above it start past z
        self._extend(z)
        if level >= len(self._members):
            return False
        A = self._members[level]
        i = bisect_left(A, z)
        return i < len(A) and A[i] == z


def recursive_log_coloring(
    P: IntPolynomial,
    Q: IntPolynomial,
    a0: int | None = None,
    window_n: int = DEFAULT_WINDOW_CAP,
) -> RecursiveLogColoring:
    """Build the recursive coloring; find the base level up to A0_SCAN_LIMIT when
    none is given."""
    window_n = int_value(window_n)
    params = _first_admissible(P, Q, A0_SCAN_LIMIT) if a0 is None else check_admissible(P, Q, a0)
    return RecursiveLogColoring(P, Q, params.a0, window_n, params)

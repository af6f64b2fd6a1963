"""Colorings of the positive integers and their windowed materializations.

Every coloring is a total map from {1, 2, ...} onto a palette {1, ..., k}.
Three families are built in:

* interval colorings driven by exact rational band boundaries (2- and
  3-palette geometric bands),
* band colorings for equal-degree, equal-lead polynomial pairs (the three
  part shapes from the band-offset split),
* a recursive logarithmic-width coloring for pairs whose growth map expands
  (built from a base level a0 and the iterates a_{n+1} = psi(a_n)).

Each of them is a ``BreakpointColoring``: its color is constant between
consecutive integer breakpoints, which a generator yields in order.  The
custom kinds (explicit, periodic, seeded random) color position by position.

All membership decisions at integers are exact: rational boundaries are
compared via integer cross-multiplication (ceil of a Fraction), polynomial
boundaries are exact integers, and the recursive construction's real levels
are held in high-precision floats wide enough that integer rounding is stable.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import mpmath
import numpy as np

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
    IntPolynomial,
    _positive_from,
    _shift,
    _sub,
    a_star,
    band_offset,
    BandPart,
    format_poly,
    psi_eval,
    psi_prime,
    psi_profile,
)

DEFAULT_WINDOW_CAP = 10_000_000
WINDOW_CAP_ENV = "SUMSET_RAMSEY_NMAX"
_I64_MAX = int(np.iinfo(np.int64).max)


def window_cap() -> int:
    """Largest window the materializers will build; env override wins."""
    raw = os.environ.get(WINDOW_CAP_ENV)
    if raw is None:
        return DEFAULT_WINDOW_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{WINDOW_CAP_ENV} must be an integer, got {raw!r}")


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class ColorWindow:
    """Colors of [1, N] as an array plus one bit-vector per palette color.

    ``mask(i)`` is a Python int whose bit n (1-indexed) is set exactly when
    color(n) == i; the k masks partition [1, N].
    """

    def __init__(self, colors: np.ndarray, palette: int):
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.ndim != 1 or colors.shape[0] < 2:
            raise DomainError("window needs at least one colored position")
        self.n = colors.shape[0] - 1
        self.palette = palette
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
        raise NotImplementedError

    def colors_at(self, zs) -> np.ndarray:
        """Vector of colors; exact, default implementation loops the oracle."""
        zs = np.asarray(zs)
        out = np.empty(zs.shape[0], dtype=np.uint8)
        for i, z in enumerate(zs.tolist()):
            out[i] = self.color(int(z))
        return out

    def window(self, n: int) -> ColorWindow:
        cap = window_cap()
        if n < 1:
            raise WindowTooSmall(f"window must cover at least [1,1], got {n}")
        if n > cap:
            raise DomainError(
                f"window {n} exceeds cap {cap}; raise {WINDOW_CAP_ENV} to allow it"
            )
        colors = np.zeros(n + 1, dtype=np.uint8)
        chunk = 1 << 20
        for lo in range(1, n + 1, chunk):
            hi = min(n, lo + chunk - 1)
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


def _positions(zs) -> np.ndarray:
    """zs as an array, rejecting positions below 1 as color() does."""
    zs = np.asarray(zs)
    if zs.size and zs.min() < 1:
        raise DomainError("positions start at 1")
    return zs


def window(coloring: Coloring, n: int) -> ColorWindow:
    return coloring.window(n)


# ---------------------------------------------------------------------------
# breakpoint colorings: color is constant between consecutive integer breakpoints
# ---------------------------------------------------------------------------

class BreakpointColoring(Coloring):
    """Coloring given by an unbounded increasing sequence of integer breakpoints.

    ``gen`` yields (breakpoint, color) with non-decreasing breakpoints; color
    holds on [bp_i, bp_{i+1}).  Positions below the first breakpoint get
    ``below``.  Zero-width segments (equal consecutive breakpoints) collapse.
    """

    def __init__(self, palette: int, below: int, gen: Iterator[tuple[int, int]], descriptor: str):
        self.palette = palette
        self.descriptor = descriptor
        self._gen = gen
        self._bps: list[int] = []
        # _table[i] is the color on [bp_{i-1}, bp_i), _table[0] = below; _bp64
        # holds the first _n64 breakpoints, those that fit in int64.  Both grow
        # with _extend, their capacity by doubling.
        self._table = np.full(64, below, dtype=np.uint8)
        self._bp64 = np.zeros(64, dtype=np.int64)
        self._n64 = 0

    def _extend(self, z: int) -> None:
        last = self._bps[-1] if self._bps else None
        if last is not None and last > z:
            return
        bps: list[int] = []
        cols: list[int] = []
        while last is None or last <= z:
            bp, col = next(self._gen)
            bp = int(bp)
            if last is not None and bp < last:  # pragma: no cover
                raise DomainError("breakpoint generator went backwards")
            if bp != last:
                bps.append(bp)
                cols.append(col)
                last = bp
            elif cols:
                cols[-1] = col
            else:
                self._table[len(self._bps)] = col
        k0 = len(self._bps)
        self._bps.extend(bps)
        k = len(self._bps)
        if k >= self._table.shape[0]:
            table = np.zeros(2 * k, dtype=np.uint8)
            table[: k0 + 1] = self._table[: k0 + 1]
            bp64 = np.zeros(2 * k, dtype=np.int64)
            bp64[: self._n64] = self._bp64[: self._n64]
            self._table, self._bp64 = table, bp64
        self._table[k0 + 1 : k + 1] = cols
        fit = bisect_right(bps, _I64_MAX)
        self._bp64[self._n64 : self._n64 + fit] = bps[:fit]
        self._n64 += fit

    def color(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"positions start at 1, got {n}")
        self._extend(n)
        return int(self._table[bisect_right(self._bps, n)])

    def colors_at(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.int64)
        if zs.size == 0:
            return np.zeros(0, dtype=np.uint8)
        if int(zs.min()) < 1:
            raise DomainError("positions start at 1")
        self._extend(int(zs.max()))
        # every int64 z lies below the breakpoints past the int64 prefix
        return self._table[np.searchsorted(self._bp64[: self._n64], zs, side="right")]

    def segments(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Color runs of the values lo..hi as (starts, colors), starts[0] == lo.

        Run i covers [starts[i], starts[i+1]) inside [lo, hi] and has color
        colors[i]; values below 1 have no color and get 0.  The starts are
        int64 when lo and hi fit in int64 and Python ints otherwise.
        """
        if lo > hi:
            raise DomainError(f"empty value range [{lo}, {hi}]")
        starts = [lo] if lo < 1 else []
        colors = np.zeros(len(starts), dtype=np.uint8)
        i = j = 0
        if hi >= 1:
            a = max(lo, 1)
            self._extend(hi)
            i, j = bisect_right(self._bps, a), bisect_right(self._bps, hi)
            starts.append(a)
            colors = np.concatenate((colors, self._table[i : j + 1]))
        if -_I64_MAX <= lo and hi <= _I64_MAX:
            return np.concatenate((np.array(starts, dtype=np.int64), self._bp64[i:j])), colors
        return np.array(starts + self._bps[i:j], dtype=object), colors


def _interval_gen(points: Callable[[int], Iterable[tuple[Fraction, int]]]) -> Iterator[tuple[int, int]]:
    m = 1
    while True:
        for bound, col in points(m):
            yield _ceil_frac(bound), col
        m += 1


def power_2coloring(a: int, b: int) -> BreakpointColoring:
    """2-coloring by geometric bands of ratio b/a: [q^{2m}, q^{2m+1}) -> 1,
    [q^{2m+1}, q^{2m+2}) -> 2 for m >= 1, everything below q^2 -> 1."""
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    q = Fraction(b, a)

    def points(m: int):
        return [(q ** (2 * m), 1), (q ** (2 * m + 1), 2)]

    return BreakpointColoring(2, 1, _interval_gen(points), f"power2:{a},{b}")


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
    down until y^2 < x holds exactly.
    """
    if not (0 < a < b):
        raise BadPair(f"need 0 < a < b, got ({a}, {b})")
    q = Fraction(b, a)
    if l is None:
        l = (q**2 + q**3) / 2
    else:
        l = Fraction(l)
    if not (q**2 <= l < q**3):
        raise BadParams(f"l must lie in [b^2/a^2, b^3/a^3), got {l}")
    if x is None:
        x = (l / q + q**2) / 2
    else:
        x = Fraction(x)
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
        y = Fraction(y)
    if not (lo < y and y * y < x):
        raise BadParams(f"y must lie in (x*a/b, sqrt(x)), got {y}")
    if not (1 < y < x < l):
        raise DomainError(f"geo3 band points must satisfy 1 < y < x < l, got {y}, {x}, {l}")

    def points(m: int):
        lm = l**m
        return [(lm, 1), (y * lm, 2), (x * lm, 3)]

    desc = f"geo3:{a},{b},l={_frac_str(l)},x={_frac_str(x)},y={_frac_str(y)}"
    return BreakpointColoring(3, 1, _interval_gen(points), desc)


def triple_2coloring(
    a: int,
    b: int,
    c: int,
    x: Fraction | None = None,
    l: Fraction | None = None,
) -> BreakpointColoring:
    """2-coloring for shift triples: bands [l^m, x l^m) -> 1, [x l^m, l^{m+1}) -> 2
    for m >= 1; below l -> 1.  y = max(c/b, b/a), x in (y, c/a), l in (x y, x c/a)."""
    if not (0 < a < b < c):
        raise BadPair(f"need 0 < a < b < c, got ({a}, {b}, {c})")
    y = max(Fraction(c, b), Fraction(b, a))
    ca = Fraction(c, a)
    if x is None:
        x = (y + ca) / 2
    else:
        x = Fraction(x)
    if not (y < x < ca):
        raise BadParams(f"x must lie in (max(c/b, b/a), c/a), got {x}")
    if l is None:
        l = (x * y + x * ca) / 2
    else:
        l = Fraction(l)
    if not (x * y < l < x * ca):
        raise BadParams(f"l must lie in (x*y, x*c/a), got {l}")

    def points(m: int):
        lm = l**m
        return [(lm, 1), (x * lm, 2)]

    desc = f"triple:{a},{b},{c},x={_frac_str(x)},l={_frac_str(l)}"
    return BreakpointColoring(2, 1, _interval_gen(points), desc)


def case2_coloring(P: IntPolynomial, Q: IntPolynomial) -> BreakpointColoring:
    """2-coloring adapted to an equal-degree, equal-lead pair via its band offset.

    PartI colors [P(n0+l-1), Q(n0)) with 2 and the rest with 1; PartII blocks
    [Q(N0+kl), Q(N0+(k+1)l)) and PartIII blocks [P(N0+k(l-1)), P(N0+(k+1)(l-1)))
    alternate 1, 2 starting at color 1 (k = 0).  Everything below starts at 1.
    """
    off = band_offset(P, Q)
    n0, l = off.n0, off.l

    if off.part is BandPart.PART_I:
        def gen() -> Iterator[tuple[int, int]]:
            m = n0
            while True:
                yield P(m + l - 1), 2
                yield Q(m), 1
                m += 1
    elif off.part is BandPart.PART_II:
        def gen() -> Iterator[tuple[int, int]]:
            k = 0
            while True:
                yield Q(n0 + k * l), 1 if k % 2 == 0 else 2
                k += 1
    else:
        step = l - 1
        def gen() -> Iterator[tuple[int, int]]:
            k = 0
            while True:
                yield P(n0 + k * step), 1 if k % 2 == 0 else 2
                k += 1

    desc = f"case2:P={format_poly(P)},Q={format_poly(Q)}"
    out = BreakpointColoring(2, 1, gen(), desc)
    out.band = off  # expose the split for diagnostics
    return out


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
        if palette < 2:
            raise BadParams(f"palette must be at least 2, got {palette}")
        self.seed = int(seed)
        self.palette = int(palette)
        self.descriptor = f"random:seed={self.seed},k={self.palette}"
        self._base = (self.seed * _SM_GAMMA) & _U64

    def color(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"positions start at 1, got {n}")
        return _mix64(self._base + n) % self.palette + 1

    def colors_at(self, zs) -> np.ndarray:
        x = _positions(zs).astype(np.uint64) + np.uint64(self._base)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_MUL1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_MUL2)
        x = x ^ (x >> np.uint64(31))
        return (x % np.uint64(self.palette) + np.uint64(1)).astype(np.uint8)


class PeriodicColoring(Coloring):
    """Coloring repeating a finite pattern, position 1 = first entry."""

    def __init__(self, pattern: Sequence[int]):
        pat = [int(p) for p in pattern]
        if not pat:
            raise EmptyPattern("periodic pattern is empty")
        if min(pat) < 1:
            raise BadParams("pattern colors start at 1")
        self.pattern = tuple(pat)
        self.palette = max(2, max(pat))
        self._arr = np.array(pat, dtype=np.uint8)
        self.descriptor = "periodic:" + ("".join(str(p) for p in pat) if max(pat) <= 9 else "-".join(str(p) for p in pat))

    def color(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"positions start at 1, got {n}")
        return self.pattern[(n - 1) % len(self.pattern)]

    def colors_at(self, zs) -> np.ndarray:
        zs = _positions(zs).astype(np.int64, copy=False)
        return self._arr[(zs - 1) % len(self.pattern)]


class ExplicitColoring(Coloring):
    """Coloring from an explicit finite stream; positions beyond it get color 1."""

    def __init__(self, values: Sequence[int], palette: int | None = None, descriptor: str | None = None):
        vals = [int(v) for v in values]
        if not vals:
            raise EmptyPattern("explicit color stream is empty")
        if min(vals) < 1:
            raise BadParams("colors start at 1")
        self.values = np.array(vals, dtype=np.uint8)
        self.palette = int(palette) if palette is not None else max(2, max(vals))
        if self.values.max() > self.palette:
            raise BadParams("stream color exceeds palette")
        self.descriptor = descriptor or ("explicit:" + ("".join(str(v) for v in vals) if max(vals) <= 9 else "-".join(str(v) for v in vals)))

    def color(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"positions start at 1, got {n}")
        return int(self.values[n - 1]) if n <= len(self.values) else 1

    def colors_at(self, zs) -> np.ndarray:
        zs = _positions(zs).astype(np.int64, copy=False)
        out = np.ones(zs.shape[0], dtype=np.uint8)
        inside = zs <= len(self.values)
        out[inside] = self.values[zs[inside] - 1]
        return out


def custom_coloring(kind: str, **kwargs) -> Coloring:
    """Factory for the custom kinds: explicit stream, periodic pattern, seeded random."""
    if kind == "explicit":
        return ExplicitColoring(kwargs["values"], kwargs.get("palette"))
    if kind == "periodic":
        return PeriodicColoring(kwargs["pattern"])
    if kind == "random":
        return SeededRandomColoring(kwargs.get("seed", 0), kwargs.get("k", 2))
    raise ParseError(f"unknown custom coloring kind {kind!r}")


# ---------------------------------------------------------------------------
# run-length file format
# ---------------------------------------------------------------------------

def write_runlength(coloring: Coloring, n: int, stream: TextIO) -> None:
    """Serialize colors of [1, n]: header lines then one "color length" per run."""
    stream.write(f"palette {coloring.palette}\n")
    stream.write("start 1\n")
    for color, length in coloring.runs(n):
        stream.write(f"{color} {length}\n")


def read_runlength(stream: TextIO, descriptor: str = "file@<stream>") -> ExplicitColoring:
    """Parse the run-length format back into an explicit coloring."""
    lines = [ln.strip() for ln in stream if ln.strip()]
    if len(lines) < 3:
        raise ParseError("run-length input needs a header and at least one run")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "palette":
        raise ParseError(f"expected 'palette k', got {lines[0]!r}")
    palette = int(head[1])
    if lines[1].split() != ["start", "1"]:
        raise ParseError(f"expected 'start 1', got {lines[1]!r}")
    chunks: list[np.ndarray] = []
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'color length', got {ln!r}")
        color, length = int(parts[0]), int(parts[1])
        if not (1 <= color <= palette):
            raise ParseError(f"run color {color} outside palette 1..{palette}")
        if length < 1:
            raise ParseError(f"run length must be positive, got {length}")
        chunks.append(np.full(length, color, dtype=np.uint8))
    return ExplicitColoring(np.concatenate(chunks), palette, descriptor)


# ---------------------------------------------------------------------------
# recursive logarithmic-width coloring
# ---------------------------------------------------------------------------

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


def check_admissible(P: IntPolynomial, Q: IntPolynomial, a0: int, grid: int = 100) -> AdmissibleParams:
    """Run the base-level admissibility checks; raise InadmissibleA0 on failure.

    Checks (the three properties of a usable base level):
    * unique representation r + Q(s) with small r across the relevant range,
    * the expansion inequality psi(t + f(t) - h) - psi(t) > f(psi(t)) - h on a
      grid of t with the full h-range (the difference is decreasing in h, so
      the supremum h dominates),
    * slope/width constants: lam0 with psi' > lam0^2 beyond f(a0), eps0, u,
      and the jump bound psi(a0 - f(a0)) - a0 - f(psi(a0)) >= u * f(a0).
    """
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
        for i in range(grid):
            t = t0 + (t1 - t0) * i / (grid - 1)
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

        # width growth: f(psi(t)) < (lam0 - eps0) f(t) for t > a0/2
        ta, tb = mpmath.mpf(a0) / 2, mpmath.mpf(4 * a0)
        for i in range(grid):
            t = ta + (tb - ta) * i / (grid - 1)
            if not _f_ln(psi_eval(P, Q, t)) < lam_eff * _f_ln(t):
                raise InadmissibleA0(f"a0 = {a0}: width growth fails at t = {t}")

        # jump bound
        lhs = psi_eval(P, Q, a0 - f_a0)
        if not lhs - a0 - _f_ln(psi_eval(P, Q, a0)) >= u * f_a0:
            raise InadmissibleA0(f"a0 = {a0}: jump bound fails")

        # expansion inequality over the h-range
        if prof.delta > 1:
            h_cap = lambda ft: ft / 2
        else:
            h_cap = lambda ft: (2 * cval - 2) / (3 * cval) * ft
        for i in range(grid):
            t = ta + (tb - ta) * i / (grid - 1)
            ft = _f_ln(t)
            psi_t = psi_eval(P, Q, t)
            f_psi_t = _f_ln(psi_t)
            for h in (mpmath.mpf(0), h_cap(ft) / 2, h_cap(ft)):
                if not psi_eval(P, Q, t + ft - h) - psi_t > f_psi_t - h:
                    raise InadmissibleA0(f"a0 = {a0}: expansion inequality fails at t = {t}")

        # unique representation of r + Q(s) across [a0/2, psi(4 a0)]
        hi = psi_eval(P, Q, mpmath.mpf(4 * a0))
        width = _floor_strict(_f_ln(hi))
        lo_v = _ceil_mpf(mpmath.mpf(a0) / 2)
        hi_v = _ceil_mpf(hi)
        jq = _positive_from(_sub(_shift(list(Q.coeffs), 1), list(Q.coeffs)), False) or 1
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
    prof = psi_profile(P, Q)
    if prof.case is not GrowthCase.CASE_I:
        raise DomainError("recursive coloring requires an expanding growth profile")
    if Q.degree < 2:
        raise InadmissibleA0("unique-representation check requires deg Q > 1")
    for a0 in range(4, scan_limit + 1):
        try:
            check_admissible(P, Q, a0)
            return a0
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
        # P increases on the integers from _jp on
        self._jp = _positive_from(_sub(_shift(list(P.coeffs), 1), list(P.coeffs)), False) or 1
        with mpmath.workprec(256):
            a = mpmath.mpf(a0)
            self._push_level(a, a)
        super().__init__(
            2, 1, self._breakpoints(),
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
            width = _floor_strict(_f_ln(self._a[-2]))
            for w in self._members[-1]:
                for j in self._p_between(w - width, w):
                    z = w - self.P(j) + self.Q(j)
                    if z >= 1:
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

    def _p_between(self, lo: int, hi: int) -> list[int]:
        """Every j >= 0 with lo <= P(j) <= hi."""
        P, j = self.P, self._jp
        out = [i for i in range(j) if lo <= P(i) <= hi]
        if P(j) < lo:
            # bisect the increasing branch for the least j with P(j) >= lo
            below, j = j, j + 1
            while P(j) < lo:
                below, j = j, 2 * j
            while j - below > 1:
                mid = (below + j) // 2
                if P(mid) < lo:
                    below = mid
                else:
                    j = mid
        while P(j) <= hi:
            out.append(j)
            j += 1
        return out

    def _breakpoints(self) -> Iterator[tuple[int, int]]:
        m = 0
        while True:
            parity, up = (2, 1) if m % 2 == 0 else (1, 2)
            yield self._blo[m], parity
            if len(self._a) == m + 1:
                self._next_level()
            # one-position flips where A_{m+1} dips into band m
            A = self._members[m + 1]
            lo = bisect_left(A, max(self._blo[m], self._clo[m + 1]))
            for z in A[lo : bisect_left(A, self._blo[m + 1])]:
                yield z, up
                yield z + 1, parity
            m += 1

    def in_level_set(self, z: int, level: int) -> bool:
        """Exact membership of z in A_level (not restricted to the window)."""
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
    scan_limit: int = 1_000_000,
) -> RecursiveLogColoring:
    """Build the recursive coloring; find the base level when none is given."""
    if a0 is None:
        a0 = find_admissible_a0(P, Q, scan_limit)
    params = check_admissible(P, Q, a0)
    return RecursiveLogColoring(P, Q, a0, window_n, params)

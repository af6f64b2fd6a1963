"""Bitset search for monochromatic sumset configurations, plus finite audits.

The engine looks for pairs of sets (B, C) with every value h + P(k), h in B,
k in C, P in the polynomial list, landing in one fixed color class.  The core
object is the survivor bit-vector: positions b that still satisfy all
constraints imposed by the current C.  Greedy growth of C alternates between
shifted-AND steps that score a block of candidates per numpy call, reading
shifted masks from a table of eight bit-offset copies (fast while survivors
are plentiful), and a packed survivor-by-candidate bit matrix once few
survivors remain, which makes late greedy steps nearly free.

Also here: bad-set enumeration with stabilization reports, a longest-AP
dynamic program, and the log-space Gowers density threshold.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
import numpy as np

from .coloring import BreakpointColoring, ColorWindow, Coloring
from .errors import DomainError, EmptySet, NoConfiguration
from .poly import IntPolynomial, _root_bound, _shift, _sub, format_poly


@dataclass(frozen=True)
class Configuration:
    """A candidate monochromatic configuration (B + P(C) for each P)."""

    B: tuple[int, ...]
    C: tuple[int, ...]
    polys: tuple[IntPolynomial, ...]
    color: int
    survivors: int | None = None
    strategy: str | None = None

    def __post_init__(self):
        if not self.B or not self.C:
            raise DomainError("B and C must be nonempty")
        if list(self.B) != sorted(set(self.B)) or list(self.C) != sorted(set(self.C)):
            raise DomainError("B and C must be strictly sorted")

    def points(self) -> list[int]:
        return [h + P(k) for P in self.polys for h in self.B for k in self.C]

    def to_json(self, n: int | None = None) -> dict:
        out = {
            "B": list(self.B),
            "C": list(self.C),
            "polys": [format_poly(P) for P in self.polys],
            "color": self.color,
        }
        if n is not None:
            out["N"] = n
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.survivors is not None:
            out["survivors"] = self.survivors
        return out


@dataclass(frozen=True)
class AuditReport:
    """Stabilization summary for one bad-set enumeration."""

    n: int
    color: int
    count: int
    max_element: int | None
    horizon: int
    stabilized: bool

    def to_json(self) -> dict:
        doc = {"n": self.n, "color": self.color, "count": self.count}
        if self.max_element is not None:
            doc["max_element"] = self.max_element
        doc["M"] = self.horizon
        doc["stabilized"] = self.stabilized
        return doc


def verify_config(coloring: Coloring, cfg: Configuration) -> int | None:
    """Common color of all configuration points, or None if mixed."""
    pts = cfg.points()
    if min(pts) < 1:
        return None
    if max(pts) < (1 << 62):
        cols = coloring.colors_at(np.array(pts, dtype=np.int64))
        first = int(cols[0])
        return first if (cols == first).all() else None
    first = coloring.color(pts[0])
    for p in pts[1:]:
        if coloring.color(p) != first:
            return None
    return first


def _full_mask(n: int) -> int:
    return ((1 << n) - 1) << 1


def survivor_set(w: ColorWindow, polys: Sequence[IntPolynomial], C: Iterable[int], color: int) -> int:
    """Bit-vector of b with b + P(c) <= N and colored `color` for all c, P.

    Bit b (1-indexed) survives iff every shifted copy of the color mask keeps
    it; shifts are whole-int shifts of the packed mask.
    """
    v = _full_mask(w.n)
    s = w.mask(color)
    for c in sorted(set(C)):
        for P in polys:
            k = P(c)
            v &= (s >> k) if k >= 0 else (s << -k)
            if not v:
                return 0
    return v & _full_mask(w.n)


def _lowest_bits(v: int, r: int) -> tuple[int, ...]:
    """Positions of the r lowest set bits of v, ascending (fewer if v has fewer)."""
    out = []
    while v and len(out) < r:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return tuple(out)


def _poly_values(P: IntPolynomial, cs: np.ndarray) -> np.ndarray:
    """P over an int64 array, exact: falls back to objects near overflow."""
    if cs.size == 0:
        return cs
    top = max(abs(int(cs[0])), abs(int(cs[-1])))
    bound = sum(abs(c) * top**i for i, c in enumerate(P.coeffs))
    return P(cs) if bound < (1 << 62) else P(cs.astype(object))


def _poly_bound(P: IntPolynomial, n: int) -> int:
    """Smallest U with a*U > S and U^(d-1) * (a*U - S) > n.

    a is the lead, d the degree and S the sum of |lower coefficients|.  For
    c >= 1, P(c) >= c^(d-1) * (a*c - S), which grows with c once a*c > S, so
    P(c) > n for every c >= U.
    """
    a, d = P.lead, P.degree
    S = sum(abs(c) for c in P.coeffs[:-1])

    def above(u: int) -> bool:
        return u ** (d - 1) * (a * u - S) > n

    lo = hi = S // a + 1
    while not above(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _candidates(w: ColorWindow, polys: Sequence[IntPolynomial]) -> np.ndarray:
    """All c >= 1 with max_P P(c) <= N, ascending."""
    cs = np.arange(1, min(_poly_bound(P, w.n) for P in polys), dtype=np.int64)
    keep = np.ones(cs.shape[0], dtype=bool)
    for P in polys:
        keep &= _poly_values(P, cs) <= w.n
    return cs[keep]


_GATHER_THRESHOLD = 64

# bytes of shifted masks gathered per numpy call in phase A, per polynomial;
# small enough for a block to stay in cache
_BLOCK_BYTES = 1 << 18


def _mask_words(mask: int, nwords: int) -> np.ndarray:
    return np.frombuffer(mask.to_bytes(nwords * 8, "little"), dtype=np.uint64).copy()


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


def _shift_table(w: ColorWindow, color: int, front: int, nbytes: int) -> np.ndarray:
    """8 bit-offset copies of the color mask, each a row of `nbytes` bytes.

    The mask sits after `front` zero bytes; bit i of row t is bit i + t of the
    padded mask, so the mask shifted right by k bits starts in row k & 7 at
    byte front + (k >> 3).
    """
    bits = np.packbits(w.colors == color, bitorder="little")
    base = np.zeros(nbytes + 1, dtype=np.uint8)
    base[front : front + bits.shape[0]] = bits
    table = np.empty((8, nbytes), dtype=np.uint8)
    table[0] = base[:-1]
    for t in range(1, 8):
        np.right_shift(base[:-1], t, out=table[t])
        table[t] |= base[1:] << (8 - t)
    return table


def _greedy_one_color(
    w: ColorWindow,
    polys: Sequence[IntPolynomial],
    r: int,
    maxC: int,
    color: int,
    cand: np.ndarray,
    cap: int | None,
) -> tuple[list[int], int, int] | None:
    """Greedy C growth for one color: (C, survivor mask popcount, mask)."""
    nwords = (w.n + 64) // 64
    vw = _mask_words(_full_mask(w.n), nwords)
    vcount = w.n
    picked: list[int] = []  # pool indices, in pick order
    cols: np.ndarray | None = None
    surv: np.ndarray | None = None
    vmask = 0
    pool = cand
    if cap is not None and pool.shape[0] > cap:
        stride = -(-pool.shape[0] // cap)
        pool = pool[::stride]
    if pool.shape[0] == 0:
        return None
    # shifts beyond the window clip to n+1: the shifted mask comes out empty
    # either way, and clipped values index the dead padding in phase B
    pvals = [
        np.clip(_poly_values(P, pool), -(w.n + 1), w.n + 1).astype(np.int64)
        for P in polys
    ]
    # phase A reads the mask shifted by k as nwords words of the shift table
    lo = min(0, min(int(pv.min()) for pv in pvals))
    hi = max(0, max(int(pv.max()) for pv in pvals))
    front = -(lo // 8)
    table = _shift_table(w, color, front, front + (hi >> 3) + 8 * nwords)
    windows = np.lib.stride_tricks.sliding_window_view(table, 8 * nwords, axis=1)
    shifts = [(pv & 7, front + (pv >> 3)) for pv in pvals]
    block = max(1, _BLOCK_BYTES // (8 * nwords))

    def survivors_with(rows: slice) -> np.ndarray:
        """Survivor words after adding each pool candidate in `rows`, one row each."""
        acc = None
        for row, off in shifts:
            words = windows[row[rows], off[rows]].view(np.uint64)
            if acc is None:
                acc = words
                acc &= vw
            else:
                acc &= words
        return acc

    while len(picked) < maxC:
        if vcount > _GATHER_THRESHOLD:
            # phase A: survivor counts of a block of candidates per numpy call
            counts = np.empty(pool.shape[0], dtype=np.int64)
            for b in range(0, pool.shape[0], block):
                rows = slice(b, b + block)
                counts[rows] = np.bitwise_count(survivors_with(rows)).sum(axis=1)
            counts[picked] = 0
            pick = int(counts.argmax())
            if counts[pick] < r:
                break
            picked.append(pick)
            vw = survivors_with(slice(pick, pick + 1))[0]
            vcount = int(counts[pick])
            continue

        # phase B: packed survivor-by-candidate matrix, scans every candidate
        if surv is None:
            surv = np.nonzero(np.unpackbits(vw.view(np.uint8), bitorder="little"))[0]
            surv = surv.astype(np.int64)
            vmask = (1 << surv.shape[0]) - 1
            okpad = np.zeros(2 * w.n + 2, dtype=bool)
            okpad[: w.n + 1] = w.colors == color
            cols = np.zeros(pool.shape[0], dtype=np.uint64)
            for i, b in enumerate(surv.tolist()):
                acc = np.ones(pool.shape[0], dtype=bool)
                for pv in pvals:
                    acc &= okpad[np.clip(b + pv, 0, 2 * w.n + 1)]
                cols |= acc.astype(np.uint64) << np.uint64(i)
            cols[picked] = 0
        counts = np.bitwise_count(cols & np.uint64(vmask))
        best = int(counts.max())
        if best < r:
            break
        pick = int(np.nonzero(counts == best)[0][0])
        picked.append(pick)
        vmask &= int(cols[pick])
        cols[pick] = 0
        vcount = best

    if not picked:
        return None
    if surv is not None:
        v = 0
        for i in range(surv.shape[0]):
            if vmask >> i & 1:
                v |= 1 << int(surv[i])
    else:
        v = _words_to_int(vw)
    return pool[picked].tolist(), vcount, v


def greedy_search(
    w: ColorWindow,
    polys: Sequence[IntPolynomial],
    r: int,
    maxC: int,
    candidate_cap: int | None = None,
) -> Configuration:
    """Grow C greedily per color and keep the best configuration overall.

    Each step adds the candidate maximizing the survivor population, ties to
    the smallest candidate; across colors the largest |C| wins, then the
    larger survivor count, then the smaller color.  candidate_cap subsamples
    the scanned candidates evenly while survivors are plentiful (the exact
    matrix phase always scans all of them).
    """
    if r < 1 or maxC < 1:
        raise DomainError("r and maxC must be positive")
    polys = tuple(polys)
    cand = _candidates(w, polys)
    best: tuple[int, int, int, list[int], int] | None = None
    for color in range(1, w.palette + 1):
        got = _greedy_one_color(w, polys, r, maxC, color, cand, candidate_cap)
        if got is None:
            continue
        chosen, vcount, v = got
        key = (len(chosen), vcount, -color)
        if best is None or key > (best[0], best[1], -best[2]):
            best = (len(chosen), vcount, color, chosen, v)
    if best is None:
        raise NoConfiguration(f"no single candidate keeps {r} survivors in any color")
    _, vcount, color, chosen, v = best
    return Configuration(
        B=_lowest_bits(v, r),
        C=tuple(sorted(chosen)),
        polys=polys,
        color=color,
        survivors=vcount,
        strategy="greedy",
    )


def exhaustive_search(
    w: ColorWindow, polys: Sequence[IntPolynomial], r: int, sizeC: int
) -> Configuration | None:
    """Optimal configuration over all C of the given size, or None.

    Enumerates candidate subsets in lexicographic order per color; keeps the
    survivor-count maximum (first witness wins ties, smaller color first).
    """
    from itertools import combinations

    if r < 1 or sizeC < 1:
        raise DomainError("r and sizeC must be positive")
    polys = tuple(polys)
    cand = [int(c) for c in _candidates(w, polys).tolist()]
    best: tuple[int, int, tuple[int, ...], int] | None = None
    for color in range(1, w.palette + 1):
        for C in combinations(cand, sizeC):
            v = survivor_set(w, polys, C, color)
            n = v.bit_count()
            if n >= r and (best is None or n > best[0]):
                best = (n, color, C, v)
    if best is None:
        return None
    n, color, C, v = best
    return Configuration(
        B=_lowest_bits(v, r),
        C=C,
        polys=polys,
        color=color,
        survivors=n,
        strategy="exhaustive",
    )


def _fits_int64(P: IntPolynomial, n: int, top: int) -> bool:
    # |acc_j| <= sum |c_k| top^(k-j) <= sum |c_k| top^k for top >= 1, so the
    # bound on n + P(m), 1 <= m <= top, also covers every Horner step.
    return abs(n) + sum(abs(c) * top**k for k, c in enumerate(P.coeffs)) < (1 << 62)


def _plus_n(P: IntPolynomial, n: int, ms: np.ndarray) -> np.ndarray:
    """n + P(ms) by Horner in the dtype of ms (int64 or object)."""
    acc = np.full(ms.shape[0], P.coeffs[-1], dtype=ms.dtype)
    for c in reversed(P.coeffs[:-1]):
        acc *= ms
        if c:
            acc += c
    acc += n
    return acc


def _hits(coloring: Coloring, n: int, P: IntPolynomial, ms: np.ndarray, color: int) -> np.ndarray:
    """For ascending ms >= 1: n + P(m) >= 1 and colored `color`, exactly."""
    if _fits_int64(P, n, int(ms[-1])):
        vals = _plus_n(P, n, ms)
        good = vals >= 1
        if bool(good.all()):
            return coloring.colors_at(vals) == color
        return good & (coloring.colors_at(np.where(good, vals, 1)) == color)
    vals = _plus_n(P, n, ms.astype(object))
    return np.array([v >= 1 and coloring.color(v) == color for v in vals.tolist()], dtype=bool)


def _increasing_from(P: IntPolynomial, M: int) -> int:
    """Least m0 >= 1 with P strictly increasing on the integers of [m0, M]."""
    # P(m + 1) - P(m) > 0 beyond its root bound, so only steps below it can fall
    top = min(_root_bound(_sub(_shift(P.coeffs, 1), P.coeffs)) + 1, M)
    ms = np.arange(1, top + 1, dtype=np.int64)
    vals = _plus_n(P, 0, ms if _fits_int64(P, 0, top) else ms.astype(object))
    down = np.flatnonzero(vals[1:] <= vals[:-1])
    return int(down[-1]) + 2 if down.size else 1


# numpy call overhead of one bisection step, in m of a dense pass.  Measured
# on triple and geo3 (2 vCPUs): the dense pass wins below M of about 3*10^4
# (2.5x at 10^4) and the bisection above it.
_STEP_OVERHEAD = 2048


def _first_at_least(P: IntPolynomial, n: int, ts: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Least m in (lo, hi] with n + P(m) >= t, for each cut t in ts.

    P is strictly increasing on [lo, hi] and n + P(lo) < t <= n + P(hi).  A
    bisection over all cuts at once takes ceil(log2(hi - lo)) steps of
    len(ts) evaluations each, plus numpy's per-call overhead; one pass over
    the range costs hi - lo + 1 evaluations.  The cheaper one runs.
    """
    dtype = np.int64 if _fits_int64(P, n, hi) else object
    ts = ts.astype(dtype)
    steps = (hi - lo).bit_length()
    if steps * (ts.shape[0] + _STEP_OVERHEAD) < hi - lo + 1:
        a = np.full(ts.shape[0], lo, dtype=np.int64)
        b = np.full(ts.shape[0], hi, dtype=np.int64)
        for _ in range(steps):
            mid = (a + b) // 2
            up = _plus_n(P, n, mid.astype(dtype)) >= ts
            b = np.where(up, mid, b)
            a = np.where(up, a, mid)
        return b
    vals = _plus_n(P, n, np.arange(lo, hi + 1, dtype=np.int64).astype(dtype))
    return lo + np.searchsorted(vals, ts, side="left")


def _good_runs(
    coloring: BreakpointColoring, n: int, P: IntPolynomial, color: int, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of m in [1, M] on which n + P(m) is, or is not, colored `color`.

    Returns (starts, good) with starts[0] == 1.  Each m below the point m0
    from which P increases up to M is a run of its own.  From m0 on, a run
    starts where n + P(m) first reaches a cut of the coloring (a breakpoint,
    or the value 1 below which positions have no color).
    """
    m0 = _increasing_from(P, M)
    cuts, cols = coloring.segments(n + P(m0), n + P(M))
    ms = np.concatenate(([m0], _first_at_least(P, n, cuts[1:], m0, M)))
    # cuts that land on one m: the color of the last one holds there
    last = np.append(ms[1:] != ms[:-1], True)
    good = (cols[last] == color) & (cols[last] != 0)
    if m0 == 1:
        return ms[last], good
    head = np.arange(1, m0, dtype=np.int64)
    return np.concatenate((head, ms[last])), np.concatenate((_hits(coloring, n, P, head, color), good))


def _bad_set_by_runs(
    coloring: BreakpointColoring, n: int, polys: Sequence[IntPolynomial], color: int, M: int
) -> np.ndarray:
    """bad_set's elements from the color runs of every P, without a per-m pass."""
    runs = [_good_runs(coloring, n, P, color, M) for P in polys]
    # sort and drop repeats; np.unique would import numpy.ma, 30 ms per process
    starts = np.sort(np.concatenate([np.ones(1, dtype=np.int64)] + [s for s, _ in runs]))
    starts = starts[np.append(True, starts[1:] != starts[:-1])]
    keep = np.ones(starts.shape[0], dtype=bool)
    for s, good in runs:
        keep &= good[np.searchsorted(s, starts, side="right") - 1]
    lens = np.diff(np.append(starts, M + 1))[keep]
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts[keep] - offsets, lens) + np.arange(int(lens.sum()), dtype=np.int64)


def bad_set(
    coloring: Coloring,
    n: int,
    polys: Sequence[IntPolynomial],
    color: int,
    M: int,
) -> tuple[np.ndarray, AuditReport]:
    """All m <= M with every n + P(m) colored `color`, plus its report.

    On a breakpoint coloring the cost follows the breakpoints that n + P(m)
    crosses, not M; other colorings are evaluated at every m, in chunks.
    """
    if M < 1:
        raise DomainError(f"horizon must be positive, got {M}")
    polys = tuple(polys)
    if isinstance(coloring, BreakpointColoring):
        elems = _bad_set_by_runs(coloring, n, polys, color, M)
    else:
        keep_chunks: list[np.ndarray] = []
        chunk = 1 << 20
        for lo in range(1, M + 1, chunk):
            ms = np.arange(lo, min(M, lo + chunk - 1) + 1, dtype=np.int64)
            ok = np.ones(ms.shape[0], dtype=bool)
            for P in polys:
                ok &= _hits(coloring, n, P, ms, color)
                if not ok.any():
                    break
            keep_chunks.append(ms[ok])
        elems = np.concatenate(keep_chunks)
    count = int(elems.shape[0])
    max_el = int(elems[-1]) if count else None
    stabilized = count == 0 or 2 * max_el <= M
    report = AuditReport(
        n=n, color=color, count=count, max_element=max_el, horizon=M, stabilized=stabilized
    )
    return elems, report


def bad_set_growth(
    coloring: Coloring,
    n: int,
    polys: Sequence[IntPolynomial],
    color: int,
    horizons: Sequence[int],
) -> list[tuple[int, int, int | None]]:
    """(M, count, max_element) rows for a ladder of horizons, one enumeration."""
    horizons = sorted(set(int(M) for M in horizons))
    if not horizons:
        return []
    elems, _ = bad_set(coloring, n, polys, color, horizons[-1])
    rows = []
    lst = elems.tolist()
    for M in horizons:
        k = bisect_right(lst, M)
        rows.append((M, k, int(lst[k - 1]) if k else None))
    return rows


def longest_ap(S: Iterable[int]) -> tuple[int, int, int]:
    """Longest arithmetic progression inside S as (start, difference, length).

    Dynamic program over pairs; ties prefer the smallest difference, then the
    smallest start.  A singleton set yields (s, 0, 1).
    """
    elems = sorted(set(int(s) for s in S))
    if not elems:
        raise EmptySet("cannot take the longest progression of an empty set")
    if len(elems) == 1:
        return (elems[0], 0, 1)
    n = len(elems)
    # length[i][d] = longest AP ending at elems[i] with difference d
    length: list[dict[int, int]] = [dict() for _ in range(n)]
    pos = {v: i for i, v in enumerate(elems)}
    best = (2, -(elems[1] - elems[0]), -elems[0])  # (len, -diff, -start)
    for j in range(n):
        for i in range(j):
            d = elems[j] - elems[i]
            l = length[i].get(d, 1) + 1
            length[j][d] = l
            start = elems[j] - (l - 1) * d
            key = (l, -d, -start)
            if key > best:
                best = key
    l, d, start = best[0], -best[1], -best[2]
    return (start, d, l)


def gowers_threshold(k: int, N: int) -> mpmath.mpf:
    """ln of the density threshold N (log log N)^(-2^-2^(k+9)), in log space.

    The correction ln ln ln N * 2^-(2^(k+9)) is astronomically small but
    strictly positive, so ln N is taken at a precision wide enough for the
    subtraction to register (capped).  The correction itself needs only 128
    bits: the dyadic scaling by ldexp is exact.
    """
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if N <= 15:
        raise DomainError(f"N must exceed e^e (so N >= 16), got {N}")
    with mpmath.workprec(2 ** min(k + 9, 20) + 64):
        lnN = mpmath.ln(N)
        with mpmath.workprec(128):
            lll = mpmath.ln(mpmath.ln(lnN))
        return lnN - mpmath.ldexp(lll, -(2 ** (k + 9)))

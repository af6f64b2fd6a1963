"""Bitset search for monochromatic sumset configurations, plus finite audits.

The engine looks for pairs of sets (B, C) with every value h + P(k), h in B,
k in C, P in the polynomial list, landing in one fixed color class.  The core
object is the survivor bit-vector, packed in uint64 words: positions b that
still satisfy all constraints imposed by the current C.  One scorer serves
both searches, scoring a block of candidates per numpy call from a table of
eight bit-offset copies of the color mask.

Greedy growth of C is lazy (Minoux's accelerated greedy): adding a candidate
to a larger C never keeps more survivors, so a count once scored bounds every
later one, and a step re-scores candidates in order of their bounds only
until no bound left can win.  Once the survivors number at most
max(64, words / 8), each candidate's effect on them goes into one packed
survivor matrix, ceil(S / 64) words per candidate, and the later steps scan
that instead of the window.  The exhaustive search scores all extensions of
each prefix of C at once.

Also here: bad-set enumeration with stabilization reports, a longest-AP
dynamic program, and the log-space Gowers density threshold.  Every value
n + P(m) and every inversion of it comes from the array layer in ``poly``, so
int64 versus Python-int arithmetic follows its one overflow rule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
import numpy as np

from .coloring import BreakpointColoring, ColorWindow, Coloring
from .errors import DomainError, EmptySet, NoConfiguration
from .poly import IntPolynomial, first_at_least, format_poly, increasing_from, values


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


def _candidates(w: ColorWindow, polys: Sequence[IntPolynomial], cap: int | None = None) -> np.ndarray:
    """All c >= 1 with max_P P(c) <= N, ascending; under a cap, every step-th.

    Past m0, the largest increasing_from(P), every P increases, so the
    candidates from m0 on are the interval [m0, top), top being the least m
    at which some P passes N.  Only the head below m0 is checked value by
    value.  A cap smaller than the count L keeps the candidates at indices
    0, s, 2s, ... for s = ceil(L / cap), found by index arithmetic.
    """
    m0 = max(increasing_from(P) for P in polys)
    # past its first m on the increasing branch with P(m) > N, P stays above N
    top = min(int(first_at_least(P, 0, np.array([w.n + 1]), increasing_from(P))[0]) for P in polys)
    head = np.arange(1, min(m0, top), dtype=np.int64)
    for P in polys:
        head = head[values(P, head) <= w.n]
    total = head.shape[0] + max(0, top - m0)
    step = -(-total // cap) if cap is not None and total > cap else 1
    # the first kept index past the head, as an offset into the interval
    skip = -(-head.shape[0] // step) * step - head.shape[0]
    return np.concatenate((head[::step], np.arange(m0 + skip, top, step, dtype=np.int64)))


# bytes of shifted masks gathered per numpy call, per polynomial; small enough
# for a block to stay in cache
_BLOCK_BYTES = 1 << 18

# positions gathered per numpy call while building the survivor matrix: one
# word of 64 survivors against 1024 pool candidates
_MATRIX_ENTRIES = 1 << 16


def _pool_shifts(w: ColorWindow, polys: Sequence[IntPolynomial], pool: np.ndarray) -> list[np.ndarray]:
    """P(c) for every pool candidate c, one int64 array per polynomial."""
    # shifts beyond the window clip to n+1: the shifted mask comes out empty
    # either way, and clipped values index the dead padding of the matrix build
    return [np.clip(values(P, pool), -(w.n + 1), w.n + 1).astype(np.int64) for P in polys]


def _lowest_set(words: np.ndarray, r: int | None = None) -> np.ndarray:
    """Positions of the r lowest set bits of packed words (all when r is None), ascending."""
    nz = np.flatnonzero(words)[:r]
    word, bit = np.nonzero(np.unpackbits(words[nz].view(np.uint8), bitorder="little").reshape(-1, 64))
    return (64 * nz[word] + bit)[:r]


class _Scorer:
    """Survivor words of one color after adding pool candidates (bit b: position b).

    Row t of the shift table is the color mask after `front` zero bytes,
    shifted right by t bits, so the mask shifted right by k bits is the window
    of 8 * nwords bytes from byte front + (k >> 3) of row k & 7.  A candidate
    costs one AND per polynomial.
    """

    def __init__(self, w: ColorWindow, color: int, pvals: list[np.ndarray]):
        nwords = (w.n + 64) // 64
        lo = min(0, min(int(pv.min()) for pv in pvals))
        hi = max(0, max(int(pv.max()) for pv in pvals))
        front = -(lo // 8)
        nbytes = front + (hi >> 3) + 8 * nwords
        # entry i holds padded mask bytes i and i + 1, so row t is entry i >> t
        base = np.zeros(nbytes + 1, dtype=np.uint16)
        base[front : front + (w.n >> 3) + 1] = np.packbits(w.colors == color, bitorder="little")
        base[:-1] |= base[1:] << 8
        table = np.empty((8, nbytes), dtype=np.uint8)
        np.right_shift(base[:-1], np.arange(8, dtype=np.uint16)[:, None], out=table, casting="unsafe")
        # a sliding window view: window k of row t is the 8 * nwords bytes from byte k
        self._windows = np.ndarray(
            (8, nbytes - 8 * nwords + 1, 8 * nwords), np.uint8, table, strides=(nbytes, 1, 1)
        )
        self._shifts = [(pv & 7, front + (pv >> 3)) for pv in pvals]
        self._block = max(1, _BLOCK_BYTES // (8 * nwords))
        # survivors of the empty C: every b in [1, N]
        full = np.zeros(8 * nwords, dtype=np.uint8)
        full[: (w.n >> 3) + 1] = np.packbits(w.colors > 0, bitorder="little")
        self.full = full.view(np.uint64)

    def survivors_with(self, vw: np.ndarray, rows) -> np.ndarray:
        """Survivor words vw after adding each pool candidate in `rows`, one row each.

        rows is a slice of the pool or an array of pool indices.
        """
        acc = vw
        for row, off in self._shifts:
            words = self._windows[row[rows], off[rows]].view(np.uint64)
            acc = np.bitwise_and(words, acc, out=words)
        return acc

    def counts(self, vw: np.ndarray, start: int, stop: int, order: np.ndarray | None = None) -> np.ndarray:
        """Survivor counts after adding each pool candidate in [start, stop).

        With an index array `order`, the candidates are order[start:stop]
        instead.
        """
        out = np.empty(stop - start, dtype=np.int64)
        for b in range(start, stop, self._block):
            rows = slice(b, min(b + self._block, stop))
            words = self.survivors_with(vw, rows if order is None else order[rows])
            out[b - start : rows.stop - start] = np.bitwise_count(words).sum(axis=1)
        return out


def _lazy_argmax(scorer: _Scorer, vw: np.ndarray, bound: np.ndarray, r: int) -> tuple[int, int]:
    """First pool index with the most survivors after it is added, and that count.

    bound[j] is at least candidate j's count.  Candidates are scored in order
    of (-bound, index), in blocks of 8 that double, until no bound left can
    beat the best count found or tie it at a smaller index; the counts found
    replace their bounds.  A count below r never wins: (-1, r - 1) when
    nothing reaches r.
    """
    # picked candidates carry bound -1, and no bound below r can win: both
    # sort after every bound that can
    order = np.argsort(-bound, kind="stable")[: np.count_nonzero(bound >= r)]
    best, pick = r - 1, -1
    start, size = 0, 8
    while start < order.shape[0]:
        j = int(order[start])
        if bound[j] < best or (bound[j] == best and j > pick):
            break
        stop = min(start + size, order.shape[0])
        rows = order[start:stop]
        fresh = scorer.counts(vw, start, stop, order)
        bound[rows] = fresh
        top = int(fresh.max())
        j = int(rows[fresh == top].min())
        if top > best or (top == best and j < pick):
            best, pick = top, j
        start, size = stop, 2 * size
    return pick, best


def _survivor_matrix(w: ColorWindow, color: int, pvals: list[np.ndarray], surv: np.ndarray) -> np.ndarray:
    """Packed words per pool candidate: bit i set when survivor surv[i] stays after adding it."""
    # clipped positions land on 0 or n + 1, neither of which has a color
    ok = np.zeros(w.n + 2, dtype=bool)
    np.equal(w.colors, color, out=ok[: w.n + 1])
    npool = pvals[0].shape[0]
    out = np.zeros((npool, 8 * -(-surv.shape[0] // 64)), dtype=np.uint8)
    rows = _MATRIX_ENTRIES // 64
    for s in range(0, surv.shape[0], 64):
        part = surv[s : s + 64]
        for lo in range(0, npool, rows):
            keep = np.ones((min(rows, npool - lo), part.shape[0]), dtype=bool)
            for pv in pvals:
                pos = np.add.outer(pv[lo : lo + rows], part)
                keep &= ok[np.clip(pos, 0, w.n + 1, out=pos)]
            bits = np.packbits(keep, axis=1, bitorder="little")
            out[lo : lo + rows, s // 8 : s // 8 + bits.shape[1]] = bits
    return out.view(np.uint64)


def _greedy_one_color(
    w: ColorWindow, r: int, maxC: int, color: int, pool: np.ndarray, pvals: list[np.ndarray]
) -> tuple[list[int], int, tuple[int, ...]] | None:
    """Greedy C growth for one color: (C, survivor count, B)."""
    scorer = _Scorer(w, color, pvals)
    # survivor words: bit b is position b, or bit i is surv[i] once surv is set
    vw = scorer.full
    vcount = w.n
    # a count under a smaller C bounds the count under a larger one
    bound = np.full(pool.shape[0], w.n, dtype=np.int64)
    picked: list[int] = []  # pool indices, in pick order
    surv: np.ndarray | None = None

    while len(picked) < maxC:
        if surv is None and vcount <= max(64, vw.shape[0] // 8):
            # phase B: a step scans ceil(S / 64) words per candidate; a
            # survivor's matrix row costs about as much as 8 words of scan
            surv = _lowest_set(vw)
            mat = _survivor_matrix(w, color, pvals, surv)
            mat[picked] = 0
            vw = np.packbits(np.arange(mat.shape[1] * 64) < surv.shape[0], bitorder="little").view(np.uint64)
        if surv is None:
            # phase A: lazy rescoring of the window-wide survivor words
            pick, count = _lazy_argmax(scorer, vw, bound, r)
            if pick < 0:
                break
            bound[pick] = -1
            vw = scorer.survivors_with(vw, slice(pick, pick + 1))[0]
        else:
            counts = np.bitwise_count(mat & vw).sum(axis=1)
            pick = int(counts.argmax())
            count = int(counts[pick])
            if count < r:
                break
            vw = vw & mat[pick]
            mat[pick] = 0
        picked.append(pick)
        vcount = count

    if not picked:
        return None
    B = _lowest_set(vw, r)
    return pool[picked].tolist(), vcount, tuple((B if surv is None else surv[B]).tolist())


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
    larger survivor count, then the smaller color.  candidate_cap keeps
    every ceil(L / cap)-th of the L candidates.

    The result is that of scoring every candidate at every step, found with
    less work.  Phase A scores on the window's survivor words, lazily: the
    first step scores every candidate, and later steps re-score in order of
    the last count found, in blocks of 8 that double, stopping once the next
    bound is below the best fresh count or equal to it at a later candidate.
    With S survivors left, S <= max(64, words / 8), phase B builds a
    candidate-by-survivor bit matrix once and scans its ceil(S / 64) words
    per candidate at each step.
    """
    if r < 1 or maxC < 1:
        raise DomainError("r and maxC must be positive")
    polys = tuple(polys)
    pool = _candidates(w, polys, candidate_cap)
    found = []  # ((|C|, survivors, -color), color, (C, survivors, B)) per color
    if pool.shape[0]:
        pvals = _pool_shifts(w, polys, pool)
        for color in range(1, w.palette + 1):
            got = _greedy_one_color(w, r, maxC, color, pool, pvals)
            if got is not None:
                found.append(((len(got[0]), got[1], -color), color, got))
    if not found:
        raise NoConfiguration(f"no single candidate keeps {r} survivors in any color")
    _, color, (chosen, vcount, B) = max(found, key=lambda f: f[0])
    return Configuration(
        B=B, C=tuple(sorted(chosen)), polys=polys, color=color, survivors=vcount, strategy="greedy"
    )


def exhaustive_search(
    w: ColorWindow, polys: Sequence[IntPolynomial], r: int, sizeC: int
) -> Configuration | None:
    """Optimal configuration over all C of the given size, or None.

    Keeps the survivor-count maximum over candidate subsets in lexicographic
    order per color (first witness wins ties, smaller color first).  Each
    (sizeC - 1)-prefix of C scores all later candidates in blocks, so the cost
    is about prefixes x blocks numpy calls.  A prefix with no more survivors
    than the best so far is skipped: no extension can beat it, and ties never
    replace the best.
    """
    if r < 1 or sizeC < 1:
        raise DomainError("r and sizeC must be positive")
    polys = tuple(polys)
    cand = _candidates(w, polys)
    if sizeC > cand.shape[0]:
        return None
    pvals = _pool_shifts(w, polys, cand)
    best_count = r - 1
    best: tuple[int, list[int], np.ndarray] | None = None

    def extend(scorer: _Scorer, color: int, vw: np.ndarray, chosen: list[int]) -> None:
        nonlocal best_count, best
        start = chosen[-1] + 1 if chosen else 0
        # leave room for the candidates still to come
        counts = scorer.counts(vw, start, cand.shape[0] - (sizeC - len(chosen) - 1))
        if len(chosen) == sizeC - 1:
            pick = int(counts.argmax())
            if counts[pick] > best_count:
                best_count = int(counts[pick])
                j = start + pick
                best = (color, chosen + [j], scorer.survivors_with(vw, slice(j, j + 1))[0])
            return
        for i in np.flatnonzero(counts > best_count).tolist():
            if counts[i] > best_count:  # the best may have grown under an earlier prefix
                j = start + i
                extend(scorer, color, scorer.survivors_with(vw, slice(j, j + 1))[0], chosen + [j])

    for color in range(1, w.palette + 1):
        scorer = _Scorer(w, color, pvals)
        extend(scorer, color, scorer.full, [])
    if best is None:
        return None
    color, chosen, vw = best
    return Configuration(
        B=tuple(_lowest_set(vw, r).tolist()), C=tuple(cand[chosen].tolist()), polys=polys, color=color,
        survivors=best_count, strategy="exhaustive",
    )


def _hits(coloring: Coloring, n: int, P: IntPolynomial, ms: np.ndarray, color: int) -> np.ndarray:
    """For ms >= 1: n + P(m) >= 1 and colored `color`, exactly."""
    vals = values(P, ms, n)
    if vals.dtype == np.int64:
        good = vals >= 1
        if bool(good.all()):
            return coloring.colors_at(vals) == color
        return good & (coloring.colors_at(np.where(good, vals, 1)) == color)
    return np.array([v >= 1 and coloring.color(v) == color for v in vals.tolist()], dtype=bool)


def _good_runs(
    coloring: BreakpointColoring, n: int, P: IntPolynomial, color: int, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of m in [1, M] on which n + P(m) is, or is not, colored `color`.

    Returns (starts, good) with starts[0] == 1.  Each m below the point m0
    from which P increases up to M is a run of its own.  From m0 on, a run
    starts where n + P(m) first reaches a cut of the coloring (a breakpoint,
    or the value 1 below which positions have no color).
    """
    m0 = min(increasing_from(P), M)
    cuts, cols = coloring.segments(n + P(m0), n + P(M))
    ms = np.concatenate(([m0], first_at_least(P, n, cuts[1:], m0, M)))
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

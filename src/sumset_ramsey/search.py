"""Bitset search for monochromatic sumset configurations, plus finite audits.

The engine looks for pairs of sets (B, C) with every value h + P(k), h in B,
k in C, P in the polynomial list, landing in one fixed color class.  The core
object is the survivor bit-vector, packed in uint64 words: positions b that
still satisfy all constraints imposed by the current C.  A scorer holds the
survivor words of one color and scores a block of pool candidates per numpy
call.  The window scorer's words cover [1, N] and come from a table of eight
bit-offset copies of the color mask; a candidate c is scored only over the
words up to position N - max_P P(c), since no b above it survives c.  The
matrix scorer's words cover a fixed list of S survivors, one packed row of
ceil(S / 64) words per candidate.

Greedy growth of C is one loop over either scorer, lazy as in Minoux's
accelerated greedy: adding a candidate to a larger C never keeps more
survivors, so a count once scored bounds every later one, and a step
re-scores candidates in order of their bounds only until no bound left can
win.  A count is the same number on both scorers, so the bounds carry over
when the matrix scorer replaces the window scorer, once the survivors number
at most max(64, words / 8).  The exhaustive search scores all extensions of
each prefix of C at once on the window scorer.

Also here: bad-set enumeration with stabilization reports, a longest-AP
dynamic program, and the log-space Gowers density threshold.  Every value
n + P(m) and every inversion of it comes from the array layer in ``poly``, so
int64 versus Python-int arithmetic follows its one overflow rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from ._deps import mpmath, np
from .coloring import POSITION_CHUNK, BreakpointColoring, ColorWindow, Coloring
from .errors import DomainError, EmptySet, NoConfiguration
from .poly import (
    I64_MAX,
    IntPolynomial,
    first_at_least,
    format_poly,
    increasing_from,
    int_array,
    int_value,
    values,
)


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
    cols = coloring.colors_at(pts)
    first = int(cols[0])
    return first if (cols == first).all() else None


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

# table columns filled per numpy call while building the shift table
_TABLE_CHUNK = 1 << 14

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


def _bit_range(lo: int, hi: int, nwords: int) -> np.ndarray:
    """nwords packed words with bits lo, ..., hi - 1 set, for lo < hi."""
    out = np.zeros(8 * nwords, dtype=np.uint8)
    out[lo >> 3 : (hi + 7) >> 3] = 255
    out[lo >> 3] &= (255 << (lo & 7)) & 255
    if hi & 7:
        out[hi >> 3] &= (1 << (hi & 7)) - 1
    return out.view(np.uint64)


class _BlockScorer:
    """Survivor words of one color and their counts after adding pool candidates.

    A scorer gives `full`, the survivor words of the empty C;
    `survivors_with(vw, rows)`, the words after adding each candidate in rows;
    `lowest(vw, r)`, the window positions of the r lowest survivors; `first`,
    the candidates in the first block of a lazy step; and `_block`, the
    candidates per numpy call.
    """

    first: int
    _block: int

    def survivors_with(self, vw: np.ndarray, rows) -> np.ndarray:
        raise NotImplementedError

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


class _Layout:
    """What a window scorer needs of the pool alone, shared by every color.

    The shift table's geometry (`front` zero bytes, rows of `nbytes`, windows
    of `nwords` words), each candidate's window start per polynomial, the
    live-word bounds, the block size and the survivor words of the empty C.
    """

    def __init__(self, w: ColorWindow, pvals: list[np.ndarray]):
        self.nwords = nwords = (w.n + 64) // 64
        lo = min(0, min(int(pv.min()) for pv in pvals))
        hi = max(0, max(int(pv.max()) for pv in pvals))
        self.front = front = -(lo // 8)
        self.nbytes = nbytes = front + (hi >> 3) + 8 * nwords
        self.starts = [(pv & 7) * nbytes + front + (pv >> 3) for pv in pvals]
        # a candidate keeps no b above N - max_P P(c), so its words past that
        # bit's word are zero.  Pool shifts stop at n + 1, so no count is
        # negative; a count past nwords is cut by the length of vw.  Suffix
        # maxima over the pool bound every block that starts at j by live[j]
        live = (w.n - reduce(np.maximum, pvals)) // 64 + 1
        self.live = np.maximum.accumulate(live[::-1])[::-1]
        self.block = max(1, _BLOCK_BYTES // (8 * nwords))
        # survivors of the empty C: every b in [1, N]
        self.full = _bit_range(1, w.n + 1, nwords)


class _Scorer(_BlockScorer):
    """Survivor words over the window: bit b is position b.

    Row t of the shift table is the color mask after `front` zero bytes,
    shifted right by t bits, so the mask shifted right by k bits is the window
    of 8 * nwords bytes from byte front + (k >> 3) of row k & 7.  A candidate
    costs one AND per polynomial, over the words that can hold a survivor.
    Lazy steps start with blocks of 8.  A search over several colors builds
    the pool's `_Layout` once and hands it to each.
    """

    first = 8

    def __init__(self, w: ColorWindow, color: int, layout: _Layout):
        nwords, front, nbytes = layout.nwords, layout.front, layout.nbytes
        # one full-size temporary at a time: the color test is packed before
        # the table exists, and the other rows are filled a chunk of columns
        # at a time
        packed = np.packbits(w.colors == color, bitorder="little")
        table = np.zeros((8, nbytes), dtype=np.uint8)
        table[0, front : front + packed.shape[0]] = packed
        del packed
        # byte i of row t: bits t.. of byte i of row 0, then the low bits of
        # byte i + 1, i.e. the 16-bit pair (i + 1, i) shifted right by t
        shifts = np.arange(1, 8, dtype=np.uint16)[:, None]
        for a in range(0, nbytes - 1, _TABLE_CHUNK):
            b = min(a + _TABLE_CHUNK, nbytes - 1)
            pair = table[0, a + 1 : b + 1].astype(np.uint16)
            pair <<= 8
            pair |= table[0, a:b]
            np.right_shift(pair, shifts, out=table[1:, a:b], casting="unsafe")
        table[1:, -1] = table[0, -1] >> shifts[:, 0]
        # a sliding window view of the table's bytes, read as words: window
        # t * nbytes + k is the nwords words from byte k of row t (the windows
        # that run into the next row are never read)
        self._windows = np.ndarray(
            (8 * nbytes - 8 * nwords + 1, nwords), np.uint64, table, strides=(1, 8)
        )
        self._starts, self._live, self._block, self.full = layout.starts, layout.live, layout.block, layout.full

    def survivors_with(self, vw: np.ndarray, rows) -> np.ndarray:
        """Survivor words vw after adding each pool candidate in `rows`, one row each.

        rows is a slice of the pool or an array of pool indices.  The words
        stop after the last one that any candidate in rows can keep a bit of.
        """
        live = self._live[rows.start] if isinstance(rows, slice) else self._live[rows].max(initial=0)
        wd = min(vw.shape[0], int(live))
        acc = vw[:wd]
        for start in self._starts:
            words = self._windows[start[rows], :wd]
            acc = np.bitwise_and(words, acc, out=words)
        return acc

    def lowest(self, vw: np.ndarray, r: int | None = None) -> np.ndarray:
        return _lowest_set(vw, r)


def _lazy_argmax(scorer: _BlockScorer, vw: np.ndarray, bound: np.ndarray, r: int) -> tuple[int, int]:
    """First pool index with the most survivors after it is added, and that count.

    bound[j] is at least candidate j's count.  Candidates are scored in order
    of (-bound, index), in blocks that start at scorer.first and double, until
    no bound left can beat the best count found or tie it at a smaller index;
    the counts found replace their bounds.  A count below r never wins:
    (-1, r - 1) when nothing reaches r.
    """
    # picked candidates carry bound -1, and no bound below r can win: neither
    # is scored
    order = np.flatnonzero(bound >= r)
    size = scorer.first
    if order.shape[0] > size:
        # one block scores its candidates in any order; more need (-bound, index)
        order = order[np.argsort(-bound[order], kind="stable")]
    best, pick = r - 1, -1
    start = 0
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


class _MatrixScorer(_BlockScorer):
    """Survivor words over a fixed survivor list surv: bit i is position surv[i].

    Row j of the survivor matrix holds the survivors that stay after adding
    pool candidate j, so a candidate costs one AND of ceil(S / 64) words.  A
    lazy step scores its whole live pool in one block.
    """

    def __init__(self, w: ColorWindow, color: int, pvals: list[np.ndarray], surv: np.ndarray):
        self._surv = surv
        self._mat = _survivor_matrix(w, color, pvals, surv)
        self.first = self._mat.shape[0]
        self._block = max(1, _BLOCK_BYTES // (8 * self._mat.shape[1]))
        self.full = _bit_range(0, surv.shape[0], self._mat.shape[1])

    def survivors_with(self, vw: np.ndarray, rows) -> np.ndarray:
        return self._mat[rows] & vw

    def lowest(self, vw: np.ndarray, r: int | None = None) -> np.ndarray:
        return self._surv[_lowest_set(vw, r)]


def _greedy_one_color(
    w: ColorWindow, r: int, maxC: int, color: int, pool: np.ndarray, pvals: list[np.ndarray], layout: _Layout
) -> tuple[list[int], int, tuple[int, ...]] | None:
    """Greedy C growth for one color: (C, survivor count, B)."""
    scorer: _BlockScorer = _Scorer(w, color, layout)
    vw = scorer.full
    # the survivor matrix takes over at this many survivors: a survivor's
    # matrix row costs about as much as 8 words of window scan
    switch = max(64, vw.shape[0] // 8)
    count = w.n
    # a count under a smaller C bounds the count under a larger one; a count
    # is the same number on either scorer, so the bounds outlive the switch
    bound = np.full(pool.shape[0], w.n, dtype=np.int64)
    picked: list[int] = []  # pool indices, in pick order

    while len(picked) < maxC:
        if count <= switch:
            # the window scorer's shift table is dropped before the matrix is built
            surv = scorer.lowest(vw)
            del scorer
            scorer = _MatrixScorer(w, color, pvals, surv)
            vw, switch = scorer.full, -1
        pick, best = _lazy_argmax(scorer, vw, bound, r)
        if pick < 0:
            break
        bound[pick] = -1
        vw = scorer.survivors_with(vw, slice(pick, pick + 1))[0]
        picked.append(pick)
        count = best

    if not picked:
        return None
    return pool[picked].tolist(), count, tuple(scorer.lowest(vw, r).tolist())


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
    less work (see the module docstring).
    """
    if r < 1 or maxC < 1:
        raise DomainError("r and maxC must be positive")
    polys = tuple(polys)
    pool = _candidates(w, polys, candidate_cap)
    found = []  # ((|C|, survivors, -color), color, (C, survivors, B)) per color
    if pool.shape[0]:
        pvals = _pool_shifts(w, polys, pool)
        layout = _Layout(w, pvals)
        for color in range(1, w.palette + 1):
            got = _greedy_one_color(w, r, maxC, color, pool, pvals, layout)
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
    # (color, C indices, survivor words); the words become B once the color
    # is done, so B is taken once per color rather than at every improvement
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

    layout = _Layout(w, pvals)
    for color in range(1, w.palette + 1):
        scorer = _Scorer(w, color, layout)
        extend(scorer, color, scorer.full, [])
        if best is not None and best[0] == color:
            best = (color, best[1], scorer.lowest(best[2], r))
    if best is None:
        return None
    color, chosen, B = best
    return Configuration(
        B=tuple(B.tolist()), C=tuple(cand[chosen].tolist()), polys=polys, color=color,
        survivors=best_count, strategy="exhaustive",
    )


def _hits(coloring: Coloring, n: int, P: IntPolynomial, ms: np.ndarray, color: int) -> np.ndarray:
    """For ms >= 1: n + P(m) >= 1 and colored `color`, exactly."""
    vals = values(P, ms, n)
    good = vals >= 1
    if bool(good.all()):
        return coloring.colors_at(vals) == color
    return good & (coloring.colors_at(np.where(good, vals, 1)) == color)


def _good_runs(
    coloring: BreakpointColoring, n: int, P: IntPolynomial, color: int, M: int,
    segments: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of m in [1, M] on which n + P(m) is, or is not, colored `color`.

    Returns (starts, good) with starts[0] == 1.  Each m below the point m0
    from which P increases up to M is a run of its own.  From m0 on, a run
    starts where n + P(m) first reaches a cut of the coloring (a breakpoint,
    or the value 1 below which positions have no color).  ``segments`` is
    the coloring's (starts, colors) over a value range holding
    n + P(m0) .. n + P(M).
    """
    m0 = min(increasing_from(P), M)
    lo, hi = n + P(m0), n + P(M)
    starts, colors = segments
    i = int(np.searchsorted(starts, lo, side="right")) - 1
    j = int(np.searchsorted(starts, hi, side="right"))
    cuts, cols = starts[i + 1 : j], colors[i:j]
    # the shared range may pass int64 where this P's values do not
    if cuts.dtype != np.int64 and hi <= I64_MAX:
        cuts = cuts.astype(np.int64)
    ms = np.concatenate(([m0], first_at_least(P, n, cuts, m0, M)))
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
    """bad_set's elements from the color runs of every P, without a per-m pass.

    One ``segments`` call covers the values of every P, so the coloring's
    breakpoints are read once.
    """
    ends = [(n + P(min(increasing_from(P), M)), n + P(M)) for P in polys]
    segments = coloring.segments(min(lo for lo, _ in ends), max(hi for _, hi in ends))
    runs = [_good_runs(coloring, n, P, color, M, segments) for P in polys]
    # sort and drop repeats; np.unique would import numpy.ma, 30 ms per process
    starts = np.sort(np.concatenate([np.ones(1, dtype=np.int64)] + [s for s, _ in runs]))
    starts = starts[np.append(True, starts[1:] != starts[:-1])]
    keep = np.ones(starts.shape[0], dtype=bool)
    for s, good in runs:
        keep &= good[np.searchsorted(s, starts, side="right") - 1]
    # the last run ends at M; M + 1 itself may not fit int64
    lens = np.append(np.diff(starts), M + 1 - int(starts[-1]))[keep]
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts[keep] - offsets, lens) + np.arange(int(lens.sum()), dtype=np.int64)


def _check_color(coloring: Coloring, color: int) -> int:
    color = int_value(color)
    if not 1 <= color <= coloring.palette:
        raise DomainError(f"color {color} outside palette 1..{coloring.palette}")
    return color


def bad_set(
    coloring: Coloring,
    n: int,
    polys: Sequence[IntPolynomial],
    color: int,
    M: int,
) -> tuple[np.ndarray, AuditReport]:
    """All m <= M with every n + P(m) colored `color`, plus its report.

    On a breakpoint coloring the cost follows the breakpoints that n + P(m)
    crosses, not M, and M is at most 2^63 - 1; other colorings are evaluated
    at every m, in chunks.
    """
    n, M = int_value(n), int_value(M)
    if M < 1:
        raise DomainError(f"horizon must be positive, got {M}")
    color = _check_color(coloring, color)
    polys = tuple(polys)
    if isinstance(coloring, BreakpointColoring):
        if M > I64_MAX:
            # the runs are expanded into an int64 array
            raise DomainError(f"horizon {M} is past 2^63 - 1, the largest a breakpoint bad set takes")
        elems = _bad_set_by_runs(coloring, n, polys, color, M)
    else:
        keep_chunks: list[np.ndarray] = []
        for lo in range(1, M + 1, POSITION_CHUNK):
            ms = np.arange(lo, min(M, lo + POSITION_CHUNK - 1) + 1, dtype=np.int64)
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
    color = _check_color(coloring, color)
    horizons = sorted(set(map(int_value, horizons)))
    if not horizons:
        return []
    if horizons[0] < 1:
        raise DomainError(f"horizon must be positive, got {horizons[0]}")
    elems, _ = bad_set(coloring, n, polys, color, horizons[-1])
    counts = np.searchsorted(elems, int_array(horizons), side="right").tolist()
    return [(M, k, int(elems[k - 1]) if k else None) for M, k in zip(horizons, counts)]


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

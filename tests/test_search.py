"""Bitset survivor engine, configuration search, bad-set audits, APs, thresholds."""

import io
import math
import random
from bisect import bisect_right
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    Configuration,
    DomainError,
    ExplicitColoring,
    NoConfiguration,
    PeriodicColoring,
    SeededRandomColoring,
    bad_set,
    bad_set_growth,
    exhaustive_search,
    gowers_threshold,
    greedy_search,
    longest_ap,
    parse_coloring_spec,
    parse_poly,
    power_2coloring,
    read_runlength,
    survivor_set,
    triple_2coloring,
    verify_config,
    write_runlength,
)
from sumset_ramsey.coloring import POSITION_CHUNK as C
from sumset_ramsey.errors import EmptySet
from sumset_ramsey import poly as poly_module
from sumset_ramsey import search as search_module
from sumset_ramsey.search import _candidates

LIN = (parse_poly("n"), parse_poly("2 n"))
PAR = (parse_poly("n"), parse_poly("3 n"))


def _parity_coloring():
    # even -> 1, odd -> 2
    return PeriodicColoring([2, 1])


def _mask_to_set(mask):
    out = set()
    z = 0
    while mask:
        if mask & 1:
            out.add(z)
        mask >>= 1
        z += 1
    return out


def test_verify_config_fixed():
    const = PeriodicColoring([1])
    cfg = Configuration(B=(1, 2), C=(1, 3), polys=LIN, color=1)
    assert verify_config(const, cfg) == 1

    parity = _parity_coloring()
    cfg = Configuration(B=(2, 4), C=(2, 4, 6), polys=PAR, color=1)
    assert verify_config(parity, cfg) == 1

    cfg = Configuration(B=(5,), C=(1,), polys=LIN, color=1)
    assert verify_config(power_2coloring(1, 2), cfg) == 1


def test_verify_config_rejects_mixed():
    parity = _parity_coloring()
    cfg = Configuration(B=(2, 3), C=(2,), polys=PAR, color=1)
    assert verify_config(parity, cfg) is None


def test_survivor_set_fixed():
    evens = PeriodicColoring([2, 1])
    w = evens.window(20)
    got = _mask_to_set(survivor_set(w, LIN, (2,), 1))
    assert got == set(range(2, 17, 2))

    anyw = power_2coloring(1, 2).window(30)
    assert _mask_to_set(survivor_set(anyw, LIN, (), 1)) == set(range(1, 31))

    single = ExplicitColoring(tuple(2 if z == 10 else 1 for z in range(1, 21)), 2)
    w = single.window(20)
    got = _mask_to_set(survivor_set(w, (parse_poly("n"),), (3,), 2))
    assert got == {7}


def test_survivor_set_against_nested_loop():
    rng = random.Random(12001)
    for _ in range(50):
        n = rng.randint(30, 200)
        k = rng.randint(2, 3)
        c = SeededRandomColoring(rng.randint(0, 10**6), k)
        w = c.window(n)
        polys = tuple(
            parse_poly(t)
            for t in rng.sample(["n", "2 n", "3 n", "n^2", "n^2 + n"], rng.randint(2, 3))
        )
        cmax = rng.randint(1, 4)
        C = sorted(rng.sample(range(1, 13), cmax))
        color = rng.randint(1, k)
        got = _mask_to_set(survivor_set(w, polys, C, color))
        want = set()
        for b in range(1, n + 1):
            ok = True
            for cc in C:
                for P in polys:
                    z = b + P(cc)
                    if z > n or c.color(z) != color:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                want.add(b)
        assert got == want


def test_greedy_search_fixed():
    parity = _parity_coloring()
    cfg = greedy_search(parity.window(50), PAR, r=2, maxC=10)
    assert len(cfg.C) >= 5
    assert verify_config(parity, cfg) == cfg.color
    assert len(cfg.B) == 2

    const = PeriodicColoring([1])
    cfg = greedy_search(const.window(20), LIN, r=2, maxC=3)
    assert len(cfg.C) == 3
    assert verify_config(const, cfg) == 1

    alt = PeriodicColoring([1, 2])
    cfg = greedy_search(alt.window(60), LIN, r=1, maxC=2)
    assert len(cfg.C) == 2
    assert verify_config(alt, cfg) == cfg.color


def test_greedy_search_no_configuration():
    # colors 1 and 2 alternate; n and n+1 can never both be color 1 with C={1}
    alt = PeriodicColoring([1, 2])
    with pytest.raises(NoConfiguration):
        greedy_search(alt.window(6), (parse_poly("n"), parse_poly("2 n")), r=7, maxC=2)


def test_greedy_results_verify():
    rng = random.Random(318)
    for _ in range(30):
        n = rng.randint(40, 150)
        k = rng.randint(2, 3)
        c = SeededRandomColoring(rng.randint(0, 10**6), k)
        w = c.window(n)
        polys = tuple(parse_poly(t) for t in rng.sample(["n", "2 n", "3 n"], 2))
        try:
            cfg = greedy_search(w, polys, r=rng.randint(1, 3), maxC=4)
        except NoConfiguration:
            continue
        assert verify_config(c, cfg) == cfg.color
        assert list(cfg.B) == sorted(set(cfg.B))
        assert list(cfg.C) == sorted(set(cfg.C))


ORACLE_POLYS = {
    text: tuple(parse_poly(t) for t in text.split(","))
    for text in ("n,2n", "n,3n", "n^2 - 3n,n", "n^3 - n,n^3 + 3n^2 + 2n", "n,2n,3n")
}


def _greedy_reference(w, polys, r, maxC, cap, steps=None):
    # one survivor_set per (step, candidate): the first candidate with the
    # largest survivor count wins, a step needs at least r survivors; across
    # colors the key is (|C|, survivors, -color).  steps, when given, gets
    # each color's survivor counts after each pick.
    cand = _candidates(w, polys).tolist()
    pool = cand if cap is None or not cand else cand[:: math.ceil(len(cand) / cap)]
    best = None
    for color in range(1, w.palette + 1):
        chosen, count, mask, trail = [], 0, 0, []
        while len(chosen) < maxC:
            pick = None
            for c in pool:
                if c in chosen:
                    continue
                v = survivor_set(w, polys, chosen + [c], color)
                if v.bit_count() >= r and (pick is None or v.bit_count() > count):
                    pick, count, mask = c, v.bit_count(), v
            if pick is None:
                break
            chosen.append(pick)
            trail.append(count)
        if steps is not None:
            steps.append(trail)
        if chosen and (best is None or (len(chosen), count, -color) > best[0]):
            best = ((len(chosen), count, -color), chosen, mask, color)
    if best is None:
        raise NoConfiguration("reference: no first pick in any color")
    (_, count, _), chosen, mask, color = best
    B = tuple(sorted(_mask_to_set(mask)))[:r]
    return Configuration(
        B=B, C=tuple(sorted(chosen)), polys=polys, color=color,
        survivors=count, strategy="greedy",
    )


def _oracle_colorings():
    random_kind = st.builds(SeededRandomColoring, st.integers(0, 10**6), st.integers(2, 3))
    periodic = st.builds(PeriodicColoring, st.lists(st.integers(1, 3), min_size=1, max_size=12))
    explicit = st.integers(2, 3).flatmap(
        lambda k: st.builds(
            lambda vals: ExplicitColoring(vals, k),
            st.lists(st.integers(1, k), min_size=1, max_size=300),
        )
    )
    return st.one_of(random_kind, periodic, explicit)


@settings(max_examples=300, deadline=None)
@given(
    coloring=_oracle_colorings(),
    n=st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129, 1000, 2000]), st.integers(1, 2000)),
    poly_text=st.sampled_from(sorted(ORACLE_POLYS)),
    r=st.integers(1, 4),
    maxC=st.integers(1, 6),
    cap=st.sampled_from([None, 7, 2048]),
)
# a phase A step whose best count is exactly r
@example(
    coloring=PeriodicColoring([3, 2, 2, 3]), n=65,
    poly_text="n^3 - n,n^3 + 3n^2 + 2n", r=3, maxC=1, cap=7,
)
def test_greedy_matches_reference(coloring, n, poly_text, r, maxC, cap):
    w = coloring.window(n)
    polys = ORACLE_POLYS[poly_text]
    try:
        want = _greedy_reference(w, polys, r, maxC, cap)
    except NoConfiguration:
        with pytest.raises(NoConfiguration):
            greedy_search(w, polys, r, maxC, candidate_cap=cap)
        return
    got = greedy_search(w, polys, r, maxC, candidate_cap=cap)
    assert got == want
    assert verify_config(coloring, got) == got.color


# greedy output of the plain argmax search (every candidate scored at every
# step), polys n,2n and r = 3: (color, C, B, survivors).  N = 2^16 runs the
# capped criterion-6 shape (maxC 12, cap 2048), N = 5000 the uncapped maxC 8.
GREEDY_PINNED = {
    ("power2:1,2", 65536):
        (2, (1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177), (511, 512, 513), 42108),
    ("triple:1,2,3", 65536):
        (2, (1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177), (610, 611, 612), 41341),
    ("case2:P=n^2,Q=n^2 + n", 65536):
        (1, (1, 17, 33, 49, 65, 465, 481, 497, 513, 529, 961, 977), (46439, 46440, 46441), 2386),
    ("case2:P=n^2,Q=n^2 + 2n", 65536):
        (1, (1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 977), (37247, 37248, 38023), 3365),
    ("case2:P=n^3 - n,Q=n^3 + 3n^2 + 2n", 65536):
        (2, (1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177), (1319, 1320, 1321), 27315),
    ("recursive:P=n^2,Q=n^3,a0=15,window=65536", 65536):
        (1, (1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177), (58, 59, 60), 55897),
    ("random:k=2,seed=5", 65536):
        (2, (1, 129, 433, 1393, 2017, 2625, 2753, 2993, 4161, 6097, 8993, 13793), (2214, 3003, 5308), 5),
    ("random:k=3,seed=8", 65536):
        (2, (33, 49, 337, 481, 641, 2721, 2785), (26493, 38793, 57099), 3),
    ("power2:1,2", 5000):
        (2, (1, 2, 3, 4, 5, 6, 7, 8), (31, 32, 33), 2660),
    ("triple:1,2,3", 5000):
        (1, (1, 2, 3, 4, 5, 6, 7, 8), (39, 40, 41), 2668),
    ("case2:P=n^2,Q=n^2 + n", 5000):
        (1, (1, 2, 3, 4, 5, 6, 7, 8), (239, 271, 272), 1556),
    ("case2:P=n^2,Q=n^2 + 2n", 5000):
        (2, (1, 2, 3, 4, 5, 6, 7, 8), (62, 63, 98), 2009),
    ("case2:P=n^3 - n,Q=n^3 + 3n^2 + 2n", 5000):
        (1, (1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3), 2548),
    ("recursive:P=n^2,Q=n^3,a0=15,window=65536", 5000):
        (2, (1, 2, 3, 4, 5, 6, 7, 8), (14, 15, 16), 4572),
    ("random:k=2,seed=5", 5000):
        (1, (11, 22, 44, 88, 110, 176, 220, 352), (46, 76, 164), 14),
    ("random:k=3,seed=8", 5000):
        (2, (37, 74, 95, 148, 157, 168, 186, 296), (1248, 1684, 1802), 3),
}


def test_greedy_matrix_phase_with_many_survivors(monkeypatch):
    # at N = 2^18 phase A hands over at 512 survivors or fewer, so a random
    # coloring reaches the survivor matrix with more than 64 survivors
    n = 1 << 18
    switch = max(64, (n + 64) // 64 // 8)
    wide = False
    built = []
    matrix = search_module._survivor_matrix

    def spy(w, color, pvals, surv):
        built.append(surv.shape[0])
        return matrix(w, color, pvals, surv)

    monkeypatch.setattr(search_module, "_survivor_matrix", spy)
    for spec in ("random:k=2,seed=1", "random:k=2,seed=2", "random:k=3,seed=3", "periodic:1121",
                 "periodic:1211211"):
        w = parse_coloring_spec(spec).window(n)
        for cap in (16, 32):
            steps = []
            want = _greedy_reference(w, LIN, 3, 12, cap, steps)
            assert greedy_search(w, LIN, 3, 12, candidate_cap=cap) == want
            for counts in steps:
                first = next((k for k, v in enumerate(counts) if v <= switch), None)
                # the matrix is built when another pick is still allowed
                wide |= first is not None and first + 1 < 12 and counts[first] > 64
    assert wide
    assert max(built) > 64


def test_greedy_rescores_an_equal_bound_at_a_smaller_index(monkeypatch):
    # periodic colorings tie everywhere: at some step a candidate before the
    # winner in pool order holds a stale bound equal to the winning count, so
    # the lazy scan must score it rather than stop at the equal bound
    seen = []
    lazy = search_module._lazy_argmax

    def spy(scorer, vw, bound, r):
        stale = bound.copy()
        pick, best = lazy(scorer, vw, bound, r)
        seen.append(pick >= 0 and bool((stale[:pick] == best).any()))
        return pick, best

    monkeypatch.setattr(search_module, "_lazy_argmax", spy)
    w = PeriodicColoring([1, 1, 1, 1, 2]).window(1000)
    assert greedy_search(w, LIN, 3, 5, candidate_cap=16) == _greedy_reference(w, LIN, 3, 5, 16)
    assert any(seen)


class _FixedCounts:
    # a scorer whose fresh counts are given per pool index, first block of 8
    first = 8

    def __init__(self, fresh):
        self.fresh = np.array(fresh, dtype=np.int64)
        self.scored = []

    def counts(self, vw, start, stop, order):
        rows = order[start:stop]
        self.scored += rows.tolist()
        return self.fresh[rows]


def test_lazy_argmax_scores_an_equal_bound_at_a_smaller_index():
    # the first block (indices 1-8, bound 10) finds count 6 at index 5; index
    # 0 comes next with bound 6 and keeps its 6, so it wins the tie
    bound = np.array([6] + [10] * 8 + [2, -1], dtype=np.int64)
    scorer = _FixedCounts([6, 3, 3, 3, 3, 6, 3, 3, 3, 2, 0])
    assert search_module._lazy_argmax(scorer, None, bound, 2) == (0, 6)
    assert sorted(scorer.scored) == list(range(10))
    assert bound.tolist() == [6, 3, 3, 3, 3, 6, 3, 3, 3, 2, -1]
    # an equal bound at a larger index is never scored
    bound = np.array([10] * 8 + [6, 6], dtype=np.int64)
    scorer = _FixedCounts([3, 3, 6, 3, 3, 3, 3, 3, 6, 6])
    assert search_module._lazy_argmax(scorer, None, bound, 1) == (2, 6)
    assert sorted(scorer.scored) == list(range(8))
    # nothing reaches r: no bound below r is scored
    bound = np.array([4, 2, 3], dtype=np.int64)
    scorer = _FixedCounts([2, 2, 2])
    assert search_module._lazy_argmax(scorer, None, bound, 3) == (-1, 2)
    assert sorted(scorer.scored) == [0, 2]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 300),
    color=st.integers(1, 2),
    shifts=st.lists(st.lists(st.integers(-301, 301), min_size=3, max_size=3), min_size=1, max_size=2),
    order=st.permutations(range(3)),
    pick=st.integers(0, 2),
)
# the shift table's last byte: the packed mask fills the table and no shift reaches 8
@example(seed=1, n=63, color=1, shifts=[[1, 5, 7], [0, 3, 6]], order=[0, 1, 2], pick=0)
# N - reach on the last bit of word 0 (shift 64) and the first bit of word 1
# (shift 63); position 127 has color 1
@example(seed=1, n=127, color=1, shifts=[[0, 63, 64]], order=[2, 1, 0], pick=1)
# a shift past n keeps no word; a shift of exactly n keeps word 0, which holds no survivor
@example(seed=1, n=100, color=1, shifts=[[5, 301, 100], [3, -4, 100]], order=[1, 2, 0], pick=2)
# negative shifts keep the full width
@example(seed=2, n=200, color=1, shifts=[[-5, -301, -1]], order=[0, 1, 2], pick=0)
def test_window_scorer_matches_shifted_mask(seed, n, color, shifts, order, pick):
    # a candidate keeps b iff b + P(c) has the color, for each P; shifts are clipped as in the pool
    w = SeededRandomColoring(seed, 2).window(n)
    pvals = [np.clip(np.array(sh, dtype=np.int64), -(n + 1), n + 1) for sh in shifts]
    scorer = search_module._Scorer(w, color, search_module._Layout(w, pvals))
    cols = w.colors.tolist()
    want = [
        [b for b in range(1, n + 1) if all(1 <= b + int(pv[j]) <= n and cols[b + int(pv[j])] == color for pv in pvals)]
        for j in range(3)
    ]
    for j in range(3):
        assert scorer.lowest(scorer.survivors_with(scorer.full, slice(j, j + 1))[0]).tolist() == want[j]
    order = np.array(order, dtype=np.int64)
    assert scorer.counts(scorer.full, 0, 3).tolist() == [len(v) for v in want]
    assert scorer.counts(scorer.full, 0, 3, order).tolist() == [len(want[j]) for j in order]
    # after a pick the survivor words may stop early; later candidates score on them as given
    vw = scorer.survivors_with(scorer.full, slice(pick, pick + 1))[0]
    kept = [[b for b in v if b in want[pick]] for v in want]
    for j in range(3):
        assert scorer.lowest(scorer.survivors_with(vw, slice(j, j + 1))[0]).tolist() == kept[j]
    assert scorer.counts(vw, 0, 3, order).tolist() == [len(kept[j]) for j in order]
    for got, j in zip(scorer.survivors_with(vw, order), order):
        assert scorer.lowest(got).tolist() == kept[j]


@settings(max_examples=150, deadline=None)
@given(
    coloring=st.one_of(
        st.builds(SeededRandomColoring, st.integers(0, 10**6), st.integers(2, 3)),
        st.builds(PeriodicColoring, st.lists(st.integers(1, 3), min_size=1, max_size=12)),
    ),
    n=st.integers(1, 1 << 12),
    poly_text=st.sampled_from(sorted(ORACLE_POLYS)),
    cap=st.sampled_from([None, 7, 64]),
    data=st.data(),
)
def test_matrix_scorer_agrees_with_window_scorer(coloring, n, poly_text, cap, data):
    # after a prefix of C scored on the window, the survivor matrix over the
    # survivors left must count, filter and report them as the window does
    w = coloring.window(n)
    pool = _candidates(w, ORACLE_POLYS[poly_text], cap)
    if not pool.shape[0]:
        return
    pvals = search_module._pool_shifts(w, ORACLE_POLYS[poly_text], pool)
    color = data.draw(st.integers(1, w.palette), label="color")
    index = st.integers(0, pool.shape[0] - 1)
    prefix = data.draw(st.lists(index, max_size=4, unique=True), label="prefix")
    scorer = search_module._Scorer(w, color, search_module._Layout(w, pvals))
    vw = scorer.full
    for j in prefix:
        vw = scorer.survivors_with(vw, slice(j, j + 1))[0]
    surv = scorer.lowest(vw)
    if not surv.shape[0]:
        return
    matrix = search_module._MatrixScorer(w, color, pvals, surv)
    mv = matrix.full
    assert matrix.lowest(mv).tolist() == surv.tolist()
    order = np.array(data.draw(st.permutations(range(pool.shape[0])), label="order"), dtype=np.int64)
    start = data.draw(st.integers(0, pool.shape[0]), label="start")
    stop = data.draw(st.integers(start, pool.shape[0]), label="stop")
    assert matrix.counts(mv, start, stop, order).tolist() == scorer.counts(vw, start, stop, order).tolist()
    assert matrix.counts(mv, start, stop).tolist() == scorer.counts(vw, start, stop).tolist()
    r = data.draw(st.one_of(st.none(), st.integers(1, 4)), label="r")
    rows = order[start:stop]
    for got, want in zip(matrix.survivors_with(mv, rows), scorer.survivors_with(vw, rows)):
        assert matrix.lowest(got, r).tolist() == scorer.lowest(want, r).tolist()
    # a pick on each keeps them in step
    j = data.draw(index, label="pick")
    mv = matrix.survivors_with(mv, slice(j, j + 1))[0]
    vw = scorer.survivors_with(vw, slice(j, j + 1))[0]
    assert matrix.lowest(mv, r).tolist() == scorer.lowest(vw, r).tolist()
    assert matrix.counts(mv, 0, pool.shape[0]).tolist() == scorer.counts(vw, 0, pool.shape[0]).tolist()


@pytest.mark.parametrize("spec,n", sorted(GREEDY_PINNED))
def test_greedy_output_pinned(spec, n):
    maxC, cap = (12, 2048) if n == 65536 else (8, None)
    cfg = greedy_search(parse_coloring_spec(spec).window(n), LIN, r=3, maxC=maxC, candidate_cap=cap)
    color, C, B, survivors = GREEDY_PINNED[spec, n]
    assert cfg == Configuration(B=B, C=C, polys=LIN, color=color, survivors=survivors, strategy="greedy")


@pytest.mark.parametrize("poly_text", sorted(ORACLE_POLYS))
def test_candidates_match_brute_force(poly_text):
    # every c with all P(c) <= N lies below N + sum |coeffs| of any P
    polys = ORACLE_POLYS[poly_text]
    const = PeriodicColoring([1])
    slack = max(sum(abs(c) for c in P.coeffs) for P in polys)
    for n in range(1, 201):
        want = [c for c in range(1, n + slack + 1) if all(P(c) <= n for P in polys)]
        for cap in (None, 7, 2048):
            step = math.ceil(len(want) / cap) if cap is not None and len(want) > cap else 1
            assert _candidates(const.window(n), polys, cap).tolist() == want[::step]
    for n in (5000, 65536, 10**6):
        cs = np.arange(1, n + slack + 1, dtype=np.int64)
        want = cs[np.logical_and.reduce([P(cs) <= n for P in polys])]
        for cap in (None, 7, 2048):
            step = math.ceil(want.shape[0] / cap) if cap is not None and want.shape[0] > cap else 1
            got = _candidates(const.window(n), polys, cap)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[::step])


def test_exhaustive_search_fixed():
    const = PeriodicColoring([1])
    cfg = exhaustive_search(const.window(10), LIN, r=2, sizeC=2)
    assert cfg is not None
    assert verify_config(const, cfg) == 1

    alt = PeriodicColoring([1, 2])
    got = exhaustive_search(alt.window(30), LIN, r=2, sizeC=2)
    if got is not None:
        assert verify_config(alt, got) == got.color


def _oracle_best(c, n, polys, r, sizeC):
    # nested-loop enumeration over all C of the given size; best survivor count
    best = None
    cand = [cc for cc in range(1, n + 1) if max(P(cc) for P in polys) < n]
    for C in combinations(cand, sizeC):
        for color in range(1, c.palette + 1):
            surv = []
            for b in range(1, n + 1):
                if all(b + P(cc) <= n and c.color(b + P(cc)) == color for cc in C for P in polys):
                    surv.append(b)
            if len(surv) >= r:
                key = (len(surv), -color)
                if best is None or key > best[0]:
                    best = (key, C, color, len(surv))
    return best


def _exhaustive_reference(w, polys, r, sizeC):
    # one survivor_set per C, colors in turn and C in lexicographic order; a
    # strictly larger count with at least r survivors replaces the best
    best = None
    for color in range(1, w.palette + 1):
        for C in combinations(_candidates(w, polys).tolist(), sizeC):
            v = survivor_set(w, polys, C, color)
            if v.bit_count() >= r and (best is None or v.bit_count() > best[0]):
                best = (v.bit_count(), color, C, v)
    if best is None:
        return None
    count, color, C, v = best
    return Configuration(
        B=tuple(sorted(_mask_to_set(v)))[:r], C=C, polys=polys, color=color,
        survivors=count, strategy="exhaustive",
    )


# sizeC 3 only up to N = 120: the reference enumerates every C
_EXHAUSTIVE_SHAPES = st.one_of(
    st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 400)
).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 3 if n <= 120 else 2)))


@settings(max_examples=150, deadline=None)
@given(
    coloring=_oracle_colorings(),
    shape=_EXHAUSTIVE_SHAPES,
    poly_text=st.sampled_from(sorted(ORACLE_POLYS)),
    r=st.integers(1, 4),
)
# ties everywhere: the first C in lexicographic order and the smaller color win
@example(coloring=PeriodicColoring([1, 2]), shape=(64, 2), poly_text="n,2n", r=1)
@example(coloring=PeriodicColoring([1]), shape=(120, 3), poly_text="n,3n", r=4)
def test_exhaustive_matches_reference(coloring, shape, poly_text, r):
    n, sizeC = shape
    w = coloring.window(n)
    polys = ORACLE_POLYS[poly_text]
    assert exhaustive_search(w, polys, r, sizeC) == _exhaustive_reference(w, polys, r, sizeC)


def test_exhaustive_matches_oracle():
    rng = random.Random(7007)
    for _ in range(50):
        n = rng.randint(15, 40)
        c = SeededRandomColoring(rng.randint(0, 10**6), 2)
        polys = tuple(parse_poly(t) for t in rng.sample(["n", "2 n", "n^2"], 2))
        r = rng.randint(1, 2)
        sizeC = rng.randint(1, 2)
        want = _oracle_best(c, n, polys, r, sizeC)
        got = exhaustive_search(c.window(n), polys, r=r, sizeC=sizeC)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert verify_config(c, got) == got.color
            assert got.survivors == want[3]


def test_greedy_never_beats_exhaustive():
    rng = random.Random(888)
    for _ in range(20):
        n = rng.randint(15, 40)
        c = SeededRandomColoring(rng.randint(0, 10**6), 2)
        w = c.window(n)
        polys = LIN
        r = rng.randint(1, 2)
        try:
            g = greedy_search(w, polys, r=r, maxC=2)
        except NoConfiguration:
            continue
        if len(g.C) >= 2:
            assert exhaustive_search(w, polys, r=r, sizeC=2) is not None
        else:
            # greedy stopped at |C|=1: exhaustive may still find a pair, but
            # greedy at sizeC=1 must be realizable too
            assert exhaustive_search(w, polys, r=r, sizeC=1) is not None


def test_bad_set_fixed():
    const = PeriodicColoring([1])
    S, rep = bad_set(const, 3, LIN, 1, 100)
    assert list(S) == list(range(1, 101))
    assert rep.count == 100
    assert rep.max_element == 100
    assert not rep.stabilized

    S, rep = bad_set(const, 3, LIN, 2, 100)
    assert len(S) == 0
    assert rep.count == 0
    assert rep.max_element is None
    assert rep.stabilized

    # n and M are integers, never truncated or read from a bool
    for n, M in ((1.5, 100), (True, 100), (3, 10.5), (3, True)):
        with pytest.raises(DomainError):
            bad_set(const, n, LIN, 1, M)


def test_bad_set_triple_stabilizes():
    c = triple_2coloring(1, 2, 3)
    polys = (parse_poly("n"), parse_poly("2 n"), parse_poly("3 n"))
    S, rep = bad_set(c, 1, polys, 1, 10**4)
    assert rep.stabilized
    assert rep.count == len(S)
    # frozen from a direct enumeration of m with all of 1+m, 1+2m, 1+3m color 1
    want = [m for m in range(1, 10**4 + 1)
            if all(c.color(1 + t * m) == 1 for t in (1, 2, 3))]
    assert list(S) == want
    assert rep.count > 0
    assert rep.max_element == want[-1]
    assert rep.max_element <= 5000


def _power2_bad_count(n, color, M):
    # power2:1,2 colors [1, 4) and each band [2^j, 2^(j+1)), j >= 2, by the
    # parity of j (even: 1); m is bad when n + m and n + 2m land in bands of
    # the color.  For j >= 2 only equal bands can pair, which gives the closed
    # form [2^j - n, (2^(j+1) - n - 1) // 2] per band j of the color.
    bands = [(1, 4, 1)] + [(1 << j, 1 << (j + 1), 2 - (j % 2 == 0)) for j in range(2, 66)]
    ours = [(lo, hi) for lo, hi, c in bands if c == color]
    count = 0
    for lo1, hi1 in ours:
        for lo2, hi2 in ours:
            first = max(1, lo1 - n, -(-(lo2 - n) // 2))
            last = min(M, hi1 - 1 - n, (hi2 - 1 - n) // 2)
            count += max(0, last - first + 1)
    return count


@pytest.mark.parametrize("M", [2**63 - 4, 2**63 - 3, 2**63 - 2, 2**63 - 1])
def test_bad_set_power2_up_to_int64_max(M):
    # the runs of n + m and n + 2m reach past 2^63; M + 1 itself need not fit
    c = power_2coloring(1, 2)
    for n, color in ((200, 2), (1, 1), (5, 2)):
        S, rep = bad_set(c, n, LIN, color, M)
        assert S.dtype == np.int64
        assert rep.count == len(S) == _power2_bad_count(n, color, M)
        assert S.tolist() == sorted(set(S.tolist())) and 1 <= S[0] and S[-1] <= M
        for m in S.tolist():
            assert c.color(n + m) == color and c.color(n + 2 * m) == color
    assert [_power2_bad_count(n, color, 2**63 - 4) for n, color in ((200, 2), (1, 1), (5, 2))] == [2827, 33, 92]


@pytest.mark.parametrize("M", [2**62 - 1, 10**18])
def test_bad_set_recursive_with_cuts_past_int64(M):
    # n + m^3 passes 2^63, so the ladder inverts P past int64 on a fresh coloring
    c = parse_coloring_spec("recursive:P=n^2,Q=n^3,a0=15")
    S, rep = bad_set(c, 1, (parse_poly("n^2"), parse_poly("n^3")), 1, M)
    assert S.tolist() == [1, 2] and rep.count == 2 and rep.stabilized
    for m in (1, 2, 3, M // 2, M):
        assert (m in (1, 2)) == (c.color(1 + m**2) == c.color(1 + m**3) == 1)


def test_bad_set_refuses_breakpoint_horizon_past_int64():
    # the runs would be expanded into an int64 array
    c = power_2coloring(1, 2)
    for M in (2**63, 10**19):
        with pytest.raises(DomainError, match="past 2\\^63 - 1"):
            bad_set(c, 1, LIN, 1, M)
        with pytest.raises(DomainError, match="past 2\\^63 - 1"):
            bad_set_growth(c, 1, LIN, 1, [100, M])
    assert bad_set(c, 1, LIN, 1, 2**63 - 1)[1].count == _power2_bad_count(1, 1, 2**63 - 1)


def test_bad_set_matches_enumeration():
    rng = random.Random(606)
    for _ in range(25):
        k = rng.randint(2, 3)
        c = SeededRandomColoring(rng.randint(0, 10**6), k)
        n = rng.randint(1, 30)
        color = rng.randint(1, k)
        M = rng.randint(10, 400)
        polys = tuple(parse_poly(t) for t in rng.sample(["n", "2 n", "n^2"], 2))
        S, rep = bad_set(c, n, polys, color, M)
        want = [m for m in range(1, M + 1)
                if all(c.color(n + P(m)) == color for P in polys)]
        assert list(S) == want
        assert rep.count == len(want)
        assert rep.max_element == (want[-1] if want else None)
        assert rep.stabilized == (not any(m > M // 2 for m in want))
        assert rep.horizon == M
        assert rep.n == n and rep.color == color


def test_bad_sets_partition_agreements():
    # for a 2-coloring and two polys, the per-color bad sets partition the
    # set of m where both polynomial images share a color
    rng = random.Random(41)
    for _ in range(10):
        c = SeededRandomColoring(rng.randint(0, 10**6), 2)
        n = rng.randint(1, 20)
        M = 300
        s1, _ = bad_set(c, n, LIN, 1, M)
        s2, _ = bad_set(c, n, LIN, 2, M)
        union = set(s1.tolist()) | set(s2.tolist())
        assert not (set(s1.tolist()) & set(s2.tolist()))
        want = {m for m in range(1, M + 1) if c.color(n + m) == c.color(n + 2 * m)}
        assert union == want


PER_M_KINDS = pytest.mark.parametrize(
    "c,color",
    [(SeededRandomColoring(3, 2), 1), (PeriodicColoring([1, 2, 2, 1, 2, 1, 1]), 2)],
    ids=["random", "periodic"],
)


@PER_M_KINDS
@pytest.mark.parametrize(
    "texts",
    # 3 + 10^15 m^2 passes 2^63 at m = 97, in the first chunk; 3 + 10^9 m^2
    # at m = 96039, in the second
    [("n^2", "n^3 + 2n"), ("1000000000000000n^2",), ("1000000000n^2", "n")],
    ids=["int64", "wide-in-chunk-1", "wide-in-chunk-2"],
)
def test_bad_set_per_m_pass_across_chunk_edges(c, color, texts):
    polys = tuple(parse_poly(t) for t in texts)
    n, top = 3, 2 * C + 3
    want = [m for m in range(1, top + 1) if all(c.color(n + P(m)) == color for P in polys)]
    assert want
    for M in (C, C + 1, top):
        S, rep = bad_set(c, n, polys, color, M)
        expect = want[: bisect_right(want, M)]
        assert S.tolist() == expect
        assert (rep.count, rep.max_element) == (len(expect), expect[-1])


# measured at M = 16C above the output: 2.7 MB on random and 3.0 MB on
# periodic, 2.1 and 2.4 MB of it the kept chunks (a second copy of the output
# until they are joined); 34.6 and 33.3 MB with chunks of 2^20
BAD_SET_PEAK_BOUND = 4 * 2**20


@PER_M_KINDS
def test_bad_set_per_m_peak_is_bounded(c, color, traced_peak):
    polys = (parse_poly("n^2"), parse_poly("n^3 + 2n"))
    (S, _), peak = traced_peak(lambda: bad_set(c, 3, polys, color, 16 * C))
    assert S.shape[0] > 0
    assert peak - S.nbytes <= BAD_SET_PEAK_BOUND, peak - S.nbytes


BREAKPOINT_POLYS = ("n", "2n", "3n", "n^2 - 3n", "n^3 - n", "n^3 - 5n^2")
# values past 2^62 at M = 2000: the object path (not drawn with case2, whose
# breakpoints are polynomially spaced)
BIG_POLYS = ("1000000n^4", "n^7 - 3n^6")
CASE2_SPECS = (
    "case2:P=n^2,Q=n^2 + n",                 # part I
    "case2:P=n^2,Q=n^2 + 2n",                # part II
    "case2:P=n^3 - n,Q=n^3 + 3n^2 + 2n",     # part III
)


def _increasing(k):
    return st.lists(st.integers(1, 8), min_size=k, max_size=k, unique=True).map(sorted)


_BREAKPOINT_SPECS = st.one_of(
    _increasing(3).map(lambda t: "triple:{},{},{}".format(*t)),
    _increasing(2).map(lambda t: "geo3:{},{}".format(*t)),
    _increasing(2).map(lambda t: "power2:{},{}".format(*t)),
    st.sampled_from(CASE2_SPECS),
)


@settings(max_examples=200, deadline=None)
@given(
    spec=_BREAKPOINT_SPECS,
    texts=st.lists(st.sampled_from(BREAKPOINT_POLYS + BIG_POLYS), min_size=1, max_size=3, unique=True),
    n=st.integers(-60, 40),
    M=st.integers(1, 2000),
    color_draw=st.integers(0, 5),
)
# non-monotone heads below zero, and values past 2^63 on the object path
@example(spec="triple:1,2,3", texts=["n^3 - 5n^2", "n^2 - 3n"], n=-60, M=2000, color_draw=0)
@example(spec="geo3:1,2", texts=["n^7 - 3n^6", "n"], n=-1, M=2000, color_draw=1)
@example(spec=CASE2_SPECS[0], texts=["n^2 - 3n", "n^3 - n"], n=-60, M=2000, color_draw=1)
# P falls for m < 500, and n + P(m) < 1 up to m = 1000
@example(spec="power2:1,2", texts=["n^2 - 1000n", "n"], n=1, M=2000, color_draw=0)
# n + P(m) falls from 111 to 30 through the breakpoints 98 and 40, then rises
@example(spec="triple:1,2,3", texts=["n^2 - 20n"], n=130, M=2000, color_draw=1)
def test_bad_set_matches_scalar_oracle(spec, texts, n, M, color_draw):
    if spec.startswith("case2"):
        texts = [t for t in texts if t not in BIG_POLYS] or ["n"]
    polys = tuple(parse_poly(t) for t in texts)
    c, fresh = parse_coloring_spec(spec), parse_coloring_spec(spec)
    color = 1 + color_draw % c.palette
    want = [m for m in range(1, M + 1)
            if all(n + P(m) >= 1 and fresh.color(n + P(m)) == color for P in polys)]
    S, rep = bad_set(c, n, polys, color, M)
    assert S.tolist() == want
    assert (rep.count, rep.max_element) == (len(want), want[-1] if want else None)
    if not spec.startswith("case2"):
        # the audit pattern: a query past 2^63 extends the breakpoints beyond
        # int64, and the same object is asked again
        bad_set(c, n, (parse_poly("n^7 - 3n^6"),), color, 2000)
        S, _ = bad_set(c, n, polys, color, M)
        assert S.tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    spec=_BREAKPOINT_SPECS,
    texts=st.lists(st.sampled_from(BREAKPOINT_POLYS + BIG_POLYS), min_size=1, max_size=3, unique=True),
    n=st.integers(-60, 40),
    M=st.integers(1, 5000),
    color_draw=st.integers(0, 5),
)
def test_bad_set_bisection_matches_dense_pass(spec, texts, n, M, color_draw):
    # the cost rule picks one dense level at small M: force many levels and
    # one in turn
    if spec.startswith("case2"):
        texts = [t for t in texts if t not in BIG_POLYS] or ["n"]
    polys = tuple(parse_poly(t) for t in texts)
    got = []
    for overhead in (0, 10**12):
        c = parse_coloring_spec(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly_module, "_STEP_OVERHEAD", overhead)
            got.append(bad_set(c, n, polys, 1 + color_draw % c.palette, M)[0].tolist())
    assert got[0] == got[1]


def _hits_colorings():
    buf = io.StringIO()
    write_runlength(SeededRandomColoring(4, 3), 300, buf)
    return [
        SeededRandomColoring(9, 3),
        PeriodicColoring([1, 1, 2, 1]),
        ExplicitColoring((2, 1, 2, 2, 1), 2),
        read_runlength(io.StringIO(buf.getvalue())),
    ]


_HITS_COLORINGS = _hits_colorings()


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 3),
    text=st.sampled_from(("n", "3n^2 - 7n", "n^3 + 2n", "5n^4 - n^2", "n^2 - 40n")),
    n=st.integers(-400, 400),
    head=st.lists(st.integers(1, 50), max_size=6),
    tail=st.lists(st.integers(0, 40), max_size=6),
    color_draw=st.integers(0, 2),
)
def test_hits_int64_and_object_paths_match_scalar(which, text, n, head, tail, color_draw):
    # ms ends at the last m whose values fit the int64 path; one m more
    # sends the same query down the object path
    c, P = _HITS_COLORINGS[which], parse_poly(text)
    color = 1 + color_draw % c.palette
    fits = poly_module._fits_int64
    lo, hi = 1, 2
    while fits(P, n, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(P, n, mid) else (lo, mid)
    assert fits(P, n, lo) and not fits(P, n, lo + 1)
    ms = sorted(set(head) | {lo - t for t in tail if lo - t >= 1} | {lo})
    for top in (lo, lo + 1):
        ms_top = np.array(sorted(set(ms) | {top}), dtype=np.int64)
        want = [v >= 1 and c.color(v) == color for v in (n + P(m) for m in ms_top.tolist())]
        assert search_module._hits(c, n, P, ms_top, color).tolist() == want


def test_bad_set_growth_matches_bad_set():
    c = SeededRandomColoring(17, 2)
    horizons = [50, 100, 200, 400]
    rows = bad_set_growth(c, 5, LIN, 1, horizons)
    assert [row[0] for row in rows] == horizons
    for M, count, max_el in rows:
        _, rep = bad_set(c, 5, LIN, 1, M)
        assert count == rep.count
        assert max_el == rep.max_element


@pytest.mark.parametrize(
    "c", [SeededRandomColoring(3, 2), PeriodicColoring([1, 2, 3]), triple_2coloring(1, 2, 3)],
    ids=["random", "periodic", "triple"],
)
def test_audits_reject_colors_outside_palette(c):
    k = c.palette
    for color in (0, k + 1, 1.5, True):
        with pytest.raises(DomainError):
            bad_set(c, 1, LIN, color, 10)
        with pytest.raises(DomainError):
            bad_set_growth(c, 1, LIN, color, [10])
    _, rep = bad_set(c, 1, LIN, k, 10)
    assert bad_set_growth(c, 1, LIN, k, [10]) == [(10, rep.count, rep.max_element)]


@pytest.mark.parametrize("horizons", [[0, 10], [-5, 10], [10.7, 20]])
def test_bad_set_growth_rejects_horizons_below_1(horizons):
    with pytest.raises(DomainError):
        bad_set_growth(triple_2coloring(1, 2, 3), 1, LIN, 1, horizons)


def test_longest_ap_fixed():
    # {1,3,5,7,9} is a 5-term progression inside the set
    assert longest_ap({1, 2, 3, 5, 7, 9}) == (1, 2, 5)
    assert longest_ap({4}) == (4, 0, 1)
    assert longest_ap({2, 4, 6, 8}) == (2, 2, 4)


def test_longest_ap_empty():
    with pytest.raises(EmptySet):
        longest_ap(())


def _ap_brute_force(S):
    pts = sorted(S)
    if len(pts) == 1:
        return (pts[0], 0, 1)
    sset = set(pts)
    best = (pts[0], 0, 1)

    def better(cand):
        # longer wins; then smaller difference; then smaller start
        return (cand[2], -cand[1], -cand[0]) > (best[2], -best[1], -best[0])

    for s in pts:
        for t in pts:
            if t <= s:
                continue
            d = t - s
            length = 2
            while s + length * d in sset:
                length += 1
            cand = (s, d, length)
            if better(cand):
                best = cand
    return best


def test_longest_ap_matches_brute_force():
    rng = random.Random(73)
    for _ in range(100):
        size = rng.randint(1, 50)
        S = set(rng.sample(range(1, 300), size))
        assert longest_ap(S) == _ap_brute_force(S)


def test_gowers_threshold_fixed():
    # the correction for k=3 is 2^-4096 * lnlnln N: the reference must be
    # evaluated above 4096 bits or the subtraction is invisible
    with mpmath.workprec(4200):
        got = gowers_threshold(3, 10**6)
        ln_n = mpmath.log(10**6)
        assert got < ln_n
        diff = ln_n - got
        want = mpmath.ldexp(mpmath.log(mpmath.log(mpmath.log(10**6))), -(2**12))
        assert diff > 0
        assert abs(diff - want) / want < mpmath.mpf("1e-15")


def _gowers_reference(k, N):
    # the full-precision formula: every logarithm at the subtraction's width
    with mpmath.workprec(2 ** min(k + 9, 20) + 64):
        lnN = mpmath.ln(N)
        lll = mpmath.ln(mpmath.ln(mpmath.ln(N)))
        return lnN - mpmath.ldexp(lll, -(2 ** (k + 9)))


@pytest.mark.parametrize("k", range(1, 7))
def test_gowers_threshold_matches_full_precision(k):
    for N in (16, 17, 100, 1007, 10**6, 2**40 + 3, 10**30):
        assert gowers_threshold(k, N) == _gowers_reference(k, N)


def test_gowers_threshold_monotone():
    # increasing in k at fixed N; corrections shrink as 2^-2^(k+9) so the
    # comparisons ride on the stored high-precision mantissas
    prev = gowers_threshold(1, 10**6)
    for k in range(2, 8):
        cur = gowers_threshold(k, 10**6)
        assert cur > prev
        prev = cur
    # increasing in N at fixed k, and below ln N
    ns = [16, 100, 10**4, 10**8, 10**12]
    vals = [gowers_threshold(2, n) for n in ns]
    with mpmath.workprec(4200):
        for n, v in zip(ns, vals):
            assert v < mpmath.log(n)
    for lo, hi in zip(vals, vals[1:]):
        assert hi > lo


def test_gowers_threshold_domain():
    with pytest.raises(DomainError):
        gowers_threshold(1, 10)
    with pytest.raises(DomainError):
        gowers_threshold(1, 15)
    # e^e = 15.15...; 16 is inside the regime
    assert gowers_threshold(1, 16) > 0


def test_configuration_json_shape():
    const = PeriodicColoring([1])
    cfg = greedy_search(const.window(20), LIN, r=2, maxC=3)
    doc = cfg.to_json(20)
    assert doc["B"] == list(cfg.B)
    assert doc["C"] == list(cfg.C)
    assert doc["polys"] == ["n", "2n"]
    assert doc["color"] == cfg.color
    assert doc["N"] == 20
    assert doc["strategy"] == "greedy"

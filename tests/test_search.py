"""Bitset survivor engine, configuration search, bad-set audits, APs, thresholds."""

import io
import math
import random
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    Configuration,
    DomainError,
    NoConfiguration,
    bad_set,
    bad_set_growth,
    custom_coloring,
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
    window,
    write_runlength,
)
from sumset_ramsey.errors import EmptySet
from sumset_ramsey import search as search_module
from sumset_ramsey.search import _candidates

LIN = (parse_poly("n"), parse_poly("2 n"))
PAR = (parse_poly("n"), parse_poly("3 n"))


def _parity_coloring():
    # even -> 1, odd -> 2
    return custom_coloring("periodic", pattern="21")


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
    const = custom_coloring("periodic", pattern="1")
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
    evens = custom_coloring("periodic", pattern="21")
    w = window(evens, 20)
    got = _mask_to_set(survivor_set(w, LIN, (2,), 1))
    assert got == set(range(2, 17, 2))

    anyw = window(power_2coloring(1, 2), 30)
    assert _mask_to_set(survivor_set(anyw, LIN, (), 1)) == set(range(1, 31))

    single = custom_coloring("explicit", values=tuple(2 if z == 10 else 1 for z in range(1, 21)), palette=2)
    w = window(single, 20)
    got = _mask_to_set(survivor_set(w, (parse_poly("n"),), (3,), 2))
    assert got == {7}


def test_survivor_set_against_nested_loop():
    rng = random.Random(12001)
    for _ in range(50):
        n = rng.randint(30, 200)
        k = rng.randint(2, 3)
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=k)
        w = window(c, n)
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
    cfg = greedy_search(window(parity, 50), PAR, r=2, maxC=10)
    assert len(cfg.C) >= 5
    assert verify_config(parity, cfg) == cfg.color
    assert len(cfg.B) == 2

    const = custom_coloring("periodic", pattern="1")
    cfg = greedy_search(window(const, 20), LIN, r=2, maxC=3)
    assert len(cfg.C) == 3
    assert verify_config(const, cfg) == 1

    alt = custom_coloring("periodic", pattern="12")
    cfg = greedy_search(window(alt, 60), LIN, r=1, maxC=2)
    assert len(cfg.C) == 2
    assert verify_config(alt, cfg) == cfg.color


def test_greedy_search_no_configuration():
    # colors 1 and 2 alternate; n and n+1 can never both be color 1 with C={1}
    alt = custom_coloring("periodic", pattern="12")
    with pytest.raises(NoConfiguration):
        greedy_search(window(alt, 6), (parse_poly("n"), parse_poly("2 n")), r=7, maxC=2)


def test_greedy_results_verify():
    rng = random.Random(318)
    for _ in range(30):
        n = rng.randint(40, 150)
        k = rng.randint(2, 3)
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=k)
        w = window(c, n)
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


def _greedy_reference(w, polys, r, maxC, cap):
    # one survivor_set per (step, candidate): the first candidate with the
    # largest survivor count wins, a step needs at least r survivors; across
    # colors the key is (|C|, survivors, -color)
    cand = _candidates(w, polys).tolist()
    pool = cand if cap is None or not cand else cand[:: math.ceil(len(cand) / cap)]
    best = None
    for color in range(1, w.palette + 1):
        chosen, count, mask = [], 0, 0
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
    random_kind = st.builds(
        lambda seed, k: custom_coloring("random", seed=seed, k=k),
        st.integers(0, 10**6), st.integers(2, 3),
    )
    periodic = st.builds(
        lambda pat: custom_coloring("periodic", pattern=pat),
        st.text(alphabet="123", min_size=1, max_size=12),
    )
    explicit = st.integers(2, 3).flatmap(
        lambda k: st.builds(
            lambda vals: custom_coloring("explicit", values=vals, palette=k),
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
    coloring=custom_coloring("periodic", pattern="3223"), n=65,
    poly_text="n^3 - n,n^3 + 3n^2 + 2n", r=3, maxC=1, cap=7,
)
def test_greedy_matches_reference(coloring, n, poly_text, r, maxC, cap):
    w = window(coloring, n)
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


@pytest.mark.parametrize("poly_text", sorted(ORACLE_POLYS))
def test_candidates_match_brute_force(poly_text):
    # every c with all P(c) <= N lies below N + sum |coeffs| of any P
    polys = ORACLE_POLYS[poly_text]
    const = custom_coloring("periodic", pattern="1")
    slack = max(sum(abs(c) for c in P.coeffs) for P in polys)
    for n in range(1, 201):
        want = [c for c in range(1, n + slack + 1) if all(P(c) <= n for P in polys)]
        assert _candidates(window(const, n), polys).tolist() == want
    n = 10**6
    cs = np.arange(1, n + slack + 1, dtype=np.int64)
    keep = np.logical_and.reduce([P(cs) <= n for P in polys])
    got = _candidates(window(const, n), polys)
    assert got.dtype == np.int64
    assert np.array_equal(got, cs[keep])


def test_exhaustive_search_fixed():
    const = custom_coloring("periodic", pattern="1")
    cfg = exhaustive_search(window(const, 10), LIN, r=2, sizeC=2)
    assert cfg is not None
    assert verify_config(const, cfg) == 1

    alt = custom_coloring("periodic", pattern="12")
    got = exhaustive_search(window(alt, 30), LIN, r=2, sizeC=2)
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
@example(coloring=custom_coloring("periodic", pattern="12"), shape=(64, 2), poly_text="n,2n", r=1)
@example(coloring=custom_coloring("periodic", pattern="1"), shape=(120, 3), poly_text="n,3n", r=4)
def test_exhaustive_matches_reference(coloring, shape, poly_text, r):
    n, sizeC = shape
    w = window(coloring, n)
    polys = ORACLE_POLYS[poly_text]
    assert exhaustive_search(w, polys, r, sizeC) == _exhaustive_reference(w, polys, r, sizeC)


def test_exhaustive_matches_oracle():
    rng = random.Random(7007)
    for _ in range(50):
        n = rng.randint(15, 40)
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=2)
        polys = tuple(parse_poly(t) for t in rng.sample(["n", "2 n", "n^2"], 2))
        r = rng.randint(1, 2)
        sizeC = rng.randint(1, 2)
        want = _oracle_best(c, n, polys, r, sizeC)
        got = exhaustive_search(window(c, n), polys, r=r, sizeC=sizeC)
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
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=2)
        w = window(c, n)
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
    const = custom_coloring("periodic", pattern="1")
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


def test_bad_set_matches_enumeration():
    rng = random.Random(606)
    for _ in range(25):
        k = rng.randint(2, 3)
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=k)
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
        c = custom_coloring("random", seed=rng.randint(0, 10**6), k=2)
        n = rng.randint(1, 20)
        M = 300
        s1, _ = bad_set(c, n, LIN, 1, M)
        s2, _ = bad_set(c, n, LIN, 2, M)
        union = set(s1.tolist()) | set(s2.tolist())
        assert not (set(s1.tolist()) & set(s2.tolist()))
        want = {m for m in range(1, M + 1) if c.color(n + m) == c.color(n + 2 * m)}
        assert union == want


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
    # the cost rule picks the dense pass at small M: force each way of
    # inverting n + P(m) at the cuts in turn
    if spec.startswith("case2"):
        texts = [t for t in texts if t not in BIG_POLYS] or ["n"]
    polys = tuple(parse_poly(t) for t in texts)
    got = []
    for overhead in (0, 10**12):
        c = parse_coloring_spec(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_STEP_OVERHEAD", overhead)
            got.append(bad_set(c, n, polys, 1 + color_draw % c.palette, M)[0].tolist())
    assert got[0] == got[1]


def _hits_colorings():
    buf = io.StringIO()
    write_runlength(custom_coloring("random", seed=4, k=3), 300, buf)
    return [
        custom_coloring("random", seed=9, k=3),
        custom_coloring("periodic", pattern="1121"),
        custom_coloring("explicit", values=(2, 1, 2, 2, 1), palette=2),
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
    fits = search_module._fits_int64
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
    c = custom_coloring("random", seed=17, k=2)
    horizons = [50, 100, 200, 400]
    rows = bad_set_growth(c, 5, LIN, 1, horizons)
    assert [row[0] for row in rows] == horizons
    for M, count, max_el in rows:
        _, rep = bad_set(c, 5, LIN, 1, M)
        assert count == rep.count
        assert max_el == rep.max_element


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
    const = custom_coloring("periodic", pattern="1")
    cfg = greedy_search(window(const, 20), LIN, r=2, maxC=3)
    doc = cfg.to_json(20)
    assert doc["B"] == list(cfg.B)
    assert doc["C"] == list(cfg.C)
    assert doc["polys"] == ["n", "2n"]
    assert doc["color"] == cfg.color
    assert doc["N"] == 20
    assert doc["strategy"] == "greedy"

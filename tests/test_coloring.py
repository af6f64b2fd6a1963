"""Interval colorings, the recursive log-width coloring, and window plumbing."""

import io
import math
import random
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    ExplicitColoring,
    PeriodicColoring,
    SeededRandomColoring,
    bad_set,
    case2_coloring,
    check_admissible,
    custom_coloring,
    find_admissible_a0,
    geometric_3coloring,
    parse_poly,
    power_2coloring,
    read_runlength,
    recursive_log_coloring,
    triple_2coloring,
    window,
    write_runlength,
)
from sumset_ramsey.coloring import Coloring
from sumset_ramsey.poly import _positive_from, _shift, _sub
from sumset_ramsey.errors import (
    BadPair,
    BadParams,
    EmptyPattern,
    InadmissibleA0,
    NoAdmissibleA0,
    SumsetRamseyError,
    WindowTooSmall,
)

N2 = parse_poly("n^2")
N3 = parse_poly("n^3")


def test_power_coloring_fixed():
    c = power_2coloring(1, 2)
    assert c.color(3) == 1
    assert c.color(5) == 1
    assert c.color(9) == 2


def test_power_coloring_band_boundaries_exact():
    c = power_2coloring(1, 2)
    # bands [2^{2m}, 2^{2m+1}) -> 1 and [2^{2m+1}, 2^{2m+2}) -> 2 for m >= 1
    assert c.color(4) == 1
    assert c.color(7) == 1
    assert c.color(8) == 2
    assert c.color(15) == 2
    assert c.color(16) == 1
    assert c.color(31) == 1
    assert c.color(32) == 2
    # below the first band everything is color 1
    for z in (1, 2, 3):
        assert c.color(z) == 1


def test_power_coloring_rational_ratio():
    c = power_2coloring(2, 3)
    # bands are [(3/2)^{2m}, (3/2)^{2m+1}): exact rational comparisons
    for z in range(1, 2000):
        color = 1
        m = 1
        while True:
            lo = Fraction(3, 2) ** (2 * m)
            mid = Fraction(3, 2) ** (2 * m + 1)
            hi = Fraction(3, 2) ** (2 * m + 2)
            if z < lo:
                break
            if lo <= z < mid:
                color = 1
                break
            if mid <= z < hi:
                color = 2
                break
            m += 1
        assert c.color(z) == color


def test_power_coloring_bad_pair():
    with pytest.raises(BadPair):
        power_2coloring(2, 2)
    with pytest.raises(BadPair):
        power_2coloring(3, 1)


def test_geometric_coloring_fixed():
    c = geometric_3coloring(1, 2, l=Fraction(4), x=Fraction(3), y=Fraction(8, 5))
    assert c.color(7) == 2
    assert c.color(13) == 3
    assert c.color(2) == 1


def test_geometric_coloring_boundaries():
    c = geometric_3coloring(1, 2, l=Fraction(4), x=Fraction(3), y=Fraction(8, 5))
    # m=1: [4, 32/5) -> 1, [32/5, 12) -> 2, [12, 16) -> 3
    assert c.color(6) == 1
    assert c.color(12) == 3
    assert c.color(15) == 3
    # m=2: [16, 128/5) -> 1, [128/5, 48) -> 2, [48, 64) -> 3
    assert c.color(16) == 1
    assert c.color(25) == 1
    assert c.color(26) == 2
    assert c.color(48) == 3


def test_geometric_coloring_default_params_valid():
    for a, b in ((1, 2), (2, 3), (1, 3), (3, 5)):
        c = geometric_3coloring(a, b)
        assert c.palette == 3
        # parameters recorded in the descriptor as exact rationals
        assert c.descriptor.startswith("geo3:")


def test_geometric_coloring_bad_params():
    with pytest.raises(BadParams):
        geometric_3coloring(1, 2, l=Fraction(9), x=Fraction(3), y=Fraction(8, 5))
    with pytest.raises(BadParams):
        # y^2 >= x violates the exact constraint
        geometric_3coloring(1, 2, l=Fraction(4), x=Fraction(3), y=Fraction(9, 5))


def test_triple_coloring_fixed():
    c = triple_2coloring(1, 2, 3, x=Fraction(5, 2), l=Fraction(25, 4))
    assert c.color(10) == 1
    assert c.color(20) == 2
    assert c.color(3) == 1


def test_triple_coloring_boundaries():
    c = triple_2coloring(1, 2, 3, x=Fraction(5, 2), l=Fraction(25, 4))
    # [25/4, 125/8) -> 1, [125/8, 625/16) -> 2, next band starts at 625/16
    assert c.color(7) == 1
    assert c.color(15) == 1
    assert c.color(16) == 2
    assert c.color(39) == 2
    assert c.color(40) == 1
    for z in (1, 2, 6):
        assert c.color(z) == 1


def test_triple_coloring_bad_params():
    # y = max(3/2, 2) = 2 so x must lie in (2, 3)
    with pytest.raises(BadParams):
        triple_2coloring(1, 2, 3, x=Fraction(2), l=Fraction(25, 4))
    with pytest.raises(BadParams):
        triple_2coloring(1, 2, 3, x=Fraction(7, 2), l=Fraction(25, 4))
    with pytest.raises(BadPair):
        triple_2coloring(1, 3, 2, x=None, l=None)


def test_case2_part1_fixed_and_isqrt_cross_check():
    c = case2_coloring(N2, parse_poly("n^2 + n"))
    assert c.color(4) == 2
    # color 2 iff some n >= 2 has n^2 <= z < n^2 + n
    for z in range(1, 10**5 + 1):
        r = math.isqrt(z)
        expect = 2 if r >= 2 and z < r * r + r else 1
        if c.color(z) != expect:
            raise AssertionError(f"z={z}: got {c.color(z)}, want {expect}")


def test_case2_part2_fixed_and_block_parity():
    Q = parse_poly("n^2 + 2 n")
    c = case2_coloring(N2, Q)
    assert c.color(10) == 1
    # block [Q(2+k), Q(3+k)) carries color (k mod 2), remapped 0 -> 1, 1 -> 2
    for z in range(Q(2), 10**4):
        k = 0
        while Q(2 + k + 1) <= z:
            k += 1
        assert c.color(z) == 1 + (k % 2)
    for z in range(1, Q(2)):
        assert c.color(z) == 1


def test_case2_part3_fixed_and_block_parity():
    P = parse_poly("n^3 - n")
    c = case2_coloring(P, parse_poly("n^3 + 3 n^2 + 2 n"))
    assert c.color(30) == 2
    # l=2 so blocks are [P(2+k), P(3+k)) with color parity k mod 2
    for z in range(P(2), 10**4):
        k = 0
        while P(2 + k + 1) <= z:
            k += 1
        assert c.color(z) == 1 + (k % 2)
    for z in range(1, P(2)):
        assert c.color(z) == 1


def test_case2_requires_case_ii():
    from sumset_ramsey.errors import NotCaseII

    with pytest.raises(NotCaseII):
        case2_coloring(N2, N3)


def test_recursive_coloring_fixed():
    c = recursive_log_coloring(N2, N3, a0=10**4, window_n=10**5)
    assert len(c.levels[0]) == 10
    assert list(c.levels[0]) == list(range(10000, 10010))
    assert c.color(10000) == 2
    assert c.color(5000) == 1


def test_recursive_coloring_window_too_small():
    with pytest.raises(WindowTooSmall):
        recursive_log_coloring(N2, N3, a0=10**4, window_n=100)


def test_recursive_coloring_inadmissible_a0():
    with pytest.raises(InadmissibleA0):
        recursive_log_coloring(N2, N3, a0=5, window_n=10**4)


def _reference_levels(a0, count, cap):
    # psi(t) = t^{3/2} for (n^2, n^3); recompute the level sets from scratch
    with mpmath.workprec(300):
        a = [mpmath.mpf(a0)]
        for _ in range(count - 1):
            a.append(a[-1] ** (mpmath.mpf(3) / 2))
        levels = []
        for n in range(count):
            block = set()
            z = int(mpmath.ceil(a[n]))
            while z < a[n] + mpmath.log(a[n]):
                block.add(z)
                z += 1
            carried = set()
            if n > 0:
                prev = set(levels[n - 1])
                top = max(prev, default=0)
                width = mpmath.log(a[n - 1])
                i = 0
                while i < width:
                    j = 0
                    while i + j * j <= top:
                        if i + j * j in prev:
                            carried.add(i + j * j * j)
                        j += 1
                    i += 1
            levels.append(sorted(x for x in (block | carried) if x <= cap))
    return a, levels


def test_recursive_levels_match_reference():
    cap = 10**6
    c = recursive_log_coloring(N2, N3, a0=15, window_n=cap)
    a, ref = _reference_levels(15, len(c.levels), cap)
    for n, lv in enumerate(ref):
        assert list(c.levels[n]) == lv
    assert list(c.levels[0]) == [15, 16, 17]
    assert list(c.levels[1]) == [59, 60, 61, 62, 64, 65]


@pytest.mark.parametrize("pt,qt,a0", [("n^2", "n^3", 15), ("2n^2", "3n^3 + n", 14)])
def test_in_level_set_matches_materialized_levels(pt, qt, a0):
    # the recursion against the window's levels, from each level's dip bound
    cap = 2 * 10**4
    c = recursive_log_coloring(parse_poly(pt), parse_poly(qt), a0=a0, window_n=cap)
    checked = 0
    for level in range(len(c.levels) + 2):
        members = set(c.levels[level]) if level < len(c.levels) else set()
        lo = c._clo[level] if level < len(c._clo) else cap + 1
        for z in range(lo, cap + 1):
            assert c.in_level_set(z, level) == (z in members), (z, level)
        checked += max(0, cap + 1 - lo)
    assert checked > cap


def test_recursive_levels_separated():
    for a0, cap in ((15, 10**6), (10**4, 10**5)):
        c = recursive_log_coloring(N2, N3, a0=a0, window_n=cap)
        nonempty = [lv for lv in c.levels if lv]
        for lo, hi in zip(nonempty, nonempty[1:]):
            assert min(hi) > max(lo)


def test_recursive_color_rule_matches_reference():
    cap = 10**6
    c = recursive_log_coloring(N2, N3, a0=15, window_n=cap)
    a, ref = _reference_levels(15, len(c.levels), cap)
    membership = {}
    for n, lv in enumerate(ref):
        for z in lv:
            membership[z] = n
    rng = random.Random(505)
    sample = set(range(1, 2001)) | set(membership) | {
        rng.randint(1, cap) for _ in range(3000)
    }
    for z in sorted(sample):
        if z in membership:
            expect = 2 if membership[z] % 2 == 0 else 1
        elif z < 15:
            expect = 1
        else:
            m = 0
            while m + 1 < len(a) and a[m + 1] <= z:
                m += 1
            expect = 2 if m % 2 == 0 else 1
        assert c.color(z) == expect, z


def _oracle_j_max(Q, jq, bound):
    # largest j >= jq with Q(j) <= bound, or jq when Q(jq) exceeds it
    if Q(jq) > bound:
        return jq
    hi = max(jq, 1)
    while Q(hi) <= bound:
        hi *= 2
    lo = jq
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if Q(mid) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _oracle_in_level(c, jq, z, level):
    # A_level by recursion on z: the first block, or z = r + Q(j) with
    # 0 <= r <= width(a_{level-1}) and r + P(j) in A_{level-1}
    if z < 1 or level < 0 or level >= len(c._a):
        return False
    if c._blo[level] <= z <= c._bhi[level]:
        return True
    if level == 0:
        return False
    ln = mpmath.ln(c._a[level - 1])
    width = int(mpmath.floor(ln))
    width -= width == ln
    if width < 0:
        return False
    for j in range(0, min(jq + 1, 64)):
        rem = z - c.Q(j)
        if 0 <= rem <= width and _oracle_in_level(c, jq, rem + c.P(j), level - 1):
            return True
    j = _oracle_j_max(c.Q, jq, z)
    while j > jq:
        rem = z - c.Q(j)
        if rem > width:
            break
        if rem >= 0 and _oracle_in_level(c, jq, rem + c.P(j), level - 1):
            return True
        j -= 1
    return False


def _oracle_color(c, jq, z):
    # parity of z's band [a_m, a_{m+1}), or of m + 1 where A_{m+1} dips into it
    c.color(z)  # extends the ladder past z
    m = bisect_right(c._blo, z) - 1
    if m < 0:
        return 1
    if z >= c._clo[m + 1] and _oracle_in_level(c, jq, z, m + 1):
        m += 1
    return 2 if m % 2 == 0 else 1


_BENCH_PAIRS = (("n^2", "n^3", 15), ("2n^2", "3n^3 + n", 14))


@pytest.fixture(scope="module")
def recursive_pairs():
    # per benchmark pair: a coloring at the benchmark's window, its Q's
    # increasing-from index, and every level member up to 10^15
    out = []
    for pt, qt, a0 in _BENCH_PAIRS:
        P, Q = parse_poly(pt), parse_poly(qt)
        members = sorted(z for L in recursive_log_coloring(P, Q, a0=a0, window_n=10**15).levels for z in L)
        jq = _positive_from(_sub(_shift(list(Q.coeffs), 1), list(Q.coeffs)), False) or 1
        out.append((recursive_log_coloring(P, Q, a0=a0, window_n=10**6), jq, members))
    return out


_DIP_POINT = st.tuples(st.integers(0, 2), st.integers(0, 10**15), st.integers(-1, 35))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 1), draws=st.lists(_DIP_POINT, min_size=1, max_size=8))
def test_recursive_colors_match_recursion_oracle(recursive_pairs, which, draws):
    # members +- 1, points within the log width above some Q(j), and uniform
    # points: colors_at, color and the recursion oracle agree on each
    c, jq, members = recursive_pairs[which]
    jtop = 50_000  # Q(jtop) < 10^15 for both pairs
    zs = []
    for kind, u, d in draws:
        if kind == 0:
            z = members[u % len(members)] + max(-1, min(1, d))
        elif kind == 1:
            qj = c.Q(1 + u % jtop)
            z = qj + abs(d) % (int(math.log(qj)) + 1)
        else:
            z = 1 + u
        zs.append(max(1, z))
    want = [_oracle_color(c, jq, z) for z in zs]
    assert [c.color(z) for z in zs] == want
    assert c.colors_at(np.array(zs, dtype=np.int64)).tolist() == want
    for z, w in zip(zs, want):
        assert c.colors_at([z]).tolist() == [w]


@settings(max_examples=50, deadline=None)
@given(
    which=st.integers(0, 1),
    texts=st.lists(st.sampled_from(("n", "n^2", "n^3", "3n^3 + n", "n^2 - 30n", "n^7 - 3n^6")),
                   min_size=1, max_size=2, unique=True),
    n=st.integers(-40, 40),
    M=st.integers(1, 2000),
    color=st.integers(1, 2),
)
def test_recursive_bad_set_matches_recursion_oracle(recursive_pairs, which, texts, n, M, color):
    # bad_set inverts n + P(m) at the breakpoints; the oracle colors every m
    c, jq, _ = recursive_pairs[which]
    polys = tuple(parse_poly(t) for t in texts)
    want = [m for m in range(1, M + 1)
            if all(n + P(m) >= 1 and _oracle_color(c, jq, n + P(m)) == color for P in polys)]
    assert bad_set(c, n, polys, color, M)[0].tolist() == want


@pytest.mark.parametrize("pt,qt,a0,sizes,sums", [
    ("n^2", "n^3", 15, [3, 6, 8, 14, 14, 20, 31, 0],
     [48, 371, 3698, 130223, 12591957, 17059763230, 772282495950798, 0]),
    ("2n^2", "3n^3 + n", 14, [3, 4, 6, 9, 14, 21, 32, 0],
     [45, 242, 2877, 99441, 17237045, 30429449568, 1872140496567120, 0]),
])
def test_recursive_levels_at_window_1e18(pt, qt, a0, sizes, sums):
    c = recursive_log_coloring(parse_poly(pt), parse_poly(qt), a0=a0, window_n=10**18)
    assert [len(L) for L in c.levels] == sizes
    assert [sum(L) for L in c.levels] == sums


def test_find_admissible_a0_fixed():
    assert find_admissible_a0(N2, N3, 10**6) == 15


def test_find_admissible_a0_exhausted():
    with pytest.raises(NoAdmissibleA0):
        find_admissible_a0(N2, N3, 10)


def test_find_admissible_a0_needs_nonlinear_q():
    with pytest.raises(InadmissibleA0):
        find_admissible_a0(parse_poly("n"), parse_poly("2 n"), 100)


def test_check_admissible_constants():
    ap = check_admissible(N2, N3, 15)
    assert ap.a0 == 15
    delta = 1.5
    assert ap.lam0 > delta
    assert math.isclose(ap.eps0, (ap.lam0 - delta) / 2, rel_tol=1e-12)
    u = (ap.lam0 - ap.eps0) * (ap.lam0 - ap.eps0 - 1) / (2 * ap.lam0 * ap.eps0 - ap.eps0**2)
    assert math.isclose(ap.u, u, rel_tol=1e-12)
    # psi'(t) = 1.5 sqrt(t) must exceed lam0^2 on the scan range [a0/2, 4 a0]
    for t in (7.5, 15, 30, 60):
        assert 1.5 * math.sqrt(t) > ap.lam0**2


def test_custom_periodic():
    c = custom_coloring("periodic", pattern="12")
    assert [c.color(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 1, 2, 1]
    const = custom_coloring("periodic", pattern="1")
    assert all(const.color(n) == 1 for n in range(1, 200))


def test_custom_periodic_empty():
    with pytest.raises(EmptyPattern):
        custom_coloring("periodic", pattern="")


def test_custom_seeded_deterministic():
    c1 = custom_coloring("random", seed=7, k=2)
    c2 = custom_coloring("random", seed=7, k=2)
    xs = list(range(1, 2001))
    assert [c1.color(n) for n in xs] == [c2.color(n) for n in xs]
    assert all(c1.color(n) in (1, 2) for n in xs)
    c3 = custom_coloring("random", seed=8, k=2)
    assert any(c1.color(n) != c3.color(n) for n in xs)


def test_custom_seeded_palette():
    c = custom_coloring("random", seed=3, k=5)
    seen = {c.color(n) for n in range(1, 5001)}
    assert seen == {1, 2, 3, 4, 5}


def test_custom_explicit():
    c = custom_coloring("explicit", values=(2, 1, 2), palette=2)
    assert [c.color(n) for n in (1, 2, 3)] == [2, 1, 2]
    # beyond the stream the color falls back to 1
    assert c.color(4) == 1
    assert c.color(100) == 1


def test_window_fixed():
    const = custom_coloring("periodic", pattern="1")
    w = window(const, 8)
    assert w.mask(1) == sum(1 << n for n in range(1, 9))
    assert w.mask(2) == 0

    w = window(custom_coloring("periodic", pattern="12"), 4)
    assert w.mask(1) == (1 << 1) | (1 << 3)
    assert w.mask(2) == (1 << 2) | (1 << 4)

    w = window(power_2coloring(1, 2), 16)
    assert w.mask(2) == sum(1 << n for n in range(8, 16))


def test_window_partitions():
    colorings = [
        power_2coloring(1, 2),
        geometric_3coloring(1, 2),
        triple_2coloring(1, 2, 3),
        case2_coloring(N2, parse_poly("n^2 + n")),
        custom_coloring("random", seed=11, k=3),
        recursive_log_coloring(N2, N3, a0=15, window_n=10**5),
    ]
    n = 10**5
    for c in colorings:
        w = window(c, n)
        assert len(w.colors) == n + 1
        assert np.all(w.colors[1:] >= 1) and np.all(w.colors[1:] <= c.palette)
        masks = [w.mask(i) for i in range(1, c.palette + 1)]
        union = 0
        total = 0
        for m in masks:
            assert union & m == 0
            union |= m
            total += bin(m).count("1")
        assert union == sum(1 << z for z in range(1, n + 1))
        assert total == n
        assert w.counts() == [bin(m).count("1") for m in masks]


def test_colors_at_matches_scalar():
    rng = random.Random(99)
    colorings = [
        power_2coloring(1, 2),
        geometric_3coloring(1, 2),
        case2_coloring(N2, parse_poly("n^2 + 2 n")),
        custom_coloring("random", seed=1, k=4),
    ]
    ns = np.array(sorted(rng.sample(range(1, 10**6), 500)), dtype=np.int64)
    for c in colorings:
        vec = c.colors_at(ns)
        for n, v in zip(ns.tolist(), vec.tolist()):
            assert c.color(n) == v


def test_breakpoint_colors_at_past_int64(monkeypatch):
    # breakpoints past 2^63 must not push colors_at off the vectorized path:
    # every int64 position lies below them
    def scalar_loop(self, zs):
        raise AssertionError("base-class scalar colors_at reached")

    monkeypatch.setattr(Coloring, "colors_at", scalar_loop)
    zs = np.array([1, 2, 3, 7, 10**6, 2**40 + 1, 2**62, 2**63 - 1], dtype=np.int64)
    for make in (lambda: power_2coloring(1, 2), lambda: geometric_3coloring(1, 2),
                 lambda: triple_2coloring(1, 2, 3)):
        c, fresh = make(), make()
        want = fresh.window(10**5).colors
        c.color(2**70)
        assert np.array_equal(c.window(10**5).colors, want)
        assert c.colors_at(zs).tolist() == fresh.colors_at(zs).tolist()
        assert c.colors_at(zs).tolist() == [make().color(int(z)) for z in zs]


@pytest.fixture(scope="module")
def every_kind():
    return [
        power_2coloring(1, 2),
        geometric_3coloring(1, 2),
        triple_2coloring(1, 2, 3),
        case2_coloring(N2, parse_poly("n^2 + n")),
        recursive_log_coloring(N2, N3, a0=15, window_n=10**4),
        PeriodicColoring([1, 1, 2]),
        SeededRandomColoring(seed=5, palette=3),
        ExplicitColoring([2, 1, 2, 2]),
    ]


def _outcome(f):
    try:
        return f()
    except SumsetRamseyError as exc:
        return type(exc)


@given(
    which=st.integers(0, 7),
    zs=st.lists(st.one_of(st.integers(-3, 50), st.integers(1, 10**6)), max_size=20),
)
def test_colors_at_agrees_with_color(every_kind, which, zs):
    c = every_kind[which]
    vec = _outcome(lambda: c.colors_at(np.array(zs, dtype=np.int64)).tolist())
    scalar = _outcome(lambda: [c.color(z) for z in zs])
    assert vec == scalar


def test_runs_reconstruct_colors():
    c = geometric_3coloring(1, 2)
    n = 3000
    expanded = []
    for color, length in c.runs(n):
        assert length >= 1
        expanded.extend([color] * length)
    assert len(expanded) == n
    assert expanded == [c.color(z) for z in range(1, n + 1)]
    # adjacent runs always change color
    prev = None
    for color, _ in c.runs(n):
        assert color != prev
        prev = color


@pytest.mark.parametrize("which", range(8))
def test_runlength_round_trip(every_kind, which):
    c = every_kind[which]
    n = 500
    buf = io.StringIO()
    write_runlength(c, n, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == f"palette {c.palette}"
    assert lines[1] == "start 1"
    for ln in lines[2:]:
        color, length = ln.split()
        assert 1 <= int(color) <= c.palette
        assert int(length) >= 1
    back = read_runlength(io.StringIO(text))
    assert back.palette == c.palette
    assert back.window(n).colors[1:].tolist() == window(c, n).colors[1:].tolist()


def test_runlength_round_trip_random():
    rng = random.Random(2024)
    for _ in range(20):
        k = rng.randint(2, 4)
        vals = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 80)))
        c = custom_coloring("explicit", values=vals, palette=k)
        n = len(vals)
        buf = io.StringIO()
        write_runlength(c, n, buf)
        back = read_runlength(io.StringIO(buf.getvalue()))
        assert [back.color(z) for z in range(1, n + 1)] == list(vals)

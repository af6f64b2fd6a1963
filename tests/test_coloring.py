"""Interval colorings, the recursive log-width coloring, and window plumbing."""

import io
import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    ExplicitColoring,
    PeriodicColoring,
    SeededRandomColoring,
    bad_set,
    case2_coloring,
    check_admissible,
    find_admissible_a0,
    geometric_3coloring,
    parse_coloring_spec,
    parse_poly,
    power_2coloring,
    read_runlength,
    recursive_log_coloring,
    triple_2coloring,
    write_runlength,
)
from sumset_ramsey import coloring as coloring_module
from sumset_ramsey.coloring import AdmissibleParams, BreakpointColoring, Coloring
from sumset_ramsey.poly import BandPart, _positive_from, _shift, _sub, band_offset, psi_eval
from sumset_ramsey.errors import (
    BadPair,
    BadParams,
    DomainError,
    EmptyPattern,
    InadmissibleA0,
    NoAdmissibleA0,
    ParseError,
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


@pytest.mark.parametrize("form", [float, np.float64, str, lambda v: True])
@pytest.mark.parametrize(
    "make,good",
    [
        (lambda v: geometric_3coloring(1, 2, l=v, x=Fraction(3), y=Fraction(8, 5)), Fraction(11, 2)),
        (lambda v: geometric_3coloring(1, 2, l=Fraction(4), x=v, y=Fraction(8, 5)), Fraction(11, 4)),
        (lambda v: geometric_3coloring(1, 2, l=Fraction(4), x=Fraction(3), y=v), Fraction(13, 8)),
        (lambda v: triple_2coloring(1, 2, 3, x=v, l=Fraction(25, 4)), Fraction(5, 2)),
        (lambda v: triple_2coloring(1, 2, 3, x=Fraction(5, 2), l=v), Fraction(25, 4)),
    ],
    ids=["geo3-l", "geo3-x", "geo3-y", "triple-x", "triple-l"],
)
def test_band_rationals_refuse_floats_and_bools(make, good, form):
    # good is in range, so only the type is refused: a float is not read as
    # its binary expansion, nor a string as Fraction text
    make(good)
    with pytest.raises(DomainError) as exc:
        make(form(good))
    assert type(exc.value) is DomainError


def test_band_rationals_take_ints_and_fractions():
    assert triple_2coloring(1, 2, 3, x=Fraction(5, 2), l=7).descriptor == "triple:1,2,3,x=5/2,l=7"
    assert geometric_3coloring(1, 2, l=np.int64(4), x=3, y=Fraction(8, 5)).descriptor == (
        "geo3:1,2,l=4,x=3,y=8/5"
    )


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
    # z and level must be integers: neither 15.0 nor "15" is the member 15
    for z, level in ((15.0, 0), (2.5, 0), ("15", 0), (True, 0), (15, 0.0)):
        with pytest.raises(DomainError):
            c.in_level_set(z, level)
    assert not c.in_level_set(0, 0) and not c.in_level_set(-3, 0)


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


def test_base_level_scan_checks_each_a0_once(monkeypatch):
    checked = []

    def counting(P, Q, a0, *args, **kwargs):
        checked.append(a0)
        return check_admissible(P, Q, a0, *args, **kwargs)

    monkeypatch.setattr(coloring_module, "check_admissible", counting)
    c = recursive_log_coloring(N2, N3, window_n=1000)
    assert c.a0 == 15
    assert sorted(checked) == sorted(set(checked))


def test_find_admissible_a0_exhausted():
    with pytest.raises(NoAdmissibleA0):
        find_admissible_a0(N2, N3, 10)


@pytest.mark.parametrize("limit", [20.0, True, "20", Fraction(20)])
def test_find_admissible_a0_refuses_a_non_integer_limit(limit):
    with pytest.raises(DomainError) as exc:
        find_admissible_a0(N2, N3, limit)
    assert type(exc.value) is DomainError


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


def test_check_admissible_evaluates_each_grid_point_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return psi_eval(*args)

    monkeypatch.setattr(coloring_module, "psi_eval", counting)
    # the width-growth grid (100 points, kept for the expansion inequality),
    # the expansion inequality's 3 shifted points per grid point, the jump
    # bound's 2 and the representation range's 1
    assert check_admissible(N2, N3, 15) == AdmissibleParams(
        a0=15, lam0=1.571121628807815, eps0=0.035560814403907515, u=7.444015223667614
    )
    assert len(calls) == 403
    P, Q = parse_poly("2n^2"), parse_poly("3n^3 + n")
    assert check_admissible(P, Q, 14) == AdmissibleParams(
        a0=14, lam0=1.6739855301010664, eps0=0.08699276505053326, u=3.283799648479176
    )
    assert find_admissible_a0(N2, N3, 100) == 15
    assert find_admissible_a0(P, Q, 100) == 14


def test_custom_periodic():
    c = PeriodicColoring([1, 2])
    assert [c.color(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 1, 2, 1]
    const = PeriodicColoring([1])
    assert all(const.color(n) == 1 for n in range(1, 200))


def test_custom_periodic_empty():
    with pytest.raises(EmptyPattern):
        PeriodicColoring([])


def test_custom_seeded_deterministic():
    c1 = SeededRandomColoring(7, 2)
    c2 = SeededRandomColoring(7, 2)
    xs = list(range(1, 2001))
    assert [c1.color(n) for n in xs] == [c2.color(n) for n in xs]
    assert all(c1.color(n) in (1, 2) for n in xs)
    c3 = SeededRandomColoring(8, 2)
    assert any(c1.color(n) != c3.color(n) for n in xs)


def test_custom_seeded_palette():
    c = SeededRandomColoring(3, 5)
    seen = {c.color(n) for n in range(1, 5001)}
    assert seen == {1, 2, 3, 4, 5}


def test_custom_explicit():
    c = ExplicitColoring((2, 1, 2), 2)
    assert [c.color(n) for n in (1, 2, 3)] == [2, 1, 2]
    # beyond the stream the color falls back to 1
    assert c.color(4) == 1
    assert c.color(100) == 1


def test_window_fixed():
    const = PeriodicColoring([1])
    w = const.window(8)
    assert w.mask(1) == sum(1 << n for n in range(1, 9))
    assert w.mask(2) == 0

    w = PeriodicColoring([1, 2]).window(4)
    assert w.mask(1) == (1 << 1) | (1 << 3)
    assert w.mask(2) == (1 << 2) | (1 << 4)

    w = power_2coloring(1, 2).window(16)
    assert w.mask(2) == sum(1 << n for n in range(8, 16))


def test_window_partitions():
    colorings = [
        power_2coloring(1, 2),
        geometric_3coloring(1, 2),
        triple_2coloring(1, 2, 3),
        case2_coloring(N2, parse_poly("n^2 + n")),
        SeededRandomColoring(11, 3),
        recursive_log_coloring(N2, N3, a0=15, window_n=10**5),
    ]
    n = 10**5
    for c in colorings:
        w = c.window(n)
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
        SeededRandomColoring(1, 4),
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


_I64_MAX = 2**63 - 1


def _collapse(flat):
    # equal breakpoints keep the color of the last of them
    bps, cols = [], []
    for bp, col in flat:
        if bps and bps[-1] == bp:
            cols[-1] = col
        else:
            bps.append(bp)
            cols.append(col)
    return bps, cols


def _ref_color(flat, below, z):
    # the color of the last (breakpoint, color) pair at or below z
    bps, cols = _collapse(flat)
    i = bisect_right(bps, z)
    return cols[i - 1] if i else below


def _ref_segments(flat, below, lo, hi):
    bps, cols = _collapse(flat)
    if hi < 1:
        return [lo], [0]
    a = max(lo, 1)
    i, j = bisect_right(bps, a), bisect_right(bps, hi)
    starts = ([lo] if lo < 1 else []) + [a] + bps[i:j]
    colors = ([0] if lo < 1 else []) + [cols[i - 1] if i else below] + cols[i:j]
    return starts, colors


def _check_segments(c, flat, below, lo, hi):
    starts, colors = c.segments(lo, hi)
    want_starts, want_colors = _ref_segments(flat, below, lo, hi)
    assert starts.dtype == (np.int64 if -_I64_MAX <= lo and hi <= _I64_MAX else object)
    assert (starts.tolist(), colors.tolist()) == (want_starts, want_colors)


def _named(descriptor):
    # the named rationals of a band descriptor, e.g. l=25/4
    return {k: Fraction(v) for k, sep, v in (t.partition("=") for t in descriptor.split(",")) if sep}


def _ceil(q):
    return -(-q.numerator // q.denominator)


@st.composite
def _band_colorings(draw):
    """A band coloring and its bands as (ratio, points): color i + 1 from
    points[i] * ratio^m for m >= 1.  Each optional parameter is drawn inside
    its documented range, given the ones before it, or left at its default."""
    kind = draw(st.sampled_from(["power2", "geo3", "triple"]))
    a = draw(st.integers(1, 7 if kind == "triple" else 8))
    b = draw(st.integers(a + 1, 8 if kind == "triple" else 9))
    q = Fraction(b, a)

    def inside(lo, hi, closed=False):
        i = draw(st.none() | st.integers(0 if closed else 1, 16))
        return None if i is None else lo + (hi - lo) * Fraction(i, 17)

    if kind == "power2":
        # [q^{2m}, q^{2m+1}) -> 1, [q^{2m+1}, q^{2m+2}) -> 2
        return power_2coloring(a, b), (q**2, (1, q))
    if kind == "geo3":
        # [b^2/a^2, b^3/a^3), (l a/b, b^2/a^2), (x a/b, sqrt(x))
        l = _named(geometric_3coloring(a, b, l=inside(q**2, q**3, closed=True)).descriptor)["l"]
        x = _named(geometric_3coloring(a, b, l=l, x=inside(l / q, q**2)).descriptor)["x"]
        root = Fraction(math.isqrt(x.numerator * x.denominator << 160), x.denominator << 80)
        y = inside(x / q, root) if root > x / q else None
        c = geometric_3coloring(a, b, l=l, x=x, y=y)
        got = _named(c.descriptor)
        assert (got["l"], got["x"]) == (l, x) and (y is None or got["y"] == y)
        y = got["y"]
        assert q**2 <= l < q**3 and l / q < x < q**2 and x / q < y and y * y < x
        return c, (l, (1, y, x))
    # x in (max(c/b, b/a), c/a), l in (x y, x c/a) with y = max(c/b, b/a)
    cc = draw(st.integers(b + 1, 9))
    y, ca = max(Fraction(cc, b), q), Fraction(cc, a)
    x = _named(triple_2coloring(a, b, cc, x=inside(y, ca)).descriptor)["x"]
    l = inside(x * y, x * ca)
    c = triple_2coloring(a, b, cc, x=x, l=l)
    got = _named(c.descriptor)
    assert got["x"] == x and (l is None or got["l"] == l)
    l = got["l"]
    assert y < x < ca and x * y < l < x * ca
    return c, (l, (1, x))


@settings(max_examples=150, deadline=None)
@given(drawn=_band_colorings())
def test_band_colorings_match_their_band_formulas_past_int64(drawn):
    c, (ratio, points) = drawn
    hi = 10**40
    flat, m = [], 1
    while ratio**m <= hi:
        flat += [(_ceil(p * ratio**m), i + 1) for i, p in enumerate(points)]
        m += 1
    _check_segments(c, flat, 1, 1, hi)
    assert c.palette == len(points)
    # each breakpoint - 1, itself and + 1, against the last breakpoint at or below
    bps, cols = _collapse(flat)
    zs = sorted({z for bp in bps for z in (bp - 1, bp, bp + 1) if 1 <= z <= hi})
    assert zs[-1] > 2**63
    want = [cols[i - 1] if i else 1 for i in (bisect_right(bps, z) for z in zs)]
    fresh = parse_coloring_spec(c.descriptor)
    assert fresh.descriptor == c.descriptor
    assert fresh.colors_at(zs).tolist() == want
    small = [z for z in zs if z <= _I64_MAX]
    assert parse_coloring_spec(c.descriptor).colors_at(np.array(small, dtype=np.int64)).tolist() == want[: len(small)]
    assert [c.color(z) for z in zs] == want


def _synthetic(blocks, forms):
    """Breakpoint coloring over the given (breakpoints, colors) blocks, each
    an int64 array (form 0, when it fits), an object array (1) or a list (2),
    continued by one breakpoint per block far past them."""
    def gen():
        for (bps, cols), form in zip(blocks, forms):
            if form == 0 and (not bps or bps[-1] <= _I64_MAX):
                bps = np.array(bps, dtype=np.int64)
            elif form == 1:
                bps = np.array(bps, dtype=object)
            yield bps, cols
        last = max([bp for bps, _ in blocks for bp in bps], default=1)
        for j in itertools.count(1):
            yield [last + 1000 * j], [1 + j % 3]
    return BreakpointColoring(3, gen(), "synthetic")


def _check_block_protocol(blocks, forms, picks):
    flat = [(bp, col) for bps, cols in blocks for bp, col in zip(bps, cols)]
    zs = sorted({z for bp, _ in flat for z in (bp - 1, bp, bp + 1) if z >= 1} | {1})
    want = [_ref_color(flat, 1, z) for z in zs]
    # one generator step per query: colors asked in ascending order
    step = _synthetic(blocks, forms)
    assert [step.color(z) for z in zs] == want
    # everything at once, then again on the extended object
    fresh = _synthetic(blocks, forms)
    small = [z for z in zs if z <= _I64_MAX]
    assert fresh.colors_at(np.array(small, dtype=np.int64)).tolist() == want[: len(small)]
    assert [fresh.color(z) for z in zs] == want
    for i, j in picks:
        lo, hi = sorted((zs[i % len(zs)], zs[j % len(zs)]))
        for c in (_synthetic(blocks, forms), step):
            _check_segments(c, flat, 1, lo, hi)
            _check_segments(c, flat, 1, -2, hi)


def _blocks_from(base, raw):
    # raw blocks of (gap, color): breakpoints are running sums of the gaps
    x, blocks = base, []
    for block in raw:
        bps, cols = [], []
        for gap, col in block:
            x += gap
            bps.append(x)
            cols.append(col)
        blocks.append((bps, cols))
    return blocks


@pytest.mark.parametrize("blocks", [
    # equal breakpoints inside a block
    [([3, 3, 7, 7, 7, 9], [1, 2, 3, 1, 2, 1])],
    # across a block boundary, and an empty block between
    [([3, 5], [2, 1]), ([], []), ([5, 5, 8], [3, 2, 1]), ([8], [3])],
    # equal to the last breakpoint stored by an earlier query
    [([2, 6], [1, 2]), ([6, 11], [3, 1]), ([11], [2]), ([11, 11, 12], [1, 3, 2])],
    # straddling 2^63, equal at the int64 edge across blocks
    [([_I64_MAX - 3, _I64_MAX], [1, 2]), ([_I64_MAX, _I64_MAX + 1, _I64_MAX + 1], [3, 1, 2]),
     ([2**64, 2**64], [1, 3])],
])
@pytest.mark.parametrize("form", [0, 1, 2])
def test_block_protocol_fixed(blocks, form):
    _check_block_protocol(blocks, [form] * len(blocks), [(0, -1), (1, 3), (2, 2), (-2, -1)])


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from([0, _I64_MAX - 40]),
    raw=st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=8), min_size=1, max_size=6),
    forms=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3),
)
def test_block_protocol_matches_scalar_reference(base, raw, forms, picks):
    _check_block_protocol(_blocks_from(base, raw), forms, picks)


@pytest.mark.parametrize("blocks,asks", [
    ([([5, 3], [1, 2])], [10]),
    ([([5, 8], [1, 2]), ([7], [1])], [10]),
    ([([5, 8], [1, 2]), ([7, 20], [1, 2])], [6, 10]),
    ([([_I64_MAX + 5], [1]), ([_I64_MAX], [2])], [_I64_MAX + 10]),
])
def test_block_protocol_rejects_a_backward_step(blocks, asks):
    c = _synthetic(blocks, [0] * len(blocks))
    with pytest.raises(DomainError):
        for z in asks:
            c.color(z)


def _case2_scalar(P, Q):
    # the breakpoints one k at a time, each by one scalar Horner
    off = band_offset(P, Q)
    n0, l = off.n0, off.l
    if off.part is BandPart.PART_I:
        m = n0
        while True:
            yield P(m + l - 1), 2
            yield Q(m), 1
            m += 1
    R, step = (Q, l) if off.part is BandPart.PART_II else (P, l - 1)
    k = 0
    while True:
        yield R(n0 + k * step), 1 if k % 2 == 0 else 2
        k += 1


_CASE2_BLOCK_PAIRS = (
    ("n^2", "n^2 + n", BandPart.PART_I),
    ("n^2", "n^2 + 5n", BandPart.PART_I),
    ("n^2", "n^2 + 2n", BandPart.PART_II),
    ("n^2", "n^2 + 4n", BandPart.PART_II),
    ("n^3 - n", "n^3 + 3n^2 + 2n", BandPart.PART_III),
    # values pass 2^63 near k = 512: object blocks
    ("n^7", "n^7 + n^6", BandPart.PART_I),
    ("n^7", "n^7 + 7n^6 + 21n^5 + 35n^4 + 35n^3 + 21n^2 + 7n", BandPart.PART_II),
    ("n^7 - n", "n^7 + 7n^6 + 21n^5 + 35n^4 + 35n^3 + 21n^2 + 6n", BandPart.PART_III),
    # N0 = 10^20 + 1, past 2^63: object arguments from the first block
    ("n^2 - 100000000000000000000n", "n^2 - 99999999999999999999n", BandPart.PART_I),
    # N0 = 2^62 - 100: int64 arguments in the first block, objects from k = 64
    ("n^2 - 4611686018427387803n", "n^2 - 4611686018427387802n", BandPart.PART_I),
    # N0 = 2^63 - 199: int64 arguments would wrap from k = 199 on
    ("n^2 - 9223372036854775608n", "n^2 - 9223372036854775606n", BandPart.PART_III),
)


@settings(max_examples=120, deadline=None)
@given(which=st.integers(0, len(_CASE2_BLOCK_PAIRS) - 1), count=st.integers(1, 2200), first=st.integers(0, 2199))
# k near 64, 192, 448 and 960, where block generators once changed blocks,
# and the int64 edge
@example(which=5, count=2000, first=1100)
@example(which=6, count=1000, first=500)
@example(which=7, count=1000, first=63)
@example(which=0, count=1921, first=383)
@example(which=8, count=200, first=70)
@example(which=9, count=200, first=70)
@example(which=10, count=500, first=250)
def test_case2_blocks_match_scalar_generators(which, count, first):
    Pt, Qt, part = _CASE2_BLOCK_PAIRS[which]
    P, Q = parse_poly(Pt), parse_poly(Qt)
    assert band_offset(P, Q).part is part
    scalar = _case2_scalar(P, Q)
    flat = list(itertools.islice(scalar, count))
    hi = flat[-1][0]
    flat += list(itertools.takewhile(lambda e: e[0] <= hi, scalar))
    mid = flat[first % count][0]
    c = case2_coloring(P, Q)
    assert c.color(mid) == _ref_color(flat, 1, mid)
    _check_segments(c, flat, 1, 1, hi)
    _check_segments(c, flat, 1, mid - 1, hi)
    _check_segments(case2_coloring(P, Q), flat, 1, mid, hi)


def _first_above(f, z):
    # least k >= 0 with f(k) > z, f increasing: doubling, then bisection
    hi = 1
    while f(hi) <= z:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if f(mid) > z else (mid + 1, hi)
    return lo


def _case2_ladders(P, Q):
    # the breakpoint ladders in k >= 0 as scalar functions: L, U for PartI
    # (colors 2, 1), R for the other parts (colors 1, 2, 1, ...)
    off = band_offset(P, Q)
    n0, l = off.n0, off.l
    if off.part is BandPart.PART_I:
        return [lambda k: P(n0 + l - 1 + k), lambda k: Q(n0 + k)]
    if off.part is BandPart.PART_II:
        return [lambda k: Q(n0 + l * k)]
    return [lambda k: P(n0 + (l - 1) * k)]


def _case2_ladder_color(ladders, z):
    # the color of the last breakpoint at or below z, from ladder counts
    counts = [_first_above(f, z) for f in ladders]
    if len(counts) == 2:
        return 2 if counts[0] > counts[1] else 1
    return 1 if counts[0] == 0 else 1 + (counts[0] - 1) % 2


def _case2_ladder_flat(ladders, lo, hi):
    # (breakpoint, color) from the first ladder's last value at or below lo
    # to its first one past hi
    f = ladders[0]
    ks = range(max(_first_above(f, lo) - 1, 0), _first_above(f, hi) + 1)
    if len(ladders) == 2:
        return [e for k in ks for e in ((f(k), 2), (ladders[1](k), 1))]
    return [(f(k), 1 + k % 2) for k in ks]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, len(_CASE2_BLOCK_PAIRS) - 1),
    k=st.one_of(st.integers(0, 40), st.integers(0, 10**15)),
    ladder=st.integers(0, 1),
    offset=st.integers(-1, 1),
    span=st.integers(0, 3),
)
@example(which=1, k=0, ladder=0, offset=0, span=2)  # L(0) = U(0) = 36
@example(which=8, k=10**15, ladder=1, offset=1, span=3)
def test_case2_matches_scalar_ladders(which, k, ladder, offset, span):
    # at L(k), U(k) or R(k) +- 1, far past any stored breakpoint: color,
    # colors_at (inverting each position, and reading a range's breakpoints)
    # and segments against ladders evaluated one Python int at a time
    Pt, Qt, _ = _CASE2_BLOCK_PAIRS[which]
    P, Q = parse_poly(Pt), parse_poly(Qt)
    ladders = _case2_ladders(P, Q)
    f = ladders[ladder % len(ladders)]
    z = max(1, f(k) + offset)
    hi = f(k + span) + 1
    c = case2_coloring(P, Q)
    assert c.color(z) == _case2_ladder_color(ladders, z)
    zs = sorted({max(1, z - 1), z, z + 1, hi})
    want = [_case2_ladder_color(ladders, v) for v in zs]
    # [1, hi] holds about k breakpoints, more than the positions
    assert c.colors_at([1] + zs).tolist() == [1] + want
    # (z - 1, hi] holds at most 2 span + 4, fewer than the positions
    assert c.colors_at(zs * 4).tolist() == want * 4
    _check_segments(c, _case2_ladder_flat(ladders, z, hi), 1, z, hi)


def test_case2_answers_past_the_cap(monkeypatch):
    # no call materializes more than the cap, and a color or a few positions
    # need no breakpoint at all: color 2 iff r^2 <= z < r^2 + r, r = isqrt(z)
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "1000")
    c = case2_coloring(N2, parse_poly("n^2 + n"))
    zs = [5, 10**30 - 1, 10**30, 10**30 + 10**15 - 1, 10**30 + 10**15]
    want = [2 if z < math.isqrt(z) ** 2 + math.isqrt(z) else 1 for z in zs]
    assert want == [2, 1, 2, 2, 1]
    assert [c.color(z) for z in zs] == want
    assert c.colors_at(zs).tolist() == want
    assert c.colors_at([5, 10**30]).tolist() == [2, 2]
    with pytest.raises(DomainError, match="more than 1000 breakpoints.*SUMSET_RAMSEY_NMAX"):
        c.segments(1, 10**8)


# measured 1.0 to 3.1 KB after either M on each part; stored, the
# breakpoints took 150 to 300 KB at M = 10^4 and 1.2 to 2.4 MB at M = 10^5
CASE2_HELD_BYTES = 64 * 1024


@pytest.mark.parametrize("which", [0, 2, 4], ids=["PartI", "PartII", "PartIII"])
def test_case2_holds_no_breakpoints(which):
    # what a case2 object keeps after bad_set does not grow with M
    Pt, Qt, _ = _CASE2_BLOCK_PAIRS[which]
    P, Q = parse_poly(Pt), parse_poly(Qt)
    # band_offset's memo and numpy's first calls are not counted below
    bad_set(case2_coloring(P, Q), 3, (P, Q), 1, 100)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = case2_coloring(P, Q)
        held = []
        for M in (10**4, 10**5):
            bad_set(c, 3, (P, Q), 1, M)
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert max(held) <= CASE2_HELD_BYTES, held


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
    seed=st.integers(0, 2**64),
    palette=st.integers(2, 255),
)
def test_colors_at_agrees_with_color(every_kind, which, zs, seed, palette):
    for c in (every_kind[which], SeededRandomColoring(seed, palette)):
        vec = _outcome(lambda: c.colors_at(np.array(zs, dtype=np.int64)).tolist())
        scalar = _outcome(lambda: [c.color(z) for z in zs])
        assert vec == scalar


C = coloring_module.POSITION_CHUNK


@pytest.mark.parametrize("which", range(8))
def test_window_matches_colors_at_across_chunk_edges(every_kind, which):
    c = every_kind[which]
    rng = random.Random(which)
    for n in (C - 1, C, C + 1, 3 * C + 7):
        colors = c.window(n).colors
        assert colors.shape == (n + 1,) and colors[0] == 0
        assert np.array_equal(colors[1:], c.colors_at(np.arange(1, n + 1, dtype=np.int64)))
        # chunks are [1, C], [C + 1, 2C], ...: every edge, plus random points
        edges = {z for k in range(1, n // C + 1) for z in (k * C - 1, k * C, k * C + 1)}
        picks = sorted({z for z in edges if z <= n} | {1, n} | {rng.randint(1, n) for _ in range(100)})
        assert [int(colors[z]) for z in picks] == [c.color(z) for z in picks]


# measured at N = 4C and 64C: every kind's peak above its output is the same
# (1.1 to 1.6 MB); it grew by 13.4 to 19.7 MB with chunks of 2^20, and by 2.6
# to 3.1 MB when the window copied its colors
WINDOW_PEAK_SLACK = 256 * 1024


@pytest.mark.parametrize("which", range(8))
def test_window_construction_peak_does_not_grow_with_n(every_kind, traced_peak, which):
    c = every_kind[which]
    c.window(64 * C)  # breakpoint kinds keep their breakpoints: not counted below
    over = []
    for n in (4 * C, 64 * C):
        w, peak = traced_peak(lambda: c.window(n))
        over.append(peak - w.colors.nbytes)
    assert over[1] <= over[0] + WINDOW_PEAK_SLACK, over


@pytest.mark.parametrize(
    "make",
    [
        lambda k: SeededRandomColoring(1, k),
        lambda k: PeriodicColoring([k, 1]),
        lambda k: ExplicitColoring([1, k]),
        lambda k: ExplicitColoring([1, 2], palette=k),
        lambda k: read_runlength(io.StringIO(f"palette {k}\nstart 1\n1 3\n{k} 2\n")),
    ],
    ids=["random", "periodic", "explicit", "explicit-palette", "runlength"],
)
def test_palette_limit(make):
    # colors are stored as uint8: 255 is the largest palette, and every kind
    # agrees with color() there
    c = make(255)
    assert c.palette == 255
    zs = np.arange(1, 2000, dtype=np.int64)
    assert c.colors_at(zs).tolist() == [c.color(z) for z in range(1, 2000)]
    with pytest.raises(BadParams):
        make(256)


def test_runlength_palette_checked_before_runs():
    # the run line is malformed too: reading it first would raise ParseError
    with pytest.raises(BadParams):
        read_runlength(io.StringIO("palette 256\nstart 1\n1 0\n"))


@pytest.mark.parametrize(
    "text", ["palette x\nstart 1\n1 3\n", "palette 2\nstart 1\none 3\n", "palette 2\nstart 1\n1 3.5\n"]
)
def test_runlength_non_integer_field(text):
    with pytest.raises(ParseError):
        read_runlength(io.StringIO(text))


@pytest.fixture(scope="module")
def wide_kinds():
    # (coloring, largest position drawn for it, None for no limit); the
    # geometric and recursive kinds take the same colors_at past 2^63, and
    # case2 inverts its ladders there
    return [
        (power_2coloring(1, 2), None),
        (geometric_3coloring(1, 2), None),
        (triple_2coloring(1, 2, 3), None),
        (case2_coloring(N2, parse_poly("n^2 + n")), None),
        (recursive_log_coloring(N2, N3, a0=15, window_n=10**4), None),
        (recursive_log_coloring(parse_poly("2n^2"), parse_poly("3n^3 + n"), a0=14, window_n=10**4), None),
        (SeededRandomColoring(7, 3), None),
        (PeriodicColoring([1, 1, 2, 1]), None),
        (ExplicitColoring([2, 1, 2, 2, 1], 3), None),
    ]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 8),
    zs=st.lists(
        st.one_of(st.integers(1, 2**62), st.integers(2**63 - 8, 2**63 + 8), st.integers(1, 10**30)),
        min_size=1, max_size=12,
    ),
    form=st.sampled_from(["list", "object", "uint64"]),
    bad=st.one_of(st.none(), st.integers(-(10**30), 0), st.sampled_from([2.5, np.float64(3), "3", True])),
)
@example(which=0, zs=[2**63 + 5, 2**64 + 7, 10**30], form="list", bad=None)
@example(which=6, zs=[3, 2**63 - 1, 2**63], form="uint64", bad=None)
@example(which=7, zs=[3, 2**63 + 1], form="list", bad=2.5)
@example(which=7, zs=[1, 2], form="list", bad=True)
def test_colors_at_agrees_with_color_past_int64(wide_kinds, which, zs, form, bad):
    # a bad position is one below 1 or a non-integer, which colors_at must
    # not truncate, parse or read as 0 or 1
    c, reach = wide_kinds[which]
    if reach is not None:
        zs = [(z - 1) % reach + 1 for z in zs]
    want = [c.color(z) for z in zs]
    if bad is not None:
        zs = zs[:1] + [bad] + zs[1:]
        with pytest.raises(DomainError):
            c.color(bad)
    if form == "uint64" and all(type(z) is int and 0 <= z < 2**64 for z in zs):
        arg = np.array(zs, dtype=np.uint64)
    else:
        arg = zs if form == "list" else np.array(zs, dtype=object)
    if bad is not None:
        with pytest.raises(DomainError):
            c.colors_at(arg)
    else:
        assert c.colors_at(arg).tolist() == want


@pytest.mark.parametrize("form", ["list", "object", "uint64"])
@pytest.mark.parametrize("which", range(9))
def test_wide_positions_never_reach_color(wide_kinds, monkeypatch, which, form):
    # every kind answers positions past 2^63 in its own array kernel: with
    # color() made to raise, colors_at still gives color()'s answers
    c, reach = wide_kinds[which]
    zs = [1, 2, 7, 2**40 + 1, 2**62, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1]
    if form != "uint64":
        zs += [2**64 + 7, 10**30]
    if reach is not None:
        zs = [(z - 1) % reach + 1 for z in zs]
    want = [c.color(z) for z in zs]

    def oracle(self, n):
        raise AssertionError("colors_at called color()")

    monkeypatch.setattr(type(c), "color", oracle)
    arg = zs if form == "list" else np.array(zs, dtype=object if form == "object" else np.uint64)
    assert c.colors_at(arg).tolist() == want


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


def _window_runs(c, n):
    colors = c.window(n).colors[1:].tolist()
    return [(color, len(list(group))) for color, group in itertools.groupby(colors)]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 8),
    n=st.integers(1, 2**12),
    file_runs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 300)), min_size=1, max_size=12),
)
@example(which=8, n=2**12, file_runs=[(2, 1), (1, 1)])
def test_runs_match_window(every_kind, which, n, file_runs):
    # kind 8 is a run-length file, which may repeat a color on adjacent lines
    if which == 8:
        text = "palette 3\nstart 1\n" + "".join(f"{col} {length}\n" for col, length in file_runs)
        c = read_runlength(io.StringIO(text))
    else:
        c = every_kind[which]
    assert list(c.runs(n)) == _window_runs(c, n)


@pytest.mark.parametrize("n", [10**12, 10**30])
@pytest.mark.parametrize(
    "make",
    [
        lambda: power_2coloring(1, 2),
        lambda: triple_2coloring(1, 2, 3),
        lambda: geometric_3coloring(1, 2),
        lambda: recursive_log_coloring(N2, N3, a0=15, window_n=10**4),
    ],
    ids=["power2", "triple", "geo3", "recursive"],
)
def test_runs_past_window_cap(make, n):
    # N far past the window cap: the runs come from the breakpoints alone
    c = make()
    runs = list(c.runs(n))
    assert sum(length for _, length in runs) == n
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    first = 1
    for color, length in runs:
        assert c.color(first) == c.color(first + length - 1) == color
        first += length


def test_explicit_runs_merge_into_tail():
    # a stream ending in color 1 runs on into the fallback color
    c = ExplicitColoring([2, 1])
    assert list(c.runs(5)) == [(2, 1), (1, 4)]
    assert list(ExplicitColoring([1, 1, 2, 1]).runs(6)) == [(1, 2), (2, 1), (1, 3)]


def test_runlength_lengths_past_int64():
    text = f"palette 3\nstart 1\n2 {2**63}\n3 {2**64}\n2 5\n"
    c = read_runlength(io.StringIO(text))
    ends = [2**63, 2**63 + 2**64, 2**63 + 2**64 + 5]
    zs = [1, ends[0], ends[0] + 1, ends[1], ends[1] + 1, ends[2], ends[2] + 1, 10**30]
    want = [2, 2, 3, 3, 2, 2, 1, 1]
    assert [c.color(z) for z in zs] == want
    assert c.colors_at(zs).tolist() == want
    assert c.colors_at(np.array(zs, dtype=object)).tolist() == want
    assert list(c.runs(10**30)) == [(2, 2**63), (3, 2**64), (2, 5), (1, 10**30 - ends[2])]


def test_breakpoint_cap_boundary(monkeypatch):
    # an alternating stream of length L holds L run starts plus its end
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "10")
    c = ExplicitColoring([1, 2] * 4 + [1])
    assert c.color(100) == 1
    assert list(c.runs(100))[-1] == (1, 92)
    with pytest.raises(DomainError, match="more than 10 breakpoints.*SUMSET_RAMSEY_NMAX"):
        ExplicitColoring([1, 2] * 5).color(1)
    c = power_2coloring(1, 2)
    # breakpoints 4, 8, ..., 2^11: the tenth is the first past 2^11 - 1
    assert c.color(2**11 - 1) == 1
    with pytest.raises(DomainError, match="more than 10 breakpoints"):
        c.color(2**11)


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
    assert back.window(n).colors[1:].tolist() == c.window(n).colors[1:].tolist()


def test_runlength_round_trip_random():
    rng = random.Random(2024)
    for _ in range(20):
        k = rng.randint(2, 4)
        vals = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 80)))
        c = ExplicitColoring(vals, k)
        n = len(vals)
        buf = io.StringIO()
        write_runlength(c, n, buf)
        back = read_runlength(io.StringIO(buf.getvalue()))
        assert back.palette == k
        assert [back.color(z) for z in range(1, n + 1)] == list(vals)

"""Return sets, gap statistics, the dichotomy scan, and density profiles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    Coloring,
    DomainError,
    ExplicitColoring,
    PeriodicColoring,
    density_profile,
    dichotomy_detect,
    max_gap,
    parse_coloring_spec,
    return_set,
)
from sumset_ramsey.dynamics import word_from_coloring
from sumset_ramsey.errors import BadPair, WindowOverrun


def _word(syms, k):
    return ExplicitColoring(syms, k).window(len(syms))


def _parity_word(n):
    # x(z) = 1 when z is even, 2 when odd
    return _word(tuple(1 if z % 2 == 0 else 2 for z in range(1, n + 1)), 2)


# x(z) = 1 when z is even, 2 when odd
PARITY = PeriodicColoring([2, 1])


def _window_return_set(w, a, b, h, M):
    """The return set by its definition on a window covering h + b*M."""
    return [m for m in range(1, M + 1) if w.colors[h + a * m] == w.colors[h + b * m]]


def test_word_from_coloring():
    c = PeriodicColoring([1, 2, 1])
    w = word_from_coloring(c, 9)
    assert w.n == 9
    assert w.colors[1:].tolist() == [c.color(i) for i in range(1, 10)]
    assert w.palette == c.palette


def test_return_set_parity_fixtures():
    rs = return_set(PARITY, 1, 3, 1, 20)
    assert list(rs.elements) == list(range(1, 21))

    rs = return_set(PARITY, 1, 2, 1, 20)
    assert list(rs.elements) == list(range(2, 21, 2))

    const = ExplicitColoring((1,) * 50, 2)
    rs = return_set(const, 1, 2, 0, 25)
    assert list(rs.elements) == list(range(1, 26))


def test_return_set_domain_errors():
    with pytest.raises(DomainError):
        return_set(PARITY, 1, 2, -1, 5)
    with pytest.raises(DomainError):
        return_set(PARITY, 1, 2, 0, 0)


def test_return_set_against_nested_loop():
    rng = random.Random(515)
    for _ in range(50):
        n = rng.randint(20, 120)
        k = rng.randint(2, 3)
        c = ExplicitColoring(tuple(rng.randint(1, k) for _ in range(n)), k)
        a = rng.randint(1, 3)
        b = rng.randint(a + 1, a + 3)
        h = rng.randint(0, 5)
        M = (n - h) // b
        if M < 1:
            continue
        rs = return_set(c, a, b, h, M)
        want = _window_return_set(c.window(n), a, b, h, M)
        assert list(rs.elements) == want
        assert rs.to_json()["count"] == len(want)


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 7),
    ab=st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda p: p[0] < p[1]),
    h=st.integers(0, 20),
    M=st.integers(1, 2**10),
)
def test_return_set_matches_window_definition(every_kind, which, ab, h, M):
    c = every_kind[which]
    a, b = ab
    rs = return_set(c, a, b, h, M)
    assert list(rs.elements) == _window_return_set(c.window(h + b * M), a, b, h, M)


def test_return_set_reads_no_window(monkeypatch):
    def no_window(self, n):
        raise AssertionError("return_set built a window")

    monkeypatch.setattr(Coloring, "window", no_window)
    for spec in ("random:k=2,seed=3", "periodic:1121", "triple:1,2,3", "power2:1,2"):
        assert return_set(parse_coloring_spec(spec), 1, 2, 5, 1000).M == 1000


@pytest.mark.parametrize("spec", ["random:k=2,seed=3", "periodic:1121", "triple:1,2,3", "power2:1,2"])
def test_return_set_peak_below_window_path(traced_peak, spec):
    # the window path reads a window of h + b*M positions and one int64 per m
    a, b, h, M = 1, 2, 5, 10**6

    def by_window():
        sym = parse_coloring_spec(spec).window(h + b * M).colors
        ns = np.arange(1, M + 1, dtype=np.int64)
        return tuple(ns[sym[h + a * ns] == sym[h + b * ns]].tolist())

    want, window_peak = traced_peak(by_window)
    rs, peak = traced_peak(lambda: return_set(parse_coloring_spec(spec), a, b, h, M))
    assert rs.elements == want
    assert peak < window_peak, (peak, window_peak)


def test_return_set_cap_on_positions_read(monkeypatch):
    # h + b*M = 5 + 2*50 is the last position read
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "105")
    assert return_set(PARITY, 1, 2, 5, 50).elements == tuple(range(2, 51, 2))
    with pytest.raises(DomainError, match="105.*SUMSET_RAMSEY_NMAX"):
        return_set(PARITY, 1, 2, 6, 50)


def test_dynamics_integer_arguments():
    w = _parity_word(20)
    for call in (
        lambda: return_set(PARITY, 1, 2.5, 0, 5),
        lambda: return_set(PARITY, True, 2, 0, 5),
        lambda: return_set(PARITY, 1, 2, 0.0, 5),
        lambda: return_set(PARITY, 1, 2, 0, 5.0),
        lambda: dichotomy_detect(w, w, 1, 2, 5.0, 3),
        lambda: dichotomy_detect(w, w, 1.0, 2, 5, 3),
        lambda: dichotomy_detect(w, w, 1, 2, 5, True),
        lambda: max_gap([1.5], 3),
        lambda: max_gap([1], 3.0),
        lambda: density_profile([1, 2], 10, [2.5]),
        lambda: density_profile([1.7, 2], 10, [True]),
        lambda: density_profile([1, 2], 10.0, [2]),
    ):
        with pytest.raises(DomainError, match="expected an integer"):
            call()
    with pytest.raises(BadPair):
        return_set(PARITY, 2, 2, 0, 5)


def test_max_gap_fixed():
    assert max_gap(range(2, 21, 2), 20) == 2
    assert max_gap((), 10) == 11
    assert max_gap((1, 10), 10) == 9


def test_max_gap_matches_scan():
    rng = random.Random(3113)
    for _ in range(60):
        M = rng.randint(5, 200)
        S = sorted(rng.sample(range(1, M + 1), rng.randint(0, min(M, 30))))
        pts = [0] + S + [M + 1]
        want = max(b - a for a, b in zip(pts, pts[1:]))
        assert max_gap(S, M) == want


def test_dichotomy_fixed():
    y = _word((1,) * 40, 2)
    z = _word((2,) * 40, 2)
    assert dichotomy_detect(y, z, 1, 2, 5, 10) == 1

    w = _parity_word(40)
    assert dichotomy_detect(w, w, 1, 2, 10, 5) is None


def test_dichotomy_periodic_hit():
    # y has period 2, so y(d) = y(d + 2k) for every d; step a(b-a) = 2 when
    # a=1, b=3, and z constant 2 satisfies its side trivially
    y = _word(tuple(1 if i % 2 == 1 else 2 for i in range(1, 101)), 2)
    z = _word((2,) * 101, 2)
    d = dichotomy_detect(y, z, 1, 3, 10, 5)
    assert d == 1
    assert y.colors[1] != z.colors[1]
    for k in range(1, 6):
        assert y.colors[1 + 2 * k] == y.colors[1]
        assert z.colors[1 + 6 * k] == z.colors[1]


def test_dichotomy_against_direct_scan():
    rng = random.Random(7219)
    checked_hit = 0
    for _ in range(80):
        a = rng.randint(1, 2)
        b = rng.randint(a + 1, a + 2)
        D = rng.randint(3, 12)
        K = rng.randint(1, 4)
        ny = D + a * (b - a) * K
        nz = D + b * (b - a) * K
        k = 2
        y = _word(tuple(rng.randint(1, k) for _ in range(ny)), k)
        z = _word(tuple(rng.randint(1, k) for _ in range(nz)), k)
        got = dichotomy_detect(y, z, a, b, D, K)
        want = None
        for d in range(1, D + 1):
            if y.colors[d] == z.colors[d]:
                continue
            if all(y.colors[d + a * (b - a) * kk] == y.colors[d] for kk in range(1, K + 1)) and all(
                z.colors[d + b * (b - a) * kk] == z.colors[d] for kk in range(1, K + 1)
            ):
                want = d
                break
        assert got == want
        if want is not None:
            checked_hit += 1
    assert checked_hit > 5


def test_dichotomy_window_requirements():
    # y needs D + a(b-a)K, z needs D + b(b-a)K
    a, b, D, K = 1, 2, 5, 4
    y = _word((1,) * (D + a * (b - a) * K), 2)
    z = _word((2,) * (D + b * (b - a) * K), 2)
    assert dichotomy_detect(y, z, a, b, D, K) == 1
    short_z = _word((2,) * (D + b * (b - a) * K - 1), 2)
    with pytest.raises(WindowOverrun):
        dichotomy_detect(y, short_z, a, b, D, K)
    short_y = _word((1,) * (D + a * (b - a) * K - 1), 2)
    with pytest.raises(WindowOverrun):
        dichotomy_detect(short_y, z, a, b, D, K)


def test_dichotomy_domain_errors():
    y = _word((1,) * 30, 2)
    z = _word((2,) * 30, 2)
    with pytest.raises(DomainError):
        dichotomy_detect(y, z, 1, 2, 0, 3)
    with pytest.raises(DomainError):
        dichotomy_detect(y, z, 1, 2, 5, -1)


def test_density_profile_fixed():
    evens = list(range(2, 101, 2))
    [(w1, v1)] = density_profile(evens, 100, [10])
    assert (w1, v1) == (10, 0.5)

    block = list(range(1, 51))
    [(w2, v2)] = density_profile(block, 100, [10])
    assert (w2, v2) == (10, 1.0)


def test_density_profile_squares_scan():
    squares = [z * z for z in range(1, 11)]
    [(_, got)] = density_profile(squares, 100, [20])
    want = max(
        sum(1 for s in squares if t < s <= t + 20) / 20 for t in range(0, 81)
    )
    assert got == want


def test_density_profile_matches_scan_random():
    rng = random.Random(88)
    for _ in range(40):
        M = rng.randint(10, 150)
        S = sorted(rng.sample(range(1, M + 1), rng.randint(0, M // 2)))
        sizes = sorted(rng.sample(range(1, M + 1), rng.randint(1, 3)))
        rows = density_profile(S, M, sizes)
        for (w, got), size in zip(rows, sizes):
            assert w == size
            want = max(
                sum(1 for s in S if t < s <= t + size) / size
                for t in range(0, M - size + 1)
            )
            assert abs(got - want) < 1e-12
            assert 0.0 <= got <= 1.0


def test_density_profile_bad_window():
    with pytest.raises(DomainError):
        density_profile([1, 2], 10, [11])
    with pytest.raises(DomainError):
        density_profile([1, 2], 10, [0])


def _indicator_profile(S, M, sizes):
    """The densest window of each size by an indicator of length M + 1."""
    ind = np.zeros(M + 1, dtype=np.int64)
    for s in S:
        if 1 <= s <= M:
            ind[s] = 1
    csum = np.cumsum(ind)
    return [(w, float((csum[w:] - csum[: M + 1 - w]).max()) / w) for w in sizes]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), M=st.integers(1, 2**12))
def test_density_profile_matches_indicator(data, M):
    S = data.draw(st.lists(st.integers(-3, M + 3), max_size=60))
    S += data.draw(st.lists(st.sampled_from(S), max_size=10)) if S else []
    sizes = data.draw(st.lists(st.integers(1, M), min_size=1, max_size=3))
    assert density_profile(S, M, sizes) == _indicator_profile(S, M, sizes)


def test_density_profile_past_int64():
    M = 10**30
    S = [1, 3, 10**29, 10**29 + 1, 10**29 + 2, M, M + 1]
    assert density_profile(S, M, [2, 3, 10**29, M]) == [
        (2, 1.0), (3, 1.0), (10**29, 4 / 10**29), (M, 6 / M),
    ]
    assert max_gap(S, M) == M - (10**29 + 2)


def test_density_profile_horizon_cap(monkeypatch):
    # the profile counts on the sorted members, so M is not held to the cap
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "100")
    assert density_profile([1, 2], 100, [2]) == [(2, 1.0)]
    assert density_profile([1, 2, 10**11], 10**11, [2, 10**11]) == [(2, 1.0), (10**11, 3 / 10**11)]


def test_max_gap_reads_members_in_range():
    assert max_gap([5, 5, 2, 40, -1], 10) == 6
    assert max_gap(np.array([3, 7]), 8) == 4

"""Return sets, gap statistics, the dichotomy scan, and density profiles."""

import random

import pytest

from sumset_ramsey import (
    DomainError,
    ExplicitColoring,
    PeriodicColoring,
    density_profile,
    dichotomy_detect,
    max_gap,
    return_set,
)
from sumset_ramsey.dynamics import word_from_coloring
from sumset_ramsey.errors import WindowOverrun


def _word(syms, k):
    return ExplicitColoring(syms, k).window(len(syms))


def _parity_word(n):
    # x(z) = 1 when z is even, 2 when odd
    return _word(tuple(1 if z % 2 == 0 else 2 for z in range(1, n + 1)), 2)


def test_word_from_coloring():
    c = PeriodicColoring([1, 2, 1])
    w = word_from_coloring(c, 9)
    assert w.n == 9
    assert w.colors[1:].tolist() == [c.color(i) for i in range(1, 10)]
    assert w.palette == c.palette


def test_return_set_parity_fixtures():
    w = _parity_word(80)
    rs = return_set(w, 1, 3, 1, 20)
    assert list(rs.elements) == list(range(1, 21))

    rs = return_set(w, 1, 2, 1, 20)
    assert list(rs.elements) == list(range(2, 21, 2))

    const = _word((1,) * 50, 2)
    rs = return_set(const, 1, 2, 0, 25)
    assert list(rs.elements) == list(range(1, 26))


def test_return_set_window_overrun():
    w = _parity_word(30)
    with pytest.raises(WindowOverrun):
        return_set(w, 1, 2, 1, 15)
    # boundary case h + bM = n is fine
    return_set(w, 1, 2, 0, 15)


def test_return_set_domain_errors():
    w = _parity_word(30)
    with pytest.raises(DomainError):
        return_set(w, 1, 2, -1, 5)
    with pytest.raises(DomainError):
        return_set(w, 1, 2, 0, 0)


def test_return_set_against_nested_loop():
    rng = random.Random(515)
    for _ in range(50):
        n = rng.randint(20, 120)
        k = rng.randint(2, 3)
        w = _word(tuple(rng.randint(1, k) for _ in range(n)), k)
        a = rng.randint(1, 3)
        b = rng.randint(a + 1, a + 3)
        h = rng.randint(0, 5)
        M = (n - h) // b
        if M < 1:
            continue
        rs = return_set(w, a, b, h, M)
        want = [m for m in range(1, M + 1) if w.colors[h + a * m] == w.colors[h + b * m]]
        assert list(rs.elements) == want
        assert rs.to_json()["count"] == len(want)


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

"""End-to-end acceptance audit: one test per shipped guarantee.

Each test is self-contained (its own oracles, its own fixtures) so a failure
here points at the library, not at a helper shared with the unit suites.
Budgeted tests assert their own wall-clock ceiling.
"""

import random
import time
from itertools import combinations

import mpmath
import numpy as np

from sumset_ramsey import (
    SeededRandomColoring,
    WitnessParams,
    bad_set,
    band_offset,
    build_witness,
    case2_coloring,
    check_sumset_identity,
    exhaustive_search,
    find_admissible_a0,
    geometric_3coloring,
    gowers_threshold,
    greedy_search,
    longest_ap,
    parse_poly,
    power_2coloring,
    psi_eval,
    recursive_log_coloring,
    triple_2coloring,
    verify_config,
)
from sumset_ramsey.errors import DomainError, NoConfiguration

import pytest


def _passed(label: str, note: str = "") -> None:
    print(f"{label}: PASS" + (f" ({note})" if note else ""))


# ---------------------------------------------------------------------------
# criterion 1: triple-shift audit
# ---------------------------------------------------------------------------

def test_criterion_01_triple_coloring_bad_sets_stabilize():
    t0 = time.monotonic()
    c = triple_2coloring(1, 2, 3)
    polys = tuple(parse_poly(t) for t in ("n", "2n", "3n"))
    for n in range(1, 31):
        for color in (1, 2):
            _, rep1 = bad_set(c, n, polys, color, 10**6)
            _, rep2 = bad_set(c, n, polys, color, 2 * 10**6)
            assert rep1.stabilized, (n, color, rep1)
            assert rep2.stabilized, (n, color, rep2)
            assert rep1.max_element == rep2.max_element, (n, color)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"audit took {elapsed:.1f}s, budget is 60s"
    _passed("criterion 1", f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: geometric 3-coloring audit
# ---------------------------------------------------------------------------

def test_criterion_02_geometric_coloring_bad_sets_stabilize():
    c = geometric_3coloring(1, 2)
    polys = tuple(parse_poly(t) for t in ("n", "2n"))
    for n in range(1, 31):
        for color in (1, 2, 3):
            _, rep1 = bad_set(c, n, polys, color, 10**6)
            _, rep2 = bad_set(c, n, polys, color, 2 * 10**6)
            assert rep1.stabilized, (n, color, rep1)
            assert rep2.stabilized, (n, color, rep2)
            assert rep1.max_element == rep2.max_element, (n, color)
    _passed("criterion 2")


# ---------------------------------------------------------------------------
# criterion 3: power-of-two coloring four-point obstruction
# ---------------------------------------------------------------------------

def test_criterion_03_power_coloring_four_point_obstruction():
    t0 = time.monotonic()
    c = power_2coloring(1, 2)
    cap = 10**5
    colors = c.colors_at(np.arange(1, 2 * cap + 300, dtype=np.int64))

    def col(vals):
        return colors[vals - 1]

    checked = 0
    for n1 in range(1, 101):
        for n2 in range(n1 + 1, 101):
            if n2 <= 2 * n1:
                continue
            # k must sit in a dyadic block [2^m, 2^(m+1)) with m > 2 and
            # n1 + n2 < 2^(m-1); the smallest such block start is kmin
            kmin = max(8, 2 ** ((n1 + n2).bit_length() + 1))
            if kmin > cap:
                continue
            ks = np.arange(kmin, cap + 1, dtype=np.int64)
            a = col(n1 + ks)
            b = col(n2 + ks)
            cc = col(n1 + 2 * ks)
            d = col(n2 + 2 * ks)
            allsame = (a == b) & (a == cc) & (a == d)
            assert not allsame.any(), (n1, n2, int(ks[allsame.argmax()]))
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 2000
    assert elapsed < 30.0, f"scan took {elapsed:.1f}s, budget is 30s"
    _passed("criterion 3", f"{checked} pairs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: recursive log-width coloring
# ---------------------------------------------------------------------------

def _reference_levels(a0, count, cap):
    # psi(t) = t^(3/2) for the square/cube pair; rebuild levels from scratch
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
    return levels


def test_criterion_04_recursive_coloring_levels_and_bad_sets():
    P, Q = parse_poly("n^2"), parse_poly("n^3")
    a0 = find_admissible_a0(P, Q, 10**6)
    win = 10**7
    c = recursive_log_coloring(P, Q, a0=a0, window_n=win)

    nonempty = [L for L in c.levels if L]
    for lo_lv, hi_lv in zip(nonempty, nonempty[1:]):
        assert min(hi_lv) > max(lo_lv), "levels overlap"

    want = _reference_levels(a0, len(c.levels), win)
    assert [list(L) for L in c.levels] == want

    for n in range(1, 11):
        for color in (1, 2):
            _, rep = bad_set(c, n, (P, Q), color, 10**5)
            assert rep.stabilized, (n, color, rep)
    _passed("criterion 4", f"a0={a0}, {len(c.levels)} levels")


# ---------------------------------------------------------------------------
# criterion 5: equal-degree pair colorings
# ---------------------------------------------------------------------------

def test_criterion_05_equal_degree_pair_audits():
    pairs = [
        ("n^2", "n^2 + n"),
        ("n^2", "n^2 + 2n"),
        ("n^3 - n", "n^3 + 3n^2 + 2n"),
    ]
    for pt, qt in pairs:
        P, Q = parse_poly(pt), parse_poly(qt)
        c = case2_coloring(P, Q)
        for n in range(1, 21):
            for color in (1, 2):
                _, rep = bad_set(c, n, (P, Q), color, 10**4)
                assert rep.stabilized, (pt, qt, n, color, rep)

    # first pair: beyond the last offset violation the colors are forced
    P, Q = parse_poly("n^2"), parse_poly("n^2 + n")
    l = band_offset(P, Q).l
    c = case2_coloring(P, Q)
    ms = np.arange(1, 10**4 + 1, dtype=np.int64)
    pv_all = ms * ms
    qv_all = ms * ms + ms
    for n in range(1, 21):
        pv = n + pv_all
        qv = n + qv_all
        in_two_band = (pv >= (ms + (l - 1)) ** 2) & (pv < qv_all)
        in_one_band = (qv >= qv_all) & (qv < (ms + l) ** 2)
        bad = ~(in_two_band & in_one_band)
        m0 = int(ms[bad][-1]) if bad.any() else 0
        assert m0 <= n + 2, (n, m0)
        tail = ms[ms > m0]
        assert tail.size > 0
        assert (c.colors_at((n + tail * tail).astype(np.int64)) == 2).all(), n
        assert (c.colors_at((n + tail * tail + tail).astype(np.int64)) == 1).all(), n
    _passed("criterion 5")


# ---------------------------------------------------------------------------
# criterion 6: greedy search strength at N = 10^6
# ---------------------------------------------------------------------------

def test_criterion_06_greedy_search_finds_large_configurations():
    t0 = time.monotonic()
    N = 10**6
    polys = (parse_poly("n"), parse_poly("2n"))

    hits = 0
    for seed in range(20):
        c = SeededRandomColoring(seed, 2)
        cfg = greedy_search(c.window(N), polys, r=3, maxC=12, candidate_cap=2048)
        assert verify_config(c, cfg) == cfg.color, seed
        if len(cfg.C) >= 8:
            hits += 1
    assert hits >= 18, f"only {hits}/20 random colorings reached |C| >= 8"

    builtins = [
        power_2coloring(1, 2),
        triple_2coloring(1, 2, 3),
        case2_coloring(parse_poly("n^2"), parse_poly("n^2 + n")),
        case2_coloring(parse_poly("n^2"), parse_poly("n^2 + 2n")),
        case2_coloring(parse_poly("n^3 - n"), parse_poly("n^3 + 3n^2 + 2n")),
        recursive_log_coloring(parse_poly("n^2"), parse_poly("n^3"), a0=15, window_n=N),
    ]
    for c in builtins:
        cfg = greedy_search(c.window(N), polys, r=3, maxC=12, candidate_cap=2048)
        assert verify_config(c, cfg) == cfg.color, c.descriptor
        assert len(cfg.C) >= 8, (c.descriptor, len(cfg.C))

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"search sweep took {elapsed:.1f}s, budget is 120s"
    _passed("criterion 6", f"{hits}/20 random, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: exhaustive search equals a nested-loop oracle
# ---------------------------------------------------------------------------

def _oracle_best(c, n, polys, r, sizeC):
    best = None
    cand = [cc for cc in range(1, n + 1) if max(P(cc) for P in polys) < n]
    for C in combinations(cand, sizeC):
        for color in range(1, c.palette + 1):
            surv = []
            for b in range(1, n + 1):
                if all(
                    b + P(cc) <= n and c.color(b + P(cc)) == color
                    for cc in C
                    for P in polys
                ):
                    surv.append(b)
            if len(surv) >= r:
                key = (len(surv), -color)
                if best is None or key > best[0]:
                    best = (key, C, color, len(surv))
    return best


def test_criterion_07_exhaustive_search_matches_oracle():
    rng = random.Random(250107)
    polys = (parse_poly("n"), parse_poly("2 n"))
    for _ in range(50):
        n = rng.randint(15, 40)
        c = SeededRandomColoring(rng.randint(0, 10**6), 2)
        sizeC = rng.randint(1, 2)
        want = _oracle_best(c, n, polys, 2, sizeC)
        got = exhaustive_search(c.window(n), polys, r=2, sizeC=sizeC)
        if want is None:
            assert got is None, (n, sizeC)
        else:
            assert got is not None, (n, sizeC)
            assert verify_config(c, got) == got.color
            assert got.survivors == want[3]

        # greedy can never report more columns than the exhaustive optimum
        try:
            g = greedy_search(c.window(n), polys, r=2, maxC=2)
        except NoConfiguration:
            continue
        best_size = 0
        for sc in (1, 2):
            if exhaustive_search(c.window(n), polys, r=2, sizeC=sc) is not None:
                best_size = sc
        assert len(g.C) <= best_size, (n, len(g.C), best_size)
    _passed("criterion 7")


# ---------------------------------------------------------------------------
# criterion 8: longest arithmetic progression vs brute force
# ---------------------------------------------------------------------------

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


def test_criterion_08_longest_ap_matches_brute_force():
    rng = random.Random(250108)
    for _ in range(100):
        size = rng.randint(1, 50)
        S = set(rng.sample(range(1, 501), size))
        assert longest_ap(S) == _ap_brute_force(S), sorted(S)
    _passed("criterion 8")


# ---------------------------------------------------------------------------
# criterion 9: witness set algebra
# ---------------------------------------------------------------------------

def _random_step1(rng):
    a = rng.randint(1, 3)
    b = rng.randint(a + 1, a + 3)
    r = rng.randint(1, 4)
    s = rng.randint(1, 6)
    t = a * rng.randint(1, 4)
    base = s + (r - 1) * t + a
    d_values = tuple(sorted(rng.sample(range(base + 1, base + 200), rng.randint(1, 4))))
    return WitnessParams(
        variant="StepI", a=a, b=b, r=r, d_tilde=rng.randint(0, 9),
        s=s, t=t, d_values=d_values,
    )


def _random_case1(rng):
    a = rng.randint(1, 3)
    b = rng.randint(a + 1, a + 3)
    r = rng.randint(1, 4)
    E = b * (b - a) * rng.randint(1, 5)
    if rng.random() < 0.5:
        pairs = tuple(
            (rng.randint(1, 50), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))
        )
        return WitnessParams(
            variant="CaseI", a=a, b=b, r=r, d_tilde=rng.randint(0, 9), E=E, pairs=pairs
        )
    lo = a * b * (r + 1) + E // (b - a)
    v_values = tuple(
        a * v for v in sorted(rng.sample(range(lo + 1, lo + 300), rng.randint(1, 3)))
    )
    return WitnessParams(
        variant="CaseI", a=a, b=b, r=r, d_tilde=rng.randint(0, 9), E=E, v_values=v_values
    )


def _random_situation1(rng):
    a = rng.randint(1, 3)
    b = rng.randint(a + 1, a + 3)
    r = rng.randint(1, 3)
    L0 = rng.randint(r + 1, r + 5)
    j = rng.randint(1, 3)
    beta = rng.randint(1, 3)
    offsets = tuple(sorted(rng.sample(range(1, L0), r)))
    lo = ((j - 1) * beta + 1) * L0 * a * b
    v_values = tuple(
        a * v for v in sorted(rng.sample(range(lo + 1, lo + 300), rng.randint(1, 3)))
    )
    return WitnessParams(
        variant="SituationI", a=a, b=b, r=r, d_tilde=rng.randint(0, 9),
        j=j, beta=beta, L0=L0, offsets=offsets, v_values=v_values,
    )


def _random_situation2(rng):
    a = rng.randint(1, 3)
    b = rng.randint(a + 1, a + 3)
    r = rng.randint(1, 3)
    L0 = rng.randint(2, 5)
    beta = rng.randint(1, 2)
    alpha = rng.randint(1, 5)
    step = a * b * (b - a) * L0 * beta
    # xi large enough that every B element stays positive
    need = (alpha + (r - 1) * step + 1) * (b - a) // a + alpha
    xi = alpha + (b - a) * rng.randint(need, need + 50)
    base = (xi - alpha) // (b - a)
    v_values = tuple(
        a * v for v in sorted(rng.sample(range(base + 1, base + 300), rng.randint(1, 3)))
    )
    return WitnessParams(
        variant="SituationII", a=a, b=b, r=r, d_tilde=rng.randint(0, 9),
        xi=xi, alpha=alpha, beta=beta, L0=L0, v_values=v_values,
    )


def test_criterion_09_witness_identities():
    from sumset_ramsey.errors import BadParams, NonPositiveElement

    rng = random.Random(250109)
    makers = (_random_step1, _random_case1, _random_situation1, _random_situation2)
    for maker in makers:
        done = 0
        while done < 100:
            try:
                p = maker(rng)
                B, C = build_witness(p)
            except (BadParams, NonPositiveElement):
                continue
            assert check_sumset_identity(p, B, C), p
            done += 1

    p = WitnessParams(variant="StepI", a=1, b=2, r=2, d_tilde=0, s=1, t=1,
                      d_values=(10, 20))
    assert build_witness(p) == ((4, 5), (7, 17))

    p = WitnessParams(variant="CaseI", a=1, b=2, r=2, d_tilde=0, E=2, v_values=(100,))
    assert build_witness(p) == ((10, 12), (92,))

    p = WitnessParams(variant="SituationI", a=1, b=2, r=2, d_tilde=0, j=1, beta=1,
                      L0=3, offsets=(1, 2), v_values=(30,))
    assert build_witness(p) == ((8, 10), (24,))
    _passed("criterion 9")


# ---------------------------------------------------------------------------
# criterion 10: growth inverse identity
# ---------------------------------------------------------------------------

def test_criterion_10_psi_identity_on_grid():
    from sumset_ramsey import a_star

    for pt, qt in (("n^2", "n^3"), ("2n^2", "3n^3 + n")):
        P, Q = parse_poly(pt), parse_poly(qt)
        t0 = int(mpmath.floor(a_star(P, Q))) + 1
        for t in range(t0, t0 + 100):
            got = psi_eval(P, Q, P(t))
            rel = abs(got - Q(t)) / Q(t)
            assert rel < 1e-9, (pt, qt, t, float(rel))
    _passed("criterion 10")


# ---------------------------------------------------------------------------
# criterion 11: density threshold in log space
# ---------------------------------------------------------------------------

def test_criterion_11_gowers_threshold_shape():
    N = 10**6
    vals = [gowers_threshold(k, N) for k in range(1, 11)]
    # the stored values compare exactly; lnN is computed wide enough that the
    # tiny correction term is visible against it
    with mpmath.workprec(2**19 + 256):
        lnN = mpmath.log(N)
    assert all(v < lnN for v in vals)
    assert all(x < y for x, y in zip(vals, vals[1:]))

    ladder = [gowers_threshold(3, 100 * 2**j) for j in range(35)]
    assert 100 * 2**34 >= 10**12
    assert all(x < y for x, y in zip(ladder, ladder[1:]))

    with pytest.raises(DomainError):
        gowers_threshold(3, 15)
    with pytest.raises(DomainError):
        gowers_threshold(3, 10)
    gowers_threshold(3, 16)
    _passed("criterion 11")

"""Exact polynomial arithmetic, growth profiles, and band offsets."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_ramsey import (
    DomainError,
    IntPolynomial,
    ParseError,
    PolynomialError,
    a_star,
    band_offset,
    format_poly,
    parse_poly,
    psi_eval,
    psi_profile,
)
from sumset_ramsey.errors import EqualPolynomials, NotCaseII
from sumset_ramsey import poly
from sumset_ramsey.poly import BandOffset, BandPart, GrowthCase, _open_interval_root_free


def test_eval_fixed_values():
    assert parse_poly("n^2")(0) == 0
    assert parse_poly("n^3")(5) == 125
    assert parse_poly("2 n^2 + n")(10) == 210


def test_eval_matches_repeated_addition():
    # oracle: p(n) as a sum of monomial contributions built by repeated addition
    rng = random.Random(4021)
    for _ in range(60):
        deg = rng.randint(1, 5)
        coeffs = [0] + [rng.randint(0, 9) for _ in range(deg - 1)] + [rng.randint(1, 9)]
        p = IntPolynomial(tuple(coeffs))
        n = rng.randint(0, 50)
        expected = 0
        for d, c in enumerate(coeffs):
            term = 1
            for _ in range(d):
                term *= n
            acc = 0
            for _ in range(c):
                acc += term
            expected += acc
        assert p(n) == expected


def test_eval_arbitrary_precision():
    p = parse_poly("n^3 - n")
    n = 10**30
    assert p(n) == n**3 - n


def test_parse_format_round_trip():
    for text in ("n^2", "n^3 - n", "2 n^2 + n", "n^3 + 3 n^2 + 2 n", "5 n"):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p


def test_parse_format_round_trip_random():
    rng = random.Random(77)
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = [0] + [rng.randint(-20, 20) for _ in range(deg - 1)] + [rng.randint(1, 20)]
        p = IntPolynomial(tuple(coeffs))
        assert parse_poly(format_poly(p)) == p


def test_parse_rejects_garbage():
    for bad in ("", "x^2", "n^", "n^2 +", "1.5 n", "n^-1"):
        with pytest.raises((PolynomialError, ParseError, ValueError)):
            parse_poly(bad)


def test_rejects_nonpositive_leading_coefficient():
    with pytest.raises(PolynomialError):
        IntPolynomial((0, 0, -1))
    with pytest.raises(PolynomialError):
        parse_poly("-n^2")


def test_psi_eval_exact_points():
    P = parse_poly("n^2")
    Q = parse_poly("n^3")
    assert abs(psi_eval(P, Q, 4) - 8) < 1e-9
    # psi(2) = 2^{3/2}
    target = mpmath.mpf(2) ** mpmath.mpf("1.5")
    assert abs(psi_eval(P, Q, 2) - target) / target < 1e-12
    # identity self-test when P = Q
    assert abs(psi_eval(P, parse_poly("n^2"), 9) - 9) < 1e-9


def test_psi_eval_domain_error():
    P = parse_poly("n^2")
    Q = parse_poly("n^3")
    t0 = P(a_star(P, Q))
    with pytest.raises(DomainError):
        psi_eval(P, Q, t0)
    with pytest.raises(DomainError):
        psi_eval(P, Q, t0 - 1)


def test_psi_composition_identity():
    # psi(P(t)) = Q(t) on a grid of integer points
    cases = [
        ("n^2", "n^3"),
        ("n^2", "n^2 + n"),
        ("2 n^2 + n", "n^3 - n"),
        ("n", "3 n"),
    ]
    for pt, qt in cases:
        P = parse_poly(pt)
        Q = parse_poly(qt)
        lo = a_star(P, Q) + 1
        for i in range(100):
            t_hat = lo + i * max(1, (1000 - lo) // 100)
            got = psi_eval(P, Q, P(t_hat))
            want = Q(t_hat)
            assert abs(got - want) / want < 1e-9


@pytest.mark.parametrize("fn", [psi_eval, poly.psi_prime])
@pytest.mark.parametrize("t", [float("inf"), mpmath.inf])
def test_psi_rejects_infinite_t(fn, t):
    # the bracket's doubling would never reach P(hi) >= oo
    with pytest.raises(DomainError, match="finite"):
        fn(parse_poly("n^2"), parse_poly("n^3"), t)


def _ulps_away(y, k):
    """The mpf k units in the last place from y, at the working precision."""
    sign, man, exp, bc = y._mpf_
    if not man:
        return mpmath.ldexp(mpmath.mpf(k), -mpmath.mp.prec)
    shift = mpmath.mp.prec - bc
    return mpmath.ldexp(mpmath.mpf(((-man if sign else man) << shift) + k), exp - shift)


@st.composite
def _below_cases(draw):
    prec = draw(st.integers(160, 400))
    d = draw(st.integers(1, 5))
    lower = draw(st.lists(st.integers(-(2**64), 2**64) | st.integers(-50, 50), min_size=d, max_size=d))
    cs = lower + [draw(st.integers(1, 2**32))]
    s = draw(st.sampled_from([0, 48]))
    bits = draw(st.integers(0, min(200, prec)))  # x = X / 2^s is exact at prec
    X = draw(st.integers(0, (1 << bits) - 1).map(lambda v: v | (1 << bits >> 1)))
    near = draw(st.sampled_from([None, -2, -1, 0, 1, 2]))
    far = draw(st.integers(-(2**300), 2**300))
    return prec, cs, s, X, near, far


@settings(max_examples=400, deadline=None)
@given(case=_below_cases())
def test_p_below_matches_mpf_horner(case):
    # t at the rounded mpf P(x) and its neighbours leaves the exact value on
    # the wrong side of t for about half the draws: only the replay gets those
    prec, cs, s, X, near, far = case
    with mpmath.workprec(prec):
        x = mpmath.ldexp(mpmath.mpf(X), -s)
        y = poly._eval_coeffs(cs, x)
        t = mpmath.mpf(far) if near is None else _ulps_away(y, near)
        assert poly._p_below(cs, X, s, t) == (y < t)


def _invert_p_mpf(P, t_mpf, lo):
    """P^-1 by bisection and Newton all in mpf, as poly._invert_p once was."""
    mp = mpmath.mp
    lo_f = mpmath.mpf(lo)
    hi = mpmath.mpf(lo + 1)
    while P(hi) < t_mpf:
        hi *= 2
    lo_b, hi_b = lo_f, hi
    for _ in range(48):
        mid = (lo_b + hi_b) / 2
        if P(mid) < t_mpf:
            lo_b = mid
        else:
            hi_b = mid
    x = (lo_b + hi_b) / 2
    eps = mpmath.mpf(2) ** (-(mp.prec - 8))
    for _ in range(80):
        fx = P(x) - t_mpf
        dfx = P.derivative_at(x)
        step = fx / dfx
        x_new = x - step
        if x_new <= lo_f:
            x_new = (x + lo_f) / 2
        x = x_new
        if abs(step) <= abs(x) * eps:
            break
    return x


def _assert_psi_matches_mpf_inversion(P, Q, t):
    a, prec = poly._psi_prep(P, Q, t)
    with mpmath.workprec(prec):
        x = _invert_p_mpf(P, poly._to_mpf(t), a)
        want = ((+Q(x))._mpf_, (+(Q.derivative_at(x) / P.derivative_at(x)))._mpf_)
    assert (psi_eval(P, Q, t)._mpf_, poly.psi_prime(P, Q, t)._mpf_) == want


_PSI_PAIRS = [
    ("n^2", "n^3"),
    ("2n^2", "3n^3 + n"),
    ("n^2", "n^2 + n"),
    ("n^3 - 5n^2 + n", "n^4"),
    ("n^2 - 10000000000000000000000000000000000000000n", "n^3"),
    ("3n^2 - 1000000000000n", "n^3 - n"),
]


@pytest.mark.parametrize("pt,qt", _PSI_PAIRS)
def test_psi_bit_identical_to_mpf_inversion_at_roots_and_floor(pt, qt):
    # t = P(k) puts the root on an integer, where the doubling bracket or a
    # midpoint can hit it exactly; t just above P(a*) starts at the bracket's foot
    P, Q = parse_poly(pt), parse_poly(qt)
    a = a_star(P, Q)
    floor = P(a)
    ts = [P(k) for k in range(a + 1, a + 40)] + [P(2**j * (a + 1)) for j in range(1, 6)]
    ts += [floor + 1, floor + 2, Fraction(2 * floor + 1, 2), Fraction(7 * floor + 1, 7)]
    if float(floor) > floor:
        ts.append(float(floor))
    ts += [mpmath.mpf(floor) * (1 + mpmath.mpf(2) ** -40), mpmath.mpf(P(a + 3))]
    for t in ts:
        _assert_psi_matches_mpf_inversion(P, Q, t)


@settings(max_examples=150, deadline=None)
@given(
    pair=st.sampled_from(_PSI_PAIRS),
    kind=st.sampled_from(["int", "Fraction", "float", "mpf"]),
    scale=st.integers(0, 200),
    num=st.integers(1, 2**80),
)
def test_psi_bit_identical_to_mpf_inversion(pair, kind, scale, num):
    P, Q = parse_poly(pair[0]), parse_poly(pair[1])
    floor = P(a_star(P, Q))
    t = Fraction(floor) + Fraction(num, 2**40) * 2**scale
    t = {"int": math.ceil, "Fraction": Fraction, "float": float, "mpf": poly._to_mpf}[kind](t)
    if not t > floor:  # a float or 53-bit mpf may round back onto P(a*)
        return
    _assert_psi_matches_mpf_inversion(P, Q, t)


def test_psi_profile_fixed():
    prof = psi_profile(parse_poly("n^2"), parse_poly("n^3"))
    assert prof.delta == Fraction(3, 2)
    assert prof.c == Fraction(1)
    assert prof.case is GrowthCase.CASE_I

    prof = psi_profile(parse_poly("n^2"), parse_poly("n^2 + n"))
    assert prof.delta == Fraction(1)
    assert prof.c == Fraction(1)
    assert prof.case is GrowthCase.CASE_II

    prof = psi_profile(parse_poly("n"), parse_poly("3 n"))
    assert prof.delta == Fraction(1)
    assert prof.c == Fraction(3)
    assert prof.case is GrowthCase.CASE_I


def test_psi_profile_equal_polynomials():
    with pytest.raises(EqualPolynomials):
        psi_profile(parse_poly("n^2"), parse_poly("n^2"))


def test_psi_profile_case_split_exhaustive():
    # case is CASE_II iff delta = c = 1
    rng = random.Random(911)
    for _ in range(200):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 4)
        lp = rng.randint(1, 5)
        lq = rng.randint(1, 5)
        P = IntPolynomial(tuple([0] * dp + [lp]))
        Q = IntPolynomial(tuple([0] + [rng.randint(0, 3) for _ in range(dq - 1)] + [lq]))
        if P == Q:
            continue
        prof = psi_profile(P, Q)
        assert prof.delta == Fraction(dq, dp)
        assert prof.c == Fraction(lq, lp)
        expect_ii = prof.delta == 1 and prof.c == 1
        assert (prof.case is GrowthCase.CASE_II) == expect_ii


def test_band_offset_fixed():
    b = band_offset(parse_poly("n^2"), parse_poly("n^2 + n"))
    assert b.l == 1
    assert b.part is BandPart.PART_I
    assert b.k1 is None and b.k2 is None

    b = band_offset(parse_poly("n^2"), parse_poly("n^2 + 2 n"))
    assert b.l == 1
    assert b.part is BandPart.PART_II
    assert b.k1 == 2

    b = band_offset(parse_poly("n^3 - n"), parse_poly("n^3 + 3 n^2 + 2 n"))
    assert b.l == 2
    assert b.part is BandPart.PART_III
    assert b.k2 == 0


def test_band_offset_check_raises(monkeypatch):
    # with N0 forced down to 1, P(1) = 1 breaks "P(n) > 1": the check loop
    # must raise a package error, which python -O keeps (an assert would not);
    # band_offset is memoized, so an earlier answer for the pair is dropped
    band_offset.cache_clear()
    monkeypatch.setattr(poly, "_positive_from", lambda cs, allow_zero: 1)
    with pytest.raises(DomainError, match="band inequality fails at n = 1"):
        band_offset(parse_poly("n^2"), parse_poly("n^2 + n"))


def test_package_has_no_assert():
    # argument and invariant checks raise package errors; asserts vanish under -O
    src = Path(poly.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_band_offset_not_case_ii():
    with pytest.raises(NotCaseII):
        band_offset(parse_poly("n^2"), parse_poly("n^3"))
    with pytest.raises(NotCaseII):
        band_offset(parse_poly("n"), parse_poly("3 n"))


def test_band_inequality_exact():
    cases = [
        ("n^2", "n^2 + n"),
        ("n^2", "n^2 + 2 n"),
        ("n^3 - n", "n^3 + 3 n^2 + 2 n"),
        ("n^2 + n", "n^2 + 5 n"),
    ]
    for pt, qt in cases:
        P = parse_poly(pt)
        Q = parse_poly(qt)
        b = band_offset(P, Q)
        for n in range(b.n0, b.n0 + 1001):
            assert P(n + b.l - 1) <= Q(n) <= P(n + b.l)


def test_band_part_matches_boundedness_scan():
    # difference attains <= 2 distinct values over n <= 10^4 iff classified constant
    cases = [
        ("n^2", "n^2 + n"),
        ("n^2", "n^2 + 2 n"),
        ("n^3 - n", "n^3 + 3 n^2 + 2 n"),
        ("n^2 + 3 n", "n^2 + 4 n"),
        ("2 n^2", "2 n^2 + 7 n"),
    ]
    for pt, qt in cases:
        P = parse_poly(pt)
        Q = parse_poly(qt)
        b = band_offset(P, Q)
        upper = {P(n + b.l) - Q(n) for n in range(b.n0, 10**4)}
        lower = {Q(n) - P(n + b.l - 1) for n in range(b.n0, 10**4)}
        upper_const = len(upper) <= 2
        lower_const = len(lower) <= 2
        if b.part is BandPart.PART_II:
            assert upper_const
        elif b.part is BandPart.PART_III:
            assert lower_const and b.l > 1
        else:
            assert not upper_const and not lower_const


def test_band_offset_minimality():
    rng = random.Random(1333)
    for _ in range(40):
        lead = rng.randint(1, 3)
        deg = rng.randint(2, 3)
        low = [0] + [rng.randint(0, 4) for _ in range(deg - 1)]
        P = IntPolynomial(tuple(low + [lead]))
        shift = rng.randint(1, 3)
        # Q(n) = P(n + shift) - P(shift): CASE_II, same degree and lead, zero constant
        qc = [0] * (deg + 1)
        for d, c in enumerate(list(low) + [lead]):
            row = [1]
            for _ in range(d):
                nxt = [0] * (len(row) + 1)
                for i, v in enumerate(row):
                    nxt[i] += v * shift
                    nxt[i + 1] += v
                row = nxt
            for i, v in enumerate(row):
                qc[i] += c * v
        qc[0] = 0
        Q = IntPolynomial(tuple(qc))
        if P == Q:
            continue
        b = band_offset(P, Q)
        assert b.l == shift
        n = b.n0 + 17
        assert P(n + b.l - 1) <= Q(n) <= P(n + b.l)
        # with offset l - 1 the upper bound must fail somewhere in the scan
        if b.l > 1:
            assert any(
                not (P(m + b.l - 2) <= Q(m) <= P(m + b.l - 1))
                for m in range(b.n0, b.n0 + 50)
            )


def test_a_star_monotone_beyond_threshold():
    for pt, qt in (("n^2", "n^3"), ("n^3 - n", "n^3 + 3 n^2 + 2 n"), ("n", "2 n")):
        P = parse_poly(pt)
        Q = parse_poly(qt)
        a = a_star(P, Q)
        prev_p = P(a)
        prev_q = Q(a)
        for n in range(a + 1, a + 200):
            assert P(n) > prev_p
            assert Q(n) > prev_q
            assert Q(n) > P(n) >= 1
            prev_p = P(n)
            prev_q = Q(n)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


@given(
    a=st.integers(-5, 20),
    roots=st.lists(st.tuples(st.integers(-10, 30), st.integers(1, 3)), max_size=4),
    at_a=st.integers(0, 2),
    quadratics=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 40)), max_size=2),
    lead=st.sampled_from([-3, -1, 1, 2]),
)
def test_open_interval_root_free_known_roots(a, roots, at_a, quadratics, lead):
    # lead * prod (n - r)^m * prod (n^2 + b n + c) with b^2 < 4c, so the real
    # roots are exactly the r's; those equal to a lie outside (a, oo)
    cs = [lead]
    for r, m in roots + [(a, at_a)]:
        for _ in range(m):
            cs = _times(cs, [-r, 1])
    for b, c in quadratics:
        cs = _times(cs, [max(c, b * b // 4 + 1), b, 1])
    assert _open_interval_root_free(cs, a) == all(r <= a for r, _ in roots)


@pytest.mark.parametrize(
    "pt,qt,want",
    [
        ("n^2", "n^3", 1),
        ("n^2", "n^2", 1),
        ("n^2", "n^2 + n", 1),
        ("n^2", "n^2 + 2n", 1),
        ("2n^2", "3n^3 + n", 1),
        ("n^3 - n", "n^3 + 3n^2 + 2n", 2),
        ("2n^2 + n", "n^3 - n", 3),
        ("n^5", "2n^5", 1),
        ("n", "2n", 1),
        ("n", "3n", 1),
        ("2n^2 - 4n", "5n^3 - 23n^2 + 4n", 5),
        ("5n^3 - 23n^2 - 26n", "2n^5 - 9n^4 + 18n^3 - 20n^2 - 4n", 6),
        ("5n", "5n^5 - 28n^4 - 16n^3 - 27n^2 - 5n", 7),
        ("2n^3 - 6n^2 + 26n", "2n^6 - 16n^5 - 21n^4 - 19n^3 - 25n^2 - 21n", 10),
        ("5n", "n^4 - 12n^3 - 14n^2 - 19n", 14),
        ("4n", "n^2 - 20n", 24),
    ],
)
def test_a_star_fixed_values(pt, qt, want):
    assert a_star(parse_poly(pt), parse_poly(qt)) == want


def _a_star_scan(P, Q):
    # the linear scan a = 1, 2, ...: root-free on (a, oo) plus a sign probe
    conds = []
    if P.coeffs != Q.coeffs:
        qp = poly._sub(Q.coeffs, P.coeffs)
        if not qp or qp[-1] <= 0:
            raise DomainError("Q does not eventually dominate P")
        conds += [qp, poly._derive(qp)]
    conds += [poly._sub(P.coeffs, [1]), poly._sub(poly._derive(P.coeffs), [1])]
    conds = [cs for cs in conds if cs]
    bound = max(poly._root_bound(cs) for cs in conds) + 1
    for a in range(1, bound + 2):
        if all(
            _open_interval_root_free(cs, a)
            and not (poly._eval_coeffs(cs, a + 1) <= 0 and poly._eval_coeffs(cs, bound + 2) <= 0)
            for cs in conds
        ):
            return a
    raise AssertionError("the scan found no threshold")


def _poly_from(lead, lower):
    return IntPolynomial([0] + lower + [lead])


_SMALL_POLY = st.builds(_poly_from, st.integers(1, 4), st.lists(st.integers(-40, 40), max_size=3))


@settings(max_examples=200, deadline=None)
@given(P=_SMALL_POLY, Q=_SMALL_POLY)
def test_a_star_matches_linear_scan(P, Q):
    # the bisection must give the scan's answer, sign probe included
    try:
        want = _a_star_scan(P, Q)
    except DomainError:
        with pytest.raises(DomainError):
            a_star(P, Q)
        return
    assert a_star(P, Q) == want


@pytest.mark.parametrize("e,want", [(10, 100_001), (30, 10**15 + 1)])
def test_a_star_large_linear_coefficient(e, want):
    # n^3 - n^2 - 10^e n has its root just above 10^(e/2): the scan would take
    # 10^(e/2) Sturm counts
    assert a_star(parse_poly(f"n^2 + {10**e}n"), parse_poly("n^3")) == want


def _positive_from_upward(cs, allow_zero):
    # the upward scan: every integer up to the Cauchy bound, the last failure + 1
    cs = poly._trim(list(cs))
    if not cs:
        return 1 if allow_zero else None
    if len(cs) == 1:
        return 1 if cs[0] > 0 or (allow_zero and cs[0] == 0) else None
    if cs[-1] < 0:
        return None
    v = 1
    for n in range(1, poly._root_bound(cs) + 1):
        val = sum(c * n**k for k, c in enumerate(cs))
        if val < 0 or (val == 0 and not allow_zero):
            v = n + 1
    return v


@given(cs=st.lists(st.integers(-60, 60), max_size=6), allow_zero=st.booleans())
def test_positive_from_matches_upward_scan(cs, allow_zero):
    assert poly._positive_from(cs, allow_zero) == _positive_from_upward(cs, allow_zero)


def test_positive_from_stops_near_the_top():
    # P(n + 1) - P(n) for P = n^2 - 10^8 n: the upward scan visits 5 * 10^7 integers
    assert poly._positive_from([1 - 10**8, 2], False) == 50_000_000
    assert poly._positive_from([-(10**8), 2], True) == 50_000_000
    assert poly._positive_from([-(10**8), 2], False) == 50_000_001


def test_positive_from_starts_at_the_largest_root():
    # a downward scan from the Cauchy bound would visit about 10^30 and 3 * 10^19
    # integers here; the Sturm bisection starts at the largest real root
    assert poly._positive_from([1 + 10**30, 2], False) == 1
    assert poly._positive_from([1 - 10**20, 3, 3], False) == 5773502692


def _close_roots(K, a, b):
    # (10n - (10K + a)) (10n - (10K + b)): roots K + a/10 and K + b/10
    return _times([-(10 * K + a), 10], [-(10 * K + b), 10])


def test_positive_from_skips_root_pairs_between_integers():
    # both roots lie between K and K + 1, so every integer is positive; a
    # downward scan would visit all K = 10^9 integers below them
    K = 10**9
    assert poly._positive_from(_close_roots(K, 3, 6), False) == 1
    # the integer K + 1 between the roots is negative
    assert poly._positive_from(_close_roots(K, 3, 16), False) == K + 2
    # a double root at K + 1: zero there, positive elsewhere
    assert poly._positive_from(_close_roots(K, 10, 10), True) == 1
    assert poly._positive_from(_close_roots(K, 10, 10), False) == K + 2


def _positive_from_downward(cs, allow_zero):
    # the plain downward scan: every integer from the largest root down to 1
    cs = poly._trim(list(cs))
    if not cs:
        return 1 if allow_zero else None
    if len(cs) == 1:
        return 1 if cs[0] > 0 or (allow_zero and cs[0] == 0) else None
    if cs[-1] < 0:
        return None
    for n in range(max(poly._root_free_from(cs), 1), 0, -1):
        val = poly._eval_coeffs(cs, n)
        if val < 0 or (val == 0 and not allow_zero):
            return n + 1
    return 1


def _from_factors(lead, factors):
    cs = [lead]
    for d, a in factors:
        cs = _times(cs, [-a, d])
    return cs


@settings(max_examples=300, deadline=None)
@given(
    cs=st.one_of(
        st.lists(st.integers(-60, 60), max_size=6),
        # lead * prod (d n - a): rational roots, some of them close together
        st.builds(
            _from_factors,
            st.integers(-2, 3),
            st.lists(st.tuples(st.sampled_from([1, 2, 3, 10]), st.integers(-20, 300)), max_size=4),
        ),
    ),
    allow_zero=st.booleans(),
)
def test_positive_from_matches_downward_scan(cs, allow_zero):
    assert poly._positive_from(cs, allow_zero) == _positive_from_downward(cs, allow_zero)


@given(
    a=st.integers(-5, 20),
    width=st.integers(0, 20),
    roots=st.lists(st.integers(-10, 30), max_size=4),
    lead=st.sampled_from([-3, -1, 1, 2]),
)
def test_open_interval_root_free_between_known_roots(a, width, roots, lead):
    # roots at either end lie outside (a, b)
    b = a + width
    cs = _from_factors(lead, [(1, r) for r in roots + [a, b]])
    assert _open_interval_root_free(cs, a, b) == all(not a < r < b for r in roots)


def test_band_offset_with_a_huge_root_bound():
    P, Q = parse_poly(f"n^2 + {10**30}n"), parse_poly(f"n^2 + {10**30 + 1}n")
    assert band_offset(P, Q) == BandOffset(l=1, n0=1, part=BandPart.PART_I)


_LAYER_POLYS = ("n", "3n^2 - 7n", "n^3 + 2n", "5n^4 - n^2", "n^2 - 40n", "1000000n^4", "n^7 - 3n^6")


def _int64_edge(P, n):
    # the largest top for which the int64 rule holds
    lo, hi = 1, 2
    while poly._fits_int64(P, n, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if poly._fits_int64(P, n, mid) else (lo, mid)
    return lo


@settings(max_examples=200, deadline=None)
@given(
    text=st.sampled_from(_LAYER_POLYS),
    n=st.integers(-(10**6), 10**6),
    over=st.booleans(),
    sign=st.sampled_from((1, -1)),
    offsets=st.lists(st.integers(-50, 50), max_size=8),
)
def test_values_matches_python_ints(text, n, over, sign, offsets):
    # xs reach the last |x| of the int64 rule, or one past it
    P = parse_poly(text)
    edge = _int64_edge(P, n) + over
    xs = [sign * edge] + offsets + [sign * (edge - abs(d)) for d in offsets]
    got = poly.values(P, np.array(xs, dtype=np.int64), n)
    assert (got.dtype == np.int64) == poly._fits_int64(P, n, edge) == (not over)
    assert got.tolist() == [n + P(x) for x in xs]


@settings(max_examples=200, deadline=None)
@given(
    P=_SMALL_POLY,
    n0=st.one_of(st.integers(-1000, 1000), st.integers(2**63 - 50, 2**63 + 50), st.integers(0, 2**80)),
    step=st.integers(1, 40),
    ks=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
)
def test_affine_ladder_matches_scalar_p(P, n0, step, ks):
    # c + R(k) = P(n0 + step k) exactly, by scalar Horner and in the array layer
    R, c = poly.affine_ladder(P, n0, step)
    assert R.coeffs[0] == 0 and R.degree == P.degree and R.lead == P.lead * step**P.degree
    want = [P(n0 + step * k) for k in ks]
    assert [c + R(k) for k in ks] == want
    assert poly.values(R, np.array(ks, dtype=np.int64), c).tolist() == want
    if n0 >= poly.increasing_from(P):
        # the ladder increases, so first_at_least counts its values at or below each
        assert poly.first_at_least(R, c - 1, want, 0).tolist() == [k + 1 for k in ks]


@pytest.mark.parametrize("step", [0, -1, 1.0, True])
def test_affine_ladder_refuses_a_step_below_1(step):
    with pytest.raises(DomainError):
        poly.affine_ladder(parse_poly("n^2"), 3, step)


@settings(max_examples=150, deadline=None)
@given(
    text=st.sampled_from(_LAYER_POLYS),
    n=st.integers(-500, 500),
    span=st.integers(0, 600),
    picks=st.lists(st.tuples(st.integers(0, 600), st.integers(-1, 1)), max_size=10),
    give_hi=st.booleans(),
)
def test_first_at_least_matches_linear_scan(text, n, span, picks, give_hi):
    # cuts at, just below and just above values of n + P on [lo, hi], some
    # past 2^63; every strategy must give the linear scan's answer
    P = parse_poly(text)
    lo = poly.increasing_from(P)
    hi = lo + span
    ts = [min(n + P(lo + min(k, span)) + d, n + P(hi)) for k, d in picks]
    want = [next(m for m in range(lo, hi + 1) if n + P(m) >= t) for t in ts]
    for overhead in (0, 10**12):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_STEP_OVERHEAD", overhead)
            got = poly.first_at_least(P, n, ts, lo, hi if give_hi else None)
        assert got.dtype == np.int64
        assert got.tolist() == want


def _first_by_bisection(P, n, t, lo, hi):
    # Python ints throughout: no midpoint can wrap
    while lo < hi:
        mid = (lo + hi) // 2
        if n + P(mid) >= t:
            hi = mid
        else:
            lo = mid + 1
    return lo


# bracket ends at small m, around 2^62 (where probe positions leave int64) and
# just below 2^63
_ENDS = st.one_of(
    st.integers(1, 3000),
    st.integers(2**62 - 3000, 2**62 + 3000),
    st.integers(2**63 - 3001, 2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(
    text=st.sampled_from(_LAYER_POLYS),
    n=st.one_of(st.integers(-500, 500), st.just(2**62)),
    ends=st.tuples(_ENDS, _ENDS).map(sorted),
    data=st.data(),
)
@example(text="n", n=0, ends=[10, 2**63 - 4], data=None)
def test_first_at_least_matches_python_int_bisection(text, n, ends, data):
    # cuts at, just below and just above values of n + P at m drawn near both
    # ends and anywhere in [lo, hi]; every cost setting must give the answer
    # of a bisection on Python ints
    P = parse_poly(text)
    lo, hi = max(ends[0], poly.increasing_from(P)), max(ends[1], poly.increasing_from(P))
    if data is None:
        ts = [2**62, 2**63 - 100]
    else:
        m = st.one_of(st.integers(lo, min(hi, lo + 50)), st.integers(max(lo, hi - 50), hi), st.integers(lo, hi))
        picks = data.draw(st.lists(st.tuples(m, st.integers(-1, 1)), max_size=12), label="picks")
        ts = [min(n + P(k) + d, n + P(hi)) for k, d in picks]
    want = [_first_by_bisection(P, n, t, lo, hi) for t in ts]
    # a huge per-level overhead makes one dense level the cheapest, so it
    # runs only over spans small enough to materialize
    overheads = (0, poly._STEP_OVERHEAD, 10**12)
    for overhead in overheads if hi - lo <= 10**4 else overheads[:2]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_STEP_OVERHEAD", overhead)
            got = poly.first_at_least(P, n, ts, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_first_at_least_near_2_63():
    # a midpoint (a + b) // 2 in int64 would wrap here and answer 2^63 - 4 twice
    P = parse_poly("n")
    got = poly.first_at_least(P, 0, [2**62, 2**63 - 100], 10, 2**63 - 4)
    assert got.tolist() == [2**62, 2**63 - 100]


@pytest.mark.parametrize("give_hi", [False, True])
def test_first_at_least_answers_past_int64(give_hi):
    # answers follow int_array's rule: Python ints once one passes 2^63 - 1
    P = parse_poly("n^2 - n")
    ms = [3, 2**62 + 5, 2**63 - 1, 2**63, 10**30]
    ts = [P(m) - 1 for m in ms]
    got = poly.first_at_least(P, 0, ts, 1, 10**30 if give_hi else None)
    assert got.dtype == object and got.tolist() == ms
    got = poly.first_at_least(P, 0, ts[:3], 1, 10**30 if give_hi else None)
    assert got.dtype == np.int64 and got.tolist() == ms[:3]
    # an empty or one-point bracket answers lo in the same rule
    assert poly.first_at_least(P, 0, [ts[-1]], 10**30, 10**30).tolist() == [10**30]
    assert poly.first_at_least(P, 0, [], 2**64).dtype == np.int64


@pytest.mark.parametrize("text", ["n", "3n^2", "2n^5 + n", "n^7 + 4n^3"])
@pytest.mark.parametrize("top", [1, 5000, 10**18, 2**1100], ids=["1", "5000", "10^18", "2^1100"])
def test_first_at_least_omitted_hi_starts_at_the_leading_term(monkeypatch, text, top):
    # with no negative coefficient the leading term's bound already reaches
    # top, so the doubling only checks it once; tops past 2^1024 need
    # integer arithmetic
    P = parse_poly(text)
    calls = []
    call = type(P).__call__
    monkeypatch.setattr(type(P), "__call__", lambda self, x: calls.append(x) or call(self, x))
    got = poly.first_at_least(P, 7, [top], 1)
    assert len(calls) == 1
    monkeypatch.undo()
    assert got.tolist() == [_first_by_bisection(P, 7, top, 1, max(1, top))]


@pytest.mark.parametrize("n,int64", [(0, True), (2**62, False)])
def test_first_at_least_costs_the_chosen_dtype(monkeypatch, n, int64):
    # 48 cuts over m <= 10^4 of 2n^4: cheap int64 evaluations buy a few wide
    # levels, costly object evaluations more narrow ones
    P = parse_poly("2n^4")
    horner = poly._horner

    def levels(n):
        evaluated = []

        def counting(P, xs, n, dtype):
            evaluated.append(xs.size)
            return horner(P, xs, n, dtype)

        monkeypatch.setattr(poly, "_horner", counting)
        ts = np.array([n + P(m) for m in range(200, 10**4, 205)], dtype=np.int64)
        got = poly.first_at_least(P, n, ts, 1, 10**4)
        monkeypatch.setattr(poly, "_horner", horner)
        assert got.tolist() == list(range(200, 10**4, 205))
        assert sum(evaluated) <= 10**4
        return len(evaluated)

    other = 2**62 if int64 else 0
    assert (levels(n) < levels(other)) == int64


def test_first_at_least_list_cuts_take_the_int64_path(monkeypatch):
    # a list of cuts that fit int64 is costed and evaluated as int64; one cut
    # past 2^63 sends the whole list to Python ints
    P = parse_poly("2n^4")
    dtypes = []
    horner = poly._horner

    def recording(P, xs, n, dtype):
        dtypes.append(dtype)
        return horner(P, xs, n, dtype)

    monkeypatch.setattr(poly, "_horner", recording)
    ms = list(range(200, 10**4, 205))
    got = poly.first_at_least(P, 0, [P(m) for m in ms], 1, 10**4)
    assert got.tolist() == ms
    assert set(dtypes) == {np.int64}
    dtypes.clear()
    got = poly.first_at_least(P, 0, [P(m) for m in ms] + [2**63], 1)
    assert got.tolist() == ms + [poly.first_at_least(P, 0, np.array([2**63], dtype=object), 1)[0]]
    assert set(dtypes) == {object}


@pytest.mark.parametrize("text", ["n^2 - 40n", "n^3 - 5n^2", "5n^4 - n^2", "n", "2n^3 - 300n^2 + n"])
def test_increasing_from_matches_brute_force(text):
    # each of these has P(m + 1) > P(m) for every m >= 1000
    P = parse_poly(text)
    falls = [m for m in range(1, 1000) if P(m + 1) <= P(m)]
    assert poly.increasing_from(P) == (falls[-1] + 1 if falls else 1)


def test_search_and_coloring_import_no_private_poly_name():
    # the exact polynomial layer is poly's public functions
    src = Path(poly.__file__).resolve().parent
    for name in ("search.py", "coloring.py"):
        tree = ast.parse((src / name).read_text(), filename=name)
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly"
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert not private, f"{name} imports {private} from poly"

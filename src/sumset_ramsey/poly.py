"""Integer polynomials with zero constant term, growth profiles, and band offsets.

The polynomial type is the common currency of the package: coefficients are
arbitrary-precision Python ints, evaluation is exact Horner.  Its array layer
answers the exact questions the constructions ask of an integer polynomial:
``values`` gives n + P(x) over an integer array, ``first_at_least`` the least
m with n + P(m) >= t for many t at once (a search over levels of probes,
shared by all t at the first level, whose positions never wrap), and
``increasing_from`` the m from which P increases, and ``affine_ladder`` the
polynomial k -> P(n0 + step k) in the (zero-constant polynomial, n) form
the other two take.  One rule,
``_fits_int64``, decides when int64 arithmetic is exact; past it the values
are Python ints in object arrays.  Integers handed in from outside take one
rule too, ``int_array``: int64 when every value fits, Python ints in an
object array otherwise.  On top of it sit the growth map psi = Q o P^{-1} (evaluated in high-precision real
arithmetic), its degree/leading-ratio profile, and the band-offset computation
for pairs of equal degree and equal leading coefficient.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._deps import mpmath, np
from .errors import (
    DomainError,
    EqualPolynomials,
    NotCaseII,
    ParseError,
    PolynomialError,
)

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?\s*
        (?P<var>n)?\s*
        (?:\^\s*(?P<exp>\d+))?\s*""",
    re.VERBOSE,
)


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (index = power), used internally
# ---------------------------------------------------------------------------

def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval_coeffs(coeffs: Sequence[int], x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derive(coeffs: Sequence[int]) -> list[int]:
    return _trim([k * coeffs[k] for k in range(1, len(coeffs))])


def _shift(coeffs: Sequence[int], s: int) -> list[int]:
    # coefficients of p(n + s): Horner in the polynomial ring, out = out*(n+s) + c
    out: list[int] = []
    for c in reversed(coeffs):
        new = [0] * (len(out) + 1)
        for k, v in enumerate(out):
            new[k] += v * s
            new[k + 1] += v
        new[0] += c
        out = new
    return _trim(out)


def _sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0) for k in range(n)]
    return _trim(out)


def _root_bound(coeffs: Sequence[int]) -> int:
    # Cauchy bound: all real roots lie below 1 + max |c_i| / |lead|
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return 1
    m = max(abs(c) for c in coeffs[:-1])
    return 1 + (m + abs(lead) - 1) // abs(lead) + 1


def _root_free_from(cs: Sequence[int], lo: int = 0, b: int | None = None) -> int:
    """Least integer a >= lo with no real root of cs in (a, b), by bisection.

    An omitted b stands for oo; a given b must be at least lo.
    """
    hi = _root_bound(cs) if b is None else b
    while lo < hi:
        mid = (lo + hi) // 2
        if _open_interval_root_free(cs, mid, b):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _positive_from(coeffs: Sequence[int], allow_zero: bool) -> int | None:
    """Smallest integer v >= 1 with coeffs(n) > 0 (or >= 0) for every int n >= v.

    Exact for integer arguments: past ``_root_free_from`` the sign is the
    lead's.  From there it walks down: check the integer n, bisect for the
    least b with no root in (b, n), check n - 1 for the root-free integers
    b + 1 .. n - 1 (they share its sign), and go on from b.  Each stretch ends
    at a root, so there are at most deg + 1 of them.  Returns None when no
    such v exists.
    """
    cs = _trim(list(coeffs))
    if not cs:
        return 1 if allow_zero else None
    if len(cs) == 1:
        ok = cs[0] > 0 or (allow_zero and cs[0] == 0)
        return 1 if ok else None
    if cs[-1] < 0:
        return None

    def fails(n: int) -> bool:
        val = _eval_coeffs(cs, n)
        return val < 0 or (val == 0 and not allow_zero)

    n = max(_root_free_from(cs), 1)
    while n >= 1:
        if fails(n):
            return n + 1
        b = _root_free_from(cs, 1, n)
        if b < n - 1 and fails(n - 1):
            return n
        n = min(b, n - 1)
    return 1


# ---------------------------------------------------------------------------
# the polynomial type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, zero constant term, positive lead.

    ``coeffs[k]`` is the coefficient of n^k; ``coeffs[0]`` must be 0 and the
    final entry positive.  Instances are immutable and hashable.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        cs = _trim([int(c) for c in coeffs])
        if len(cs) < 2:
            raise PolynomialError("degree must be at least 1")
        if cs[0] != 0:
            raise PolynomialError(f"constant term must be 0, got {cs[0]}")
        if cs[-1] <= 0:
            raise PolynomialError(f"leading coefficient must be positive, got {cs[-1]}")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        """Exact Horner evaluation; works for int, Fraction, and mpf inputs."""
        return _eval_coeffs(self.coeffs, x)

    def derivative_at(self, x):
        return _eval_coeffs(_derive(self.coeffs), x)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({format_poly(self)!r})"


def parse_poly(text: str) -> IntPolynomial:
    """Parse the grammar ``c_d n^d + ... + c_1 n`` (e.g. ``n^3 - n``, ``2n^2+n``)."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", text, 0)
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError("unreadable term", text, pos)
        sign, coeff, var, exp = m.group("sign", "coeff", "var", "exp")
        if sign is None and not first:
            raise ParseError("missing + or - between terms", text, pos)
        if coeff is None and var is None:
            raise ParseError("unreadable term", text, pos)
        if exp is not None and var is None:
            raise ParseError("exponent without variable", text, pos)
        k = 0 if var is None else (int(exp) if exp is not None else 1)
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        coeffs[k] = coeffs.get(k, 0) + c
        pos = m.end()
        first = False
    deg = max(coeffs)
    return IntPolynomial([coeffs.get(k, 0) for k in range(deg + 1)])


def format_poly(p: IntPolynomial) -> str:
    """Canonical serialization; ``parse_poly`` round-trips it."""
    parts: list[str] = []
    for k in range(p.degree, 0, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        body = "n" if k == 1 else f"n^{k}"
        if mag != 1:
            body = f"{mag}{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# exact evaluation and inversion over integer arrays
# ---------------------------------------------------------------------------

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def int_value(x) -> int:
    """x as a Python int: any integer but a bool, else DomainError."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"expected an integer, got {x!r}")


def rational_value(x) -> Fraction:
    """x as a Fraction: a Fraction or any integer but a bool, else DomainError.

    A float is refused, not read as its binary expansion."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(int_value(x))
    except DomainError:
        raise DomainError(f"expected an integer or a Fraction, got {x!r}") from None


def int_array(xs) -> np.ndarray:
    """The integers xs as an int64 array when every value fits, and as an
    object array of Python ints otherwise.

    xs is an ndarray or a sequence.  A uint64 array never wraps; float,
    string and bool arrays, and non-integer elements, raise DomainError.
    """
    if isinstance(xs, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, xs)):
        # numpy would read a bool among ints as 0 or 1
        bad = next(v for v in xs if type(v) in (bool, np.bool_))
        raise DomainError(f"expected an integer, got {bad!r}")
    arr = np.asarray(xs)
    if arr.dtype.kind == "f" and not isinstance(xs, np.ndarray):
        # numpy makes floats of a list mixing int64 values with ones past 2^63
        arr = np.array(xs, dtype=object)
    kind = arr.dtype.kind
    if kind == "i" or (kind == "u" and (arr.size == 0 or arr.max() <= I64_MAX)):
        return arr.astype(np.int64, copy=False)
    if kind not in ("u", "O"):
        raise DomainError(f"expected integers, got a {arr.dtype} array")
    vals = [int_value(v) for v in arr.ravel().tolist()]
    fits = not vals or (I64_MIN <= min(vals) and max(vals) <= I64_MAX)
    return np.array(vals, dtype=np.int64 if fits else object).reshape(arr.shape)


def _fits_int64(P: IntPolynomial, n: int, top: int) -> bool:
    """The one overflow rule: n + P(x) by Horner stays in int64 for |x| <= top."""
    # |acc_j| <= sum |c_k| top^(k-j) <= sum |c_k| top^k for top >= 1, so the
    # bound on |n + P(x)| also covers every Horner step.
    return abs(n) + sum(abs(c) * top**k for k, c in enumerate(P.coeffs)) < (1 << 62)


def values(P: IntPolynomial, xs, n: int = 0) -> np.ndarray:
    """n + P(x) for every x of an integer ndarray, exact.

    int64 when ``_fits_int64`` holds for top = max |x|, Python ints in an
    object array otherwise.
    """
    top = max(1, abs(int(xs.min())), abs(int(xs.max()))) if xs.size else 1
    return _horner(P, xs, n, np.int64 if _fits_int64(P, n, top) else object)


def _horner(P: IntPolynomial, xs: np.ndarray, n: int, dtype) -> np.ndarray:
    """n + P(xs) by Horner in dtype, which the caller has chosen by the int64 rule."""
    xs = xs.astype(dtype, copy=False)
    # Horner from lead * x; the constant term is 0, so the last step multiplies
    acc = xs * P.coeffs[-1]
    for c in P.coeffs[-2:0:-1]:
        if c:
            acc += c
        acc *= xs
    if n:
        acc += n
    return acc


# numpy call overhead of one search level, in int64 evaluations.  Measured
# on triple and geo3 (2 vCPUs) against levels of base 2: one dense level wins
# below M of about 3*10^4 (2.5x at 10^4) and the bisection above it.
_STEP_OVERHEAD = 2048
# one evaluation in an object array, in int64 evaluations: each Horner step is
# a Python operation (55-135x measured for degrees 1 to 7, 2 vCPUs)
_OBJECT_EVAL = 64


def _search_base(w: int, cuts: int, unit: int) -> int:
    """The base b of the cheapest search over w answers for `cuts` cuts.

    L levels of base b = ceil(w^(1/L)) cost L * _STEP_OVERHEAD and
    unit * (b - 1) * (1 + (L - 1) * cuts) evaluations: level 1 probes b - 1
    points shared by every cut, each later level b - 1 points per cut.
    """
    base = b = w
    L, best = 1, _STEP_OVERHEAD + unit * (w - 1)
    while b > 2:
        L += 1
        # b = 2 bounds the cost of L levels and of every L after it from below
        if L * _STEP_OVERHEAD + unit * (1 + (L - 1) * cuts) >= best:
            break
        # past the float range, 2^ceil(bits / L) stands in for the root
        bits = w.bit_length()
        b = max(2, math.ceil(w ** (1 / L)) if bits <= 1000 else 1 << -(-bits // L))
        cost = L * _STEP_OVERHEAD + unit * (b - 1) * (1 + (L - 1) * cuts)
        if cost < best:
            best, base = cost, b
    return base


def first_at_least(P: IntPolynomial, n: int, ts, lo: int, hi: int | None = None) -> np.ndarray:
    """Least m >= lo with n + P(m) >= t, for each t in ts, as ``int_array``
    gives them: int64 when every answer fits.

    P is strictly increasing on [lo, oo) and every t <= n + P(hi); an omitted
    hi is found by doubling from where the leading term alone reaches the
    largest t.  The search runs over levels.  Before a level,
    each cut's answer lies in a bracket [a, a + g), cut at hi; the level
    splits it into parts of ceil(g / b), probes the last point of each part
    but the top one, and moves a past the probes below t.  All cuts share the
    first bracket [lo, hi], so level 1 probes one set of points for all of
    them; each later level probes up to b - 1 points per cut.
    ``_search_base`` picks b, with evaluations costed in the dtype chosen for
    them: b = hi - lo + 1 is one pass over [lo, hi), b = 2 a bisection.
    Probe positions are int64 while 0 <= lo and hi < 2^62, and Python ints
    otherwise, so none of them wraps.
    """
    ts = int_array(ts)
    if hi is None:
        top = max(ts.tolist(), default=n)
        # lead * x^deg >= top - n from x = 2^ceil(bits / deg) on, in exact integers
        bits = max(0, (top - n) // P.coeffs[-1]).bit_length()
        hi = max(lo, 1, 1 << -(-bits // P.degree))
        while n + P(hi) < top:
            hi *= 2
    # one dtype for every evaluation on [lo, hi], and ts in it
    dtype = np.int64 if ts.dtype == np.int64 and _fits_int64(P, n, max(1, abs(lo), abs(hi))) else object
    ts = ts.astype(dtype, copy=False)
    # positions: a bracket start plus an offset below g stays under 2^63
    pos = np.int64 if 0 <= lo and hi < (1 << 62) else object
    g = hi - lo + 1
    if g == 1 or not ts.shape[0]:
        return int_array([lo] * ts.shape[0])
    b = _search_base(g, ts.shape[0], 1 if dtype is np.int64 else _OBJECT_EVAL)
    part = -(-g // b)
    vals = _horner(P, np.arange(lo + part - 1, hi, part, dtype=pos), n, dtype)
    below = np.searchsorted(vals, ts, side="left").astype(pos, copy=False)
    a = lo + (below if part == 1 else part * below)
    while part > 1:
        g, part = part, -(-part // b)
        offs = np.arange(part - 1, g - 1, part, dtype=pos)
        # one probe per cut, a bisection step, keeps the arrays flat
        at, t = (a + offs[0], ts) if offs.shape[0] == 1 else (a[:, None] + offs, ts[:, None])
        if dtype is np.int64:
            # a bracket cut at hi puts probes past it, where n + P may leave
            # int64; they would reach t anyway
            np.minimum(at, hi, out=at)
        below = _horner(P, at, n, dtype) < t
        a += part * (below if below.ndim == 1 else below.sum(axis=1)).astype(pos, copy=False)
    return a if pos is np.int64 else int_array(a)


@lru_cache(maxsize=256)
def increasing_from(P: IntPolynomial) -> int:
    """Least m >= 1 with P(m + 1) > P(m) for every integer m from it on."""
    return _positive_from(_sub(_shift(P.coeffs, 1), P.coeffs), False)


def affine_ladder(P: IntPolynomial, n0: int, step: int) -> tuple[IntPolynomial, int]:
    """k -> P(n0 + step k) as (R, c) with c + R(k) equal to it for every k.

    R has zero constant term, so ``values(R, ks, c)`` evaluates the ladder
    and ``first_at_least(R, c, ts, 0)`` inverts it where it increases.  step
    is at least 1, so R's lead, P's times step^deg, is positive.
    """
    n0, step = int_value(n0), int_value(step)
    if step < 1:
        raise DomainError(f"ladder step must be at least 1, got {step}")
    cs = _shift(P.coeffs, n0)
    return IntPolynomial([0] + [c * step**k for k, c in enumerate(cs) if k]), cs[0]


# ---------------------------------------------------------------------------
# growth profile and psi evaluation
# ---------------------------------------------------------------------------

class GrowthCase(str, Enum):
    CASE_I = "I"
    CASE_II = "II"


@dataclass(frozen=True)
class PsiProfile:
    delta: Fraction
    c: Fraction
    case: GrowthCase


def psi_profile(P: IntPolynomial, Q: IntPolynomial) -> PsiProfile:
    """Degree ratio and leading-coefficient ratio of psi = Q o P^{-1}."""
    if P.coeffs == Q.coeffs:
        raise EqualPolynomials("P and Q coincide")
    delta = Fraction(Q.degree, P.degree)
    # leading behavior: Q(P^{-1}(t)) ~ (q_e / p_d^(e/d)) * t^(e/d); the profile
    # keeps the rational pair (delta, q_e/p_d) used by the case split
    c = Fraction(Q.lead, P.lead)
    case = GrowthCase.CASE_II if delta == 1 and c == 1 else GrowthCase.CASE_I
    return PsiProfile(delta=delta, c=c, case=case)


def _neg_rem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """A positive multiple of -(f mod g), as a primitive integer polynomial.

    Pseudo-division that scales by |lead(g)| keeps every step integral and
    the remainder's sign, which is all a Sturm sequence needs.
    """
    r = list(f)
    lead = g[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(r) >= len(g):
        k = len(r) - len(g)
        t = r[-1] * sign
        r = [scale * c for c in r]
        for i, c in enumerate(g):
            r[i + k] -= t * c
        _trim(r)
    if not r:
        return r
    content = math.gcd(*r)
    return [-c // content for c in r]


def _sign_changes(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _open_interval_root_free(coeffs: Sequence[int], a: int, b: int | None = None) -> bool:
    """True when the polynomial has no real root in the open interval (a, b).

    An omitted b stands for oo.  Exact: roots sitting at a or b are divided
    out first, then Sturm's theorem counts the distinct roots in (a, b) as
    V(a) - V(b) sign changes.
    """
    cs = _trim(list(coeffs))
    for end in (a,) if b is None else (a, b):
        while len(cs) > 1 and _eval_coeffs(cs, end) == 0:
            # synthetic division by (n - end); the remainder is cs(end) = 0
            quot = [0] * (len(cs) - 1)
            acc = 0
            for k in range(len(cs) - 1, 0, -1):
                acc = acc * end + cs[k]
                quot[k - 1] = acc
            cs = quot
    if len(cs) <= 1:
        return True
    seq = [cs, _derive(cs)]
    while len(seq[-1]) > 1:
        rem = _neg_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    at_a = _sign_changes([_eval_coeffs(p, a) for p in seq])
    at_b = _sign_changes([p[-1] if b is None else _eval_coeffs(p, b) for p in seq])
    return at_a == at_b


@lru_cache(maxsize=256)
def a_star(P: IntPolynomial, Q: IntPolynomial) -> int:
    """Smallest integer a with Q > P >= 1 and Q' > P' >= 1 on all of (a, oo).

    The least a >= 1 past which every condition is root-free, found by
    bisection with the Sturm count; positive leads make that equivalent to
    positivity.
    For P == Q the dominance conditions are dropped (psi is the identity).
    """
    p, q = list(P.coeffs), list(Q.coeffs)
    conds: list[list[int]] = []
    if p != q:
        qp = _sub(q, p)
        if not qp or qp[-1] <= 0:
            raise DomainError("Q does not eventually dominate P")
        conds.append(qp)
        dqp = _sub(_derive(q), _derive(p))
        if dqp and dqp[-1] <= 0:
            raise DomainError("Q' does not eventually dominate P'")
        conds.append(dqp)
    conds.append(_sub(p, [1]))          # P >= 1 beyond the threshold
    conds.append(_sub(_derive(p), [1]))  # P' >= 1 beyond the threshold
    # every nonzero condition has a positive lead (P's lead is positive, and
    # the two dominance leads are checked above), so one that is root-free
    # on (a, oo) is positive there; being root-free is monotone in a
    return max([1] + [_root_free_from(cs) for cs in conds if cs])


def _to_mpf(t) -> mpmath.mpf:
    if isinstance(t, Fraction):
        return mpmath.mpf(t.numerator) / t.denominator
    return mpmath.mpf(t)


def _p_below(cs: Sequence[int], X: int, s: int, t_mpf: mpmath.mpf) -> bool:
    """``_eval_coeffs(cs, x) < t_mpf`` in mpf at the working precision, x = X / 2^s.

    x must be exact there (X < 2^prec) and t finite; d = len(cs) - 1.
    Integer Horner gives V = cs(x) 2^(s d) exactly and
    S = sum |c_i| X^i 2^(s (d - i)) in the same scale.  mpf Horner rounds at
    most 2d + 1 times, each by a relative 2^-prec, so its error is under
    (2d + 2) S 2^-prec.  When V is farther than twice that from t, the exact
    answer is the mpf one; otherwise the mpf evaluation is replayed.
    """
    v = size = k = 0  # c_i enters scaled by 2^k, k = s (d - i)
    for c in reversed(cs):
        if c:
            v = v * X + (c << k)
            size = size * X + (abs(c) << k)
        else:
            v *= X
            size *= X
        k += s
    d = len(cs) - 1
    sign, man, exp, _ = t_mpf._mpf_
    e = exp + s * d  # t = (-1)^sign man 2^exp, in V's scale
    if e >= 0:
        gap = v - ((-man if sign else man) << e)
    else:
        gap = (v << -e) - (-man if sign else man)
        size <<= -e
    if abs(gap) << mpmath.mp.prec > (4 * d + 4) * size:
        return gap < 0
    return _eval_coeffs(cs, mpmath.ldexp(mpmath.mpf(X), -s)) < t_mpf


def _invert_p(P: IntPolynomial, t_mpf: mpmath.mpf, lo: int) -> mpmath.mpf:
    """Solve P(x) = t on the increasing branch (lo, oo): bisection then Newton.

    The bracket lives on integers: hi doubles from lo + 1 while P(hi) < t, and
    the 48 bisection midpoints are M / 2^48 with M = (L + R) >> 1 between
    L = lo 2^48 and R = hi 2^48.  Each test P(mid) < t is ``_p_below``: exact
    unless P(mid) lies within mpf Horner's rounding bound of t, where the mpf
    evaluation is replayed.  So every decision, and Newton's start
    x = (L + R) / 2^49, is what mpf bisection at the working precision gives:
    its sums L + R are exact there, because P has no constant term, so
    t > P(a*) >= a* (P(a*)/a* is a positive integer), hence hi <= 4t, and the
    working precision has at least 96 bits more than t.  Newton runs in mpf.
    """
    mp = mpmath.mp
    cs = P.coeffs
    hi = lo + 1
    while _p_below(cs, hi, 0, t_mpf):
        hi *= 2
    lo_b, hi_b = lo << 48, hi << 48
    for _ in range(48):
        mid = (lo_b + hi_b) >> 1
        if _p_below(cs, mid, 48, t_mpf):
            lo_b = mid
        else:
            hi_b = mid
    lo_f = mpmath.mpf(lo)
    x = mpmath.ldexp(mpmath.mpf(lo_b + hi_b), -49)
    eps = mpmath.mpf(2) ** (-(mp.prec - 8))
    for _ in range(80):
        fx = P(x) - t_mpf
        dfx = P.derivative_at(x)
        step = fx / dfx
        x_new = x - step
        if x_new <= lo_f:  # safeguard: fall back into the bracket
            x_new = (x + lo_f) / 2
        x = x_new
        if abs(step) <= abs(x) * eps:
            break
    return x


def psi_eval(P: IntPolynomial, Q: IntPolynomial, t) -> mpmath.mpf:
    """psi(t) = Q(P^{-1}(t)) on the shared increasing branch.

    High-precision real arithmetic (160-bit significand or better, and 96
    bits past t's); relative error well below 1e-12.  P^{-1}(t) comes from
    ``_invert_p``: an exact integer bracket whose comparisons replay the mpf
    evaluation only where P(mid) is within its rounding bound of t, so the
    value is bit for bit that of all-mpf bisection, then mpf Newton.  Raises
    DomainError for t <= P(a*) and for t = +oo.
    """
    a, prec = _psi_prep(P, Q, t)
    with mpmath.workprec(prec):
        t_mpf = _to_mpf(t)
        x = _invert_p(P, t_mpf, a)
        return +Q(x)


def psi_prime(P: IntPolynomial, Q: IntPolynomial, t) -> mpmath.mpf:
    """Derivative of psi at t, via the chain rule Q'(x)/P'(x) at x = P^{-1}(t)."""
    a, prec = _psi_prep(P, Q, t)
    with mpmath.workprec(prec):
        t_mpf = _to_mpf(t)
        x = _invert_p(P, t_mpf, a)
        return +(Q.derivative_at(x) / P.derivative_at(x))


def _psi_prep(P: IntPolynomial, Q: IntPolynomial, t) -> tuple[int, int]:
    """Domain check for psi-type evaluations; returns (a*, working precision)."""
    a = a_star(P, Q)
    floor_val = P(a)
    if not t > floor_val:  # exact for int, float, Fraction and mpf alike
        raise DomainError(f"t must exceed P(a*) = {floor_val}, got {t}")
    if t == math.inf:  # past the domain check, the one non-finite t left
        raise DomainError(f"t must be finite, got {t}")
    return a, max(160, int(t).bit_length() + 96)


# ---------------------------------------------------------------------------
# band offsets for equal-degree, equal-lead pairs
# ---------------------------------------------------------------------------

class BandPart(str, Enum):
    PART_I = "PartI"
    PART_II = "PartII"
    PART_III = "PartIII"


@dataclass(frozen=True)
class BandOffset:
    l: int
    n0: int
    part: BandPart
    k1: int | None = None
    k2: int | None = None


@lru_cache(maxsize=256)
def band_offset(P: IntPolynomial, Q: IntPolynomial) -> BandOffset:
    """Minimal l with P(n+l-1) <= Q(n) < P(n+l) for all large n, plus the part split.

    The upper edge is strict (half-open band), which pins l uniquely; the lower
    edge may be an exact equality.  N0 is the minimal integer from which P > 1,
    both polynomials are strictly increasing, and the band inequalities hold at
    every integer (decided exactly via root bounds, not sampling).
    """
    prof = psi_profile(P, Q)  # raises EqualPolynomials for P == Q
    if prof.case is not GrowthCase.CASE_II:
        raise NotCaseII(f"profile is delta={prof.delta}, c={prof.c}")
    Pc, Qc = list(P.coeffs), list(Q.coeffs)
    l = 1
    while True:
        diff1 = _sub(Qc, _shift(Pc, l - 1))   # Q(n) - P(n+l-1), want >= 0 eventually
        diff2 = _sub(_shift(Pc, l), Qc)       # P(n+l) - Q(n), want > 0 eventually
        ok1 = (not diff1) or diff1[-1] > 0
        ok2 = bool(diff2) and diff2[-1] > 0
        if ok1 and ok2:
            break
        l += 1
        if l > 10_000:  # pragma: no cover
            raise DomainError("no band offset below 10000")
    diff1_const = len(diff1) <= 1
    diff2_const = len(diff2) <= 1
    if diff2_const:
        part = BandPart.PART_II
        k1, k2 = 2 * (diff2[0] if diff2 else 0), None
    elif diff1_const and l > 1:
        part = BandPart.PART_III
        k1, k2 = None, 2 * (diff1[0] if diff1 else 0)
    else:
        part = BandPart.PART_I
        k1 = k2 = None

    conds = [
        (_sub(Pc, [1]), False),                 # P(n) > 1
        (diff1, True),                          # Q(n) >= P(n+l-1)
        (diff2, False),                         # Q(n) < P(n+l)
    ]
    # P and Q strictly increasing from N0 on
    n0 = max(increasing_from(P), increasing_from(Q))
    for cs, allow_zero in conds:
        v = _positive_from(cs, allow_zero)
        if v is None:  # pragma: no cover
            raise DomainError("band inequality never stabilizes")
        n0 = max(n0, v)
    for n in range(n0, n0 + 1001):
        if not (P(n) > 1 and P(n + l - 1) <= Q(n) < P(n + l)):
            raise DomainError(f"band inequality fails at n = {n} past N0 = {n0}")
    return BandOffset(l=l, n0=n0, part=part, k1=k1, k2=k2)

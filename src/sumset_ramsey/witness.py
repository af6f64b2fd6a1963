"""Closed-form (B, C) witness pairs and their exact sumset identities.

Four parameter regimes (StepI, CaseI, SituationI, SituationII) each emit a
finite pair of sets B, C with |B| = r such that B + aC and B + bC admit
closed-form descriptions. build_witness evaluates the formulas;
check_sumset_identity re-derives both sumsets by brute enumeration and
compares them, as sets, against the regime's right-hand side. Parameters are
caller-supplied: this module verifies algebra, it does not search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    BadParams,
    DivisibilityError,
    NonPositiveElement,
)
from .poly import int_value

__all__ = [
    "VARIANTS",
    "VARIANT_FIELDS",
    "WitnessParams",
    "variant_name",
    "build_witness",
    "witness_values",
    "check_sumset_identity",
]

# the fields each variant reads besides a, b, r and d_tilde
VARIANT_FIELDS = {
    "StepI": ("s", "t", "d_values"),
    "CaseI": ("E", "pairs", "v_values"),
    "SituationI": ("j", "beta", "L0", "offsets", "v_values"),
    "SituationII": ("xi", "alpha", "beta", "L0", "v_values"),
}
VARIANTS = tuple(VARIANT_FIELDS)
_LIST_FIELDS = ("d_values", "pairs", "v_values", "offsets")
_CANON = {v.lower(): v for v in VARIANTS}


def variant_name(text: str) -> str:
    """The variant spelled `text` in any letter case; BadParams if there is none."""
    canon = _CANON.get(str(text).lower())
    if canon is None:
        raise BadParams(f"unknown witness variant {text!r}")
    return canon


def _ints(values: Iterable[int]) -> tuple[int, ...]:
    return tuple(map(int_value, values))


@dataclass(frozen=True)
class WitnessParams:
    """Parameters of one witness regime; divisibility is validated eagerly.

    Every integer field must be an integer (``poly.int_value``): a float or a
    bool raises DomainError rather than being truncated.
    """

    variant: str
    a: int
    b: int
    r: int
    d_tilde: int = 0
    # StepI
    s: int | None = None
    t: int | None = None
    d_values: tuple[int, ...] = ()
    # CaseI: either (d_i, k_i) pairs, from which the v_i are derived, or
    # the v_i directly (the pair consistency check is then unavailable)
    E: int | None = None
    pairs: tuple[tuple[int, int], ...] = ()
    v_values: tuple[int, ...] = ()
    # SituationI / SituationII
    j: int | None = None
    beta: int | None = None
    L0: int | None = None
    offsets: tuple[int, ...] = ()
    xi: int | None = None
    alpha: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", variant_name(self.variant))
        for name in ("a", "b", "r", "d_tilde"):
            object.__setattr__(self, name, int_value(getattr(self, name)))
        for name in ("d_values", "v_values", "offsets"):
            object.__setattr__(self, name, _ints(getattr(self, name)))
        object.__setattr__(
            self, "pairs", tuple((int_value(d), int_value(k)) for d, k in self.pairs)
        )
        if not 0 < self.a < self.b:
            raise BadParams(f"need 0 < a < b, got a={self.a} b={self.b}")
        if self.r < 1:
            raise BadParams(f"r must be at least 1, got {self.r}")
        if self.d_tilde < 0:
            raise BadParams(f"base shift must be nonnegative, got {self.d_tilde}")
        # the variant's scalar fields are required
        for name in VARIANT_FIELDS[self.variant]:
            if name not in _LIST_FIELDS:
                if getattr(self, name) is None:
                    raise BadParams(f"{self.variant} requires {name}")
                object.__setattr__(self, name, int_value(getattr(self, name)))
        getattr(self, "_check_" + self.variant.lower())()

    def _check_stepi(self) -> None:
        if self.s < 1 or self.t < 1:
            raise BadParams("StepI needs s >= 1 and t >= 1")
        if self.t % self.a != 0:
            raise DivisibilityError(f"a = {self.a} must divide t = {self.t}")
        if not self.d_values:
            raise BadParams("StepI requires at least one d value")
        if len(set(self.d_values)) != len(self.d_values):
            raise BadParams("d values must be distinct")

    def _check_casei(self) -> None:
        if self.E < 0:
            raise BadParams(f"E must be nonnegative, got {self.E}")
        if self.E % (self.b * (self.b - self.a)) != 0:
            raise DivisibilityError(
                f"b(b-a) = {self.b * (self.b - self.a)} must divide E = {self.E}"
            )
        if bool(self.pairs) == bool(self.v_values):
            raise BadParams("CaseI takes either (d, k) pairs or v values, not both")
        if self.pairs:
            for d, k in self.pairs:
                if d < 1 or k < 1:
                    raise BadParams(f"pair ({d}, {k}) must be positive")
        else:
            self._check_values()
        vs = witness_values(self)
        if len(set(vs)) != len(vs):
            raise BadParams("witness values must be distinct")

    def _check_values(self) -> None:
        if not self.v_values:
            raise BadParams(f"{self.variant} requires at least one v value")
        for v in self.v_values:
            if v < 1:
                raise BadParams(f"v values must be positive, got {v}")
            if v % self.a != 0:
                raise DivisibilityError(f"a = {self.a} must divide v = {v}")
        if len(set(self.v_values)) != len(self.v_values):
            raise BadParams("v values must be distinct")

    def _check_situationi(self) -> None:
        if self.j < 1 or self.beta < 1 or self.L0 < 2:
            raise BadParams("SituationI needs j >= 1, beta >= 1, L0 >= 2")
        if len(self.offsets) != self.r:
            raise BadParams(
                f"SituationI needs exactly r = {self.r} offsets, got {len(self.offsets)}"
            )
        if len(set(self.offsets)) != self.r:
            raise BadParams("offsets must be distinct")
        for s in self.offsets:
            if not 1 <= s <= self.L0 - 1:
                raise BadParams(f"offset {s} outside [1, {self.L0 - 1}]")
        self._check_values()

    def _check_situationii(self) -> None:
        if self.xi < 1 or self.alpha < 1 or self.beta < 1 or self.L0 < 1:
            raise BadParams("SituationII needs xi, alpha, beta, L0 all >= 1")
        if (self.xi - self.alpha) % (self.b - self.a) != 0:
            raise DivisibilityError(
                f"b-a = {self.b - self.a} must divide xi-alpha = {self.xi - self.alpha}"
            )
        self._check_values()

    @property
    def e_chain_checked(self) -> bool:
        """True when CaseI received (d, k) pairs so the E chain is enforced."""
        return self.variant == "CaseI" and bool(self.pairs)


def witness_values(p: WitnessParams) -> tuple[int, ...]:
    """The v_i list: derived from (d_i, k_i) pairs for CaseI, else as given."""
    if p.variant == "CaseI" and p.pairs:
        lam = p.a * (p.E // p.b)
        return tuple(
            p.a * d + 2 * p.a * p.b * (p.b - p.a) * k + lam for d, k in p.pairs
        )
    return p.v_values


def _emit(p: WitnessParams) -> tuple[list[int], list[int]]:
    a, b, r, dt = p.a, p.b, p.r, p.d_tilde
    if p.variant == "StepI":
        s, t = p.s, p.t
        B = [dt + a * (s + (r - 1) * t + b) + j * (b - a) * t for j in range(r)]
        C = [d - s - (r - 1) * t - a for d in p.d_values]
    elif p.variant == "CaseI":
        base = a * a * b * (r + 1) + a * p.E // (b - a)
        B = [dt + base + j * a * b * (b - a) for j in range(1, r + 1)]
        C = [
            v // a - a * b * (r + 1) - p.E // (b - a) for v in witness_values(p)
        ]
    elif p.variant == "SituationI":
        lead = ((p.j - 1) * p.beta + 1) * p.L0
        B = [dt + lead * a * a * b + (p.L0 - s) * a * b * (b - a) for s in p.offsets]
        C = [v // a - lead * a * b for v in p.v_values]
    else:  # SituationII; B spans j = 0..r-1 so that |B| = r
        head = a * (p.xi - p.alpha) // (b - a) - p.alpha
        step = a * b * (b - a) * p.L0 * p.beta
        B = [dt + head - j * step for j in range(r)]
        C = [v // a - (p.xi - p.alpha) // (b - a) for v in p.v_values]
    return B, C


def build_witness(p: WitnessParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Evaluate the variant's closed forms; every element must be >= 1."""
    B, C = _emit(p)
    for name, vals in (("B", B), ("C", C)):
        bad = [v for v in vals if v < 1]
        if bad:
            raise NonPositiveElement(f"{name} contains nonpositive element {bad[0]}")
    return tuple(sorted(B)), tuple(sorted(C))


def _rhs(p: WitnessParams) -> tuple[set[int], set[int]]:
    a, b, r, dt = p.a, p.b, p.r, p.d_tilde
    if p.variant == "StepI":
        s, t = p.s, p.t
        rhs_a = {
            dt + a * d + (a + j * t) * (b - a)
            for d in p.d_values
            for j in range(r)
        }
        rhs_b = {
            dt + b * d - (s + j * t) * (b - a)
            for d in p.d_values
            for j in range(r)
        }
    elif p.variant == "CaseI":
        vs = witness_values(p)
        rhs_a = {dt + v + j * a * b * (b - a) for v in vs for j in range(1, r + 1)}
        if p.pairs:
            # The (d, k) form of B+bC carries a uniform -a(r+1)·b(b-a) shift
            # relative to the naive substitution; see the parameter notes.
            rhs_b = {
                dt + b * d + (2 * b * k + a * j - a * (r + 1)) * b * (b - a)
                for d, k in p.pairs
                for j in range(1, r + 1)
            }
        else:
            rhs_b = {
                dt + b * (v // a) - a * b * (r + 1) * (b - a) - p.E
                + j * a * b * (b - a)
                for v in vs
                for j in range(1, r + 1)
            }
    elif p.variant == "SituationI":
        rhs_a = {
            dt + v + (p.L0 - s) * a * b * (b - a)
            for v in p.v_values
            for s in p.offsets
        }
        rhs_b = {
            dt + b * (v // a) - ((p.j - 1) * p.beta * p.L0 + s) * a * b * (b - a)
            for v in p.v_values
            for s in p.offsets
        }
    else:  # SituationII
        step = a * b * (b - a) * p.L0 * p.beta
        rhs_a = {
            dt + v - p.alpha - j * step for v in p.v_values for j in range(r)
        }
        rhs_b = {
            dt + b * (v // a) - p.xi - j * step for v in p.v_values for j in range(r)
        }
    return rhs_a, rhs_b


def check_sumset_identity(
    p: WitnessParams, B: Sequence[int], C: Sequence[int]
) -> bool:
    """Enumerate B+aC and B+bC and compare with the closed-form targets."""
    lhs_a = {h + p.a * c for h in B for c in C}
    lhs_b = {h + p.b * c for h in B for c in C}
    rhs_a, rhs_b = _rhs(p)
    return lhs_a == rhs_a and lhs_b == rhs_b

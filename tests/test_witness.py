"""Closed-form witness sets and their sumset identities."""

import random

import pytest

from sumset_ramsey import (
    ParseError,
    WitnessParams,
    build_witness,
    check_sumset_identity,
    witness_values,
)
from sumset_ramsey.errors import BadParams, DivisibilityError, NonPositiveElement


def _sumset(B, C, m):
    return {h + m * k for h in B for k in C}


def test_step1_worked_example():
    p = WitnessParams(variant="StepI", a=1, b=2, r=2, s=1, t=1, d_values=(10, 20))
    B, C = build_witness(p)
    assert set(B) == {4, 5}
    assert set(C) == {7, 17}
    assert _sumset(B, C, 1) == {11, 12, 21, 22}
    assert _sumset(B, C, 2) == {18, 19, 38, 39}
    assert check_sumset_identity(p, B, C)


def test_step1_degenerate_r():
    p = WitnessParams(variant="StepI", a=1, b=2, r=1, s=1, t=1, d_values=(9,))
    B, C = build_witness(p)
    assert len(B) == 1
    assert check_sumset_identity(p, B, C)


def test_step1_divisibility():
    with pytest.raises(DivisibilityError):
        WitnessParams(variant="StepI", a=2, b=3, r=2, s=1, t=3, d_values=(50,))


def test_case1_worked_example():
    p = WitnessParams(variant="CaseI", a=1, b=2, r=2, E=2, v_values=(100,))
    B, C = build_witness(p)
    assert set(B) == {10, 12}
    assert set(C) == {92}
    assert check_sumset_identity(p, B, C)
    assert not p.e_chain_checked


def test_case1_pairs_route():
    p = WitnessParams(variant="CaseI", a=1, b=2, r=2, E=2, pairs=((10, 1),))
    assert witness_values(p) == (15,)
    B, C = build_witness(p)
    assert set(B) == {10, 12}
    assert set(C) == {7}
    assert check_sumset_identity(p, B, C)
    assert p.e_chain_checked


def test_case1_divisibility():
    # b(b-a) = 6 must divide E
    with pytest.raises(DivisibilityError):
        WitnessParams(variant="CaseI", a=1, b=3, r=1, E=4, v_values=(100,))


def test_case1_pairs_xor_values():
    with pytest.raises(BadParams):
        WitnessParams(variant="CaseI", a=1, b=2, r=1, E=2)
    with pytest.raises(BadParams):
        WitnessParams(
            variant="CaseI", a=1, b=2, r=1, E=2, pairs=((10, 1),), v_values=(100,)
        )


def test_situation1_worked_example():
    p = WitnessParams(
        variant="SituationI", a=1, b=2, r=2, j=1, beta=1, L0=3,
        offsets=(1, 2), v_values=(30,),
    )
    B, C = build_witness(p)
    assert set(B) == {8, 10}
    assert set(C) == {24}
    assert _sumset(B, C, 1) == {32, 34}
    assert _sumset(B, C, 2) == {56, 58}
    assert check_sumset_identity(p, B, C)


def test_situation1_offsets_validation():
    with pytest.raises(BadParams):
        # wrong number of offsets for r
        WitnessParams(
            variant="SituationI", a=1, b=2, r=2, j=1, beta=1, L0=3,
            offsets=(1,), v_values=(30,),
        )
    with pytest.raises(BadParams):
        # offset outside [1, L0-1]
        WitnessParams(
            variant="SituationI", a=1, b=2, r=2, j=1, beta=1, L0=3,
            offsets=(1, 3), v_values=(30,),
        )


def test_situation2_worked_example():
    p = WitnessParams(
        variant="SituationII", a=1, b=2, r=2, xi=23, alpha=3, beta=1, L0=2,
        v_values=(40,),
    )
    B, C = build_witness(p)
    assert set(B) == {13, 17}
    assert set(C) == {20}
    assert _sumset(B, C, 1) == {33, 37}
    assert _sumset(B, C, 2) == {53, 57}
    assert check_sumset_identity(p, B, C)


def test_situation2_divisibility():
    with pytest.raises(DivisibilityError):
        WitnessParams(
            variant="SituationII", a=1, b=3, r=1, xi=10, alpha=3, beta=1, L0=2,
            v_values=(40,),
        )


def test_situation2_nonpositive():
    p = WitnessParams(
        variant="SituationII", a=1, b=2, r=2, xi=9, alpha=3, beta=1, L0=2,
        v_values=(40,),
    )
    with pytest.raises(NonPositiveElement):
        build_witness(p)


def test_common_validation():
    with pytest.raises(BadParams):
        WitnessParams(variant="StepI", a=2, b=2, r=1, s=1, t=2, d_values=(9,))
    with pytest.raises(BadParams):
        WitnessParams(variant="StepI", a=1, b=2, r=0, s=1, t=1, d_values=(9,))
    with pytest.raises(BadParams):
        WitnessParams(variant="StepI", a=1, b=2, r=1, d_tilde=-1, s=1, t=1, d_values=(9,))
    with pytest.raises((BadParams, ParseError)):
        WitnessParams(variant="StepX", a=1, b=2, r=1, s=1, t=1, d_values=(9,))
    with pytest.raises(BadParams):
        # the variant's own parameters are missing
        WitnessParams(variant="StepI", a=1, b=2, r=2)


def test_sizes():
    p = WitnessParams(variant="StepI", a=1, b=2, r=3, s=2, t=2, d_values=(30, 40, 55))
    B, C = build_witness(p)
    assert len(B) == 3
    assert len(C) == 3
    p = WitnessParams(variant="CaseI", a=1, b=2, r=4, E=4, v_values=(100, 200))
    B, C = build_witness(p)
    assert len(B) == 4
    assert len(C) == 2


def test_mutated_sets_fail_identity():
    p = WitnessParams(variant="StepI", a=1, b=2, r=2, s=1, t=1, d_values=(10, 20))
    B, C = build_witness(p)
    assert not check_sumset_identity(p, tuple(x + 1 for x in B), C)
    assert not check_sumset_identity(p, B, tuple(x + 1 for x in C))
    p2 = WitnessParams(variant="CaseI", a=1, b=2, r=2, E=2, v_values=(100,))
    B2, C2 = build_witness(p2)
    assert not check_sumset_identity(p2, tuple(x + 1 for x in B2), C2)


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


def test_random_draws_pass_identity():
    rng = random.Random(140)
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
            assert all(x >= 1 for x in B)
            assert all(x >= 1 for x in C)
            done += 1

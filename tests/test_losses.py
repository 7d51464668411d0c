"""Tests for the per-round loss model."""

import random
from fractions import Fraction

import pytest

from blindbargain.losses import (
    MAX_DECIMAL_EXPONENT,
    LossProfile,
    as_money,
    block_mass,
    elapsed_loss,
    residual_value,
    total_value,
)


def random_profile(rng: random.Random, max_blocks: int = 12) -> LossProfile:
    blocks = [
        Fraction(rng.randrange(0, 50), rng.randrange(1, 8))
        for _ in range(rng.randrange(0, max_blocks))
    ]
    tail = Fraction(rng.randrange(0, 30), rng.randrange(1, 8))
    l0 = Fraction(rng.randrange(0, 10))
    return LossProfile(l0=l0, blocks=blocks, tail=tail)


def test_total_value_sums_blocks_and_tail():
    assert total_value(LossProfile(blocks=[1, 1, 1, 1, 1])) == 5
    assert total_value(LossProfile(blocks=[], tail=7)) == 7
    assert total_value(LossProfile(blocks=[2, 3], tail="1.5")) == Fraction(13, 2)


def test_residual_value_drops_by_elapsed_blocks():
    profile = LossProfile(blocks=[1, 1, 1, 1, 1])
    assert residual_value(profile, 3) == 2
    assert residual_value(profile, 0) == total_value(profile)
    assert residual_value(LossProfile(blocks=[2, 3], tail="1.5"), 5) == Fraction(3, 2)


def test_as_money_rejects_floats():
    with pytest.raises(TypeError):
        as_money(0.1)
    with pytest.raises(TypeError):
        LossProfile(blocks=[0.5])


def test_as_money_bounds_decimal_exponents():
    top = MAX_DECIMAL_EXPONENT
    assert as_money("1.5e-2") == Fraction(3, 200)
    assert as_money("2/3") == Fraction(2, 3)
    assert as_money(f"1e{top}") == 10**top
    assert as_money(f" 1E-{top} ") == Fraction(1, 10**top)
    # rejected before Fraction expands 10^n; the last two would take
    # hours and more if parsed
    for text in (f"1e{top + 1}", f"1e-{top + 1}", f"2.5E+00{top + 1}",
                 "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            as_money(text)


def test_profile_rejects_negative_masses():
    with pytest.raises(ValueError):
        LossProfile(blocks=[-1])
    with pytest.raises(ValueError):
        LossProfile(tail=-1)
    with pytest.raises(ValueError):
        LossProfile(l0=-1)


def test_residual_value_monotone_and_converges_to_tail():
    rng = random.Random(0xBEEF)
    for _ in range(200):
        profile = random_profile(rng)
        values = [residual_value(profile, n) for n in range(len(profile.blocks) + 3)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == total_value(profile)
        assert values[-1] == profile.tail


def test_block_mass_zero_beyond_profile():
    profile = LossProfile(blocks=[2, 3], tail=1)
    assert block_mass(profile, 0) == 2
    assert block_mass(profile, 1) == 3
    assert block_mass(profile, 2) == 0
    assert elapsed_loss(profile, 1) == 2

"""Tests for the alternating-offers bargaining engine."""

import random
from fractions import Fraction

import pytest

from blindbargain.bargaining import (
    BargainingInstance,
    InfiniteHorizon,
    MarginalLossWarning,
    NoDeal,
    NoFeasibleHorizon,
    NonOddHorizon,
    backward_induction_offers,
    closed_form_offer,
    determine_horizon,
    lint_marginal_loss,
    rubinstein_split,
)
from blindbargain.losses import (
    LossProfile,
    VictimParams,
    residual_value,
)

FIVE_ONES = LossProfile(blocks=[1, 1, 1, 1, 1])


def instance(profile: LossProfile, r_min, r_max=1000) -> BargainingInstance:
    return BargainingInstance(VictimParams(r_max, profile), r_min)


def random_profile(rng: random.Random, max_blocks: int = 21, with_tail: bool = True):
    blocks = [
        Fraction(rng.randrange(0, 40), rng.randrange(1, 6))
        for _ in range(rng.randrange(1, max_blocks + 1))
    ]
    tail = Fraction(rng.randrange(0, 20), rng.randrange(1, 6)) if with_tail else 0
    return LossProfile(blocks=blocks, tail=tail)


# --- horizon -------------------------------------------------------------


def test_horizon_examples():
    assert determine_horizon(instance(FIVE_ONES, "1.5")) == 3
    with pytest.raises(NonOddHorizon) as excinfo:
        determine_horizon(instance(FIVE_ONES, "0.5"))
    assert excinfo.value.horizon == 4
    with pytest.raises(NoFeasibleHorizon):
        determine_horizon(instance(FIVE_ONES, 10))
    with pytest.raises(InfiniteHorizon):
        determine_horizon(instance(LossProfile(blocks=[2, 2], tail=3), 3))


def test_horizon_satisfies_both_inequalities():
    rng = random.Random(0x401)
    found = 0
    for _ in range(500):
        profile = random_profile(rng)
        r_min = Fraction(rng.randrange(1, 50), rng.randrange(1, 6))
        inst = instance(profile, r_min)
        try:
            n = determine_horizon(inst)
        except NonOddHorizon as err:
            n = err.horizon
        except (NoFeasibleHorizon, InfiniteHorizon):
            continue
        found += 1
        assert residual_value(profile, n) > r_min
        assert residual_value(profile, n + 1) <= r_min
    assert found > 100


# --- equilibrium offers --------------------------------------------------


def test_closed_form_worked_schedule():
    inst = instance(FIVE_ONES, "1.5")
    assert closed_form_offer(inst, 1, 3) == 3
    assert closed_form_offer(inst, 2, 3) == 2
    assert closed_form_offer(inst, 3, 3) == 2
    rng = random.Random(1)
    for _ in range(20):
        profile = random_profile(rng)
        one_round = instance(profile, 0)
        assert closed_form_offer(one_round, 1, 1) == residual_value(profile, 1)


def test_backward_induction_worked_schedule():
    inst = instance(FIVE_ONES, "1.5")
    assert backward_induction_offers(inst, 3) == (3, 2, 2)
    profile = LossProfile(blocks=[4, 1], tail=2)
    inst1 = instance(profile, 0)
    assert backward_induction_offers(inst1, 1) == (
        residual_value(profile, 1),
    )


def test_round_validation():
    inst = instance(FIVE_ONES, 1)
    with pytest.raises(ValueError):
        closed_form_offer(inst, 0, 3)
    with pytest.raises(ValueError):
        closed_form_offer(inst, 4, 3)
    with pytest.raises(ValueError):
        closed_form_offer(inst, 1, 4)
    with pytest.raises(ValueError):
        backward_induction_offers(inst, 2)


def test_closed_form_equals_backward_induction():
    rng = random.Random(0xE4)
    for _ in range(300):
        profile = random_profile(rng)
        inst = instance(profile, 0)
        for N in range(1, 22, 2):
            schedule = backward_induction_offers(inst, N)
            for n in range(1, N + 1):
                assert closed_form_offer(inst, n, N) == schedule[n - 1]


def test_schedule_monotonicity_lemmas():
    # Offers never rise over rounds; a longer horizon never helps the
    # attacker; no offer exceeds the value remaining.
    rng = random.Random(0x1E44A)
    for _ in range(400):
        profile = random_profile(rng)
        inst = instance(profile, 0)
        for N in (1, 3, 5, 7, 9, 11):
            schedule = backward_induction_offers(inst, N)
            longer = backward_induction_offers(inst, N + 2)
            for n in range(1, N + 1):
                if n < N:
                    assert schedule[n] <= schedule[n - 1]
                assert longer[n - 1] <= schedule[n - 1]
                assert schedule[n - 1] <= residual_value(profile, n)


def test_paired_rounds_share_offers():
    rng = random.Random(0x22)
    for _ in range(100):
        profile = random_profile(rng)
        inst = instance(profile, 0)
        schedule = backward_induction_offers(inst, 9)
        for k in (1, 2, 3, 4):
            assert schedule[2 * k - 1] == schedule[2 * k]
        # The opening demand is the most the attacker can ever get.
        assert max(schedule) == schedule[0]


def test_schedule_type_rejects_increasing_offers():
    # The schedule is a plain tuple; offers could rise only across a
    # negative loss block, and the profile refuses one where it is made.
    with pytest.raises(ValueError, match="^loss blocks must be >= 0$"):
        LossProfile(blocks=[1, -1, 1])
    # zero blocks are the edge: offers stay level across them, never rise
    inst = instance(LossProfile(blocks=[0, 3, 0, 2]), 0)
    assert backward_induction_offers(inst, 5) == (5, 2, 2, 0, 0)
    # a round outside 1..N has no offer
    with pytest.raises(ValueError, match=r"^round n=4 outside 1\.\.3$"):
        closed_form_offer(inst, 4, 3)


# --- special cases -------------------------------------------------------


def test_rubinstein_split():
    assert rubinstein_split(10, 8, 2) == 5
    assert rubinstein_split(6, 10, 6) == 6
    with pytest.raises(NoDeal):
        rubinstein_split(4, 4, 5)
    # a negative amount is refused, not split
    for args, name in (((-1, 8, 2), "v"), ((10, -8, -9), "r_max"), ((1, 2, -5), "r_min")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            rubinstein_split(*args)


def test_instance_needs_overlapping_reservations():
    # the overlap rule rubinstein_split applies: r_min above r_max is no deal
    with pytest.raises(NoDeal):
        instance(FIVE_ONES, "1.5", r_max=1)
    assert determine_horizon(instance(FIVE_ONES, "1.5", r_max="1.5")) == 3


# --- profile lint --------------------------------------------------------


def test_marginal_loss_lint():
    steep = LossProfile(blocks=[1, 1, 5], tail=1)
    with pytest.warns(MarginalLossWarning):
        lint_marginal_loss(steep, 3)
    import warnings

    flat = LossProfile(blocks=[1, 1, 1], tail=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lint_marginal_loss(flat, 3)

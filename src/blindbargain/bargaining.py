"""Finite-horizon alternating-offers ransom negotiation.

The attacker opens in round 1; the parties alternate until round N,
after which the data is worthless to both.  Offers are driven entirely
by the victim's per-round loss blocks: waiting is free for the attacker
but burns a block of value for the victim, so equilibrium offers track
exactly how much value survives to each round.

Two independent routes compute the equilibrium schedule: a closed-form
per-round formula and a backward-induction recursion over the game
tree.  They must agree exactly, in rational arithmetic; the test suite
enforces that.

Also covered: determining the horizon N from the attacker's reservation
value and the infinite-horizon (Rubinstein) split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .losses import (
    LossProfile,
    Money,
    MoneyLike,
    VictimParams,
    as_money,
    block_mass,
    elapsed_loss,
    residual_value,
    total_value,
)


class HorizonError(ValueError):
    """No usable bargaining horizon exists for the given instance."""


class NoFeasibleHorizon(HorizonError):
    """The attacker's reservation is at or above the round-1 value."""


class InfiniteHorizon(HorizonError):
    """The attacker's reservation never drops below the remaining value."""


class NonOddHorizon(HorizonError):
    """The unique horizon came out even; the model needs an odd one.

    Carries the offending horizon so callers can inspect or adjust the
    profile; this module never adjusts it silently.
    """

    def __init__(self, horizon: int) -> None:
        super().__init__(f"bargaining horizon N={horizon} is even")
        self.horizon = horizon


class NoDeal(ValueError):
    """Reservation values do not overlap; no ransom is ever paid."""


class MarginalLossWarning(UserWarning):
    """Final-round loss block is not small next to the remaining mass."""


# a final-round block above this share of the post-horizon mass is not marginal
MARGINAL_LOSS_SHARE = Fraction(1, 10)


@dataclass(frozen=True)
class BargainingInstance:
    """One negotiation: a victim and the attacker's reservation.

    Raises NoDeal when r_min exceeds what the victim can pay at all; at
    equality the reservations still overlap.
    """

    victim: VictimParams
    r_min: Money

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_min", as_money(self.r_min))
        if self.r_min < 0:
            raise ValueError("r_min must be >= 0")
        if self.r_min > self.victim.r_max:
            raise NoDeal(f"r_min={self.r_min} exceeds r_max={self.victim.r_max}")


def determine_horizon(inst: BargainingInstance) -> int:
    """Last round in which dealing still beats walking away, for both.

    The horizon N is the unique round with r_min < v(N) and
    r_min > v(N+1): the attacker's reservation is still covered by the
    remaining value at N but not afterwards.  Raised errors:
    InfiniteHorizon when the reservation never falls below the remaining
    value (r_min <= tail), NoFeasibleHorizon when even one round of
    waiting puts the value below the reservation (r_min >= v(1)), and
    NonOddHorizon when the unique N is even, which the finite-horizon
    solution cannot use.
    """
    profile = inst.victim.profile
    if inst.r_min <= profile.tail:
        raise InfiniteHorizon(
            f"r_min={inst.r_min} never exceeds the tail mass {profile.tail}"
        )
    v_first = residual_value(profile, 1)
    if inst.r_min >= v_first:
        raise NoFeasibleHorizon(
            f"r_min={inst.r_min} is already at or above v(1)={v_first}"
        )
    # v is non-increasing and hits the tail after the profiled rounds, so
    # the scan terminates: N = max{n >= 1 : v(n) > r_min}.  Each step
    # takes one block off, v(n + 1) = v(n) - b_n, rather than re-summing.
    n, v_next = 1, v_first - block_mass(profile, 1)
    while v_next > inst.r_min:
        n += 1
        v_next -= block_mass(profile, n)
    if n % 2 == 0:
        raise NonOddHorizon(n)
    return n


def closed_form_offer(inst: BargainingInstance, n: int, N: int) -> Money:
    """Equilibrium offer at round ``n`` of an N-round game, in closed form.

    Starting from the full value, subtract the blocks the proposer must
    concede for the rounds its opponent still controls, and the blocks
    already burned by waiting this long:

        r*_n = V - sum_{k=0}^{floor((N-n)/2)-1} b_{N-1-2k}
                 - sum_{j < 2*floor(n/2)+1} b_j
    """
    _check_round(n, N)
    profile = inst.victim.profile
    future_concessions = sum(
        (block_mass(profile, N - 1 - 2 * k) for k in range((N - n) // 2)),
        start=Fraction(0),
    )
    burned = elapsed_loss(profile, 2 * (n // 2) + 1)
    return total_value(profile) - future_concessions - burned


def backward_induction_offers(inst: BargainingInstance, N: int) -> tuple[Money, ...]:
    """Equilibrium offers of rounds 1 .. N, round 1 first, by walking the
    game tree from the last round.

    At round N the attacker demands everything the victim still values,
    v(N).  Stepping backwards: in a victim round the victim offers
    exactly what the attacker would demand next round (waiting costs the
    attacker nothing, so nothing less is accepted); in an attacker round
    the victim accepts up to the next round's offer plus the block it
    would burn by waiting, so the attacker demands exactly that.  The
    offers never rise over rounds, because no loss block is negative
    (``LossProfile``).
    """
    _check_round(N, N)
    profile = inst.victim.profile
    offers = [Fraction(0)] * (N + 1)
    offers[N] = residual_value(profile, N)
    for n in range(N - 1, 0, -1):
        if n % 2 == 0:
            offers[n] = offers[n + 1]
        else:
            offers[n] = offers[n + 1] + block_mass(profile, n)
    return tuple(offers[1:])


def rubinstein_split(v: MoneyLike, r_max: MoneyLike, r_min: MoneyLike) -> Money:
    """Infinite-horizon ransom: midpoint of the overlapping reservations.

    With no deadline and no discounting the split lands halfway between
    what the victim would pay at most and what the attacker accepts at
    least.  Raises ValueError for a negative argument and NoDeal when
    the reservations do not overlap.
    """
    value, cap, floor_ = as_money(v), as_money(r_max), as_money(r_min)
    for name, amount in (("v", value), ("r_max", cap), ("r_min", floor_)):
        if amount < 0:
            raise ValueError(f"{name} must be >= 0")
    ceiling = min(value, cap)
    if floor_ > ceiling:
        raise NoDeal(f"r_min={floor_} exceeds min(v, r_max)={ceiling}")
    return (ceiling + floor_) / 2


def lint_marginal_loss(profile: LossProfile, horizon: int) -> None:
    """Warn when the final-round block is not marginal.

    The closed-form schedule treats the last round's loss as negligible
    next to everything that would still be lost afterwards; profiles
    violating that (block over ``MARGINAL_LOSS_SHARE`` of the
    post-horizon mass) get a MarginalLossWarning.
    """
    last_block = block_mass(profile, horizon - 1)
    remaining = residual_value(profile, horizon + 1)
    if last_block > MARGINAL_LOSS_SHARE * remaining:
        warnings.warn(
            f"final-round block {last_block} is not small next to the "
            f"remaining mass {remaining}",
            MarginalLossWarning,
        )


def _check_round(n: int, N: int) -> None:
    if N < 1 or N % 2 == 0:
        raise ValueError(f"N={N} must be an odd positive round count")
    if not 1 <= n <= N:
        raise ValueError(f"round n={n} outside 1..{N}")

"""One-shot ransomware stage game between a victim and an attacker.

The victim moves first (pay the demanded ransom or refuse), then the
attacker decides what to do with the decryption key.  Attacker payoffs
mix the ransom with reputation effects: keeping promises builds a track
record that makes future demands credible, breaking them destroys it.

Action names carry the conventional tree labels (V1/V2, A4..A7) as
values for display; the enum names say what the action does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .losses import Money, MoneyLike, as_money


class VictimAction(Enum):
    PAY = "V1"
    REFUSE = "V2"


class AttackerAction(Enum):
    RELEASE_PAID = "A4"
    DESTROY_PAID = "A5"
    RELEASE_UNPAID = "A6"
    DESTROY_UNPAID = "A7"


_AFTER_PAY = (AttackerAction.RELEASE_PAID, AttackerAction.DESTROY_PAID)
_AFTER_REFUSE = (AttackerAction.RELEASE_UNPAID, AttackerAction.DESTROY_UNPAID)


class RegimeWarning(UserWarning):
    """Reputation parameters fit neither analyzed regime."""


@dataclass(frozen=True)
class ReputationParams:
    """Attacker reputation effects and key-handling costs.

    Attributes:
        tau_g: Reputation gained by releasing the key after payment.
        tau_l: Reputation lost by destroying the key after payment.
        kappa_g: Reputation gained by following through on the threat
            after a refusal.
        kappa_l: Reputation lost by releasing the key without payment.
        c_r: Cost of releasing the key.
        c_d: Cost of destroying the key.
    """

    tau_g: Money
    tau_l: Money
    kappa_g: Money
    kappa_l: Money
    c_r: Money
    c_d: Money

    def __init__(
        self,
        tau_g: MoneyLike = 0,
        tau_l: MoneyLike = 0,
        kappa_g: MoneyLike = 0,
        kappa_l: MoneyLike = 0,
        c_r: MoneyLike = 1,
        c_d: MoneyLike = 0,
    ) -> None:
        for name, value in (
            ("tau_g", tau_g),
            ("tau_l", tau_l),
            ("kappa_g", kappa_g),
            ("kappa_l", kappa_l),
            ("c_r", c_r),
            ("c_d", c_d),
        ):
            object.__setattr__(self, name, as_money(value))
        if any(d < 0 for d in (self.tau_g, self.tau_l, self.kappa_g, self.kappa_l)):
            raise ValueError("reputation deltas must be >= 0")
        if not self.c_r > self.c_d >= 0:
            raise ValueError("costs must satisfy c_r > c_d >= 0")


@dataclass(frozen=True)
class StageOutcome:
    victim_action: VictimAction
    attacker_action: AttackerAction
    victim_payoff: Money
    attacker_payoff: Money

    def __post_init__(self) -> None:
        paid = self.victim_action is VictimAction.PAY
        if (self.attacker_action in _AFTER_PAY) != paid:
            raise ValueError("attacker action does not follow the victim's move")


def payoffs(
    rep: ReputationParams,
    r_f: MoneyLike,
    v: MoneyLike,
    victim_action: VictimAction,
    attacker_action: AttackerAction,
) -> tuple[Money, Money]:
    """Leaf payoffs (victim, attacker) for one resolution of the game.

    Raises ValueError for an attacker action that cannot follow the
    victim's move.
    """
    ransom = as_money(r_f)
    value = as_money(v)
    pair = (victim_action, attacker_action)
    if pair == (VictimAction.PAY, AttackerAction.RELEASE_PAID):
        return -ransom, ransom - rep.c_r + rep.tau_g
    if pair == (VictimAction.PAY, AttackerAction.DESTROY_PAID):
        return -ransom - value, ransom - rep.c_d - rep.tau_l
    if pair == (VictimAction.REFUSE, AttackerAction.RELEASE_UNPAID):
        return Fraction(0), -rep.c_r - rep.kappa_l + rep.tau_g
    if pair == (VictimAction.REFUSE, AttackerAction.DESTROY_UNPAID):
        return -value, -rep.c_d + rep.kappa_g
    raise ValueError(f"illegal action pair {victim_action} / {attacker_action}")


def regime(rep: ReputationParams) -> str | None:
    """Which analyzed reputation regime the parameters fall in, if any.

    "anonymous": promises carry no reputation weight (tau effects zero,
    punishment credibility positive).  "reputation": honoring payment
    matters more than any promise effect, and the combined promise
    effects outweigh the cost of releasing.
    """
    if rep.tau_g == 0 and rep.tau_l == 0 and rep.kappa_g > 0 and rep.kappa_l > 0:
        return "anonymous"
    if (
        min(rep.kappa_g, rep.kappa_l) > max(rep.tau_g, rep.tau_l) > 0
        and rep.tau_g + rep.tau_l > rep.c_r
    ):
        return "reputation"
    return None


def _best_after(
    rep: ReputationParams,
    r_f: Money,
    v: Money,
    victim_action: VictimAction,
    actions: tuple[AttackerAction, AttackerAction],
) -> AttackerAction:
    # Tie-break: first action in tree order.
    first, second = actions
    _, u_first = payoffs(rep, r_f, v, victim_action, first)
    _, u_second = payoffs(rep, r_f, v, victim_action, second)
    return second if u_second > u_first else first


def spne(
    rep: ReputationParams, r_f: MoneyLike, v: MoneyLike, r_max: MoneyLike
) -> StageOutcome:
    """Subgame perfect equilibrium of the stage game by backward induction.

    The victim anticipates the attacker's best key decision on each
    branch and pays only when paying is strictly better and strictly
    affordable (r_f < r_max); at exact indifference the victim refuses.
    Parameters outside both analyzed regimes are solved anyway, with a
    RegimeWarning.
    """
    ransom = as_money(r_f)
    value = as_money(v)
    cap = as_money(r_max)
    for name, amount in (("r_f", ransom), ("v", value), ("r_max", cap)):
        if amount < 0:
            raise ValueError(f"{name} must be >= 0")
    if regime(rep) is None:
        warnings.warn(
            "reputation parameters fit neither analyzed regime; "
            "equilibrium computed by backward induction only",
            RegimeWarning,
        )

    after_pay = _best_after(rep, ransom, value, VictimAction.PAY, _AFTER_PAY)
    after_refuse = _best_after(rep, ransom, value, VictimAction.REFUSE, _AFTER_REFUSE)
    u_pay, _ = payoffs(rep, ransom, value, VictimAction.PAY, after_pay)
    u_refuse, _ = payoffs(rep, ransom, value, VictimAction.REFUSE, after_refuse)

    if ransom < cap and u_pay > u_refuse:
        victim_action, attacker_action = VictimAction.PAY, after_pay
    else:
        victim_action, attacker_action = VictimAction.REFUSE, after_refuse
    u_v, u_a = payoffs(rep, ransom, value, victim_action, attacker_action)
    return StageOutcome(victim_action, attacker_action, u_v, u_a)

"""Tests for the stage game and its equilibrium."""

import random
import warnings
from fractions import Fraction

import pytest

from blindbargain.stage_game import (
    AttackerAction,
    RegimeWarning,
    ReputationParams,
    StageOutcome,
    VictimAction,
    payoffs,
    regime,
    spne,
)

PAY, REFUSE = VictimAction.PAY, VictimAction.REFUSE
A4, A5 = AttackerAction.RELEASE_PAID, AttackerAction.DESTROY_PAID
A6, A7 = AttackerAction.RELEASE_UNPAID, AttackerAction.DESTROY_UNPAID

ANONYMOUS = ReputationParams(tau_g=0, tau_l=0, kappa_g=3, kappa_l=3, c_r=1, c_d=0)
REPUTABLE = ReputationParams(tau_g=2, tau_l=2, kappa_g=3, kappa_l=3, c_r=1, c_d=0)


def brute_force_spne(rep, r_f, v, r_max):
    """Independent oracle: enumerate leaves, maximize per subgame.

    Tie-breaks mirror the engine's documented conventions: attacker
    takes the first action in tree order, victim refuses unless paying
    is strictly better and strictly affordable.
    """
    best = {}
    for victim_action, actions in ((PAY, (A4, A5)), (REFUSE, (A6, A7))):
        ranked = [(payoffs(rep, r_f, v, victim_action, a)[1], -i, a)
                  for i, a in enumerate(actions)]
        best[victim_action] = max(ranked)[2]
    u_pay = payoffs(rep, r_f, v, PAY, best[PAY])[0]
    u_refuse = payoffs(rep, r_f, v, REFUSE, best[REFUSE])[0]
    victim_action = PAY if (r_f < r_max and u_pay > u_refuse) else REFUSE
    u = payoffs(rep, r_f, v, victim_action, best[victim_action])
    return StageOutcome(victim_action, best[victim_action], u[0], u[1])


def test_leaf_payoffs_match_tree():
    rep = ReputationParams(tau_g=2, tau_l=0, kappa_g=1, kappa_l=0, c_r=1, c_d=0)
    assert payoffs(rep, 5, 10, PAY, A4) == (-5, 6)
    assert payoffs(rep, 5, 10, REFUSE, A7) == (-10, 1)
    zero = ReputationParams(tau_g=0, tau_l=0, kappa_g=0, kappa_l=0, c_r=1, c_d=0)
    assert payoffs(zero, 0, 10, PAY, A4) == (0, -1)


def test_payoffs_reject_illegal_pairs():
    with pytest.raises(ValueError):
        payoffs(ANONYMOUS, 1, 2, PAY, A6)
    with pytest.raises(ValueError):
        payoffs(ANONYMOUS, 1, 2, REFUSE, A4)


def test_outcome_rejects_mismatched_branch():
    # An attacker action off the branch the victim's move opened has no
    # payoffs, so no StageOutcome is built for it; spne's outcomes keep
    # the attacker on that branch.
    branches = {PAY: (A4, A5), REFUSE: (A6, A7)}
    for victim_action, actions in branches.items():
        for attacker_action in AttackerAction:
            if attacker_action in actions:
                payoffs(REPUTABLE, 1, 2, victim_action, attacker_action)
            else:
                with pytest.raises(ValueError, match="^illegal action pair"):
                    payoffs(REPUTABLE, 1, 2, victim_action, attacker_action)
    seen = set()
    for rep in (ANONYMOUS, REPUTABLE):
        for r_f, r_max in ((1, 10), (5, 5), (9, 10)):
            outcome = spne(rep, r_f, 10, r_max)
            assert outcome.attacker_action in branches[outcome.victim_action]
            seen.add(outcome.victim_action)
    assert seen == {PAY, REFUSE}


def test_params_validation():
    with pytest.raises(ValueError):
        ReputationParams(c_r=0, c_d=0)
    with pytest.raises(ValueError):
        ReputationParams(c_r=1, c_d=2)
    with pytest.raises(ValueError):
        ReputationParams(tau_g=-1, c_r=1, c_d=0)
    for args, name in (((-1, 10, 10), "r_f"), ((1, -2, 5), "v"), ((1, 10, -1), "r_max")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            spne(REPUTABLE, *args)


def test_anonymous_attacker_destroys_and_victim_refuses():
    for r_f in (Fraction(1, 100), 1, 4, 9, 100):
        out = spne(ANONYMOUS, r_f, 10, 1000)
        assert (out.victim_action, out.attacker_action) == (REFUSE, A7)


def test_reputable_attacker_gets_paid_when_affordable():
    out = spne(REPUTABLE, 4, 10, 10)
    assert (out.victim_action, out.attacker_action) == (PAY, A4)
    assert (out.victim_payoff, out.attacker_payoff) == (-4, 5)
    out = spne(REPUTABLE, 12, 10, 10)
    assert (out.victim_action, out.attacker_action) == (REFUSE, A7)


def test_equilibrium_flips_exactly_at_binding_reservation():
    # Value-binding: flip at r_f = v.
    eps = Fraction(1, 1_000_000)
    below = spne(REPUTABLE, 10 - eps, 10, 100)
    at = spne(REPUTABLE, 10, 10, 100)
    assert below.victim_action is PAY
    assert (at.victim_action, at.attacker_action) == (REFUSE, A7)
    # Budget-binding: flip at r_f = r_max.
    below = spne(REPUTABLE, 8 - eps, 100, 8)
    at = spne(REPUTABLE, 8, 100, 8)
    assert below.victim_action is PAY
    assert (at.victim_action, at.attacker_action) == (REFUSE, A7)


def test_regime_detection_and_warning():
    assert regime(ANONYMOUS) == "anonymous"
    assert regime(REPUTABLE) == "reputation"
    odd = ReputationParams(tau_g=5, tau_l=5, kappa_g=1, kappa_l=1, c_r=1, c_d=0)
    assert regime(odd) is None
    with pytest.warns(RegimeWarning):
        spne(odd, 1, 10, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spne(ANONYMOUS, 1, 10, 10)
        spne(REPUTABLE, 1, 10, 10)


def test_backward_induction_matches_brute_force():
    rng = random.Random(0x57A6E)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for _ in range(1000):
            c_d = Fraction(rng.randrange(0, 4))
            rep = ReputationParams(
                tau_g=Fraction(rng.randrange(0, 8), rng.choice((1, 2))),
                tau_l=Fraction(rng.randrange(0, 8), rng.choice((1, 2))),
                kappa_g=Fraction(rng.randrange(0, 8), rng.choice((1, 2))),
                kappa_l=Fraction(rng.randrange(0, 8), rng.choice((1, 2))),
                c_r=c_d + Fraction(rng.randrange(1, 5)),
                c_d=c_d,
            )
            r_f = Fraction(rng.randrange(0, 20), rng.choice((1, 2)))
            v = Fraction(rng.randrange(0, 20), rng.choice((1, 2)))
            r_max = Fraction(rng.randrange(0, 20), rng.choice((1, 2)))
            assert spne(rep, r_f, v, r_max) == brute_force_spne(rep, r_f, v, r_max)

"""Sealed-report ransom settlement mechanism, exact and fixed-point.

Both parties report a reservation value; the mechanism settles the
ransom from the two reports and two random draws.  The victim's draw
picks between a screening offer (a q-discounted fraction of its report)
and the full report; the attacker accepts anything covering its report,
or counters with the discount inflated away; a counteroffer within the
victim's report is then either paid or answered by releasing for free,
which strips any gain from inflating the counteroffer.

Two semantics are provided.  ``outcome_real`` evaluates the rules in
exact rational arithmetic with unit-interval draws.  ``outcome_fixed``
replaces probabilities by floor-scaled k-bit integers, products by
multiply-then-right-shift, and draws by k-bit words; it is the single
source of truth for what the Boolean circuit must compute, bit for bit.

The expected-utility functions reproduce the incentive analysis.  The
attacker's expected utility is constant across every report that keeps
the deal alive and zero for reports that kill it, so truthful reporting
is optimal exactly when dealing is; types above half the victim's
report prefer pricing themselves out, a documented limit of the scheme.
The constraint p_bar*(1-q) = 1/2 makes both of the victim's payoff
branches equal theta - r/2, so against a uniform [0, 1] attacker its
interim utility is exactly min(r, 1) * (theta - r/2): truthful reporting
is the exact maximum, not a grid approximation, and the expected payment
of a truthful victim is exactly half its report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .losses import Money, MoneyLike, as_money

DEFAULT_MAX_WIDTH = 64

Draw = Union[Fraction, float]


class ScalingWarning(UserWarning):
    """Scaled constants cannot represent the parameters exactly."""


def p_bar_for(q: MoneyLike) -> Fraction:
    """The screening bias p_bar = 1 / (2(1-q)) that q pins; q in [0, 1/2]."""
    q = as_money(q)
    if not 0 <= q <= Fraction(1, 2):  # before 1 - q = 0 divides
        raise ValueError("q must lie in [0, 1/2]")
    return 1 / (2 * (1 - q))


def as_width(value, name: str) -> int:
    """A bitwidth as an int: ``"8"`` and ``Fraction(16)`` convert.

    A float or a bool raises TypeError, as ``as_money`` refuses a float;
    a value with a fractional part raises ValueError.  Both name the field.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"{name} must be a whole number, got {type(value).__name__} {value!r}")
    width = as_money(value)
    if width.denominator != 1:
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(width)


@dataclass(frozen=True)
class MechanismParams:
    """Public mechanism parameters agreed by both parties.

    q, in (0, 1/2], is the screening discount and the
    counteroffer-acceptance bias.  p_bar, the bias toward the screening
    offer, is derived from q by ``p_bar_for``: the constraint
    p_bar*(1-q) = 1/2 is what makes the expected payment come out to
    half the victim's report.  k_theta and k are the bitwidths of
    reports and of the random words in fixed-point semantics.
    """

    q: Fraction
    p_bar: Fraction = field(init=False)
    k_theta: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_money(self.q))
        object.__setattr__(self, "p_bar", p_bar_for(self.q))
        if self.q == 0:  # the screening offer and r2 / q need q > 0
            raise ValueError("the mechanism requires q > 0")
        object.__setattr__(self, "k_theta", as_width(self.k_theta, "k_theta"))
        object.__setattr__(self, "k", as_width(self.k, "k"))
        if self.k_theta < 1 or self.k < 1:
            raise ValueError("bitwidths must be >= 1")


@dataclass(frozen=True)
class ScaledParams:
    """Floor-scaled integer constants used by the fixed-point path."""

    p_scale: int
    q_scale: int
    inv_q_scale: int

    @classmethod
    def from_params(cls, params: MechanismParams) -> "ScaledParams":
        """Scale ``params``, refusing products wider than ``DEFAULT_MAX_WIDTH`` bits.

        The products are q_scale * theta_v (k + k_theta bits) and
        r2 * inv_q_scale (k_theta + the bit length of inv_q_scale).  The
        first, the narrower, is checked before 2^k is formed, so a huge
        k is refused without computing it.  Raises ValueError.
        """
        too_wide = f"fixed-point products exceed {DEFAULT_MAX_WIDTH} bits: lower k or k_theta"
        if params.k + params.k_theta > DEFAULT_MAX_WIDTH:
            raise ValueError(too_wide)
        if (params.q.denominator & (params.q.denominator - 1)) != 0:
            warnings.warn(
                f"q={params.q} is not dyadic; scaled constants round down",
                ScalingWarning,
            )
        unit = 1 << params.k
        scaled = cls(
            p_scale=int(params.p_bar * unit),
            q_scale=int(params.q * unit),
            inv_q_scale=int(unit / params.q),
        )
        if params.k_theta + scaled.inv_q_scale.bit_length() > DEFAULT_MAX_WIDTH:
            raise ValueError(too_wide)
        return scaled


@dataclass(frozen=True)
class Report:
    """The two submitted reservation values."""

    theta_v: Money
    theta_a: Money

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_v", as_money(self.theta_v))
        object.__setattr__(self, "theta_a", as_money(self.theta_a))
        if self.theta_v < 0 or self.theta_a < 0:
            raise ValueError("reports must be >= 0")


@dataclass(frozen=True)
class MechanismOutcome:
    """Settlement: allocation flag, payment, free-release flag."""

    alpha: int
    r_f: Money
    sigma: int

    def __post_init__(self) -> None:
        if self.alpha != (1 if (self.r_f > 0 or self.sigma == 1) else 0):
            raise ValueError("alpha must be 1 exactly when r_f > 0 or sigma = 1")
        if self.sigma == 1 and self.r_f != 0:
            raise ValueError("a free release carries no payment")


def _settle(r_f, sigma: int) -> MechanismOutcome:
    # The allocation rule: the key changes hands iff money does or the
    # release flag fired.
    return MechanismOutcome(1 if (r_f > 0 or sigma == 1) else 0, r_f, sigma)


def _check_draw(name: str, u: Draw) -> None:
    if not 0 <= u < 1:
        raise ValueError(f"{name} must lie in [0, 1)")


def outcome_real(
    params: MechanismParams, rep: Report, u0: Draw, u1: Draw
) -> MechanismOutcome:
    """Evaluate the mechanism in exact arithmetic.

    u0 selects the victim's offer (below p_bar: screening offer
    q*theta_v, else the full report); u1 decides whether an acceptable
    counteroffer is paid (below q) or answered with a free release.
    """
    _check_draw("u0", u0)
    _check_draw("u1", u1)
    r2 = params.q * rep.theta_v if u0 < params.p_bar else rep.theta_v
    if rep.theta_a <= r2:
        return _settle(r2, 0)
    r3 = max(r2 / params.q, rep.theta_a)
    if r3 <= rep.theta_v:
        if u1 < params.q:
            return _settle(r3, 0)
        return _settle(Fraction(0), 1)
    return _settle(Fraction(0), 0)


def outcome_fixed(
    params: MechanismParams,
    scaled: ScaledParams,
    rep: Report,
    s0: int,
    s1: int,
) -> MechanismOutcome:
    """Evaluate the mechanism on integers only; normative for the circuit.

    Same branch structure as ``outcome_real`` with q*theta_v replaced by
    (q_scale*theta_v) >> k, r2/q by (r2*inv_q_scale) >> k, and the draws
    by k-bit words compared against the scaled constants.
    """
    theta_v, theta_a = _fixed_report(params, rep)
    if not 0 <= s0 < (1 << params.k) or not 0 <= s1 < (1 << params.k):
        raise ValueError("random words must be k-bit")

    r2 = (scaled.q_scale * theta_v) >> params.k if s0 < scaled.p_scale else theta_v
    if theta_a <= r2:
        return _settle(r2, 0)
    r3 = max((r2 * scaled.inv_q_scale) >> params.k, theta_a)
    if r3 <= theta_v:
        if s1 < scaled.q_scale:
            return _settle(r3, 0)
        return _settle(0, 1)
    return _settle(0, 0)


def _fixed_report(params: MechanismParams, rep: Report) -> tuple[int, int]:
    values = []
    for name, value in (("theta_v", rep.theta_v), ("theta_a", rep.theta_a)):
        if value.denominator != 1:
            raise ValueError(f"{name} must be an integer in fixed-point semantics")
        if value >= (1 << params.k_theta):
            raise ValueError(f"{name} does not fit in {params.k_theta} bits")
        values.append(int(value))
    return values[0], values[1]


def expected_attacker_utility(
    params: MechanismParams,
    theta_a_true: MoneyLike,
    report_a: MoneyLike,
    theta_v_report: MoneyLike,
) -> Money:
    """Attacker's expected utility, exact over both random draws.

    Piecewise in the attacker's report: reports within the screening
    offer are always accepted; reports within the victim's report reach
    the counteroffer stage, where the free-release branch bites; higher
    reports end with no deal and zero utility.  The terms are integer
    numerators over pd*qd*vd*ad; the branch tests cross-multiply by the
    positive denominators.
    """
    theta_a = as_money(theta_a_true)
    report = as_money(report_a)
    theta_v = as_money(theta_v_report)
    qn, qd = params.q.numerator, params.q.denominator
    pn, pd = params.p_bar.numerator, params.p_bar.denominator
    an, ad = theta_a.numerator, theta_a.denominator
    rn, rd = report.numerator, report.denominator
    vn, vd = theta_v.numerator, theta_v.denominator
    gap = vn * ad - an * vd  # theta_v - theta_a, over vd*ad
    if rn * qd * vd <= qn * vn * rd:  # report <= q * theta_v
        num = pn * (qn * vn * ad - an * qd * vd) + (pd - pn) * qd * gap
    elif rn * vd <= vn * rd:  # report <= theta_v
        num = (pd - pn) * qd * gap + pn * qn * gap - pn * (qd - qn) * an * vd
    else:
        return Fraction(0)
    return Fraction(num, pd * qd * vd * ad)


def _uniform_cdf(num: int, den: int) -> int:
    """Numerator over ``den`` (> 0) of the uniform [0, 1] CDF at num/den."""
    return 0 if num <= 0 else den if num >= den else num


def expected_victim_utility(
    params: MechanismParams, theta_v_true: MoneyLike, report_v: MoneyLike
) -> Money:
    """Victim's interim expected utility against a uniform [0, 1] attacker prior.

    The attacker reports truthfully (it is dominant), so the victim
    averages the outcome over attacker types: below the screening offer
    both offers are accepted as they stand; between the offers the
    counteroffer stage pays the victim's report or releases for free;
    above the victim's report there is no deal.  The terms are integer
    numerators: the CDFs over qd*rd, the payoffs over pd*qd*td*rd.
    """
    theta = as_money(theta_v_true)
    report = as_money(report_v)
    qn, qd = params.q.numerator, params.q.denominator
    pn, pd = params.p_bar.numerator, params.p_bar.denominator
    tn, td = theta.numerator, theta.denominator
    rn, rd = report.numerator, report.denominator
    cdf_den = qd * rd
    f_low = _uniform_cdf(qn * rn, cdf_den)
    f_mid = qd * _uniform_cdf(rn, rd) - f_low
    gap = tn * rd - rn * td  # theta - report, over td*rd
    accept_both = pn * (tn * qd * rd - qn * rn * td) + (pd - pn) * qd * gap
    counter_stage = (pd * qd - pn * qd + pn * qn) * gap + pn * (qd - qn) * tn * rd
    return Fraction(
        f_low * accept_both + f_mid * counter_stage, cdf_den * pd * qd * td * rd
    )


def attacker_truthfulness_margin(
    params: MechanismParams, theta_v_report: MoneyLike, grid: int = 64
) -> Money:
    """Smallest utility loss from deviating, over a report/type grid.

    For every attacker type on the grid, compares the truthful report
    against every alternative grid report; returns min(truthful - best
    alternative).  Non-negative means truth-telling dominates on the
    grid.
    """
    if grid < 2:
        raise ValueError("the attacker grid needs at least 2 points")
    theta_v = as_money(theta_v_report)
    points = [Fraction(i, grid - 1) for i in range(grid)]
    margin = None
    for theta_a in points:
        truthful = expected_attacker_utility(params, theta_a, theta_a, theta_v)
        best_other = max(
            expected_attacker_utility(params, theta_a, alt, theta_v)
            for alt in points
            if alt != theta_a
        )
        gap = truthful - best_other
        margin = gap if margin is None else min(margin, gap)
    return margin

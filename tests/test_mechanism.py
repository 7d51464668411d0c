"""Tests for the settlement mechanism, exact and fixed-point."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindbargain.losses import as_money
from blindbargain.mechanism import (
    MechanismOutcome,
    MechanismParams,
    Report,
    ScaledParams,
    ScalingWarning,
    attacker_truthfulness_margin,
    expected_attacker_utility,
    expected_victim_utility,
    outcome_fixed,
    outcome_real,
    p_bar_for,
)

PARAMS = MechanismParams(q="1/4", k_theta=8, k=8)
SCALED = ScaledParams.from_params(PARAMS)


def params_for(q, k_theta=8, k=8) -> MechanismParams:
    return MechanismParams(q, k_theta, k)


# --- parameters and scaling ----------------------------------------------


def test_params_constraint_is_exact():
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1/2\]"):
        MechanismParams(q="3/5", k_theta=8, k=8)
    with pytest.raises(ValueError, match="bitwidths"):
        MechanismParams(q="1/4", k_theta=0, k=8)
    assert params_for("1/4").p_bar == Fraction(2, 3)
    assert MechanismParams("1/3", 8, 8).p_bar == Fraction(3, 4)
    assert params_for(0).p_bar == Fraction(1, 2)
    assert params_for("1/2").p_bar == 1
    for q in (Fraction(1, 40), Fraction(2, 7), Fraction(1, 2)):
        assert p_bar_for(q) * (1 - q) == Fraction(1, 2)
    # the range is checked before p_bar = 1 / (2(1 - q)) divides by 0
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1/2\]"):
        MechanismParams(1, 8, 8)


def test_scaled_constants_match_worked_values():
    assert SCALED.p_scale == 170
    assert SCALED.q_scale == 64
    assert SCALED.inv_q_scale == 1024
    with pytest.raises(ValueError):
        ScaledParams.from_params(params_for(0))


def test_non_dyadic_q_is_flagged():
    with pytest.warns(ScalingWarning):
        ScaledParams.from_params(params_for("1/3"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ScaledParams.from_params(params_for("3/8"))


# --- outcome functions ----------------------------------------------------


def test_outcome_real_hand_traces():
    rep = Report(100, 30)
    out = outcome_real(PARAMS, rep, Fraction(1, 10), Fraction(9, 10))
    assert (out.alpha, out.r_f, out.sigma) == (1, 0, 1)
    out = outcome_real(PARAMS, rep, Fraction(9, 10), Fraction(9, 10))
    assert (out.alpha, out.r_f, out.sigma) == (1, 100, 0)
    out = outcome_real(PARAMS, Report(100, 120), Fraction(9, 10), Fraction(0))
    assert (out.alpha, out.r_f, out.sigma) == (0, 0, 0)
    # Counteroffer actually paid: low branch, u1 below q.
    out = outcome_real(PARAMS, rep, Fraction(1, 10), Fraction(1, 10))
    assert (out.alpha, out.r_f, out.sigma) == (1, 100, 0)


def test_outcome_real_validates_draws():
    with pytest.raises(ValueError):
        outcome_real(PARAMS, Report(1, 1), Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        outcome_real(PARAMS, Report(1, 1), 0, 1)


def test_outcome_fixed_branch_boundary():
    rep = Report(100, 30)
    low = outcome_fixed(PARAMS, SCALED, rep, s0=169, s1=255)
    assert (low.r_f, low.sigma) == (0, 1)  # r2 = (64*100)>>8 = 25 < 30
    high = outcome_fixed(PARAMS, SCALED, rep, s0=170, s1=255)
    assert (high.r_f, high.sigma) == (100, 0)


def test_outcome_fixed_zero_valuation():
    for s0 in (0, 200):
        for s1 in (0, 200):
            out = outcome_fixed(PARAMS, SCALED, Report(0, 0), s0, s1)
            assert out.r_f == 0
            assert out.alpha == out.sigma
            out = outcome_fixed(PARAMS, SCALED, Report(0, 5), s0, s1)
            assert (out.alpha, out.r_f, out.sigma) == (0, 0, 0)


def test_outcome_fixed_validates_inputs():
    with pytest.raises(ValueError):
        outcome_fixed(PARAMS, SCALED, Report(256, 0), 0, 0)
    with pytest.raises(ValueError):
        outcome_fixed(PARAMS, SCALED, Report("1/2", 0), 0, 0)
    with pytest.raises(ValueError):
        outcome_fixed(PARAMS, SCALED, Report(1, 1), 256, 0)
    wide = MechanismParams(Fraction(1, 4), 8, 60)  # k + k_theta = 68 bits
    with pytest.raises(ValueError):
        outcome_fixed(wide, ScaledParams.from_params(wide), Report(1, 1), 0, 0)


def test_outcome_invariants_exhaustive_small_widths():
    params = MechanismParams(q="1/4", k_theta=4, k=4)
    scaled = ScaledParams.from_params(params)
    reports = [Report(tv, ta) for tv in range(16) for ta in range(16)]
    for rep in reports:
        for s0 in range(16):
            for s1 in range(16):
                out = outcome_fixed(params, scaled, rep, s0, s1)
                # Constructor enforces the alpha/sigma/r_f invariant;
                # check payment bounds on top.
                assert 0 <= out.r_f <= rep.theta_v


def test_fixed_matches_real_for_exactly_representable_inputs():
    # Unit-fraction dyadic q makes every scaled quantity exact; the one
    # remaining boundary is s0 = p_scale (p_bar itself is not dyadic),
    # excluded here.
    rng = random.Random(0xF1DE)
    for q, j in ((Fraction(1, 2), 1), (Fraction(1, 4), 2), (Fraction(1, 8), 3)):
        params = params_for(q)
        scaled = ScaledParams.from_params(params)
        for _ in range(400):
            theta_v = rng.randrange(0, 1 << (params.k_theta - j)) << j
            theta_a = rng.randrange(0, 1 << params.k_theta)
            s0 = rng.randrange(0, 1 << params.k)
            if s0 == scaled.p_scale:
                continue
            s1 = rng.randrange(0, 1 << params.k)
            rep = Report(theta_v, theta_a)
            fixed = outcome_fixed(params, scaled, rep, s0, s1)
            real = outcome_real(
                params,
                rep,
                Fraction(s0, 1 << params.k),
                Fraction(s1, 1 << params.k),
            )
            assert (fixed.alpha, fixed.r_f, fixed.sigma) == (
                real.alpha,
                real.r_f,
                real.sigma,
            )


def test_fixed_screening_offer_never_overshoots():
    # Round-tripping the screening offer through the scaled inverse
    # floors, so the counteroffer stays within the victim's report on
    # the low branch.
    for q in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(3, 8)):
        params = params_for(q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingWarning)
            scaled = ScaledParams.from_params(params)
        for theta_v in range(0, 256, 7):
            r2 = (scaled.q_scale * theta_v) >> params.k
            r3 = (r2 * scaled.inv_q_scale) >> params.k
            assert r3 <= theta_v


def test_fixed_rounding_error_is_bounded_same_branch():
    rng = random.Random(0x5EED)
    qs = [Fraction(1, 4), Fraction(3, 8), Fraction(5, 16), Fraction(1, 3)]
    for q in qs:
        params = params_for(q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingWarning)
            scaled = ScaledParams.from_params(params)
        for _ in range(300):
            theta_v = rng.randrange(0, 256)
            r2_fixed = (scaled.q_scale * theta_v) >> params.k
            r2_real = q * theta_v
            assert abs(r2_fixed - r2_real) <= theta_v * Fraction(1, 1 << params.k) + 1


# --- expected utilities ---------------------------------------------------


def branch_expectations(params, rep):
    """Exact expectation of (r_f, alpha) over the two draws via outcome_real.

    Independent of the closed-form utility expressions: enumerates the
    four (u0, u1) branch combinations with their probabilities.
    """
    eps = Fraction(1, 10**9)
    combos = [
        (params.p_bar, Fraction(0)),
        (1 - params.p_bar, params.p_bar),
    ]
    exp_rf = Fraction(0)
    exp_alpha = Fraction(0)
    for prob0, u0 in combos:
        if prob0 == 0:
            # q = 1/2 forces p_bar = 1; the high branch then has measure
            # zero and its representative draw would be out of range.
            continue
        for prob1, u1 in ((params.q, Fraction(0)), (1 - params.q, 1 - eps)):
            if prob1 == 0:
                continue
            out = outcome_real(params, rep, u0, u1)
            exp_rf += prob0 * prob1 * out.r_f
            exp_alpha += prob0 * prob1 * out.alpha
    return exp_rf, exp_alpha


def test_attacker_utility_worked_values():
    assert expected_attacker_utility(PARAMS, 30, 30, 100) == 20
    assert expected_attacker_utility(PARAMS, 30, 101, 100) == 0
    assert expected_attacker_utility(PARAMS, 30, 500, 100) == 0
    # Deep in the always-accepted region.
    assert expected_attacker_utility(PARAMS, 10, 20, 100) == (
        Fraction(2, 3) * 15 + Fraction(1, 3) * 90
    )


def test_attacker_utility_matches_branch_enumeration():
    rng = random.Random(0xAB)
    for _ in range(200):
        q = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(2, 5)])
        params = params_for(q)
        theta_v = Fraction(rng.randrange(0, 64), rng.choice((1, 2, 4)))
        report = Fraction(rng.randrange(0, 96), rng.choice((1, 2, 4)))
        theta_a = Fraction(rng.randrange(0, 96), rng.choice((1, 2, 4)))
        rep = Report(theta_v, report)
        exp_rf, exp_alpha = branch_expectations(params, rep)
        # Attacker pockets the ransom and spends its type on allocating.
        direct = exp_rf - exp_alpha * theta_a
        # The closed form assumes the report stands in for the true type
        # only in the branch tests, which is what Report carries.
        assert expected_attacker_utility(params, theta_a, report, theta_v) == direct


def test_victim_utility_matches_segment_integration():
    rng = random.Random(0xCD)
    for _ in range(200):
        q = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(2, 5)])
        params = params_for(q)
        theta = Fraction(rng.randrange(0, 16), 16)
        report = Fraction(rng.randrange(0, 16), 16)
        # Integrate the per-type utility over the uniform attacker prior
        # by segments; within each segment the outcome distribution is
        # constant in theta_a.
        cuts = sorted({Fraction(0), params.q * report, report, Fraction(1)})
        total = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            if hi <= lo:
                continue
            mid = (lo + hi) / 2
            exp_rf, exp_alpha = branch_expectations(params, Report(report, mid))
            total += (hi - lo) * (exp_alpha * theta - exp_rf)
        assert expected_victim_utility(params, theta, report) == total


def test_victim_utility_is_uniform_cdf_times_half_surplus():
    # p_bar * (1 - q) = 1/2 makes both payoff branches theta - r/2, so
    # the utility is F(r) * (theta - r/2) with F the uniform CDF, and
    # r = theta is its exact maximum over reports.
    assert expected_victim_utility(PARAMS, 0, 0) == 0
    for q in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)):
        params = params_for(q)
        for i in range(17):
            theta = Fraction(i, 16)
            for j in range(25):
                r = Fraction(j, 16)  # 0 to 3/2
                assert expected_victim_utility(params, theta, r) == min(r, 1) * (
                    theta - r / 2
                )


# The Fraction bodies the integer kernels replaced, kept verbatim as the
# oracle the kernels must equal.


def _fraction_attacker_utility(params, theta_a_true, report_a, theta_v_report):
    if params.q <= 0:
        raise ValueError("expected utility requires q > 0")
    theta_a = as_money(theta_a_true)
    report = as_money(report_a)
    theta_v = as_money(theta_v_report)
    q, p_bar = params.q, params.p_bar
    if report <= q * theta_v:
        return p_bar * (q * theta_v - theta_a) + (1 - p_bar) * (theta_v - theta_a)
    if report <= theta_v:
        return (
            (1 - p_bar) * (theta_v - theta_a)
            + p_bar * q * (theta_v - theta_a)
            + p_bar * (1 - q) * (-theta_a)
        )
    return Fraction(0)


def _fraction_uniform_cdf(x):
    return min(max(x, Fraction(0)), Fraction(1))


def _fraction_victim_utility(params, theta_v_true, report_v):
    theta = as_money(theta_v_true)
    report = as_money(report_v)
    q, p_bar = params.q, params.p_bar
    f_low = _fraction_uniform_cdf(q * report)
    f_mid = _fraction_uniform_cdf(report) - f_low
    accept_both = p_bar * (theta - q * report) + (1 - p_bar) * (theta - report)
    counter_stage = (1 - p_bar + p_bar * q) * (theta - report) + p_bar * (1 - q) * theta
    return f_low * accept_both + f_mid * counter_stage


# any q in [1/64, 1/2], plus non-dyadic ones and q = 1/2 (p_bar = 1)
_QS = st.one_of(
    st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2)),
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(1, 40), Fraction(1, 2)]),
)
# negative, zero, one and above one
_VALUES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2)]),
    st.fractions(min_value=-3, max_value=3),
)


@settings(max_examples=400, deadline=None)
@given(_QS, _VALUES, _VALUES, _VALUES, st.sampled_from(["drawn", "screening", "victim"]))
def test_attacker_kernel_equals_fraction_form(q, theta_a, theta_v, report, edge):
    # the branch edges report = q * theta_v and report = theta_v exactly
    report = {"drawn": report, "screening": q * theta_v, "victim": theta_v}[edge]
    params = params_for(q)
    got = expected_attacker_utility(params, theta_a, report, theta_v)
    assert got == _fraction_attacker_utility(params, theta_a, report, theta_v)


@settings(max_examples=400, deadline=None)
@given(_QS, _VALUES, _VALUES, st.sampled_from(["drawn", "one", "q_r_one", "zero"]))
def test_victim_kernel_equals_fraction_form(q, theta, report, edge):
    # the CDF clamps at r = 1 and q * r = 1, and both CDFs at 0
    report = {"drawn": report, "one": Fraction(1), "q_r_one": 1 / q, "zero": Fraction(0)}[edge]
    params = params_for(q)
    got = expected_victim_utility(params, theta, report)
    assert got == _fraction_victim_utility(params, theta, report)


def test_attacker_dominance_at_support_endpoints():
    # Truth-telling ties or beats every grid alternative when the victim
    # report sits at either end of the normalized support.
    assert attacker_truthfulness_margin(PARAMS, 0, grid=17) >= 0
    assert attacker_truthfulness_margin(PARAMS, 1, grid=17) >= 0
    for q in (Fraction(1, 8), Fraction(1, 2)):
        assert attacker_truthfulness_margin(params_for(q), 1, grid=9) >= 0


def test_attacker_margin_needs_two_grid_points():
    assert attacker_truthfulness_margin(PARAMS, 1, grid=2) >= 0
    for grid in (1, 0, -3):
        with pytest.raises(ValueError, match="grid"):
            attacker_truthfulness_margin(PARAMS, 1, grid=grid)


def test_attacker_utility_flat_across_deal_preserving_reports():
    # The incentive argument rests on this shape: every report at or
    # below the victim's is worth the same, everything above is worth 0.
    for q in (Fraction(1, 4), Fraction(1, 2)):
        params = params_for(q)
        tie = 1 - params.p_bar + params.p_bar * params.q
        theta_v = Fraction(5, 8)
        for theta_a in (Fraction(0), Fraction(1, 3), Fraction(9, 10)):
            for i in range(11):
                report = Fraction(i, 16)
                got = expected_attacker_utility(params, theta_a, report, theta_v)
                if report <= theta_v:
                    assert got == tie * theta_v - theta_a
                else:
                    assert got == 0


def test_attacker_dominance_fails_for_high_types_inside_support():
    # Known limit: the half-payment constraint nets a dealing attacker
    # theta_v/2 - theta_a, so a type above half the victim's report does
    # strictly better reporting itself out of the deal.  Pin the exact
    # shortfall so any change in this behavior is loud.
    assert attacker_truthfulness_margin(PARAMS, Fraction(1, 2), grid=17) == Fraction(-1, 4)


def test_expected_payment_is_half_report():
    # criterion 7's outcome_real expectation, at a non-dyadic q and at
    # p_bar = 1 as well as the dyadic ones
    qs = (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2))
    for params in (PARAMS, *map(params_for, qs)):
        for theta_v in (0, 7, 100):
            for theta_a in (0, params.q * theta_v):
                exp_rf, _ = branch_expectations(params, Report(theta_v, theta_a))
                assert exp_rf == Fraction(theta_v, 2)


def test_outcome_type_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        MechanismOutcome(0, Fraction(5), 0)
    with pytest.raises(ValueError):
        MechanismOutcome(1, Fraction(0), 0)
    with pytest.raises(ValueError):
        MechanismOutcome(1, Fraction(5), 1)
    with pytest.raises(ValueError):
        Report(-1, 0)

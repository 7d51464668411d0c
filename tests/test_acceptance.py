"""Acceptance suite: one test per shipped guarantee, end to end.

Each test states its claim, runs it at full size, and prints a single
PASS line; run with ``-v`` (or ``-s``) to see one verdict per claim.
The twelve claims cover the bargaining solvers, the sealed-report
mechanism, the circuit and garbled paths, the wire protocol, timing
trends, randomness fairness, and the final-round game.
"""

import random
import struct
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from blindbargain.bargaining import (
    BargainingInstance,
    backward_induction_offers,
    closed_form_offer,
    determine_horizon,
    rubinstein_split,
)
from blindbargain.bench import GRID, format_table, monotone_over_grid, run_benchmark
from blindbargain.circuit import (
    build_mechanism_circuit,
    encode_inputs,
    eval_gates,
    eval_plain,
    party_input_bits,
)
from blindbargain.cli import main as cli_main
from blindbargain.garbling import decode_and_prove, evaluate, garble, select_labels
from blindbargain.losses import LossProfile, VictimParams, residual_value, total_value
from blindbargain.mechanism import (
    MechanismParams,
    Report,
    ScaledParams,
    ScalingWarning,
    attacker_truthfulness_margin,
    expected_victim_utility,
    outcome_fixed,
    outcome_real,
)
from blindbargain.protocol import (
    NegotiationAbort,
    PiProfile,
    SessionRandomness,
    loopback_exchange,
    loopback_run,
)
from blindbargain.stage_game import (
    AttackerAction,
    RegimeWarning,
    ReputationParams,
    VictimAction,
    payoffs,
    spne,
)
from test_protocol import ForgedOutputAttacker, TamperedTableVictim, WrongCircuitVictim


def _random_profile(rng: random.Random, max_blocks: int = 21) -> LossProfile:
    blocks = [
        Fraction(rng.randint(0, 24), rng.randint(1, 8))
        for _ in range(rng.randint(1, max_blocks))
    ]
    return LossProfile(
        l0=Fraction(rng.randint(0, 10)),
        blocks=blocks,
        tail=Fraction(rng.randint(0, 12), rng.randint(1, 4)),
    )


def _instance(profile: LossProfile) -> BargainingInstance:
    return BargainingInstance(VictimParams(total_value(profile), profile), 0)


def test_criterion_01_closed_form_equals_induction():
    """200 random loss profiles, every odd horizon, pointwise equality."""
    rng = random.Random(101)
    start = time.perf_counter()
    compared = 0
    for _ in range(200):
        profile = _random_profile(rng)
        inst = _instance(profile)
        for horizon in range(1, len(profile.blocks) + 1, 2):
            schedule = backward_induction_offers(inst, horizon)
            for n in range(1, horizon + 1):
                assert closed_form_offer(inst, n, horizon) == schedule.offer(n)
                compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 1: PASS - {compared} offers identical across both "
        f"solvers in {elapsed:.2f}s"
    )


def test_criterion_02_offer_monotonicity_properties():
    """10^4 random cases: offers fall with round, horizon, stay below value."""
    rng = random.Random(202)
    for _ in range(10_000):
        profile = _random_profile(rng, max_blocks=15)
        inst = _instance(profile)
        max_n = len(profile.blocks) + 4
        horizon = rng.randrange(1, max_n + 1, 2)
        n = rng.randint(1, horizon)
        offer = closed_form_offer(inst, n, horizon)
        if n < horizon:
            assert closed_form_offer(inst, n + 1, horizon) <= offer
        assert closed_form_offer(inst, n, horizon + 2) <= offer
        assert offer <= residual_value(profile, n)
    print("criterion 2: PASS - zero violations in 10^4 monotonicity cases")


def test_criterion_03_worked_schedule_via_cli(capsys):
    """Five unit blocks and a 1.5 reservation settle in 3 rounds at [3, 2, 2]."""
    profile = LossProfile(blocks=[1, 1, 1, 1, 1])
    inst = BargainingInstance(VictimParams(5, profile), Fraction(3, 2))
    assert determine_horizon(inst) == 3
    assert backward_induction_offers(inst, 3).offers == (3, 2, 2)
    code = cli_main(["offers", "--blocks", "1,1,1,1,1", "--r-min", "1.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N = 3" in out
    assert "offers: [3, 2, 2]" in out
    print("criterion 3: PASS - CLI emits N = 3 and offers: [3, 2, 2]")


def test_criterion_04_rubinstein_split(capsys):
    assert rubinstein_split(10, 8, 2) == 5
    code = cli_main(["rubinstein", "10", "8", "2"])
    assert code == 0 and capsys.readouterr().out.strip() == "5"
    print("criterion 4: PASS - no-deadline split of (10, 8, 2) is exactly 5")


def test_criterion_05_attacker_dominance_grid():
    """64x64 (type, report) grid at the victim-report support endpoints.

    Truth-telling weakly dominates with zero exceptions where the
    theory supports it; the known interior limitation (dealing nets
    theta_v/2 - theta_a, negative for high types) is pinned exactly so
    this suite cannot silently overclaim.
    """
    worst = Fraction(0)
    for q in (Fraction(1, 4), Fraction(1, 8)):
        params = MechanismParams(q, 8, 8)
        for endpoint in (0, 1):
            margin = attacker_truthfulness_margin(params, endpoint, grid=64)
            assert margin >= 0, f"violation at q={q}, report {endpoint}"
            worst = min(worst, margin)
    params = MechanismParams(Fraction(1, 4), 8, 8)
    assert attacker_truthfulness_margin(params, Fraction(1, 2), grid=17) == Fraction(
        -1, 4
    )
    print(
        "criterion 5: PASS - zero dominance exceptions on 64x64 grids at "
        "both support endpoints (interior limitation pinned at -1/4)"
    )


def test_criterion_06_victim_optimality_grid():
    """Truthful report within one 2^-10 step of the grid maximum."""
    params = MechanismParams(Fraction(1, 4), 8, 8)
    step = Fraction(1, 1024)
    reports = [i * step for i in range(1025)]
    worst = Fraction(0)
    for theta in reports:
        truthful = expected_victim_utility(params, theta, theta)
        best = max(expected_victim_utility(params, theta, report) for report in reports)
        worst = max(worst, best - truthful)
        assert best - truthful <= step
    print(
        f"criterion 6: PASS - truthful within one 2^-10 step at all 1025 "
        f"types (worst shortfall {worst})"
    )


def test_criterion_07_expected_payment_half_value():
    """Exact half-value payment for 50 dyadic pairs, then Monte Carlo."""
    rng = random.Random(707)
    for _ in range(50):
        j = rng.randint(1, 6)
        q = Fraction(rng.randint(1, 1 << (j - 1)), 1 << j)
        m = rng.randint(1, 8)
        theta_v = Fraction(rng.randint(1, 1 << m), 1 << m)
        params = MechanismParams(q, 8, 8)
        theta_a = theta_v * q * Fraction(rng.randint(0, 8), 8)
        rep = Report(theta_v, theta_a)
        p_bar = params.p_bar
        expectation = p_bar * outcome_real(params, rep, Fraction(0), Fraction(0)).r_f
        if p_bar < 1:  # q = 1/2 pins p_bar = 1; the high branch vanishes
            expectation += (
                (1 - p_bar) * outcome_real(params, rep, p_bar, Fraction(0)).r_f
            )
        assert expectation == theta_v / 2
    gen = np.random.default_rng(708)
    for q, theta_v in ((Fraction(1, 4), Fraction(5, 8)), (Fraction(1, 2), Fraction(1))):
        params = MechanismParams(q, 8, 8)
        u0 = gen.random(1_000_000)
        draws = np.where(u0 < float(params.p_bar), float(q * theta_v), float(theta_v))
        sigma = draws.std() / np.sqrt(draws.size)
        gap = abs(draws.mean() - float(theta_v) / 2)
        assert gap <= 3 * sigma, f"MC gap {gap} > 3 sigma {3 * sigma}"
    print(
        "criterion 7: PASS - 50 exact half-value expectations; Monte Carlo "
        "within 3 sigma at 10^6 draws"
    )


def _batch_outcomes(circuit, fields: np.ndarray):
    """Rows of (s0_v, s1_v, theta_v, s0_a, s1_a, theta_a) to outcome arrays.

    Bit-sliced: each input wire gets one word holding its bit of every
    row.  Which wire a field's bit i feeds, if any, is read off the
    encoding of that bit alone.
    """
    n = fields.shape[0]
    words = []
    widths = (circuit.k, circuit.k, circuit.k_theta)
    for positions, columns in (
        (circuit.victim_positions, fields.T[:3]),
        (circuit.attacker_positions, fields.T[3:]),
    ):
        party = [0] * len(positions)
        for field, (column, width) in enumerate(zip(columns, widths)):
            for i in range(width):
                alone = [0, 0, 0]
                alone[field] = 1 << i
                encoded = party_input_bits(circuit, positions, *alone)
                if 1 in encoded:
                    lane_bits = ((column >> i) & 1).astype(np.uint8)
                    packed = np.packbits(lane_bits, bitorder="little").tobytes()
                    party[encoded.index(1)] = int.from_bytes(packed, "little")
        words += party
    wires = eval_gates(circuit.rows(), words, n)

    def lanes(wire):
        packed = np.frombuffer(wires[wire].to_bytes(-(-n // 8), "little"), np.uint8)
        return np.unpackbits(packed, bitorder="little")[:n]

    *r_f_wires, alpha, sigma = circuit.outputs
    r_f = sum(lanes(w).astype(np.int64) << i for i, w in enumerate(r_f_wires))
    return r_f, lanes(alpha), lanes(sigma)


def test_criterion_08_circuit_matches_fixed_point_oracle():
    """Exhaustive 4/4 equivalence, random 16/32, then the garbled path.

    The exhaustive sweep covers a dyadic q, a non-dyadic q (1/5, whose
    scaled constants round down), and the q = 1/2, p_bar = 1 edge.
    """
    params = MechanismParams(Fraction(1, 4), 4, 4)
    scaled = ScaledParams.from_params(params)
    circuit = build_mechanism_circuit(params, scaled)
    grids = np.meshgrid(*(np.arange(16),) * 4, indexing="ij")
    cases = np.stack([g.ravel() for g in grids], axis=1)  # theta_v theta_a s0 s1
    fields = np.zeros((65536, 6), dtype=np.int64)
    fields[:, 2] = cases[:, 0]
    fields[:, 5] = cases[:, 1]
    fields[:, 0] = cases[:, 2]
    fields[:, 1] = cases[:, 3]
    for q in (Fraction(1, 4), Fraction(1, 5), Fraction(1, 2)):
        params_q = MechanismParams(q, 4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingWarning)
            scaled_q = ScaledParams.from_params(params_q)
        circuit_q = build_mechanism_circuit(params_q, scaled_q)
        r_f, alpha, sigma = _batch_outcomes(circuit_q, fields)
        for idx in range(65536):
            theta_v, theta_a, s0, s1 = (int(x) for x in cases[idx])
            want = outcome_fixed(params_q, scaled_q, Report(theta_v, theta_a), s0, s1)
            got = (int(r_f[idx]), int(alpha[idx]), int(sigma[idx]))
            assert got == (int(want.r_f), want.alpha, want.sigma), (
                q, theta_v, theta_a, s0, s1,
            )

    params16 = MechanismParams(Fraction(1, 4), 16, 32)
    scaled16 = ScaledParams.from_params(params16)
    circuit16 = build_mechanism_circuit(params16, scaled16)
    rng = random.Random(808)
    fields16 = np.array(
        [
            [
                rng.getrandbits(32),
                rng.getrandbits(32),
                rng.getrandbits(16),
                rng.getrandbits(32),
                rng.getrandbits(32),
                rng.getrandbits(16),
            ]
            for _ in range(10_000)
        ],
        dtype=np.int64,
    )
    r_f, alpha, sigma = _batch_outcomes(circuit16, fields16)
    for idx in range(10_000):
        s0v, s1v, tv, s0a, s1a, ta = (int(x) for x in fields16[idx])
        want = outcome_fixed(
            params16, scaled16, Report(tv, ta), s0v ^ s0a, s1v ^ s1a
        )
        got = (int(r_f[idx]), int(alpha[idx]), int(sigma[idx]))
        assert got == (int(want.r_f), want.alpha, want.sigma)

    for case in range(1000):
        tv, ta = rng.getrandbits(4), rng.getrandbits(4)
        s0, s1 = rng.getrandbits(4), rng.getrandbits(4)
        material = garble(circuit, struct.pack("<I", case))
        bits = encode_inputs(circuit, tv, ta, s0_v=s0, s1_v=s1, s0_a=0, s1_a=0)
        labels = select_labels(material.input_labels, bits)
        out_bits = decode_and_prove(
            material.garbled, evaluate(material.garbled, circuit, labels)
        )
        assert tuple(out_bits) == eval_plain(circuit, bits)
        want = outcome_fixed(params, scaled, Report(tv, ta), s0, s1)
        width = len(circuit.outputs) - 2
        got_r_f = sum(b << i for i, b in enumerate(out_bits[:width]))
        assert (got_r_f, out_bits[width], out_bits[width + 1]) == (
            int(want.r_f),
            want.alpha,
            want.sigma,
        )
    print(
        "criterion 8: PASS - 2^16 exhaustive at q = 1/4, 1/5, 1/2 + 10^4 random "
        "16/32 + 10^3 garbled evaluations all match the fixed-point oracle"
    )


def test_criterion_09_protocol_end_to_end():
    """500 seeded loopback settlements match the oracle; tampering aborts."""
    pi = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, 0)
    params = pi.params()
    scaled = ScaledParams.from_params(params)
    rng = random.Random(909)
    for run in range(500):
        theta_v, theta_a = rng.getrandbits(8), rng.getrandbits(8)
        victim, attacker = loopback_run(
            pi, theta_v, theta_a, b"v%d" % run, b"a%d" % run
        )
        assert victim.outcome == attacker.outcome
        want = outcome_fixed(
            params,
            scaled,
            Report(theta_v, theta_a),
            victim.own_words[0] ^ attacker.own_words[0],
            victim.own_words[1] ^ attacker.own_words[1],
        )
        assert victim.outcome == want, (run, theta_v, theta_a)

    _, attacker = loopback_exchange(
        pi, 200, 37, b"v", b"a", victim_session_cls=TamperedTableVictim
    )
    assert isinstance(attacker, NegotiationAbort) and attacker.stage == "extract"
    _, attacker = loopback_exchange(
        pi, 200, 37, b"v", b"a", victim_session_cls=WrongCircuitVictim
    )
    assert isinstance(attacker, NegotiationAbort) and attacker.stage == "circuit-check"
    victim, _ = loopback_exchange(
        pi, 200, 37, b"v", b"a", attacker_session_cls=ForgedOutputAttacker
    )
    assert isinstance(victim, NegotiationAbort) and victim.stage == "output-verify"
    print(
        "criterion 9: PASS - 500 settlements equal the oracle on combined "
        "randomness; all three tamper variants abort at their check"
    )


def test_criterion_10_timing_trend():
    """Medians grow with either width; every cell settles within 1 s."""
    cells = run_benchmark(reps=5, warmup=1)
    table = format_table(cells)
    print(table)
    assert [(c.k_theta, c.k) for c in cells] == list(GRID)
    assert monotone_over_grid(cells), table
    assert all(c.median_ms <= 1000.0 for c in cells), table
    print("criterion 10: PASS - monotone medians over the width grid, all <= 1s")


def test_criterion_11_randomness_fairness():
    """Combined word stays uniform against a fixed adversarial share."""
    sampler = SessionRandomness(b"fairness-check")
    honest = np.fromiter(
        (sampler.word(8) for _ in range(1_000_000)), dtype=np.int64, count=1_000_000
    )
    worst_p = 1.0
    for fixed in (0x00, 0xFF, 0xA5):
        combined = honest ^ fixed
        counts = np.bincount(combined, minlength=256)
        result = stats.chisquare(counts)
        worst_p = min(worst_p, result.pvalue)
        assert result.pvalue > 0.001, f"uniformity rejected against {fixed:#x}"
    print(
        f"criterion 11: PASS - chi-square keeps uniformity at 10^6 samples "
        f"(worst p-value {worst_p:.3f})"
    )


def _brute_force_spne(rep, r_f, v, r_max):
    branches = {
        VictimAction.PAY: (AttackerAction.RELEASE_PAID, AttackerAction.DESTROY_PAID),
        VictimAction.REFUSE: (
            AttackerAction.RELEASE_UNPAID,
            AttackerAction.DESTROY_UNPAID,
        ),
    }
    best = {}
    for victim_action, options in branches.items():
        chosen, chosen_u = None, None
        for attacker_action in options:
            _, u_a = payoffs(rep, r_f, v, victim_action, attacker_action)
            if chosen_u is None or u_a > chosen_u:
                chosen, chosen_u = attacker_action, u_a
        best[victim_action] = chosen
    u_pay, _ = payoffs(rep, r_f, v, VictimAction.PAY, best[VictimAction.PAY])
    u_refuse, _ = payoffs(rep, r_f, v, VictimAction.REFUSE, best[VictimAction.REFUSE])
    if Fraction(r_f) < Fraction(r_max) and u_pay > u_refuse:
        return VictimAction.PAY, best[VictimAction.PAY]
    return VictimAction.REFUSE, best[VictimAction.REFUSE]


def test_criterion_12_stage_game_equilibria():
    """Both analyzed regimes resolve as proved; brute force agrees broadly."""
    anonymous = ReputationParams(kappa_g=2, kappa_l=2, c_r=1, c_d=0)
    for r_f in (1, 3, 7, 9, 12):
        outcome = spne(anonymous, r_f, 10, 8)
        assert (outcome.victim_action, outcome.attacker_action) == (
            VictimAction.REFUSE,
            AttackerAction.DESTROY_UNPAID,
        )

    reputation = ReputationParams(
        tau_g=2, tau_l=2, kappa_g=3, kappa_l=3, c_r=1, c_d=0
    )
    v, r_max = 10, 8
    for r_f in (0, 1, 5, Fraction(79, 10), 8, 9, 10, 12):
        outcome = spne(reputation, r_f, v, r_max)
        cooperative = (outcome.victim_action, outcome.attacker_action) == (
            VictimAction.PAY,
            AttackerAction.RELEASE_PAID,
        )
        assert cooperative == (Fraction(r_f) < min(v, r_max))

    rng = random.Random(1212)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for _ in range(1000):
            c_d = Fraction(rng.randint(0, 6), 2)
            rep = ReputationParams(
                tau_g=Fraction(rng.randint(0, 8), 2),
                tau_l=Fraction(rng.randint(0, 8), 2),
                kappa_g=Fraction(rng.randint(0, 8), 2),
                kappa_l=Fraction(rng.randint(0, 8), 2),
                c_r=c_d + Fraction(rng.randint(1, 6), 2),
                c_d=c_d,
            )
            r_f = Fraction(rng.randint(0, 30), 2)
            v = Fraction(rng.randint(0, 30), 2)
            r_max = Fraction(rng.randint(0, 30), 2)
            outcome = spne(rep, r_f, v, r_max)
            assert (outcome.victim_action, outcome.attacker_action) == (
                _brute_force_spne(rep, r_f, v, r_max)
            )
    print(
        "criterion 12: PASS - regime equilibria as proved; brute force "
        "agrees on 10^3 random parameter sets"
    )

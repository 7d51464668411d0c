"""The benchmark's workloads: seeded inputs, one operation, and its check.

Every workload is a closed loop with one client: ``next_op()`` draws the
next operation from the workload's own PRNG, ``execute`` runs it against
the unmodified program, and ``check`` compares the raw result with an
independent oracle after the timed region.  The program sees only the
generated inputs.

Draws are stratified: each run of ``cycle`` consecutive operations holds
the workload's whole mix in a seeded order, and the benchmark measures
whole cycles, so every run sees the same mix.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from blindbargain import cli, protocol
from blindbargain.bargaining import BargainingInstance, closed_form_offer
from blindbargain.bench import GRID
from blindbargain.garbling import WireLabel
from blindbargain.losses import LossProfile, VictimParams
from blindbargain.mechanism import Report, ScaledParams, outcome_fixed
from blindbargain.protocol import (
    AttackerSession,
    NegotiationAbort,
    NegotiationResult,
    PiProfile,
    TransportFailure,
    VictimSession,
)
from blindbargain.stage_game import AttackerAction, ReputationParams, VictimAction, payoffs

Q_VALUES = tuple(Fraction(1, d) for d in (8, 5, 4, 3)) + (Fraction(3, 8), Fraction(1, 2))
WIDE = (16, 32)
FRAME_HEADER = 5  # u32 length + u8 type in front of every payload


def p_bar_for(q: Fraction) -> Fraction:
    return 1 / (2 * (1 - q))


def profile_name(pi: PiProfile) -> str:
    return f"kt{pi.k_theta}/k{pi.k}/q{pi.q}"


# -- adversarial sessions: same step overrides as tests/test_protocol.py --
class WrongCircuitVictim(VictimSession):
    """Claims the agreed profile but garbles a different circuit."""

    def _build_and_garble(self):
        bad = replace(self.scaled, q_scale=self.scaled.q_scale + 1)
        circuit = protocol.build_mechanism_circuit(self.params, bad)
        return circuit, protocol.garble(circuit, self.randomness.seed_bytes())


class TamperedTableVictim(VictimSession):
    """Garbles honestly, then corrupts every AND table before sending."""

    def _build_and_garble(self):
        circuit, material = super()._build_and_garble()
        tables = tuple(
            tuple(bytes([row[0] ^ 1]) + row[1:] for row in rows)
            for rows in material.garbled.tables
        )
        garbled = replace(material.garbled, tables=tables)
        return circuit, replace(material, garbled=garbled)


class ForgedOutputAttacker(AttackerSession):
    """Evaluates honestly, then flips a byte in one returned label."""

    def _evaluate(self, gc, circuit, labels):
        outcome, proof = super()._evaluate(gc, circuit, labels)
        forged = WireLabel(bytes([proof[0].bits[0] ^ 0x80]) + proof[0].bits[1:])
        return outcome, [forged] + list(proof[1:])


def _other_t_e(pi: PiProfile) -> dict:
    return {"victim_pi": PiProfile(pi.q, pi.p_bar, pi.k, pi.k_theta, pi.t_e + 1)}


# variant -> (loopback_exchange hooks for a profile, documented side, stage)
VARIANTS = {
    "pi-mismatch": (_other_t_e, "attacker", "pi-agreement"),
    "wrong-circuit": (
        lambda pi: {"victim_session_cls": WrongCircuitVictim}, "attacker", "circuit-check"
    ),
    "tampered-table": (
        lambda pi: {"victim_session_cls": TamperedTableVictim}, "attacker", "extract"
    ),
    "forged-output": (
        lambda pi: {"attacker_session_cls": ForgedOutputAttacker}, "victim", "output-verify"
    ),
}


def transcripts(raw) -> list:
    """Both sides' transcripts from a loopback (victim, attacker) pair.

    A ``solve`` result, (exit code, output), has none.
    """
    return [t for side in raw if (t := getattr(side, "transcript", None)) is not None]


def wire_counts(raw) -> Counter:
    """Messages and bytes sent by both sides, from their transcripts."""
    counts: Counter = Counter()
    for transcript in transcripts(raw):
        for record in transcript.records:
            if record.direction != "sent":
                continue
            counts["protocol.messages"] += 1
            counts["protocol.wire_bytes"] += record.length + FRAME_HEADER
            counts[f"protocol.bytes.{record.msg_type}"] += record.length
    return counts


@dataclass
class Op:
    kind: str
    profile: str
    execute: Callable[[], object]
    check: Callable[[object], str | None]


class Settle:
    """Loopback settlements; ``mixed`` draws the profile per session.

    A ``settle-mixed`` cycle is the 36 profiles ``GRID`` x ``Q_VALUES``
    once each, honest, plus one session of each adversarial variant on a
    profile drawn uniformly from the 36, all in a seeded order: one
    session in ten is adversarial.
    """

    def __init__(self, seed: int, mixed: bool) -> None:
        self.name = "settle-mixed" if mixed else "settle-wide"
        self.mixed = mixed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.profiles = [
            PiProfile(q, p_bar_for(q), k, k_theta, 0) for k_theta, k in GRID for q in Q_VALUES
        ] if mixed else [PiProfile(Fraction(1, 4), Fraction(2, 3), WIDE[1], WIDE[0], 0)]
        self.cycle = len(self.profiles) + (len(VARIANTS) if mixed else 0)
        self._pending: list[tuple[PiProfile, str | None]] = []

    def warm_up(self) -> None:
        """One untimed honest session: imports, lazy set-up, caches."""
        k_theta, k = GRID[0] if self.mixed else WIDE
        pi = PiProfile(Fraction(1, 4), Fraction(2, 3), k, k_theta, 0)
        self.make_op(pi, 1, 2, (b"warm-up-v", b"warm-up-a")).execute()

    def next_op(self) -> Op:
        rng = self.rng
        if not self._pending:
            self._pending = [(pi, None) for pi in self.profiles]
            if self.mixed:
                self._pending += [(rng.choice(self.profiles), v) for v in VARIANTS]
            rng.shuffle(self._pending)
        pi, variant = self._pending.pop()
        theta_v = rng.randrange(1 << pi.k_theta)
        theta_a = rng.randrange(1 << pi.k_theta)
        seeds = rng.randbytes(16), rng.randbytes(16)
        return self.make_op(pi, theta_v, theta_a, seeds, variant)

    @staticmethod
    def make_op(pi, theta_v, theta_a, seeds, variant=None) -> Op:
        hooks = VARIANTS[variant][0](pi) if variant is not None else {}

        def execute():
            return protocol.loopback_exchange(pi, theta_v, theta_a, *seeds, **hooks)

        def check(raw):
            if variant is None:
                return _check_honest(pi, raw)
            return _check_abort(variant, raw)

        return Op(variant or "honest", profile_name(pi), execute, check)


def _check_honest(pi: PiProfile, raw) -> str | None:
    victim, attacker = raw
    for side in raw:
        if not isinstance(side, NegotiationResult):
            return f"honest session ended with {type(side).__name__}"
    if victim.outcome != attacker.outcome:
        return "the two sides settled different outcomes"
    params = pi.params()
    s0 = victim.own_words[0] ^ attacker.own_words[0]
    s1 = victim.own_words[1] ^ attacker.own_words[1]
    report = Report(victim.theta_hat, attacker.theta_hat)
    expected = outcome_fixed(params, ScaledParams.from_params(params), report, s0, s1)
    if victim.outcome != expected:
        return "outcome differs from outcome_fixed"
    return None


def _check_abort(variant: str, raw) -> str | None:
    _, side, stage = VARIANTS[variant]
    victim, attacker = raw
    documented, other = (attacker, victim) if side == "attacker" else (victim, attacker)
    if not isinstance(documented, NegotiationAbort) or documented.stage != stage:
        got = getattr(documented, "stage", type(documented).__name__)
        return f"{variant}: {side} ended at {got}, expected {stage}"
    if not isinstance(other, (NegotiationAbort, TransportFailure)):
        return f"{variant}: the other side ended with {type(other).__name__}"
    return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _frac(rng: random.Random, top: int, dens=(1, 2, 4, 8)) -> Fraction:
    return Fraction(rng.randrange(top), rng.choice(dens))


def _residual(blocks, tail, n) -> Fraction:
    """Value left after ``n`` rounds, v(n), written out independently."""
    return sum(blocks[n:], start=Fraction(0)) + tail


class Solve:
    """Analyst requests through ``cli.main``; no sockets, no crypto."""

    name = "solve"
    # per cycle: four offers, four stage-game requests, one verify-bic
    KINDS = ("offers",) * 4 + ("stage-game",) * 4 + ("verify-bic",)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cycle = len(self.KINDS)
        self._kinds: list[str] = []
        self._qs: list[Fraction] = []

    def warm_up(self) -> None:
        """One untimed request of each cheap kind, with fixed inputs."""
        run_cli(["offers", "--blocks", "1,1,1,1,1", "--r-min", "1.5"])
        run_cli(["stage-game", "--r-f", "3", "--v", "10", "--r-max", "5"])

    def next_op(self) -> Op:
        if not self._kinds:
            self._kinds = list(self.KINDS)
            self.rng.shuffle(self._kinds)
        kind = self._kinds.pop()
        if kind == "offers":
            return self._offers()
        if kind == "stage-game":
            return self._stage_game()
        return self._verify_bic()

    def _offers(self) -> Op:
        rng = self.rng
        blocks = [
            Fraction(rng.randint(1, 24), rng.randint(1, 8))
            for _ in range(rng.randint(2, 21))
        ]
        tail = _frac(rng, 12)
        l0 = Fraction(rng.randint(0, 10))
        horizon = rng.randrange(1, len(blocks), 2)
        # r_min strictly inside (v(N+1), v(N)) fixes the horizon at N
        share = Fraction(rng.randint(1, 9), 10)
        r_min = _residual(blocks, tail, horizon + 1) + share * blocks[horizon]
        argv = [
            "offers",
            "--blocks", ",".join(str(b) for b in blocks),
            "--tail", str(tail),
            "--l0", str(l0),
            "--r-min", str(r_min),
        ]
        profile = LossProfile(l0=l0, blocks=blocks, tail=tail)

        def check(raw):
            code, out = raw
            if code != 0:
                return f"offers exited {code}"
            inst = BargainingInstance(VictimParams(sum(blocks) + tail, profile), r_min)
            offers = [closed_form_offer(inst, n, horizon) for n in range(1, horizon + 1)]
            expected = f"offers: [{', '.join(str(o) for o in offers)}]"
            lines = out.splitlines()
            if lines[:1] != [f"N = {horizon}"] or expected not in lines:
                return "offers output differs from the closed form"
            return None

        return Op("offers", f"blocks{len(blocks)}/N{horizon}", lambda: run_cli(argv), check)

    def _stage_game(self) -> Op:
        rng = self.rng
        c_d = Fraction(rng.randrange(0, 4))
        values = {
            name: _frac(rng, 8, (1, 2)) for name in ("tau_g", "tau_l", "kappa_g", "kappa_l")
        }
        rep = ReputationParams(c_r=c_d + rng.randrange(1, 5), c_d=c_d, **values)
        r_f, v, r_max = (_frac(rng, 20, (1, 2)) for _ in range(3))
        argv = ["stage-game", "--r-f", str(r_f), "--v", str(v), "--r-max", str(r_max)]
        for name in ("tau_g", "tau_l", "kappa_g", "kappa_l", "c_r", "c_d"):
            argv += ["--" + name.replace("_", "-"), str(getattr(rep, name))]

        def check(raw):
            code, out = raw
            if code != 0:
                return f"stage-game exited {code}"
            if _brute_force_stage(rep, r_f, v, r_max) != out.splitlines()[1:]:
                return "stage-game output differs from brute force"
            return None

        return Op("stage-game", "reputation", lambda: run_cli(argv), check)

    def _verify_bic(self) -> Op:
        if not self._qs:
            self._qs = list(Q_VALUES)
            self.rng.shuffle(self._qs)
        q = self._qs.pop()
        argv = ["mechanism", "verify-bic", "--q", str(q)]

        def check(raw):
            code, out = raw
            lines = out.splitlines()
            if code != 0 or len(lines) != 2 or not all(": PASS" in l for l in lines):
                return f"verify-bic q={q} did not pass"
            return None

        return Op("verify-bic", f"q{q}", lambda: run_cli(argv), check)


def _brute_force_stage(rep, r_f, v, r_max) -> list[str]:
    """Stage-game lines by enumerating the leaves, tree-order tie-breaks."""
    branches = {
        VictimAction.PAY: (AttackerAction.RELEASE_PAID, AttackerAction.DESTROY_PAID),
        VictimAction.REFUSE: (AttackerAction.RELEASE_UNPAID, AttackerAction.DESTROY_UNPAID),
    }
    best = {}
    for victim_action, actions in branches.items():
        ranked = [
            (payoffs(rep, r_f, v, victim_action, a)[1], -i, a) for i, a in enumerate(actions)
        ]
        best[victim_action] = max(ranked)[2]
    u_pay = payoffs(rep, r_f, v, VictimAction.PAY, best[VictimAction.PAY])[0]
    u_refuse = payoffs(rep, r_f, v, VictimAction.REFUSE, best[VictimAction.REFUSE])[0]
    pays = r_f < r_max and u_pay > u_refuse
    victim_action = VictimAction.PAY if pays else VictimAction.REFUSE
    attacker_action = best[victim_action]
    u_v, u_a = payoffs(rep, r_f, v, victim_action, attacker_action)
    return [
        f"victim: {victim_action.name} ({victim_action.value})",
        f"attacker: {attacker_action.name} ({attacker_action.value})",
        f"payoffs: victim={u_v} attacker={u_a}",
    ]


def make(name: str, seed: int):
    if name == "solve":
        return Solve(seed)
    return Settle(seed, mixed=(name == "settle-mixed"))

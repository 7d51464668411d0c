"""Loopback tests for the five-step settlement protocol.

Honest runs must reproduce the fixed-point outcome computed directly
from the XOR of both parties' random words; dishonest variants are
modeled as session subclasses and must trip the honest side's check at
the step that guards against exactly that deviation.
"""

import hashlib
import random
import socket
import struct
import threading
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindbargain.circuit import Circuit, GateKind, build_mechanism_circuit
from blindbargain.garbling import LABEL_BYTES, WireLabel, _seed_label, garble
from blindbargain.mechanism import (
    MechanismParams,
    Report,
    ScaledParams,
    ScalingWarning,
    outcome_fixed,
)
from blindbargain.ot import BITS_PER_TRANSFER, BRANCHES, ELEMENT_BYTES, OtReceiver
from blindbargain.protocol import (
    MAX_TIMEOUT,
    MSG_ABORT,
    MSG_CIRCUIT,
    MSG_GARBLER_INPUT_LABELS,
    MSG_HELLO,
    MSG_OUTPUT_LABELS,
    MSG_PI_ACK,
    MSG_RESULT_ACK,
    AttackerSession,
    NegotiationAbort,
    NegotiationConfig,
    NegotiationResult,
    PiProfile,
    SessionRandomness,
    SessionTranscript,
    TransportFailure,
    VictimSession,
    _Channel,
    load_transcript,
    loopback_exchange,
    loopback_run,
    persist_transcript,
    run_victim,
)

PI = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, Fraction(3))

# sha256 over the newline-joined payload digests of a seeded loopback
# session (test_seeded_sessions_golden_transcripts): every message byte,
# the OT messages included.
GOLDEN_TRANSCRIPTS = {
    (Fraction(1, 4), 16, 32): "eb1865c35f1d49e0e73e714572eccd2bf4633177886b253970efded1f934d2a1",
    (Fraction(1, 3), 16, 16): "b1e79e5f0ac040d21af62bc4cac4879b4bd17f35b7e4a5f470fad1c12ef1ddf0",
}
# What those sessions settle, (r_f, alpha, sigma), and the victim's and
# the attacker's own words.  Both sides draw full words whichever bits
# the circuit reads, so these do not depend on the circuit's input
# positions, which the transcripts do.
GOLDEN_SETTLEMENTS = {
    (Fraction(1, 4), 16, 32): ((0, 1, 1), (1169883599, 3430105042), (649742779, 2010295737)),
    (Fraction(1, 3), 16, 16): ((16383, 1, 0), (17851, 52339), (9914, 30674)),
}


def oracle(pi, victim_result, attacker_result):
    """Fixed-point outcome from both parties' reports and word shares."""
    params = pi.params()
    scaled = ScaledParams.from_params(params)
    s0 = victim_result.own_words[0] ^ attacker_result.own_words[0]
    s1 = victim_result.own_words[1] ^ attacker_result.own_words[1]
    rep = Report(victim_result.theta_hat, attacker_result.theta_hat)
    return outcome_fixed(params, scaled, rep, s0, s1)


def test_honest_run_matches_fixed_point_oracle():
    for theta_v, theta_a, tag in [(200, 37, 0), (200, 60, 1), (200, 255, 2), (0, 0, 3)]:
        v, a = loopback_run(
            PI, theta_v, theta_a, b"v%d" % tag, b"a%d" % tag
        )
        assert v.outcome == a.outcome
        assert v.outcome == oracle(PI, v, a)


def test_settlement_never_builds_the_gate_view(monkeypatch):
    # both sides build, garble, evaluate and check digests off the packed table
    def refuse(circuit):
        raise AssertionError("a settlement read Circuit.gates")

    monkeypatch.setattr(Circuit, "gates", property(refuse))
    v, a = loopback_run(PI, 200, 37, b"v", b"a")
    assert isinstance(v, NegotiationResult) and isinstance(a, NegotiationResult)
    assert v.outcome == a.outcome == oracle(PI, v, a)


def test_settlement_wraps_only_the_revealed_output_labels(monkeypatch):
    # input labels stay bytes end to end; the attacker's evaluate and the
    # victim's OUTPUT_LABELS parse each build one WireLabel per output
    built = []
    check = WireLabel.__post_init__

    def counting_check(label):
        built.append(label)
        check(label)

    monkeypatch.setattr(WireLabel, "__post_init__", counting_check)
    pi = PiProfile(Fraction(1, 4), Fraction(2, 3), 32, 16, 0)
    v, a = loopback_run(pi, 200, 37, b"v", b"a")
    assert v.outcome == a.outcome == oracle(pi, v, a)
    circuit = build_mechanism_circuit(pi.params(), pi.scaled)
    assert len(built) == 2 * len(circuit.outputs) == 36


def test_deterministic_replay_produces_identical_transcripts():
    v1, a1 = loopback_run(PI, 200, 37, b"v-seed", b"a-seed")
    v2, a2 = loopback_run(PI, 200, 37, b"v-seed", b"a-seed")
    assert v1.outcome == v2.outcome
    assert v1.transcript.payload_digests() == v2.transcript.payload_digests()
    assert a1.transcript.payload_digests() == a2.transcript.payload_digests()


def test_seeded_sessions_golden_transcripts():
    for (q, kt, k), expected in GOLDEN_TRANSCRIPTS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingWarning)
            pi = PiProfile(q, 1 / (2 * (1 - q)), k, kt, 0)
            theta_v, theta_a = (1 << kt) * 3 // 4, (1 << kt) // 5
            v, a = loopback_run(pi, theta_v, theta_a, b"v-pin", b"a-pin")
        outcome = (int(v.outcome.r_f), v.outcome.alpha, v.outcome.sigma)
        assert (outcome, v.own_words, a.own_words) == GOLDEN_SETTLEMENTS[q, kt, k]
        assert a.outcome == v.outcome
        digests = v.transcript.payload_digests()
        assert a.transcript.payload_digests() == digests
        assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == expected


def test_all_outcome_branches_reachable_over_the_wire():
    # theta_a = 255 always prices itself out; 37 always trades at the
    # opening demand; 60 forces the counter, whose coin the seeds decide
    v, a = loopback_run(PI, 200, 255, b"v", b"a")
    assert v.outcome.alpha == 0 and v.outcome.r_f == 0
    v, a = loopback_run(PI, 200, 37, b"v", b"a")
    assert v.outcome.alpha == 1 and v.outcome.sigma == 0 and v.outcome.r_f > 0
    seen = set()
    for i in range(12):
        v, a = loopback_run(PI, 200, 60, b"v%d" % i, b"a%d" % i)
        assert v.outcome == oracle(PI, v, a)
        seen.add((v.outcome.alpha, v.outcome.sigma, v.outcome.r_f > 0))
    assert (1, 1, False) in seen  # free release
    assert (1, 0, True) in seen  # paid counter


class TamperedTableVictim(VictimSession):
    """Garbles honestly, then corrupts one AND table before sending."""

    def _build_and_garble(self):
        circuit, material = super()._build_and_garble()
        tables = list(material.garbled.tables)
        tables[5] = tuple(bytes([row[0] ^ 1]) + row[1:] for row in tables[5])
        garbled = replace(material.garbled, tables=tuple(tables))
        return circuit, replace(material, garbled=garbled)


def test_tampered_table_aborts_at_extraction():
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", victim_session_cls=TamperedTableVictim
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "extract"
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "peer-abort" and victim.detail == "extract"


def _retabled_gates(circuit):
    """Positions of the ANDs a garbler re-tables so r_f reveals theta_a.

    Each maps to the function it computes instead of AND: ``True`` for
    its second input, ``False`` for constant 0.  The walk follows the
    muxes back from each revealed ransom bit: r_f = picked ^ AND(accept,
    r2 ^ picked), picked = AND(pay_counter, r3) and r3 = undone ^
    AND(lt, theta_a ^ undone), or the AND alone where undone is 0.
    """
    n = circuit.n_inputs
    gates = circuit.gates

    def gate(wire):
        return gates[wire - n]

    *r_f, _alpha, sigma = circuit.outputs
    targets = {sigma - n: False}
    for wire in r_f:
        picked, r_f_and = gate(wire).in_a, gate(wire).in_b
        r3 = gate(picked).in_b
        r3_and = r3 if gate(r3).kind is GateKind.AND else gate(r3).in_b
        targets.update({r_f_and - n: False, picked - n: True, r3_and - n: True})
    assert all(gates[position].kind is GateKind.AND for position in targets)
    return targets


class RetablingVictim(VictimSession):
    """Keeps the honest circuit and digest, re-tables ANDs to read theta_a.

    The revealed r_f becomes theta_a and sigma 0, so alpha, which the
    circuit still computes from them, stays consistent.
    """

    def _build_and_garble(self):
        circuit = build_mechanism_circuit(self.params, self.scaled)
        seed = self.randomness.seed_bytes()
        material = garble(circuit, seed)
        # the free-XOR offset, as the XOR of one input pair
        delta = bytes(x ^ y for x, y in zip(*material.input_labels[0]))
        # every wire's 0-label, derived as garble derives it
        zero = [int.from_bytes(pair[0], "big") for pair in material.input_labels]
        ands = []
        for position, (kind, in_a, in_b) in enumerate(circuit.gates):
            if kind is GateKind.XOR:
                zero.append(zero[in_a] ^ zero[in_b])
            elif kind is GateKind.NOT:
                zero.append(zero[in_a] ^ int.from_bytes(delta, "big"))
            else:
                zero.append(_seed_label(seed, b"gate", position))
                ands.append(position)
        tables = [list(rows) for rows in material.garbled.tables]
        for position, second in _retabled_gates(circuit).items():
            _, in_a, in_b = circuit.gates[position]
            rows = tables[ands.index(position)]
            for color in range(4):
                va, vb = (color >> 1) ^ (zero[in_a] & 1), (color & 1) ^ (zero[in_b] & 1)
                if (vb if second else 0) != va & vb:  # flip the row's output bit
                    rows[color] = bytes(x ^ y for x, y in zip(rows[color], delta))
        garbled = replace(material.garbled, tables=tuple(tuple(rows) for rows in tables))
        return circuit, replace(material, garbled=garbled)


@pytest.mark.parametrize("k_theta,k", [(8, 8), (16, 32)])
def test_retabling_garbler_reads_the_attacker_report_unnoticed(k_theta, k):
    # the semi-honest limit the README states: the digest binds the gate
    # list, not the tables, so nothing the attacker checks fails
    pi = PiProfile(Fraction(1, 4), Fraction(2, 3), k, k_theta, 0)
    rng = random.Random(0x1B)
    for session in range(10):
        theta_v, theta_a = rng.randrange(1 << k_theta), rng.randrange(1 << k_theta)
        victim, attacker = loopback_exchange(
            pi, theta_v, theta_a, b"v%d" % session, b"a%d" % session,
            victim_session_cls=RetablingVictim,
        )
        assert isinstance(attacker, NegotiationResult)
        assert isinstance(victim, NegotiationResult)
        assert victim.outcome == attacker.outcome
        assert victim.outcome.r_f == theta_a and victim.outcome.sigma == 0
        # an honest garbler would have settled otherwise
        assert victim.outcome != oracle(pi, victim, attacker)


class SwappedAlphaCommitmentVictim(VictimSession):
    """Garbles honestly, then swaps alpha's two output commitments."""

    swapped_output = -2

    def _build_and_garble(self):
        circuit, material = super()._build_and_garble()
        decode = list(material.garbled.output_decode)
        c0, c1 = decode[self.swapped_output]
        decode[self.swapped_output] = (c1, c0)
        garbled = replace(material.garbled, output_decode=tuple(decode))
        return circuit, replace(material, garbled=garbled)


@pytest.mark.parametrize("theta_v,theta_a", [(200, 60), (10, 250)])
def test_inconsistent_decoded_outcome_aborts_at_extraction(theta_v, theta_a):
    # the flipped alpha bit decodes to an outcome MechanismOutcome refuses
    victim, attacker = loopback_exchange(
        PI, theta_v, theta_a, b"v", b"a", victim_session_cls=SwappedAlphaCommitmentVictim
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "extract"
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "peer-abort" and victim.detail == "extract"


class SwappedSigmaCommitmentVictim(SwappedAlphaCommitmentVictim):
    """Garbles honestly, then swaps sigma's two output commitments."""

    swapped_output = -1


@pytest.mark.parametrize(
    "theta_v,theta_a,reason",
    [
        (200, 255, "alpha must be 1"),  # no deal turns into a keyless free release
        (200, 37, "a free release carries no payment"),  # paid deal
        (200, 60, "alpha must be 1"),  # free release loses its only reason for alpha
    ],
)
def test_flipped_release_bit_aborts_at_extraction(theta_v, theta_a, reason):
    victim, attacker = loopback_exchange(
        PI, theta_v, theta_a, b"v", b"a", victim_session_cls=SwappedSigmaCommitmentVictim
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "extract" and reason in attacker.detail
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "peer-abort" and victim.detail == "extract"


class WrongCircuitVictim(VictimSession):
    """Claims the agreed profile but garbles a different circuit."""

    def _build_and_garble(self):
        bad = replace(self.scaled, q_scale=self.scaled.q_scale + 1)
        circuit = build_mechanism_circuit(self.params, bad)
        return circuit, garble(circuit, self.randomness.seed_bytes())


def test_wrong_profile_circuit_aborts_at_circuit_check():
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", victim_session_cls=WrongCircuitVictim
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "circuit-check"
    # the dishonest side may see the abort frame or a reset, depending
    # on how far its pipelined sends got
    assert isinstance(victim, (NegotiationAbort, TransportFailure))


class ForgedOutputAttacker(AttackerSession):
    """Evaluates honestly, then flips a byte in one returned label."""

    def _evaluate(self, gc, circuit, labels):
        outcome, proof = super()._evaluate(gc, circuit, labels)
        forged = WireLabel(bytes([proof[0].bits[0] ^ 0x80]) + proof[0].bits[1:])
        return outcome, [forged] + list(proof[1:])


def test_forged_output_label_aborts_at_output_verify():
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", attacker_session_cls=ForgedOutputAttacker
    )
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "output-verify"
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "peer-abort" and attacker.detail == "output-verify"


def _assert_victim_aborts_at_ot(attacker_cls, detail):
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", attacker_session_cls=attacker_cls
    )
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "ot" and detail in victim.detail
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "peer-abort" and attacker.detail == "ot"


def _transfers(circuit):
    """One OT element per triple of attacker input bits, the last maybe part full."""
    return -(-circuit.attacker_inputs // BITS_PER_TRANSFER)


class GarbageOtAttacker(AttackerSession):
    """Sends all-zero elements of the right length instead of blinded choices."""

    def _run_ot(self, circuit):
        self.channel.recv(5)
        # the right length, so the prefix check fires and not the length check
        self.channel.send(6, b"\x00" * (ELEMENT_BYTES * _transfers(circuit)))
        self.channel.recv(7)
        raise AssertionError("victim accepted invalid group elements")


def test_invalid_ot_elements_abort():
    _assert_victim_aborts_at_ot(GarbageOtAttacker, "element 0 is not a compressed point")


class OffCurveOtAttacker(AttackerSession):
    """Blinds honestly, then swaps one element for an x with no curve point."""

    def _run_ot(self, circuit):
        n_attacker = circuit.attacker_inputs
        receiver = OtReceiver([0] * n_attacker, self.randomness.word)
        sender_public = self.channel.recv(5)
        blinded = receiver.blind(sender_public)
        # x = 1 has no point on P-256 (test_garbling checks why)
        off_curve = b"\x02" + (1).to_bytes(32, "big")
        self.channel.send(6, blinded[:-ELEMENT_BYTES] + off_curve)
        self.channel.recv(7)
        raise AssertionError("victim answered a point off the curve")


class SenderPointOtAttacker(AttackerSession):
    """Echoes the sender's A as every blinded choice, so B - A has no result."""

    def _run_ot(self, circuit):
        sender_public = self.channel.recv(5)
        self.channel.send(6, sender_public * _transfers(circuit))
        self.channel.recv(7)
        raise AssertionError("victim answered B = A")


def test_off_curve_ot_element_aborts():
    _assert_victim_aborts_at_ot(OffCurveOtAttacker, "curve")


def test_sender_point_as_ot_element_aborts():
    _assert_victim_aborts_at_ot(SenderPointOtAttacker, "A or -A")


class LyingResultVictim(VictimSession):
    """Acks a result that contradicts the labels it just verified."""

    def run(self):
        # replay the honest flow but corrupt the final ack
        self._agree_profile()
        circuit, material = self._build_and_garble()
        from blindbargain.garbling import serialize_garbled

        self.channel.send(3, serialize_garbled(material.garbled))
        s0, s1 = self._send_own_labels(circuit, material)
        self._serve_ot(circuit, material)
        self.channel.recv(8)
        self.channel.send(MSG_RESULT_ACK, struct.pack("<QBB", 9999, 1, 0))
        # the attacker answers with ABORT, which recv raises before any type check
        self.channel.recv(MSG_RESULT_ACK)
        raise AssertionError("attacker accepted a contradictory ack")


def test_result_ack_cross_check():
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", victim_session_cls=LyingResultVictim
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "result"


def _rewriting(session_cls, msg_type, rewrite):
    """``session_cls`` with the payload of every ``msg_type`` it sends rewritten."""

    class Rewriting(session_cls):
        def __init__(self, config, channel, randomness):
            super().__init__(config, channel, randomness)
            send = channel.send

            def send_rewritten(sent_type, payload=b""):
                send(sent_type, rewrite(payload) if sent_type == msg_type else payload)

            channel.send = send_rewritten

    return Rewriting


# the side whose message is malformed, what it sends instead, the stage and
# detail its honest peer aborts with, and how the malformed side may end:
# the victim's sends after CIRCUIT are pipelined, so they can meet the
# reset of the closed socket before the ABORT frame is read, and
# RESULT_ACK is the last message, so the victim has settled by then
@pytest.mark.parametrize(
    "side,msg_type,rewrite,stage,detail,ends",
    [
        ("victim", MSG_GARBLER_INPUT_LABELS, lambda p: p[:-LABEL_BYTES],
         "victim-labels", "expected 17 labels", (NegotiationAbort,)),
        ("victim", MSG_CIRCUIT, lambda p: b"junk", "circuit-check",
         "garbled blob too short", (NegotiationAbort, TransportFailure)),
        ("attacker", MSG_OUTPUT_LABELS, lambda p: p[:-LABEL_BYTES],
         "output-verify", "expected 10 labels", (NegotiationAbort,)),
        ("victim", MSG_RESULT_ACK, lambda p: p[:3], "result", "malformed result payload",
         (NegotiationResult,)),
    ],
)
def test_malformed_message_aborts_at_its_step(side, msg_type, rewrite, stage, detail, ends):
    base = VictimSession if side == "victim" else AttackerSession
    hooks = {f"{side}_session_cls": _rewriting(base, msg_type, rewrite)}
    victim, attacker = loopback_exchange(PI, 200, 37, b"v", b"a", **hooks)
    checker, sender = (attacker, victim) if side == "victim" else (victim, attacker)
    assert isinstance(checker, NegotiationAbort)
    assert checker.stage == stage and detail in checker.detail
    assert isinstance(sender, ends)
    if isinstance(sender, NegotiationAbort):
        assert sender.stage == "peer-abort" and sender.detail == stage


def test_profile_mismatch_aborts_before_any_secrets_move():
    other = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, Fraction(4))
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", victim_pi=other
    )
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "pi-agreement"
    assert isinstance(victim, NegotiationAbort)
    assert victim.detail == "pi-agreement"
    # nothing beyond the proposal crossed the wire
    assert [r.msg_type for r in attacker.transcript.records] == ["HELLO", "ABORT"]


def test_transcript_roundtrip(tmp_path):
    v, _ = loopback_run(PI, 200, 37, b"v", b"a")
    path = tmp_path / "session.transcript"
    persist_transcript(v.transcript, path)
    loaded = load_transcript(path)
    assert loaded.records == v.transcript.records
    assert loaded.payload_digests() == v.transcript.payload_digests()


def test_transcript_of_aborted_session_ends_with_abort(tmp_path):
    victim, attacker = loopback_exchange(
        PI, 200, 37, b"v", b"a", victim_session_cls=TamperedTableVictim
    )
    for side in (victim, attacker):
        assert side.transcript.records[-1].msg_type == "ABORT"
    path = tmp_path / "aborted.transcript"
    persist_transcript(attacker.transcript, path)
    assert load_transcript(path).records == attacker.transcript.records


def test_transcript_shape_independent_of_attacker_report():
    shapes = set()
    for theta_a in (0, 37, 254):
        v, a = loopback_run(PI, 200, theta_a, b"v", b"a%d" % theta_a)
        shapes.add(tuple(v.transcript.shape()))
        assert tuple(a.transcript.shape()) == tuple(
            (("received" if d == "sent" else "sent"), t, n)
            for d, t, n in v.transcript.shape()
        )
    assert len(shapes) == 1


def test_transcript_shape_independent_of_victim_report():
    shapes = {
        tuple(loopback_run(PI, theta_v, 37, b"v", b"a")[1].transcript.shape())
        for theta_v in (0, 128, 255)
    }
    assert len(shapes) == 1


def test_ot_message_sizes_follow_the_bit_triples():
    # one label per input bit the circuit reads of the victim's; 33 bytes
    # per triple of the attacker's and eight 48-byte ciphertexts per
    # triple, for every report.  (16, 32) at q = 1/4 reads 49 bits of each
    # party, which leaves a third-full last triple; (8, 8) and (5, 8) leave
    # two thirds, and (8, 6) fills all five triples
    odd = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 5, 0)
    full = PiProfile(Fraction(1, 4), Fraction(2, 3), 6, 8, 0)
    wide = PiProfile(Fraction(1, 4), Fraction(2, 3), 32, 16, 0)
    filled = set()
    for pi, reports in (
        (PI, [(200, 0), (0, 255)]),
        (odd, [(31, 0), (0, 31), (20, 9)]),
        (full, [(63, 0), (40, 9)]),
        (wide, [(60000, 0), (0, 65535), (40000, 9000)]),
    ):
        circuit = build_mechanism_circuit(pi.params(), pi.scaled)
        transfers = _transfers(circuit)
        filled.add(circuit.attacker_inputs % BITS_PER_TRANSFER)
        for theta_v, theta_a in reports:
            v, a = loopback_run(pi, theta_v, theta_a, b"v-odd", b"a-odd")
            assert v.outcome == a.outcome == oracle(pi, v, a)
            sizes = {t: n for _, t, n in v.transcript.shape()}
            assert sizes["GARBLER_INPUT_LABELS"] == LABEL_BYTES * circuit.victim_inputs
            assert sizes["OT_MSG2"] == ELEMENT_BYTES * transfers
            assert sizes["OT_MSG3"] == BRANCHES * 48 * transfers
    assert filled == {0, 1, 2}
    assert (circuit.victim_inputs, circuit.attacker_inputs) == (49, 49)
    assert {t: sizes[t] for t in ("CIRCUIT", "GARBLER_INPUT_LABELS", "OT_MSG2", "OT_MSG3")} == {
        "CIRCUIT": 11_884, "GARBLER_INPUT_LABELS": 784, "OT_MSG2": 561, "OT_MSG3": 6_528,
    }


def _send_frame(sock, msg_type, payload=b""):
    sock.sendall(struct.pack("<IB", len(payload) + 1, msg_type) + payload)


def _read_frame(sock):
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack("<I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return body[0], body[1:]


def _victim_in_thread(timeout=2.0):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    config = NegotiationConfig(PI, 200, listener.getsockname(), timeout)
    box = {}

    def main():
        try:
            box["result"] = run_victim(config, b"v", listener)
        except Exception as exc:
            box["result"] = exc

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return listener.getsockname(), thread, box


def test_unexpected_message_type_gets_an_abort_reply():
    address, thread, box = _victim_in_thread()
    with socket.create_connection(address, timeout=2) as sock:
        sock.settimeout(2)
        frame = _read_frame(sock)
        assert frame is not None and frame[0] == 1  # HELLO
        _send_frame(sock, MSG_RESULT_ACK, b"\x00" * 10)
        reply = _read_frame(sock)
        assert reply is not None and reply[0] == MSG_ABORT
        assert reply[1] == b"pi-agreement"
    thread.join(5)
    assert isinstance(box["result"], NegotiationAbort)
    assert box["result"].stage == "pi-agreement"


def test_fuzzed_junk_never_hangs_or_leaks_odd_errors():
    rng = random.Random(20240814)
    for _ in range(8):
        address, thread, box = _victim_in_thread(timeout=1.0)
        with socket.create_connection(address, timeout=2) as sock:
            sock.sendall(rng.randbytes(rng.randrange(1, 400)))
        thread.join(10)
        assert not thread.is_alive()
        assert isinstance(box["result"], (NegotiationAbort, TransportFailure))


def test_client_abort_frame_is_surfaced():
    address, thread, box = _victim_in_thread()
    with socket.create_connection(address, timeout=2) as sock:
        assert _read_frame(sock)[0] == 1
        _send_frame(sock, MSG_ABORT, b"changed-my-mind")
    thread.join(5)
    assert isinstance(box["result"], NegotiationAbort)
    assert box["result"].stage == "peer-abort"
    assert box["result"].detail == "changed-my-mind"


def test_step_timeout_aborts_with_stage_tag():
    address, thread, box = _victim_in_thread(timeout=0.5)
    with socket.create_connection(address, timeout=5) as sock:
        sock.settimeout(5)
        assert _read_frame(sock)[0] == 1  # HELLO
        # stall instead of acking; the victim must abort the step
        reply = _read_frame(sock)
        assert reply is not None and reply[0] == MSG_ABORT
        assert reply[1] == b"timeout:pi-agreement"
    thread.join(5)
    assert isinstance(box["result"], NegotiationAbort)
    assert box["result"].stage == "timeout:pi-agreement"


def test_trickling_peer_cannot_outlast_the_step_deadline():
    address, thread, box = _victim_in_thread(timeout=0.5)
    start = time.monotonic()
    with socket.create_connection(address, timeout=2) as sock:
        assert _read_frame(sock)[0] == 1  # HELLO
        # promise a 1000-byte frame, then feed it one byte per 0.2 s: each
        # read beats a per-read timeout, but the step's deadline still passes
        sock.sendall(struct.pack("<I", 1000))
        while thread.is_alive() and time.monotonic() - start < 4:
            try:
                sock.sendall(b"\x00")
            except OSError:
                break
            thread.join(0.2)
    thread.join(1)
    assert not thread.is_alive()
    assert time.monotonic() - start < 2
    assert isinstance(box["result"], NegotiationAbort)
    assert box["result"].stage == "timeout:pi-agreement"


def test_channel_timeout_is_its_budget_again_after_each_frame():
    # the reads shorten the socket's timeout toward the frame's deadline;
    # sends after them must not inherit what was left of it
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = socket.create_connection(listener.getsockname(), timeout=2)
        conn, _ = listener.accept()
    with peer, conn:
        channel = _Channel(conn, SessionTranscript(), 0.5)
        channel.stage = "pi-agreement"
        _send_frame(peer, MSG_HELLO, b"profile")
        assert channel.recv(MSG_HELLO) == b"profile"
        assert channel.sock.gettimeout() == channel.budget == 0.5
        with pytest.raises(NegotiationAbort, match="timeout:pi-agreement"):
            channel.recv(MSG_PI_ACK)
        assert channel.sock.gettimeout() == channel.budget
        assert _read_frame(peer) == (MSG_ABORT, b"timeout:pi-agreement")


def test_connection_drop_mid_session_is_a_transport_failure():
    address, thread, box = _victim_in_thread(timeout=1.0)
    with socket.create_connection(address, timeout=2) as sock:
        assert _read_frame(sock)[0] == 1
        _send_frame(sock, MSG_PI_ACK)
    thread.join(10)
    assert isinstance(box["result"], TransportFailure)


def test_listener_timeout_without_peer():
    config = NegotiationConfig(PI, 200, ("127.0.0.1", 0), 0.3)
    with pytest.raises(TransportFailure):
        run_victim(config, b"v")


def test_seeded_randomness_replays_and_unseeded_differs():
    a = SessionRandomness(b"seed")
    b = SessionRandomness(b"seed")
    assert [a.word(16) for _ in range(4)] == [b.word(16) for _ in range(4)]
    assert a.seed_bytes() == b.seed_bytes()
    c, d = SessionRandomness(), SessionRandomness()
    assert c.seed_bytes() != d.seed_bytes()


def test_profile_validation_and_canonical_bytes():
    # equal profiles have equal bytes, however their fractions were written
    same = PiProfile(Fraction(2, 8), Fraction(4, 6), 8, 8, Fraction(6, 2))
    assert same == PI and same.to_bytes() == PI.to_bytes()
    assert len(PI.to_bytes()) == _PI_WIRE.size
    with pytest.raises(ValueError):
        PiProfile(Fraction(1, 4), Fraction(1, 2), 8, 8, Fraction(3))  # constraint
    with pytest.raises(ValueError):
        NegotiationConfig(PI, 256)  # report too wide


def test_config_bounds_the_port_and_the_timeout():
    for port in (0, 65535):
        NegotiationConfig(PI, 200, ("127.0.0.1", port))
    NegotiationConfig(PI, 200, timeout=MAX_TIMEOUT)
    for port in (-1, 65536, 70000):
        with pytest.raises(ValueError, match="port"):
            NegotiationConfig(PI, 200, ("127.0.0.1", port))
    for timeout in (0, -1.0, float("nan"), float("inf"), MAX_TIMEOUT * 2, 1e300):
        with pytest.raises(ValueError, match="timeout"):
            NegotiationConfig(PI, 200, timeout=timeout)


def test_profile_refuses_a_p_bar_that_q_does_not_pin():
    # the HELLO bytes carry p_bar, so the profile is the one place that
    # still takes it; it must be exactly 1 / (2(1 - q))
    with pytest.raises(ValueError, match=r"must equal 1/2 exactly"):
        PiProfile("1/4", "0.67", 8, 8, 0)
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1/2\]"):
        PiProfile("3/5", "5/4", 8, 8, 0)
    assert PiProfile("3/8", "4/5", 8, 8, 0).params().p_bar == Fraction(4, 5)


def test_profile_rejects_what_its_wire_form_cannot_carry():
    q, p_bar = Fraction(1, 4), Fraction(2, 3)
    for t_e in (-1, Fraction(-1, 2), Fraction(1, 2**64 + 1), Fraction(2**64)):
        with pytest.raises(ValueError):
            PiProfile(q, p_bar, 8, 8, t_e)
    with pytest.raises(ValueError):
        PiProfile(q, p_bar, 2**32, 8, 0)
    # the widest profile the wire form carries is still agreed and settled
    widest = PiProfile(q, p_bar, 8, 8, Fraction(2**64 - 1, 2**64 - 2))
    v, a = loopback_run(widest, 200, 37, b"v", b"a")
    assert v.outcome == a.outcome == oracle(widest, v, a)


def test_empty_transcript_roundtrip(tmp_path):
    path = tmp_path / "empty.transcript"
    persist_transcript(SessionTranscript(), path)
    assert load_transcript(path).records == []


_PI_WIRE = struct.Struct("<QQQQIIQQ")
_CANONICAL = PI.to_bytes()


def _flip_one_byte(position, mask):
    data = bytearray(_CANONICAL)
    data[position] ^= mask
    return bytes(data)


# HELLO payloads that differ from the profile's canonical bytes: junk,
# truncated or extended, one byte flipped, and the same profile with its
# fractions unreduced (q sent as 2/8, say)
_UNEQUAL_HELLOS = (
    st.binary(max_size=80).filter(lambda data: data != _CANONICAL)
    | st.integers(0, len(_CANONICAL) - 1).map(lambda n: _CANONICAL[:n])
    | st.binary(min_size=1, max_size=16).map(lambda tail: _CANONICAL + tail)
    | st.builds(_flip_one_byte, st.integers(0, len(_CANONICAL) - 1), st.integers(1, 255))
    | st.integers(2, 2**61).map(lambda m: _PI_WIRE.pack(m, 4 * m, 2 * m, 3 * m, 8, 8, 3 * m, m))
)


class ProposingVictim(VictimSession):
    """Proposes ``hello`` in place of its profile's canonical bytes."""

    hello = b""

    def _agree_profile(self):
        self.channel.send(MSG_HELLO, self.hello)
        self.channel.recv(MSG_PI_ACK)


@settings(max_examples=60, deadline=None)
@given(_UNEQUAL_HELLOS)
def test_hello_unequal_to_the_profile_bytes_aborts_at_pi_agreement(hello):
    victim_cls = type("Proposing", (ProposingVictim,), {"hello": hello})
    victim, attacker = loopback_exchange(PI, 200, 37, b"v", b"a", victim_session_cls=victim_cls)
    assert isinstance(attacker, NegotiationAbort)
    assert attacker.stage == "pi-agreement"
    assert [r.msg_type for r in attacker.transcript.records] == ["HELLO", "ABORT"]
    assert isinstance(victim, NegotiationAbort)
    assert victim.stage == "peer-abort" and victim.detail == "pi-agreement"

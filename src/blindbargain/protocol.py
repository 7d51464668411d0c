"""Five-step settlement protocol over TCP.

The victim listens, garbles, and serves labels; the attacker connects,
checks the circuit, evaluates, and returns the output labels:

  1. victim proposes the profile (q, p_bar, k, k_theta, t_e); the
     attacker acks it if the bytes equal its own profile's, else aborts,
  2. victim builds the circuit from the profile, garbles it, and sends
     the garbled tables with output commitments,
  3. victim sends its own input labels directly and serves the
     attacker's through oblivious transfer, so neither report nor
     random word crosses the wire in the clear; only the input bits
     the circuit reads have labels,
  4. attacker independently rebuilds the circuit from the agreed
     profile and compares digests before evaluating; a mismatch aborts,
  5. attacker sends the output labels back; the victim verifies them
     against its commitments, decodes, and acks the plaintext result,
     which the attacker cross-checks against its own extraction.

Each step names its abort stage once, in its role's ``run``; a failed
check inside a step, or a stall or wrong message there, aborts at that
stage.  Every message is length-prefixed; ABORT is legal in any state
and carries the stage tag of the failed check.  Transcripts record only
direction, type, length, and a payload digest, never the remote party's
plaintext report.  Check failures raise NegotiationAbort, transport
problems raise TransportFailure; both carry the transcript so the CLI
can persist it.
"""

from __future__ import annotations

import hashlib
import random
import socket
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import (
    Circuit,
    build_mechanism_circuit,
    circuit_digest,
    decode_outcome,
    party_input_bits,
)
from .garbling import (
    LABEL_BYTES,
    WireLabel,
    decode_and_prove,
    deserialize_garbled,
    evaluate,
    garble,
    select_labels,
    serialize_garbled,
)
from .losses import MoneyLike, as_money
from .mechanism import MechanismOutcome, MechanismParams, ScaledParams
from .ot import OtReceiver, OtSender

MSG_HELLO = 1
MSG_PI_ACK = 2
MSG_CIRCUIT = 3
MSG_GARBLER_INPUT_LABELS = 4
MSG_OT_MSG1 = 5
MSG_OT_MSG2 = 6
MSG_OT_MSG3 = 7
MSG_OUTPUT_LABELS = 8
MSG_RESULT_ACK = 9
MSG_ABORT = 10

MSG_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_PI_ACK: "PI_ACK",
    MSG_CIRCUIT: "CIRCUIT",
    MSG_GARBLER_INPUT_LABELS: "GARBLER_INPUT_LABELS",
    MSG_OT_MSG1: "OT_MSG1",
    MSG_OT_MSG2: "OT_MSG2",
    MSG_OT_MSG3: "OT_MSG3",
    MSG_OUTPUT_LABELS: "OUTPUT_LABELS",
    MSG_RESULT_ACK: "RESULT_ACK",
    MSG_ABORT: "ABORT",
}

MAX_FRAME = 1 << 26
DEFAULT_TIMEOUT = 10.0
MAX_TIMEOUT = 1e9  # seconds; socket timeouts overflow near 9.2e9
SEED_BYTES = 32

_PI_STRUCT = struct.Struct("<QQQQIIQQ")
_RESULT_STRUCT = struct.Struct("<QBB")


class NegotiationAbort(Exception):
    """A protocol check failed; ``stage`` names the failed step."""

    def __init__(self, stage: str, detail: str = "", transcript=None):
        super().__init__(f"negotiation aborted at {stage}" + (f": {detail}" if detail else ""))
        self.stage = stage
        self.detail = detail
        self.transcript = transcript


class TransportFailure(Exception):
    """The channel died or misbehaved below the protocol layer."""

    def __init__(self, detail: str, transcript=None):
        super().__init__(detail)
        self.transcript = transcript


@dataclass(frozen=True)
class PiProfile:
    """The public strategy profile both parties must agree on.

    Construction validates it and scales it once; ``params()`` and
    ``scaled`` are derived from the five fields and take no part in
    equality.  Equal profiles have equal ``to_bytes()``, the form the
    parties compare.
    """

    q: Fraction
    p_bar: Fraction
    k: int
    k_theta: int
    t_e: Fraction
    scaled: ScaledParams = field(init=False, repr=False, compare=False)
    _params: MechanismParams = field(init=False, repr=False, compare=False)

    def __init__(self, q: MoneyLike, p_bar: MoneyLike, k: int, k_theta: int, t_e: MoneyLike):
        object.__setattr__(self, "q", as_money(q))
        object.__setattr__(self, "p_bar", as_money(p_bar))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "k_theta", int(k_theta))
        object.__setattr__(self, "t_e", as_money(t_e))
        params = MechanismParams(self.q, self.k_theta, self.k)
        if self.p_bar != params.p_bar:
            raise ValueError("p_bar * (1 - q) must equal 1/2 exactly")
        if self.t_e < 0:
            raise ValueError("t_e must be >= 0")
        try:
            self.to_bytes()
        except struct.error:
            raise ValueError(
                "profile does not fit its wire form: numerators and denominators "
                "must be below 2^64, bitwidths below 2^32"
            ) from None
        # A profile that cannot be scaled (q = 0, products too wide) must
        # never be agreed.  A non-dyadic q warns about rounding here, at
        # configuration time.
        object.__setattr__(self, "scaled", ScaledParams.from_params(params))
        object.__setattr__(self, "_params", params)

    def params(self) -> MechanismParams:
        return self._params

    def to_bytes(self) -> bytes:
        return _PI_STRUCT.pack(
            self.q.numerator,
            self.q.denominator,
            self.p_bar.numerator,
            self.p_bar.denominator,
            self.k,
            self.k_theta,
            self.t_e.numerator,
            self.t_e.denominator,
        )


@dataclass(frozen=True)
class NegotiationConfig:
    """One party's view of a session: profile, private report, and peer."""

    pi: PiProfile
    theta_hat: int
    address: tuple[str, int] = ("127.0.0.1", 0)
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not 0 <= self.theta_hat < (1 << self.pi.k_theta):
            raise ValueError(f"report does not fit in k_theta={self.pi.k_theta} bits")
        if not 0 <= self.address[1] <= 0xFFFF:
            raise ValueError(f"port must lie in 0..65535, got {self.address[1]}")
        if not 0 < self.timeout <= MAX_TIMEOUT:  # nan fails too
            raise ValueError(f"timeout must lie in (0, {MAX_TIMEOUT:g}] s, got {self.timeout}")


@dataclass(frozen=True)
class TranscriptRecord:
    direction: str
    msg_type: str
    length: int
    payload_sha256: str
    timestamp: float


@dataclass
class SessionTranscript:
    """Append-only audit log of framed messages; no remote plaintext."""

    records: list[TranscriptRecord] = field(default_factory=list)

    def append(self, direction: str, msg_type: int, payload: bytes) -> None:
        self.records.append(
            TranscriptRecord(
                direction,
                MSG_NAMES.get(msg_type, f"TYPE{msg_type}"),
                len(payload),
                hashlib.sha256(payload).hexdigest(),
                time.time(),
            )
        )

    def shape(self) -> list[tuple[str, str, int]]:
        """(direction, type, length) triples: the privacy-visible surface."""
        return [(r.direction, r.msg_type, r.length) for r in self.records]

    def payload_digests(self) -> list[str]:
        return [r.payload_sha256 for r in self.records]


def persist_transcript(transcript: SessionTranscript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in transcript.records:
            fh.write(
                f"{r.direction}\t{r.msg_type}\t{r.length}\t{r.payload_sha256}\t{r.timestamp!r}\n"
            )


def load_transcript(path) -> SessionTranscript:
    transcript = SessionTranscript()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            direction, msg_type, length, digest, ts = line.split("\t")
            transcript.records.append(
                TranscriptRecord(direction, msg_type, int(length), digest, float(ts))
            )
    return transcript


class SessionRandomness:
    """A party's private randomness; seed it only in tests.

    One generator serves every draw: ``random.Random(seed)`` when
    seeded, so runs replay exactly, else ``random.SystemRandom()``,
    which reads ``os.urandom``.
    """

    def __init__(self, seed: bytes | None = None):
        self._rng = random.SystemRandom() if seed is None else random.Random(seed)

    def word(self, bits: int) -> int:
        return self._rng.getrandbits(bits)

    def seed_bytes(self) -> bytes:
        return self._rng.randbytes(SEED_BYTES)


@dataclass(frozen=True)
class NegotiationResult:
    """What one party walks away with, plus its own secret draws."""

    outcome: MechanismOutcome
    transcript: SessionTranscript
    own_words: tuple[int, int]
    theta_hat: int


class _Channel:
    """Framed messages over one socket, recording a transcript.

    ``budget`` is the channel's time for reading one frame, and the
    socket's timeout between reads.  ``step`` names the protocol step
    under way: ``recv`` tags its aborts with that stage, and a failed
    check inside the step aborts there.
    """

    def __init__(self, sock: socket.socket, transcript: SessionTranscript, budget: float):
        sock.settimeout(budget)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.transcript = transcript
        self.budget = budget
        self.stage: str | None = None

    @contextmanager
    def step(self, stage: str):
        """Run one protocol step; a ValueError raised in it aborts at ``stage``.

        Every check failure of the lower layers (``OtProtocolError``,
        ``LabelDecodeError``, ``DigestMismatch``) is a ValueError.
        """
        self.stage = stage
        try:
            yield
        except ValueError as exc:
            self.abort(stage, str(exc))

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        frame = struct.pack("<IB", len(payload) + 1, msg_type) + payload
        try:
            self.sock.sendall(frame)
        except OSError as exc:
            raise TransportFailure(f"send failed: {exc}", self.transcript) from exc
        self.transcript.append("sent", msg_type, payload)

    def _read_exact(self, n: int, deadline: float) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:  # passed between reads: same exit
                    raise socket.timeout
                self.sock.settimeout(remaining)
                chunk = self.sock.recv(n - len(buf))
            except socket.timeout:
                # the ABORT frame goes out under the full budget
                self.sock.settimeout(self.budget)
                self.abort(f"timeout:{self.stage}")
            except OSError as exc:
                raise TransportFailure(f"recv failed: {exc}", self.transcript) from exc
            if not chunk:
                raise TransportFailure("peer closed the connection", self.transcript)
            buf.extend(chunk)
        return bytes(buf)

    def recv(self, msg_type: int) -> bytes:
        """Read one frame's payload; only ``msg_type`` (and ABORT) is legal.

        The whole frame must arrive within the channel's budget, before
        one monotonic deadline, so a peer trickling bytes cannot hold the
        step open.  Missing it is a protocol-level abort at
        ``timeout:<stage>``, not a transport failure: the channel is
        still up, the peer stalled.  After a frame or a timeout, the
        socket's timeout is the budget again.
        """
        deadline = time.monotonic() + self.budget
        (length,) = struct.unpack("<I", self._read_exact(4, deadline))
        if not 1 <= length <= MAX_FRAME:
            raise TransportFailure(f"invalid frame length {length}", self.transcript)
        body = self._read_exact(length, deadline)
        self.sock.settimeout(self.budget)
        received, payload = body[0], body[1:]
        self.transcript.append("received", received, payload)
        if received == MSG_ABORT:
            raise NegotiationAbort(
                "peer-abort", payload.decode("utf-8", "replace"), self.transcript
            )
        if received != msg_type:
            self.abort(self.stage, f"unexpected message type {received}")
        return payload

    def abort(self, stage: str, detail: str = "") -> None:
        try:
            self.send(MSG_ABORT, stage.encode("utf-8"))
        except TransportFailure:
            pass
        raise NegotiationAbort(stage, detail, self.transcript)


def _parse_labels(payload: bytes, count: int) -> list[bytes]:
    if len(payload) != count * LABEL_BYTES:
        raise ValueError(f"expected {count} labels")
    return [payload[i : i + LABEL_BYTES] for i in range(0, len(payload), LABEL_BYTES)]


class _Session:
    """One party's side of a session over an open channel.

    The step methods exist so tests can subclass a malicious variant;
    the honest flow is ``run``, which wraps each step in the channel's
    ``step`` so overrides abort at the same stage.
    """

    def __init__(
        self,
        config: NegotiationConfig,
        channel: _Channel,
        randomness: SessionRandomness,
    ):
        self.config = config
        self.channel = channel
        self.randomness = randomness
        self.params = config.pi.params()
        self.scaled = config.pi.scaled

    def _draw_inputs(self, circuit: Circuit, positions: tuple[int, ...]):
        """Draw this party's two random words; returns them with the input
        bits the circuit reads at ``positions``.

        Both words are drawn in full whatever the circuit reads, so the
        draws, and the settled outcome, do not depend on the pruning.
        """
        k = self.config.pi.k
        s0, s1 = self.randomness.word(k), self.randomness.word(k)
        return s0, s1, party_input_bits(circuit, positions, s0, s1, self.config.theta_hat)


class VictimSession(_Session):
    """Garbler side: proposes the profile, serves labels, verifies output."""

    def run(self) -> NegotiationResult:
        with self.channel.step("pi-agreement"):
            self._agree_profile()
        circuit, material = self._build_and_garble()
        self.channel.send(MSG_CIRCUIT, serialize_garbled(material.garbled))
        s0, s1 = self._send_own_labels(circuit, material)
        with self.channel.step("ot"):
            self._serve_ot(circuit, material)
        with self.channel.step("output-verify"):
            outcome = self._receive_output(circuit, material)
        return NegotiationResult(
            outcome, self.channel.transcript, (s0, s1), self.config.theta_hat
        )

    def _agree_profile(self) -> None:
        self.channel.send(MSG_HELLO, self.config.pi.to_bytes())
        self.channel.recv(MSG_PI_ACK)

    def _build_and_garble(self):
        circuit = build_mechanism_circuit(self.params, self.scaled)
        material = garble(circuit, self.randomness.seed_bytes())
        return circuit, material

    def _send_own_labels(self, circuit: Circuit, material):
        s0, s1, bits = self._draw_inputs(circuit, circuit.victim_positions)
        labels = select_labels(material.input_labels[: circuit.victim_inputs], bits)
        self.channel.send(MSG_GARBLER_INPUT_LABELS, b"".join(labels))
        return s0, s1

    def _serve_ot(self, circuit: Circuit, material) -> None:
        sender = OtSender(
            material.input_labels[circuit.victim_inputs :], self.randomness.word
        )
        self.channel.send(MSG_OT_MSG1, sender.public_message())
        blinded = self.channel.recv(MSG_OT_MSG2)
        self.channel.send(MSG_OT_MSG3, sender.respond(blinded))

    def _receive_output(self, circuit: Circuit, material) -> MechanismOutcome:
        payload = self.channel.recv(MSG_OUTPUT_LABELS)
        labels = _parse_labels(payload, len(material.garbled.output_decode))
        proof = [WireLabel(label) for label in labels]
        outcome = decode_outcome(circuit, decode_and_prove(material.garbled, proof))
        self.channel.send(
            MSG_RESULT_ACK,
            _RESULT_STRUCT.pack(int(outcome.r_f), outcome.alpha, outcome.sigma),
        )
        return outcome


class AttackerSession(_Session):
    """Evaluator side: checks the circuit against the agreed profile,
    fetches its labels by OT, evaluates, and returns the output labels."""

    def run(self) -> NegotiationResult:
        with self.channel.step("pi-agreement"):
            self._agree_profile()
        with self.channel.step("circuit-check"):
            gc, circuit = self._receive_and_check_circuit()
        with self.channel.step("victim-labels"):
            victim_labels = self._receive_victim_labels(circuit)
        with self.channel.step("ot"):
            own_labels, s0, s1 = self._run_ot(circuit)
        with self.channel.step("extract"):
            outcome, proof = self._evaluate(gc, circuit, victim_labels + own_labels)
        self.channel.send(MSG_OUTPUT_LABELS, b"".join(l.bits for l in proof))
        with self.channel.step("result"):
            self._check_result_ack(outcome)
        return NegotiationResult(
            outcome, self.channel.transcript, (s0, s1), self.config.theta_hat
        )

    def _agree_profile(self) -> None:
        # equal profiles have equal canonical bytes, so the proposal is
        # compared, never parsed
        if self.channel.recv(MSG_HELLO) != self.config.pi.to_bytes():
            raise ValueError("profile does not match configuration")
        self.channel.send(MSG_PI_ACK)

    def _receive_and_check_circuit(self):
        gc = deserialize_garbled(self.channel.recv(MSG_CIRCUIT))
        # rebuild from the agreed profile; the digest pins the garbled
        # tables to exactly that circuit
        circuit = build_mechanism_circuit(self.params, self.scaled)
        if circuit_digest(circuit) != gc.base_circuit_digest:
            raise ValueError("digest does not match the profile")
        if len(gc.tables) != circuit.and_count:
            raise ValueError("table count does not match")
        if len(gc.output_decode) != len(circuit.outputs):
            raise ValueError("output commitment count mismatch")
        return gc, circuit

    def _receive_victim_labels(self, circuit: Circuit):
        payload = self.channel.recv(MSG_GARBLER_INPUT_LABELS)
        return _parse_labels(payload, circuit.victim_inputs)

    def _run_ot(self, circuit: Circuit):
        s0, s1, bits = self._draw_inputs(circuit, circuit.attacker_positions)
        receiver = OtReceiver(bits, self.randomness.word)
        blinded = receiver.blind(self.channel.recv(MSG_OT_MSG1))
        self.channel.send(MSG_OT_MSG2, blinded)
        return receiver.unwrap(self.channel.recv(MSG_OT_MSG3)), s0, s1

    def _evaluate(self, gc, circuit: Circuit, labels):
        output_labels = evaluate(gc, circuit, labels)
        outcome = decode_outcome(circuit, decode_and_prove(gc, output_labels))
        return outcome, output_labels

    def _check_result_ack(self, outcome: MechanismOutcome) -> None:
        payload = self.channel.recv(MSG_RESULT_ACK)
        if len(payload) != _RESULT_STRUCT.size:
            raise ValueError("malformed result payload")
        if _RESULT_STRUCT.unpack(payload) != (int(outcome.r_f), outcome.alpha, outcome.sigma):
            raise ValueError("peer decoded a different outcome")


def run_victim(
    config: NegotiationConfig,
    seed: bytes | None = None,
    listener: socket.socket | None = None,
    session_cls: type[VictimSession] = VictimSession,
) -> NegotiationResult:
    """Listen for one attacker connection and settle; returns the result.

    ``listener`` lets callers pre-bind (port 0 in tests); otherwise the
    configured address is bound here.  ``session_cls`` is a test hook
    for malicious-garbler variants.
    """
    transcript = SessionTranscript()
    own_listener = listener is None
    if own_listener:
        family = socket.AF_INET6 if ":" in config.address[0] else socket.AF_INET
        try:
            listener = socket.create_server(config.address, family=family, backlog=1)
        except OSError as exc:
            raise TransportFailure(f"cannot listen: {exc}", transcript) from exc
    listener.settimeout(config.timeout)
    try:
        try:
            conn, _ = listener.accept()
        except socket.timeout as exc:
            raise TransportFailure("no peer connected", transcript) from exc
        except OSError as exc:
            raise TransportFailure(f"accept failed: {exc}", transcript) from exc
        with conn:
            channel = _Channel(conn, transcript, config.timeout)
            session = session_cls(config, channel, SessionRandomness(seed))
            return session.run()
    finally:
        if own_listener:
            listener.close()


def run_attacker(
    config: NegotiationConfig,
    seed: bytes | None = None,
    session_cls: type[AttackerSession] = AttackerSession,
) -> NegotiationResult:
    """Connect to the victim and settle; returns the result."""
    transcript = SessionTranscript()
    try:
        sock = socket.create_connection(config.address, timeout=config.timeout)
    except OSError as exc:
        raise TransportFailure(f"cannot connect: {exc}", transcript) from exc
    with sock:
        channel = _Channel(sock, transcript, config.timeout)
        session = session_cls(config, channel, SessionRandomness(seed))
        return session.run()


def loopback_exchange(
    pi: PiProfile,
    theta_v: int,
    theta_a: int,
    victim_seed: bytes | None = None,
    attacker_seed: bytes | None = None,
    victim_session_cls: type[VictimSession] = VictimSession,
    attacker_session_cls: type[AttackerSession] = AttackerSession,
    victim_pi: PiProfile | None = None,
):
    """Run both roles on loopback threads without raising.

    Returns (victim side, attacker side) where each is either a
    NegotiationResult or the exception that ended that side.
    ``victim_pi`` lets tests hand the garbler a divergent profile.
    """
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    address = listener.getsockname()
    victim_cfg = NegotiationConfig(victim_pi or pi, theta_v, address)
    attacker_cfg = NegotiationConfig(pi, theta_a, address)
    box: dict[str, object] = {}

    def victim_main():
        try:
            box["victim"] = run_victim(
                victim_cfg, victim_seed, listener, victim_session_cls
            )
        except Exception as exc:
            box["victim"] = exc

    thread = threading.Thread(target=victim_main, daemon=True)
    thread.start()
    try:
        try:
            box["attacker"] = run_attacker(
                attacker_cfg, attacker_seed, attacker_session_cls
            )
        except Exception as exc:
            box["attacker"] = exc
        thread.join(timeout=DEFAULT_TIMEOUT + 5)
    finally:
        listener.close()
    if thread.is_alive():
        raise TransportFailure("victim thread did not finish")
    return box["victim"], box["attacker"]


def loopback_run(
    pi: PiProfile,
    theta_v: int,
    theta_a: int,
    victim_seed: bytes | None = None,
    attacker_seed: bytes | None = None,
) -> tuple[NegotiationResult, NegotiationResult]:
    """Run both roles against each other on loopback threads.

    Returns (victim result, attacker result); an exception on either
    side is re-raised in the caller, victim's first.
    """
    victim, attacker = loopback_exchange(
        pi, theta_v, theta_a, victim_seed, attacker_seed
    )
    if isinstance(victim, Exception):
        raise victim
    if isinstance(attacker, Exception):
        raise attacker
    return victim, attacker

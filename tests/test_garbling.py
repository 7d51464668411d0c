"""Garbling correctness against the plaintext evaluator, free-XOR and
color-bit structure, tamper detection, and the label-transfer flows."""

import hashlib
import itertools
import random
import struct
import warnings
from fractions import Fraction

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindbargain import circuit as circuit_module
from blindbargain import ot as ot_module
from blindbargain.bench import GRID
from blindbargain.circuit import (
    Gate,
    GateKind,
    build_mechanism_circuit,
    decode_outcome,
    encode_inputs,
    eval_plain,
)
from blindbargain.garbling import (
    MAGIC,
    DigestMismatch,
    GarbledCircuit,
    LabelDecodeError,
    WireLabel,
    decode_and_prove,
    deserialize_garbled,
    evaluate,
    garble,
    select_labels,
    serialize_garbled,
)
from blindbargain.mechanism import (
    MechanismParams,
    Report,
    ScaledParams,
    ScalingWarning,
    outcome_fixed,
)
from blindbargain.ot import (
    BRANCHES,
    CURVE,
    ELEMENT_BYTES,
    FIELD_PRIME,
    ORDER,
    OtProtocolError,
    OtReceiver,
    OtSender,
    ot_transfer,
)
from test_circuit import _circuit

PARAMS = MechanismParams(Fraction(1, 4), 8, 8)
SCALED = ScaledParams.from_params(PARAMS)

# sha256 of serialize_garbled(garble(circuit, b"pin").garbled) for the
# profiles of test_circuit.GOLDEN_DIGESTS; pins the garbled wire bytes.
GOLDEN_GARBLED = {
    (Fraction(1, 4), 8, 8): "f1cb6197912619c2233bdba89df786404960ae18797c35c16664338df9f5fb08",
    (Fraction(1, 2), 8, 8): "76b8dc4bd3f491c951f1121466fd9d3da739e1c8d81a1a44b68550eabc825a25",
    (Fraction(1, 4), 4, 4): "022e1b99385fb2338ce15f5b9461b4be0766002baa16d1bc21f4c94d5eafc71a",
}
# The same for a non-dyadic profile, and per q of BENCH_QS one sha256
# over the blobs of its profile at every bench.GRID cell, in GRID order:
# the 36 profiles perfbench's settle-mixed workload settles.
BENCH_QS = (Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
            Fraction(3, 8), Fraction(1, 2))
GOLDEN_GARBLED_NON_DYADIC = {
    (Fraction(1, 3), 16, 32): "ab4b1b5b3cf3ccefda489d70b4864aca7f6d7a1af1a6ed4edac041733cc3a09d",
}
GOLDEN_GRID_GARBLED = {
    Fraction(1, 8): "0db23e3826f11d43d28f60522b20e1c4d9519559c5dc8c34bef47130da308303",
    Fraction(1, 5): "7e090b26fae69ead275d06d4eb15e79e21cb0dcbac7bead8fe8a1a398d80ae61",
    Fraction(1, 4): "c8d2e2d933ef882e4056986f3e4342f8597a9eb88b3ecbfddd9f1cce44758b96",
    Fraction(1, 3): "87237f26ea5cc204639cc6a930ca68d6277e7b69b1b60d7ebf5f298d1580da20",
    Fraction(3, 8): "02b19316362b9bf935590a0baaa341b10369bfe17b2b0b98f468990bc8b85cbb",
    Fraction(1, 2): "41ee5862644c5a08a9f99f94c4643d712314b1269bb3b50edde1a49e55eb0c09",
}
# sha256 of the seeded OtSender.respond output in test_ot_golden_bytes.
GOLDEN_OT = "86a391cbcdcfe60782784d2b53ff90e6a9f0c135717874741b4037da18c3cd7a"


def _tiny_circuit(kind):
    return _circuit(2, 0, (Gate(kind, 0, 1),), (2, 2, 2))


def _random_small_circuit(rng, n_inputs, n_gates):
    # every input is kept, read or not: the sweep feeds them all
    wires = list(range(n_inputs))
    gates = []
    for _ in range(n_gates):
        kind = rng.choice((GateKind.XOR, GateKind.AND, GateKind.NOT))
        a = rng.choice(wires)
        gates.append(Gate(kind, a, None if kind is GateKind.NOT else rng.choice(wires)))
        wires.append(len(wires))
    per = [n_inputs // 6 + (1 if i < n_inputs % 6 else 0) for i in range(6)]
    out = wires[-1]
    return _circuit(sum(per[:3]), sum(per[3:]), tuple(gates), (out, out, out))


def test_single_and_gate_truth_table():
    circuit = _tiny_circuit(GateKind.AND)
    material = garble(circuit, b"t")
    for a, b in itertools.product((0, 1), repeat=2):
        labels = select_labels(material.input_labels, [a, b])
        bits = decode_and_prove(
            material.garbled, evaluate(material.garbled, circuit, labels)
        )
        assert bits[0] == (a & b)


def _int(label):
    return int.from_bytes(label, "big")


def _offset(material):
    """The free-XOR offset, as the XOR of one input pair."""
    k0, k1 = material.input_labels[0]
    return bytes(x ^ y for x, y in zip(k0, k1))


def test_free_xor_structure():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    material = garble(circuit, b"free-xor")
    assert len(material.garbled.tables) == circuit.and_count
    delta = _int(_offset(material))
    for k0, k1 in material.input_labels + material.output_labels:
        assert _int(k1) == _int(k0) ^ delta
        assert _int(k0) & 1 != _int(k1) & 1
    assert delta & 1 == 1


def test_identity_wiring_passes_labels_through():
    # XOR with a zero wire, XOR(w1, w1): the output label is the input's.
    # The builder folds both gates away, so the circuit is built by hand.
    zero = Gate(GateKind.XOR, 1, 1)
    circuit = _circuit(2, 0, (zero, Gate(GateKind.XOR, 0, 2)), (3, 3, 3))
    material = garble(circuit, b"identity")
    for bit in (0, 1):
        labels = select_labels(material.input_labels, [bit, 0])
        outs = evaluate(material.garbled, circuit, labels)
        assert outs[0].bits == labels[0]


def test_small_circuits_match_plaintext_exhaustively():
    rng = random.Random(0x5EED)
    for trial in range(12):
        n_inputs = rng.randrange(6, 9)
        circuit = _random_small_circuit(rng, n_inputs, rng.randrange(4, 16))
        material = garble(circuit, bytes([trial]))
        for value in range(1 << n_inputs):
            bits = [(value >> i) & 1 for i in range(n_inputs)]
            labels = select_labels(material.input_labels, bits)
            got = decode_and_prove(
                material.garbled, evaluate(material.garbled, circuit, labels)
            )
            want = eval_plain(circuit, bits)
            assert got == want


def test_mechanism_circuit_garbled_matches_oracle():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    material = garble(circuit, b"mechanism")
    rng = random.Random(0x44)
    for _ in range(100):
        tv, ta = rng.randrange(256), rng.randrange(256)
        s0v, s1v = rng.randrange(256), rng.randrange(256)
        s0a, s1a = rng.randrange(256), rng.randrange(256)
        bits = encode_inputs(circuit, tv, ta, s0_v=s0v, s1_v=s1v, s0_a=s0a, s1_a=s1a)
        labels = select_labels(material.input_labels, bits)
        proof = evaluate(material.garbled, circuit, labels)
        decoded = decode_and_prove(material.garbled, proof)
        got = decode_outcome(circuit, decoded)
        want = outcome_fixed(PARAMS, SCALED, Report(tv, ta), s0v ^ s0a, s1v ^ s1a)
        assert got == want
        # the proof labels are exactly the issued ones
        for bit, label, pair in zip(decoded, proof, material.output_labels):
            assert label.bits == pair[bit]


def _build_quiet(q, kt, k):
    params = MechanismParams(q, kt, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingWarning)
        scaled = ScaledParams.from_params(params)
    return params, scaled, build_mechanism_circuit(params, scaled)


# The profiles whose ransom, when it was revealed at k_theta + 1 bits,
# had a top bit that folded to a constant: q = 1/40, whose q_scale
# floors to 0 for k <= 5, and one-bit reports at q = 1/4 and 1/3.
FOLDED_TOP_BIT_PROFILES = [
    (Fraction(1, 40), kt, k) for kt in (1, 4) for k in range(1, 6)
] + [(Fraction(1, 4), 1, k) for k in (1, 4, 8)] + [(Fraction(1, 3), 1, 1)]


def test_no_output_label_is_a_public_constant():
    # under free XOR a constant's labels would be 0 and the offset; every
    # revealed output is a wire with fresh labels instead
    rng = random.Random(0x40)
    for q, kt, k in FOLDED_TOP_BIT_PROFILES:
        params, scaled, circuit = _build_quiet(q, kt, k)
        material = garble(circuit, b"constant")
        public = {bytes(16), _offset(material)}
        for pair in material.output_labels:
            assert not set(pair) & public, (q, kt, k)
        for _ in range(20):
            tv, ta = rng.randrange(1 << kt), rng.randrange(1 << kt)
            s0, s1 = rng.randrange(1 << k), rng.randrange(1 << k)
            bits = encode_inputs(circuit, tv, ta, s0_v=s0, s1_v=s1, s0_a=0, s1_a=0)
            labels = select_labels(material.input_labels, bits)
            decoded = decode_and_prove(
                material.garbled, evaluate(material.garbled, circuit, labels)
            )
            assert decode_outcome(circuit, decoded) == outcome_fixed(
                params, scaled, Report(tv, ta), s0, s1
            ), (q, kt, k)


def test_garbling_is_deterministic_per_seed():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    blob = serialize_garbled(garble(circuit, b"pin").garbled)
    assert serialize_garbled(garble(circuit, b"pin").garbled) == blob
    assert serialize_garbled(garble(circuit, b"other").garbled) != blob
    assert deserialize_garbled(blob) == garble(circuit, b"pin").garbled


def test_garbled_golden_bytes():
    for (q, kt, k), expected in GOLDEN_GARBLED.items():
        params = MechanismParams(q, kt, k)
        circuit = build_mechanism_circuit(params, ScaledParams.from_params(params))
        blob = serialize_garbled(garble(circuit, b"pin").garbled)
        assert hashlib.sha256(blob).hexdigest() == expected


def _pinned_blob(q, kt, k):
    return serialize_garbled(garble(_build_quiet(q, kt, k)[2], b"pin").garbled)


def test_garbled_golden_bytes_non_dyadic_and_benchmark_profiles():
    for (q, kt, k), expected in GOLDEN_GARBLED_NON_DYADIC.items():
        assert hashlib.sha256(_pinned_blob(q, kt, k)).hexdigest() == expected
    pinned = {}
    for q in BENCH_QS:
        combined = hashlib.sha256()
        for kt, k in GRID:
            combined.update(_pinned_blob(q, kt, k))
        pinned[q] = combined.hexdigest()
    assert pinned == GOLDEN_GRID_GARBLED


def test_garbled_serialization_rejects_corrupt_blobs():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    blob = serialize_garbled(garble(circuit, b"x").garbled)
    with pytest.raises(ValueError):
        deserialize_garbled(blob[:20])
    with pytest.raises(ValueError):
        deserialize_garbled(b"YYYY" + blob[4:])
    with pytest.raises(ValueError):
        deserialize_garbled(blob + b"\x00")


def test_digest_mismatch_rejected_before_evaluation():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    other_scaled = ScaledParams(SCALED.p_scale, SCALED.q_scale + 1, SCALED.inv_q_scale)
    other = build_mechanism_circuit(PARAMS, other_scaled)
    material = garble(circuit, b"digest")
    bits = encode_inputs(circuit, 1, 1, s0_v=0, s1_v=0, s0_a=0, s1_a=0)
    labels = select_labels(material.input_labels, bits)
    with pytest.raises(DigestMismatch):
        evaluate(material.garbled, other, labels)


def test_tampered_table_fails_output_verification():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    material = garble(circuit, b"tamper")
    gc = material.garbled
    # poison every row of one early AND table so any path through it
    # corrupts the downstream labels
    victim = 10
    poisoned_rows = tuple(
        bytes([row[0] ^ 1]) + row[1:] for row in gc.tables[victim]
    )
    tampered = GarbledCircuit(
        gc.base_circuit_digest,
        gc.tables[:victim] + (poisoned_rows,) + gc.tables[victim + 1 :],
        gc.output_decode,
    )
    bits = encode_inputs(circuit, 200, 3, s0_v=17, s1_v=88, s0_a=0, s1_a=0)
    labels = select_labels(material.input_labels, bits)
    with pytest.raises(LabelDecodeError):
        decode_and_prove(tampered, evaluate(tampered, circuit, labels))


def test_substituted_output_label_rejected():
    circuit = _tiny_circuit(GateKind.AND)
    material = garble(circuit, b"swap")
    labels = select_labels(material.input_labels, [1, 1])
    outs = evaluate(material.garbled, circuit, labels)
    forged = (WireLabel(bytes(16)),) + outs[1:]
    with pytest.raises(LabelDecodeError):
        decode_and_prove(material.garbled, forged)


def test_zero_output_decodes_and_verifies():
    circuit = _tiny_circuit(GateKind.AND)
    material = garble(circuit, b"zero")
    labels = select_labels(material.input_labels, [0, 0])
    proof = evaluate(material.garbled, circuit, labels)
    bits = decode_and_prove(material.garbled, proof)
    assert set(bits) == {0}
    for label, pair in zip(proof, material.garbled.output_decode):
        assert hashlib.sha256(label.bits).digest() == pair[0]


def _seeded_bits(seed):
    rng = random.Random(seed)
    return rng.getrandbits


def test_ot_all_zero_choices():
    rng = random.Random(1)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16))
        for _ in range(10)
    ]
    got = ot_transfer(pairs, [0] * 10, _seeded_bits(2))
    assert got == [p[0] for p in pairs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
def test_ot_odd_bit_counts(n):
    # unless 3 divides n, the last transfer carries one or two real wires
    # and zero fillers
    rng = random.Random(40 + n)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(n)
    ]
    choices = [rng.randrange(2) for _ in range(n)]
    got = ot_transfer(pairs, choices, _seeded_bits(41 + n))
    assert got == [p[c] for p, c in zip(pairs, choices)]


def test_ot_interleaved_choices_over_eight_wires():
    rng = random.Random(3)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(8)
    ]
    choices = [0, 1, 0, 1, 0, 1, 0, 1]
    sender = OtSender(pairs, _seeded_bits(4))
    receiver = OtReceiver(choices, _seeded_bits(5))
    ciphertexts = sender.respond(receiver.blind(sender.public_message()))
    assert receiver.unwrap(ciphertexts) == [p[c] for p, c in zip(pairs, choices)]


def test_ot_scalar_multiplications_for_80_bits(monkeypatch):
    # 80 evaluator bits: 27 transfers, the last a third full, each two
    # sender exchanges (aB and (a - 1)B), one receiver derivation and
    # exchange, one decompression; plus A, (a - 1)G and a^2 G on the
    # sender, A on the receiver.  Neither side builds a public key from
    # coordinates.
    calls = dict.fromkeys(("derive", "decode", "exchange", "from_numbers"), 0)
    derive, decode = ec.derive_private_key, ec.EllipticCurvePublicKey.from_encoded_point
    from_numbers = ec.EllipticCurvePublicNumbers.public_key

    class CountingKey:
        def __init__(self, key):
            self._key = key

        def public_key(self):
            return self._key.public_key()

        def exchange(self, algorithm, peer):
            calls["exchange"] += 1
            return self._key.exchange(algorithm, peer)

    def counting_derive(value, curve):
        calls["derive"] += 1
        return CountingKey(derive(value, curve))

    def counting_decode(curve, data):
        calls["decode"] += 1
        return decode(curve, data)

    def counting_from_numbers(numbers):
        calls["from_numbers"] += 1
        return from_numbers(numbers)

    monkeypatch.setattr(ec, "derive_private_key", counting_derive)
    monkeypatch.setattr(
        ec.EllipticCurvePublicKey, "from_encoded_point", staticmethod(counting_decode)
    )
    monkeypatch.setattr(
        ec.EllipticCurvePublicNumbers, "public_key", counting_from_numbers
    )
    rng = random.Random(30)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(80)
    ]
    choices = [rng.randrange(2) for _ in range(80)]
    assert ot_transfer(pairs, choices, _seeded_bits(31)) == [
        p[c] for p, c in zip(pairs, choices)
    ]
    assert calls == {"derive": 30, "decode": 28, "exchange": 81, "from_numbers": 0}


def test_ot_golden_bytes():
    rng = random.Random(11)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(8)
    ]
    choices = [0, 1, 1, 0, 1, 0, 0, 1]
    sender = OtSender(pairs, _seeded_bits(12))
    receiver = OtReceiver(choices, _seeded_bits(13))
    ciphertexts = sender.respond(receiver.blind(sender.public_message()))
    assert hashlib.sha256(ciphertexts).hexdigest() == GOLDEN_OT
    assert receiver.unwrap(ciphertexts) == [p[c] for p, c in zip(pairs, choices)]


def test_ot_feeds_garbled_evaluation():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    material = garble(circuit, b"ot-integration")
    rng = random.Random(0x07)
    tv, s0v, s1v = rng.randrange(256), rng.randrange(256), rng.randrange(256)
    ta, s0a, s1a = rng.randrange(256), rng.randrange(256), rng.randrange(256)
    bits = encode_inputs(circuit, tv, ta, s0_v=s0v, s1_v=s1v, s0_a=s0a, s1_a=s1a)
    n_victim = circuit.victim_inputs
    victim_labels = select_labels(material.input_labels[:n_victim], bits[:n_victim])
    attacker_labels = ot_transfer(
        material.input_labels[n_victim:], bits[n_victim:], _seeded_bits(6)
    )
    decoded = decode_and_prove(
        material.garbled,
        evaluate(material.garbled, circuit, victim_labels + attacker_labels),
    )
    want = outcome_fixed(PARAMS, SCALED, Report(tv, ta), s0v ^ s0a, s1v ^ s1a)
    assert decode_outcome(circuit, decoded) == want


def test_ot_rejects_malformed_material():
    rng = random.Random(8)
    pairs = [(rng.randbytes(16), rng.randbytes(16))]
    with pytest.raises(OtProtocolError):
        OtReceiver([0], _seeded_bits(9)).blind(b"\x00" * ELEMENT_BYTES)
    with pytest.raises(OtProtocolError):
        OtReceiver([0], _seeded_bits(9)).blind(b"\x02" * 64)
    with pytest.raises(OtProtocolError):
        OtSender(pairs, _seeded_bits(9)).respond(b"\x00" * ELEMENT_BYTES)
    receiver = OtReceiver([0], _seeded_bits(9))
    with pytest.raises(OtProtocolError):
        receiver.unwrap(b"\x00" * 32)
    with pytest.raises(ValueError):
        ot_transfer(pairs, [0, 1], _seeded_bits(9))


def test_ot_rejects_points_off_the_curve():
    # x = 1 has no point: 1 - 3 + b is a non-square mod p (Euler's criterion)
    b = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
    assert pow(b - 2, (FIELD_PRIME - 1) // 2, FIELD_PRIME) == FIELD_PRIME - 1
    off_curve = b"\x02" + (1).to_bytes(32, "big")
    too_big_x = b"\x03" + FIELD_PRIME.to_bytes(32, "big")
    rng = random.Random(14)
    pairs = [(rng.randbytes(16), rng.randbytes(16))]
    for element in (off_curve, too_big_x):
        with pytest.raises(OtProtocolError, match="curve"):
            OtSender(pairs, _seeded_bits(15)).respond(element)
        with pytest.raises(OtProtocolError, match="curve"):
            OtReceiver([0], _seeded_bits(16)).blind(element)
    # a valid point in uncompressed form has the wrong length and prefix
    point = OtSender(pairs, _seeded_bits(15)).public_message()
    uncompressed = ec.EllipticCurvePublicKey.from_encoded_point(
        CURVE, point
    ).public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)
    for element in (uncompressed, b"\x04" + uncompressed[1:ELEMENT_BYTES]):
        with pytest.raises(OtProtocolError):
            OtReceiver([0], _seeded_bits(16)).blind(element)


def _compressed(scalar):
    """sG as a 33-byte element."""
    key = ec.derive_private_key(scalar % ORDER, CURVE)
    return key.public_key().public_bytes(Encoding.X962, PublicFormat.CompressedPoint)


def _negated(element):
    return bytes((element[0] ^ 1,)) + element[1:]


# (multiple of A, how the refusal names it): each one with its negative
_MULTIPLES = [(1, "A or -A")] + [(m, f"{m}A or -{m}A") for m in range(2, 9)]


def test_ot_sender_rejects_plus_or_minus_a():
    # aB - mT for m in 1..8 must all be finite and the additions'
    # denominators nonzero: x(B) in {x(A), ..., x(8A)} is refused
    rng = random.Random(19)
    pairs = [(rng.randbytes(16), rng.randbytes(16))]
    a = rng.getrandbits(255) | 2
    sender = OtSender(pairs, lambda _: a)
    assert sender.public_message() == _compressed(a)
    for m, name in _MULTIPLES:
        for element in (_compressed(m * a), _negated(_compressed(m * a))):
            with pytest.raises(OtProtocolError, match=f"element 0 is {name}$"):
                sender.respond(element)


def test_ot_sender_checks_every_element_before_inverting():
    # seven honest elements, then a refused multiple of A: one batch
    # inversion covers all eight, so the check has to name the last one
    # instead of dividing by 0
    rng = random.Random(25)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(24)
    ]
    a = rng.getrandbits(255) | 2
    sender = OtSender(pairs, lambda _: a)
    honest = OtReceiver([0, 1] * 12, _seeded_bits(27)).blind(sender.public_message())
    assert len(honest) == 8 * ELEMENT_BYTES
    for m, name in _MULTIPLES:
        for last in (_compressed(m * a), _negated(_compressed(m * a))):
            with pytest.raises(OtProtocolError, match=f"element 7 is {name}$"):
                sender.respond(honest[:-ELEMENT_BYTES] + last)


def test_ot_receiver_refuses_a_blinding_scalar_of_plus_or_minus_a():
    # b = +-ma puts bG at +-mA, and the receiver refuses all sixteen
    # whatever its choices: at bG = -(c + 1)A its bG + (c + 1)A has no
    # affine result, and every other one but 8A makes, for some c, a B
    # the sender refuses
    a = random.Random(28).getrandbits(255) | 2
    sender = OtSender([(bytes(16), bytes([1]) * 16)] * 24, lambda _: a)
    draws = [random.Random(29 + i).getrandbits(255) | 2 for i in range(7)]
    for m, name in _MULTIPLES:
        for last in (m * a % ORDER, -m * a % ORDER):
            scalars = iter(draws + [last])
            receiver = OtReceiver([0, 1] * 12, lambda _: next(scalars))
            with pytest.raises(OtProtocolError, match=f"blinding point 7 is {name}$"):
                receiver.blind(sender.public_message())
            with pytest.raises(OtProtocolError, match="unwrap before blind"):
                receiver.unwrap(bytes(8 * BRANCHES * 48))


def test_ot_receiver_refuses_a_blinded_point_the_sender_refuses():
    # bG = -(c + 1 + m)A lies off +-A ... +-8A when c + 1 + m > 8, yet
    # makes B = bG + (c + 1)A = -mA: the receiver refuses that B itself,
    # so an honest receiver never sends an element the sender refuses
    a = random.Random(32).getrandbits(255) | 2
    sender = OtSender([(bytes(16), bytes([1]) * 16)] * 3, lambda _: a)
    refused = 0
    for c in range(BRANCHES):
        for m, name in _MULTIPLES:
            if c + 1 + m <= BRANCHES:
                continue
            b = -(c + 1 + m) * a % ORDER
            receiver = OtReceiver([c & 1, c >> 1 & 1, c >> 2], lambda _: b)
            with pytest.raises(OtProtocolError, match=f"blinded point 0 is {name}$"):
                receiver.blind(sender.public_message())
            refused += 1
    assert refused == 36


def test_ot_receiver_work_does_not_depend_on_its_choices(monkeypatch):
    # every choice costs one point addition of bG and (c + 1)A; count the
    # field inversions and the points of every batch
    calls = []
    invert_all, builtin_pow = ot_module._invert_all, pow

    def counting_invert_all(values):
        calls.append(("batch", len(values)))
        return invert_all(values)

    def counting_pow(*args):
        calls.append(("pow",))
        return builtin_pow(*args)

    monkeypatch.setattr(ot_module, "_invert_all", counting_invert_all)
    monkeypatch.setattr(ot_module, "pow", counting_pow, raising=False)
    sender_public = OtSender(
        [(bytes(16), bytes([1]) * 16)] * 12, _seeded_bits(33)
    ).public_message()
    counts = set()
    for choices in ([0] * 12, [1] * 12, [0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1]):
        calls.clear()
        OtReceiver(choices, _seeded_bits(34)).blind(sender_public)
        counts.add(tuple(calls))
    # the table of A ... 8A in batches of 1, 2 and 4, then one batch of
    # four additions, one per transfer; each batch inverts once
    per_batch = [(("batch", n), ("pow",)) for n in (1, 2, 4, 4)]
    assert counts == {tuple(itertools.chain(*per_batch))}


def test_ot_sender_work_does_not_depend_on_choices_or_transfer_count(monkeypatch):
    # one respond inverts 2y(B) and x(aB) - x(mT), m = 1 ... 8, for every
    # transfer in one batch: one field inversion per message
    calls = []
    invert_all, builtin_pow = ot_module._invert_all, pow

    def counting_invert_all(values):
        calls.append(("batch", len(values)))
        return invert_all(values)

    def counting_pow(*args):
        calls.append(("pow",))
        return builtin_pow(*args)

    for n, choices in (
        (1, [1]),
        (12, [0] * 12),
        (12, [1] * 12),
        (12, [0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1]),
        (49, [i * 7 % 3 & 1 for i in range(49)]),
    ):
        sender = OtSender([(bytes(16), bytes([1]) * 16)] * n, _seeded_bits(35))
        blinded = OtReceiver(choices, _seeded_bits(36)).blind(sender.public_message())
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ot_module, "_invert_all", counting_invert_all)
            patch.setattr(ot_module, "pow", counting_pow, raising=False)
            sender.respond(blinded)
        transfers = -(-n // 3)
        assert calls == [("batch", 9 * transfers), ("pow",)]


@pytest.mark.parametrize("a", [2, 3, ORDER - 2, ORDER - 1])
def test_ot_sender_matches_the_reference_at_scalar_edges(a):
    # at a = 2 the second sender key is 1: x((a - 1)B) is x(B) itself
    rng = random.Random(a % 1000)
    choices = [rng.randrange(2) for _ in range(8)]
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in choices
    ]
    sender = OtSender(pairs, lambda _: a)
    receiver = OtReceiver(choices, rng.getrandbits)
    blinded = receiver.blind(sender.public_message())
    ciphertexts = sender.respond(blinded)
    assert ciphertexts == _reference_respond(pairs, a, blinded)
    assert receiver.unwrap(ciphertexts) == [p[c] for p, c in zip(pairs, choices)]


def test_evaluate_reuses_the_digest_of_the_circuit_in_hand(monkeypatch):
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    serialized = []
    original = circuit_module.serialize_circuit
    monkeypatch.setattr(
        circuit_module,
        "serialize_circuit",
        lambda c: serialized.append(c) or original(c),
    )
    material = garble(circuit, b"once")
    bits = encode_inputs(circuit, 1, 1, s0_v=0, s1_v=0, s0_a=0, s1_a=0)
    evaluate(material.garbled, circuit, select_labels(material.input_labels, bits))
    assert serialized == [circuit]


def test_ot_pads_differ_when_receiver_sends_half_of_a():
    # B = kA/2 makes a(B - (j + 1)A) and a(B - (j' + 1)A) negatives of
    # each other when j + j' + 2 = k, so their x agree; only the branch in
    # the pad keeps ct_j ^ ct_j' from revealing the XOR of the two
    # branches' labels
    rng = random.Random(21)
    n = 8
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in range(3 * n)
    ]
    a = rng.getrandbits(255) | 2
    sender = OtSender(pairs, lambda _: a)
    big_a = ec.EllipticCurvePublicKey.from_encoded_point(
        CURVE, sender.public_message()
    )
    half = pow(2, -1, ORDER)
    for k in range(1, 2 * BRANCHES + 3, 2):
        shared_pairs = 0
        x_only = ec.derive_private_key(k * half % ORDER, CURVE).exchange(ec.ECDH(), big_a)
        # the x of kA/2 is all ECDH yields; either lift of it is +-kA/2
        for prefix in (b"\x02", b"\x03"):
            element = prefix + x_only
            sign = 1 if element == _compressed(k * half * a) else -1
            # a(B - (j + 1)A) = a^2 (+-k/2 - j - 1) G
            key_xs = [
                _compressed(a * a * (sign * k * half - j - 1))[1:]
                for j in range(BRANCHES)
            ]
            ciphertexts = sender.respond(element * n)
            for j, j2 in itertools.combinations(range(BRANCHES), 2):
                if key_xs[j] != key_xs[j2]:
                    continue
                shared_pairs += 1
                for i in range(n):
                    plain = [
                        b"".join(pairs[3 * i + t][b >> t & 1] for t in range(3))
                        for b in (j, j2)
                    ]
                    cts = [
                        ciphertexts[48 * (BRANCHES * i + b) : 48 * (BRANCHES * i + b + 1)]
                        for b in (j, j2)
                    ]
                    xor_ct = bytes(x ^ y for x, y in zip(*cts))
                    assert xor_ct != bytes(x ^ y for x, y in zip(*plain))
        # the pairs j < j' of 0..7 with j + j' = k - 2
        assert shared_pairs == {3: 1, 5: 2, 7: 3, 9: 4, 11: 3, 13: 2, 15: 1}.get(k, 0)


def _point_add(p, q):
    """Affine P + Q on P-256 for x(P) != x(Q)."""
    (x1, y1), (x2, y2) = p, q
    slope = (y2 - y1) * pow(x2 - x1, -1, FIELD_PRIME) % FIELD_PRIME
    x3 = (slope * slope - x1 - x2) % FIELD_PRIME
    return x3, (slope * (x1 - x3) - y1) % FIELD_PRIME


def _reference_respond(pairs, a, blinded):
    """OtSender.respond by its definition: per transfer, B - (j + 1)A by
    point additions and eight direct exchanges, no differential law."""
    key = ec.derive_private_key(a, CURVE)
    numbers = key.public_key().public_numbers()
    minus_a = (numbers.x, -numbers.y % FIELD_PRIME)
    labels = list(pairs) + [(bytes(16), bytes(16))] * (-len(pairs) % 3)
    out = b""
    for i in range(len(labels) // 3):
        element = blinded[ELEMENT_BYTES * i : ELEMENT_BYTES * (i + 1)]
        b = ec.EllipticCurvePublicKey.from_encoded_point(CURVE, element).public_numbers()
        point = (b.x, b.y)
        for j in range(8):
            point = _point_add(point, minus_a)
            peer = ec.EllipticCurvePublicNumbers(*point, CURVE).public_key()
            shared_x = key.exchange(ec.ECDH(), peer)
            pad = hashlib.sha384(b"ot-pad" + struct.pack("<IB", i, j) + shared_x).digest()
            plain = b"".join(labels[3 * i + t][j >> t & 1] for t in range(3))
            out += bytes(x ^ y for x, y in zip(pad, plain))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 1), min_size=1, max_size=10))
@example(seed=0, choices=[1])
@example(seed=1, choices=[1, 0])
@example(seed=2, choices=[0, 1, 1])
def test_ot_sender_matches_the_eight_exchange_reference(seed, choices):
    rng = random.Random(seed)
    pairs = [
        (rng.randbytes(16), rng.randbytes(16)) for _ in choices
    ]
    a = rng.getrandbits(255) | 2
    sender = OtSender(pairs, lambda _: a)
    receiver = OtReceiver(choices, rng.getrandbits)
    blinded = receiver.blind(sender.public_message())
    ciphertexts = sender.respond(blinded)
    assert ciphertexts == _reference_respond(pairs, a, blinded)
    assert receiver.unwrap(ciphertexts) == [p[c] for p, c in zip(pairs, choices)]


# one transfer, so the sender and the receiver both expect one element;
# about half of all x have a point, so the last branch hits both outcomes
_OT_PAIRS = [(bytes(16), bytes([1]) * 16)]
_FUZZED_ELEMENTS = st.one_of(
    st.binary(max_size=3 * ELEMENT_BYTES),
    st.binary(min_size=ELEMENT_BYTES, max_size=ELEMENT_BYTES),
    st.builds(
        lambda prefix, x: prefix + x,
        st.sampled_from([b"\x02", b"\x03"]),
        st.binary(min_size=ELEMENT_BYTES - 1, max_size=ELEMENT_BYTES - 1),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_FUZZED_ELEMENTS)
def test_fuzzed_ot_elements_raise_only_ot_protocol_error(data):
    for call in (
        lambda: OtSender(_OT_PAIRS, _seeded_bits(23)).respond(data),
        lambda: OtReceiver([1], _seeded_bits(24)).blind(data),
    ):
        try:
            call()
        except OtProtocolError:
            pass


def test_label_xor_and_color():
    assert WireLabel(bytes(range(16))).bits == bytes(range(16))
    with pytest.raises(ValueError):
        WireLabel(b"short")


# a blob header with small counts, so some fuzzed blobs reach the length check
_GARBLED_HEAD = struct.Struct("<4s32sII")
_FUZZED_BLOBS = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda magic, n_tables, n_out, body: (
            _GARBLED_HEAD.pack(magic, bytes(32), n_tables, n_out) + body
        ),
        st.sampled_from([MAGIC, b"BGC0"]),
        st.integers(0, 3) | st.integers(0, 2**32 - 1),
        st.integers(0, 3) | st.integers(0, 2**32 - 1),
        st.binary(max_size=400),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_FUZZED_BLOBS)
def test_fuzzed_garbled_blobs_raise_only_value_error(blob):
    try:
        gc = deserialize_garbled(blob)
    except ValueError:
        return
    assert serialize_garbled(gc) == blob

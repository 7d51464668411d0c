"""Semi-honest garbled evaluation of settlement circuits.

Point-and-permute with free XOR: every wire carries a pair of 128-bit
labels differing by a global offset whose low bit is 1, so the two
labels on a wire always disagree in their color bit.  XOR gates cost
nothing (labels XOR through), NOT gates cost nothing (the pass-through
label decodes to the complemented bit), and each AND gate ships four
ciphertext rows ordered by the color bits of its input labels.

Row keys come from a fixed-key block cipher in a Davies-Meyer shape,
tweaked by the gate's position so identical label pairs on different
gates never share a pad.  All label material is derived from one seed,
which makes garbling reproducible for tests while the seed itself never
leaves the garbler.  Since AND output labels come from the seed too,
the garbler knows every row's cipher input before it builds a table and
keys all rows with one AES call; the evaluator goes gate by gate.

Outside ``garble`` and ``evaluate`` an input label is its 16 wire bytes,
big-endian.  ``garble`` writes each at 16 bytes, and the settlement
protocol's message plan fixes the length of every message that carries
labels or a garbled blob (``garbled_size``) before its body is read.

The decode table publishes a hash commitment per output label.  Either
side can map a revealed label to its bit and reject a label that was
never issued, which is the output-validity check the settlement
protocol runs before accepting a result.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .circuit import Circuit, GateKind, circuit_digest

LABEL_BYTES = 16
COMMIT_BYTES = 32  # a SHA-256 commitment to one output label
MAGIC = b"BGC1"
_MASK = (1 << 128) - 1
_FIXED_KEY = bytes(LABEL_BYTES)


class LabelDecodeError(ValueError):
    """An output label matches neither commitment: tampering or corruption."""


@dataclass(frozen=True)
class WireLabel:
    """A revealed output label, as ``evaluate`` returns it and
    ``decode_and_prove`` checks it; input labels are plain bytes."""

    bits: bytes

    def __post_init__(self) -> None:
        if len(self.bits) != LABEL_BYTES:
            raise ValueError("labels are 128-bit blocks")


@dataclass(frozen=True)
class GarbledCircuit:
    """The public part: digest binding, AND tables, output commitments."""

    base_circuit_digest: bytes
    tables: tuple[tuple[bytes, bytes, bytes, bytes], ...]
    output_decode: tuple[tuple[bytes, bytes], ...]


@dataclass(frozen=True)
class GarbledMaterial:
    """Everything the garbler holds; only ``garbled`` may be shared.

    Label pairs are (0-label, 1-label), 16 bytes each."""

    garbled: GarbledCircuit
    input_labels: tuple[tuple[bytes, bytes], ...]
    output_labels: tuple[tuple[bytes, bytes], ...]


def _new_encryptor():
    # ECB on independent single blocks; one instance per call keeps
    # garble/evaluate safe to run on separate threads.
    return Cipher(algorithms.AES(_FIXED_KEY), modes.ECB()).encryptor()


def _seed_label(seed: bytes, tag: bytes, index: int) -> int:
    digest = hashlib.sha256(seed + tag + index.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:LABEL_BYTES], "big")


def _label(value: int) -> bytes:
    return value.to_bytes(LABEL_BYTES, "big")


def _commit(label: bytes) -> bytes:
    return hashlib.sha256(label).digest()


def garble(circuit: Circuit, seed: bytes) -> GarbledMaterial:
    """Derive all wire labels from ``seed`` and encrypt the AND tables.

    Same seed, same circuit: byte-identical output, which the tests use
    to pin determinism.  Production callers draw the seed fresh.
    """
    delta = _seed_label(seed, b"delta", 0) | 1
    n_in = circuit.n_inputs
    # _seed_label's hash inputs, each tag's prefix built once
    sha256 = hashlib.sha256
    input_prefix, gate_prefix = seed + b"input", seed + b"gate"
    zero_of = []
    for w in range(n_in):
        digest = sha256(input_prefix + w.to_bytes(8, "little")).digest()
        zero_of.append(int.from_bytes(digest[:LABEL_BYTES], "big"))
    xor, not_ = int(GateKind.XOR), int(GateKind.NOT)
    ands = []  # (position, a0, b0, out0) per AND gate
    for position, (kind, in_a, in_b) in enumerate(circuit.rows()):
        if kind == xor:
            zero_of.append(zero_of[in_a] ^ zero_of[in_b])
        elif kind == not_:
            # pass-through label flips meaning, no table row needed
            zero_of.append(zero_of[in_a] ^ delta)
        else:
            digest = sha256(gate_prefix + position.to_bytes(8, "little")).digest()
            out0 = int.from_bytes(digest[:LABEL_BYTES], "big")
            zero_of.append(out0)
            ands.append((position, zero_of[in_a], zero_of[in_b], out0))
    # Output labels come from the seed, so every row's cipher input is
    # known by now and one ECB call keys all rows.  A row's cipher input
    # is 2a ^ 4b ^ position, doubling in GF(2^128) mod x^128 + x^7 + x^2
    # + x + 1, and doubling is linear: a 1-label's double is the
    # 0-label's double XOR the offset's.  The label of color c on a wire
    # stands for bit c ^ (color of its 0-label), and row r of a table
    # holds the labels of colors (r >> 1, r & 1).  So with k the colors
    # of a gate's 0-labels, row r holds bits r ^ k, its cipher input is
    # the 0-labels' one XOR offsets[k][r], and its mask (cipher input XOR
    # output label) is that XOR the 0-output label XOR offsets[k][4 + r].
    d_delta = ((delta << 1) & _MASK) ^ (delta >> 127) * 0x87
    dd_delta = ((d_delta << 1) & _MASK) ^ (d_delta >> 127) * 0x87
    offsets = []
    for colors in range(4):
        bits = [row ^ colors for row in range(4)]
        ins = [d_delta * (v >> 1) ^ dd_delta * (v & 1) for v in bits]
        offsets.append(ins + [i ^ delta * (v == 3) for i, v in zip(ins, bits)])
    cipher_in, masks, mask128 = [], [], _MASK
    for position, a0, b0, out0 in ands:
        da = ((a0 << 1) & mask128) ^ (a0 >> 127) * 0x87
        db = ((b0 << 1) & mask128) ^ (b0 >> 127) * 0x87
        w = da ^ ((db << 1) & mask128) ^ (db >> 127) * 0x87 ^ position
        m = w ^ out0
        i0, i1, i2, i3, o0, o1, o2, o3 = offsets[(a0 & 1) << 1 | b0 & 1]
        cipher_in += (w ^ i0, w ^ i1, w ^ i2, w ^ i3)
        masks += (m ^ o0, m ^ o1, m ^ o2, m ^ o3)
    # each row is E(w) ^ w (the Davies-Meyer key) ^ its output label
    cipher_bytes = b"".join([w.to_bytes(LABEL_BYTES, "big") for w in cipher_in])
    mask_bytes = b"".join([m.to_bytes(LABEL_BYTES, "big") for m in masks])
    keyed = _new_encryptor().update(cipher_bytes)
    rows = (
        int.from_bytes(keyed, "big") ^ int.from_bytes(mask_bytes, "big")
    ).to_bytes(len(keyed), "big")
    cut = iter([rows[i : i + LABEL_BYTES] for i in range(0, len(rows), LABEL_BYTES)])
    tables = tuple(zip(cut, cut, cut, cut))
    input_pairs = tuple(
        (_label(zero_of[w]), _label(zero_of[w] ^ delta)) for w in range(n_in)
    )
    output_pairs = tuple(
        (_label(zero_of[w]), _label(zero_of[w] ^ delta)) for w in circuit.outputs
    )
    decode = tuple((_commit(k0), _commit(k1)) for k0, k1 in output_pairs)
    gc = GarbledCircuit(circuit_digest(circuit), tables, decode)
    return GarbledMaterial(gc, input_pairs, output_pairs)


def evaluate(
    gc: GarbledCircuit, circuit: Circuit, input_labels: Sequence[bytes]
) -> tuple[WireLabel, ...]:
    """Walk the gates under encryption; returns the output-wire labels.

    Unchecked here: ``gc`` garbles ``circuit`` (the attacker's
    circuit-check compares digests, ``deserialize_garbled`` the table
    count) and ``input_labels`` holds one label per input (the message
    plan and ``OtReceiver.unwrap`` fix that count).
    """
    from_bytes, mask128 = int.from_bytes, _MASK
    labels = [from_bytes(label, "big") for label in input_labels]
    encrypt = _new_encryptor().update
    tables = gc.tables
    xor, not_ = int(GateKind.XOR), int(GateKind.NOT)
    and_index = 0
    for position, (kind, in_a, in_b) in enumerate(circuit.rows()):
        if kind == xor:
            labels.append(labels[in_a] ^ labels[in_b])
        elif kind == not_:
            labels.append(labels[in_a])
        else:
            # the row of these colors: E(w) ^ w ^ row for w = 2a ^ 4b ^ position
            a, b = labels[in_a], labels[in_b]
            db = ((b << 1) & mask128) ^ (b >> 127) * 0x87
            w = (
                ((a << 1) & mask128) ^ (a >> 127) * 0x87
                ^ ((db << 1) & mask128) ^ (db >> 127) * 0x87
                ^ position
            )
            row = tables[and_index][(a & 1) << 1 | b & 1]
            and_index += 1
            keyed = encrypt(w.to_bytes(LABEL_BYTES, "big"))
            labels.append(from_bytes(keyed, "big") ^ w ^ from_bytes(row, "big"))
    return tuple(WireLabel(_label(labels[w])) for w in circuit.outputs)


def decode_and_prove(
    gc: GarbledCircuit, output_labels: Sequence[WireLabel]
) -> tuple[int, ...]:
    """Map output labels to bits via the commitments.

    The labels themselves are the proof the other side checks against
    the same commitments.  Raises LabelDecodeError on any label that was
    never issued.  ``output_labels`` must hold one label per commitment:
    the message plan fixes their count, and ``decode_outcome`` checks
    the bits' count.
    """
    bits = []
    for position, (label, pair) in enumerate(zip(output_labels, gc.output_decode)):
        commitment = _commit(label.bits)
        if commitment == pair[0]:
            bits.append(0)
        elif commitment == pair[1]:
            bits.append(1)
        else:
            raise LabelDecodeError(f"output label {position} matches no commitment")
    return tuple(bits)


def select_labels(
    pairs: Sequence[tuple[bytes, bytes]], bits: Sequence[int]
) -> list[bytes]:
    """Pick one label per pair by bit; the garbler's own-input encoding."""
    if len(pairs) != len(bits):
        raise ValueError("one choice bit per label pair")
    return [pair[bit & 1] for pair, bit in zip(pairs, bits)]


# magic, circuit digest, table count, output count
_HEADER = struct.Struct("<4s32sII")


def garbled_size(circuit: Circuit) -> int:
    """Bytes of ``serialize_garbled``'s blob for any garbling of ``circuit``:
    the header, four rows per AND gate, two commitments per output."""
    return (
        _HEADER.size
        + 4 * LABEL_BYTES * circuit.and_count
        + 2 * COMMIT_BYTES * len(circuit.outputs)
    )


def serialize_garbled(gc: GarbledCircuit) -> bytes:
    parts = [
        _HEADER.pack(
            MAGIC, gc.base_circuit_digest, len(gc.tables), len(gc.output_decode)
        )
    ]
    for rows in gc.tables:
        parts.extend(rows)
    for pair in gc.output_decode:
        parts.extend(pair)
    return b"".join(parts)


def deserialize_garbled(data: bytes, circuit: Circuit) -> GarbledCircuit:
    """Read a blob of ``garbled_size(circuit)`` bytes, a length the caller
    has checked; the header must name ``circuit``'s counts."""
    magic, digest, n_tables, n_out = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("bad garbled-circuit magic")
    if (n_tables, n_out) != (circuit.and_count, len(circuit.outputs)):
        raise ValueError("garbled blob's table or output count does not match the circuit")
    tables_end = _HEADER.size + n_tables * 4 * LABEL_BYTES
    rows = [data[i : i + LABEL_BYTES] for i in range(_HEADER.size, tables_end, LABEL_BYTES)]
    hashes = [data[i : i + COMMIT_BYTES] for i in range(tables_end, len(data), COMMIT_BYTES)]
    return GarbledCircuit(
        digest,
        tuple(zip(rows[0::4], rows[1::4], rows[2::4], rows[3::4])),
        tuple(zip(hashes[0::2], hashes[1::2])),
    )

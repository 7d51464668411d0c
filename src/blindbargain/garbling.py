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
big-endian.  ``garble`` writes each at 16 bytes; the protocol's label
parser and the OT receiver check the length of what arrives.

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
MAGIC = b"BGC1"
_MASK = (1 << 128) - 1
_FIXED_KEY = bytes(LABEL_BYTES)


class DigestMismatch(ValueError):
    """The circuit in hand is not the one this garbling was built for."""


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


def _double(v: int) -> int:
    # carry-less doubling in GF(2^128), x^128 + x^7 + x^2 + x + 1
    v <<= 1
    if v >> 128:
        v = (v & _MASK) ^ 0x87
    return v


def _row_key(enc, a: int, b: int, tweak: int) -> int:
    w = _double(a) ^ _double(_double(b)) ^ tweak
    return int.from_bytes(enc.update(w.to_bytes(LABEL_BYTES, "big")), "big") ^ w


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
    # known by now and one ECB call keys all rows.  Row c of a table
    # holds the input labels of colors (c >> 1, c & 1), and the label of
    # color c on a wire stands for bit c ^ (color of its 0-label).
    # Doubling is linear: a 1-label's double is the 0-label's double XOR
    # the offset's.
    d_delta, dd_delta = _double(delta), _double(_double(delta))
    cipher_in, masks = [], []
    for position, a0, b0, out0 in ands:
        da, ddb = _double(a0), _double(_double(b0))
        for va in (a0 & 1, (a0 & 1) ^ 1):
            wa = da ^ d_delta if va else da
            for vb in (b0 & 1, (b0 & 1) ^ 1):
                w = wa ^ (ddb ^ dd_delta if vb else ddb) ^ position
                cipher_in.append(w)
                masks.append(w ^ out0 ^ delta if va & vb else w ^ out0)
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

    The digest check runs before any table is touched, so a circuit
    that does not match what this garbling was built for is rejected
    outright.
    """
    if circuit_digest(circuit) != gc.base_circuit_digest:
        raise DigestMismatch("circuit digest does not match the garbling")
    n_in = circuit.n_inputs
    if len(input_labels) != n_in:
        raise ValueError(f"expected {n_in} input labels, got {len(input_labels)}")
    if len(gc.tables) != circuit.and_count:
        raise ValueError("garbled table count does not match the circuit")
    labels = [int.from_bytes(label, "big") for label in input_labels]
    enc = _new_encryptor()
    xor, not_ = int(GateKind.XOR), int(GateKind.NOT)
    and_index = 0
    for position, (kind, in_a, in_b) in enumerate(circuit.rows()):
        if kind == xor:
            labels.append(labels[in_a] ^ labels[in_b])
        elif kind == not_:
            labels.append(labels[in_a])
        else:
            a, b = labels[in_a], labels[in_b]
            row = gc.tables[and_index][((a & 1) << 1) | (b & 1)]
            and_index += 1
            labels.append(_row_key(enc, a, b, position) ^ int.from_bytes(row, "big"))
    return tuple(WireLabel(_label(labels[w])) for w in circuit.outputs)


def decode_and_prove(
    gc: GarbledCircuit, output_labels: Sequence[WireLabel]
) -> tuple[int, ...]:
    """Map output labels to bits via the commitments.

    The labels themselves are the proof the other side checks against
    the same commitments.  Raises LabelDecodeError on any label that was
    never issued.
    """
    if len(output_labels) != len(gc.output_decode):
        raise ValueError(
            f"expected {len(gc.output_decode)} output labels, got {len(output_labels)}"
        )
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


def deserialize_garbled(data: bytes) -> GarbledCircuit:
    if len(data) < _HEADER.size:
        raise ValueError("garbled blob too short")
    magic, digest, n_tables, n_out = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValueError("bad garbled-circuit magic")
    tables_end = _HEADER.size + n_tables * 4 * LABEL_BYTES
    expected = tables_end + n_out * 64
    if len(data) != expected:
        raise ValueError(f"garbled blob length {len(data)} != expected {expected}")
    cuts = range(_HEADER.size, tables_end, LABEL_BYTES)
    rows = [data[i : i + LABEL_BYTES] for i in cuts]
    hashes = [data[i : i + 32] for i in range(tables_end, expected, 32)]
    return GarbledCircuit(
        digest,
        tuple(zip(rows[0::4], rows[1::4], rows[2::4], rows[3::4])),
        tuple(zip(hashes[0::2], hashes[1::2])),
    )

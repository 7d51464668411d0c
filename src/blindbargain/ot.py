"""1-out-of-2 oblivious transfer for the evaluator's input labels.

Diffie-Hellman style construction over the 1024-bit MODP group from
RFC 2409 (Oakley group 2), restricted to the prime-order subgroup of
quadratic residues with generator 4.  The sender publishes A = g^a; the
receiver answers with B = g^b to fetch the first label or B = A*g^b to
fetch the second; the sender encrypts label 0 under a key from B^a and
label 1 under a key from (B/A)^a.  Exactly one of those equals the
receiver's g^(ab), so one pad decrypts and the other stays opaque,
while B itself is a uniform group element either way and reveals
nothing about the choice.

Exponents are 256 bits, the usual short-exponent setting for this group
size; input counts here are tiny (two random words and one report per
party), so no OT extension is layered on top.

Every element read off the wire must be a quadratic residue, checked by
its Jacobi symbol.  Without that check a receiver could send a
non-residue B and learn the parity of the sender's exponent from which
pad decrypts.

Both of the receiver's bases are fixed: g for every session, A for all
transfers of one session.  So the receiver raises them through windowed
fixed-base tables (Lim-Lee): one table for g, built on first use and
kept for the process, and one per session for A.  An exponentiation
then costs one multiplication per window and no squarings.  The results
equal ``pow``, so no byte on the wire changes.  The sender's bases B
differ per transfer, so its variable-base B^a, one per transfer, are
the floor of this construction.  Table lookups are indexed by secret
exponent digits, which is no more constant-time than ``pow`` itself.

The three byte blobs produced here travel as protocol messages; the
pure in-process composition ``ot_transfer`` is what the tests exercise.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Callable, Sequence

from .garbling import LABEL_BYTES, WireLabel

# RFC 2409 section 6.2; p = 2q + 1 with q prime, 4 generates the
# order-q subgroup of squares.
PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 4
EXPONENT_BITS = 256
ELEMENT_BYTES = 128
# Fixed-base window: one table row of 2^5 powers per 5 exponent bits.
# A wider window saves a multiplication per transfer but costs more to
# tabulate A each session; 5 sits between the best width at 24 transfers
# (4) and at 80 (6), within a few percent of either (BENCH_3.json).
WINDOW_BITS = 5

RandomBits = Callable[[int], int]


class OtProtocolError(ValueError):
    """Malformed or out-of-group key material."""


def _rand_exponent(rand_bits: RandomBits) -> int:
    while True:
        e = rand_bits(EXPONENT_BITS)
        if e > 1:
            return e


def _element_bytes(x: int) -> bytes:
    return x.to_bytes(ELEMENT_BYTES, "big")


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by binary quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _parse_elements(data: bytes, count: int, what: str) -> list[int]:
    if len(data) != count * ELEMENT_BYTES:
        raise OtProtocolError(f"{what}: expected {count} group elements")
    out = []
    for i in range(count):
        x = int.from_bytes(data[i * ELEMENT_BYTES : (i + 1) * ELEMENT_BYTES], "big")
        if not 1 < x < PRIME - 1:
            raise OtProtocolError(f"{what}: element {i} outside the group range")
        if _jacobi(x, PRIME) != 1:
            raise OtProtocolError(f"{what}: element {i} outside the subgroup")
        out.append(x)
    return out


def _fixed_base_table(base: int) -> list[list[int]]:
    """Row i holds base^(d * 2^(WINDOW_BITS * i)) for every digit d."""
    table = []
    for _ in range(-(-EXPONENT_BITS // WINDOW_BITS)):
        row = [1, base]
        for _ in range(2, 1 << WINDOW_BITS):
            row.append(row[-1] * base % PRIME)
        table.append(row)
        base = row[-1] * base % PRIME
    return table


def _fixed_pow(table: list[list[int]], exponent: int) -> int:
    """base^exponent from ``_fixed_base_table(base)``; equals ``pow``."""
    if exponent >> (WINDOW_BITS * len(table)):
        raise ValueError("exponent wider than the table")
    mask = (1 << WINDOW_BITS) - 1
    result = 1
    for row in table:
        digit = exponent & mask
        if digit:
            result = result * row[digit] % PRIME
        exponent >>= WINDOW_BITS
    return result


@functools.cache
def _generator_table() -> list[list[int]]:
    return _fixed_base_table(GENERATOR)


def _pad(index: int, shared: int) -> int:
    material = struct.pack("<I", index) + _element_bytes(shared)
    digest = hashlib.sha256(b"ot-pad" + material).digest()
    return int.from_bytes(digest[:LABEL_BYTES], "big")


class OtSender:
    """Holds the label pairs; answers the receiver's blinded choices."""

    def __init__(
        self, pairs: Sequence[tuple[WireLabel, WireLabel]], rand_bits: RandomBits
    ) -> None:
        self._pairs = [
            (int.from_bytes(k0.bits, "big"), int.from_bytes(k1.bits, "big"))
            for k0, k1 in pairs
        ]
        self._a = _rand_exponent(rand_bits)
        self._big_a = pow(GENERATOR, self._a, PRIME)

    def public_message(self) -> bytes:
        return _element_bytes(self._big_a)

    def respond(self, blinded: bytes) -> bytes:
        """Encrypt both labels of every pair; one pad per choice."""
        elements = _parse_elements(blinded, len(self._pairs), "receiver message")
        # (B/A)^a = B^a * (A^a)^-1, so invert A^a once
        inv_a_to_a = pow(pow(self._big_a, self._a, PRIME), -1, PRIME)
        parts = []
        for i, (b_elem, pair) in enumerate(zip(elements, self._pairs)):
            shared0 = pow(b_elem, self._a, PRIME)
            shared1 = shared0 * inv_a_to_a % PRIME
            for shared, label in ((shared0, pair[0]), (shared1, pair[1])):
                parts.append((_pad(i, shared) ^ label).to_bytes(LABEL_BYTES, "big"))
        return b"".join(parts)


class OtReceiver:
    """Blinds the choice bits, then unwraps the chosen labels."""

    def __init__(self, choices: Sequence[int], rand_bits: RandomBits) -> None:
        self._choices = [c & 1 for c in choices]
        self._rand_bits = rand_bits
        self._exponents: list[int] = []
        self._a_table: list[list[int]] | None = None

    def blind(self, sender_public: bytes) -> bytes:
        (big_a,) = _parse_elements(sender_public, 1, "sender message")
        self._a_table = _fixed_base_table(big_a)
        self._exponents = [_rand_exponent(self._rand_bits) for _ in self._choices]
        g_table = _generator_table()
        parts = []
        for choice, b in zip(self._choices, self._exponents):
            elem = _fixed_pow(g_table, b)
            if choice:
                elem = elem * big_a % PRIME
            parts.append(_element_bytes(elem))
        return b"".join(parts)

    def unwrap(self, ciphertexts: bytes) -> list[WireLabel]:
        if self._a_table is None:
            raise OtProtocolError("unwrap before blind")
        n = len(self._choices)
        if len(ciphertexts) != n * 2 * LABEL_BYTES:
            raise OtProtocolError(f"expected {n} ciphertext pairs")
        labels = []
        for i, (choice, b) in enumerate(zip(self._choices, self._exponents)):
            pad = _pad(i, _fixed_pow(self._a_table, b))
            start = (2 * i + choice) * LABEL_BYTES
            ct = int.from_bytes(ciphertexts[start : start + LABEL_BYTES], "big")
            labels.append(WireLabel((pad ^ ct).to_bytes(LABEL_BYTES, "big")))
        return labels


def ot_transfer(
    pairs: Sequence[tuple[WireLabel, WireLabel]],
    choices: Sequence[int],
    rand_bits: RandomBits,
) -> list[WireLabel]:
    """All three flows composed in-process; returns the chosen labels."""
    if len(pairs) != len(choices):
        raise ValueError("one choice bit per label pair")
    sender = OtSender(pairs, rand_bits)
    receiver = OtReceiver(choices, rand_bits)
    blinded = receiver.blind(sender.public_message())
    return receiver.unwrap(sender.respond(blinded))

"""1-out-of-2 oblivious transfer for the evaluator's input labels.

Simplest OT (Chou-Orlandi, LATINCRYPT 2015) over the NIST P-256 curve
(SEC 2, FIPS 186), about 128-bit security.  The sender publishes
A = aG; the receiver answers with B = bG to fetch the first label or
B = A + bG to fetch the second; the sender encrypts label 0 under a pad
from aB and label 1 under a pad from a(B - A).  Exactly one of those
equals the receiver's bA, so one pad decrypts and the other stays
opaque, while B itself is a uniform point either way and reveals
nothing about the choice.  No UC security is claimed: Genc-Iovino-Rial
and Hauck-Loss (2017) show where Simplest OT falls short of it.

Scalar multiplications run in C through ``cryptography``: fixed-base
``derive_private_key`` and variable-base ECDH ``exchange``, which yields
only the x-coordinate of the product.  They are nearly all of the OT
time: per transfer, the sender runs two exchanges and one point
decompression, the receiver one derivation and one exchange.  The two
point additions the protocol needs, the receiver's A + bG and the
sender's B - A, are affine additions here, and each message's additions
share one field inversion (Montgomery's trick).  The receiver computes
A + bG for every transfer and picks by the choice bit, so its
Python-level work does not depend on the choices.

Every element is 33 bytes of SEC1 compressed point.  Anything else,
and any point off the curve, is an ``OtProtocolError``; P-256 has
cofactor 1, so a point on the curve is in the prime-order group.  An
addition of two points with equal x has no affine result: the sender
refuses x(B) = x(A), and the receiver x(bG) = x(A) (b = +-a, odds
2^-255), both before any inversion.

Each pad hashes the transfer index, the branch and the shared x.  The
branch matters: a receiver that sends B = A/2 gets a(B - A) = -aB,
whose x equals that of aB, so without it both pads of a transfer would
match and their ciphertexts would XOR to the free-XOR offset.

The three byte blobs produced here travel as protocol messages; the
pure in-process composition ``ot_transfer`` is what the tests exercise.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Sequence

from cryptography.hazmat.primitives.asymmetric import ec

from .garbling import LABEL_BYTES, WireLabel

CURVE = ec.SECP256R1()
# P-256 field prime and group order (SEC 2, section 2.4.2)
FIELD_PRIME = 2**256 - 2**224 + 2**192 + 2**96 - 1
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
COORD_BYTES = 32
ELEMENT_BYTES = 1 + COORD_BYTES

RandomBits = Callable[[int], int]
Point = tuple[int, int]


class OtProtocolError(ValueError):
    """Malformed or off-curve key material."""


def _rand_scalar(rand_bits: RandomBits) -> int:
    while True:
        s = rand_bits(256)
        if 1 < s < ORDER:
            return s


def _affine(key: ec.EllipticCurvePrivateKey) -> Point:
    numbers = key.public_key().public_numbers()
    return numbers.x, numbers.y


def _add_each(points: Sequence[Point], q: Point, what: str) -> list[Point]:
    """P + Q for every P, with one field inversion for all of them.

    Montgomery's trick: invert the product of the denominators
    x(P) - x(Q) once, then peel each inverse off with two products.
    Every x(P) is checked against x(Q) before anything is inverted:
    equal x means P = +-Q, a doubling or infinity, and is refused.
    """
    qx, qy = q
    denominators = [x - qx for x, _ in points]
    for i, d in enumerate(denominators):
        if d == 0:
            raise OtProtocolError(f"{what} {i} is A or -A")
    prefix = []
    product = 1
    for d in denominators:
        prefix.append(product)
        product = product * d % FIELD_PRIME
    inverse = pow(product, -1, FIELD_PRIME)
    sums: list[Point] = [q] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y = points[i]
        slope = (y - qy) * (prefix[i] * inverse % FIELD_PRIME) % FIELD_PRIME
        inverse = inverse * denominators[i] % FIELD_PRIME
        x3 = (slope * slope - x - qx) % FIELD_PRIME
        sums[i] = x3, (slope * (qx - x3) - qy) % FIELD_PRIME
    return sums


def _encode(point: Point) -> bytes:
    x, y = point
    return bytes((2 | y & 1,)) + x.to_bytes(COORD_BYTES, "big")


def _parse_elements(
    data: bytes, count: int, what: str
) -> list[ec.EllipticCurvePublicKey]:
    if len(data) != count * ELEMENT_BYTES:
        raise OtProtocolError(f"{what}: expected {count} compressed points")
    out = []
    for i in range(count):
        element = data[i * ELEMENT_BYTES : (i + 1) * ELEMENT_BYTES]
        if element[0] not in (2, 3):
            raise OtProtocolError(f"{what}: element {i} is not a compressed point")
        try:
            out.append(ec.EllipticCurvePublicKey.from_encoded_point(CURVE, element))
        except ValueError:
            raise OtProtocolError(f"{what}: element {i} is not on the curve") from None
    return out


def _pad(index: int, branch: int, shared_x: bytes) -> int:
    material = struct.pack("<IB", index, branch) + shared_x
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
        self._key = ec.derive_private_key(_rand_scalar(rand_bits), CURVE)
        self._big_a = _affine(self._key)

    def public_message(self) -> bytes:
        return _encode(self._big_a)

    def respond(self, blinded: bytes) -> bytes:
        """Encrypt both labels of every pair; one pad per choice."""
        elements = _parse_elements(blinded, len(self._pairs), "receiver message")
        points = []
        for key in elements:
            numbers = key.public_numbers()
            points.append((numbers.x, numbers.y))
        ax, ay = self._big_a
        differences = _add_each(
            points, (ax, -ay % FIELD_PRIME), "receiver message: element"
        )
        parts = []
        for i, (b_key, b_minus_a, pair) in enumerate(
            zip(elements, differences, self._pairs)
        ):
            b_minus_a_key = ec.EllipticCurvePublicNumbers(*b_minus_a, CURVE).public_key()
            for branch, peer in enumerate((b_key, b_minus_a_key)):
                shared_x = self._key.exchange(ec.ECDH(), peer)
                ct = _pad(i, branch, shared_x) ^ pair[branch]
                parts.append(ct.to_bytes(LABEL_BYTES, "big"))
        return b"".join(parts)


class OtReceiver:
    """Blinds the choice bits, then unwraps the chosen labels."""

    def __init__(self, choices: Sequence[int], rand_bits: RandomBits) -> None:
        self._choices = [c & 1 for c in choices]
        self._rand_bits = rand_bits
        self._keys: list[ec.EllipticCurvePrivateKey] = []
        self._big_a: ec.EllipticCurvePublicKey | None = None

    def blind(self, sender_public: bytes) -> bytes:
        (big_a,) = _parse_elements(sender_public, 1, "sender message")
        numbers = big_a.public_numbers()
        a_point = (numbers.x, numbers.y)
        keys = [
            ec.derive_private_key(_rand_scalar(self._rand_bits), CURVE)
            for _ in self._choices
        ]
        b_points = [_affine(key) for key in keys]
        # x(bG) = x(A) only for b = +-a: odds 2^-255 per transfer
        sums = _add_each(b_points, a_point, "blinding point")
        self._keys, self._big_a = keys, big_a
        return b"".join(
            _encode((b_point, a_plus_b)[choice])
            for choice, b_point, a_plus_b in zip(self._choices, b_points, sums)
        )

    def unwrap(self, ciphertexts: bytes) -> list[WireLabel]:
        if self._big_a is None:
            raise OtProtocolError("unwrap before blind")
        n = len(self._choices)
        if len(ciphertexts) != n * 2 * LABEL_BYTES:
            raise OtProtocolError(f"expected {n} ciphertext pairs")
        labels = []
        for i, (choice, key) in enumerate(zip(self._choices, self._keys)):
            pad = _pad(i, choice, key.exchange(ec.ECDH(), self._big_a))
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

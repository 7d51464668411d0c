"""1-out-of-4 oblivious transfer for the evaluator's input labels.

Simplest OT (Chou-Orlandi, LATINCRYPT 2015) over the NIST P-256 curve
(SEC 2, FIPS 186), about 128-bit security.  The evaluator's bits go in
pairs (2i, 2i+1), one transfer per pair, and its choice
c = bit 2i + 2 * bit 2i+1 picks one of four branches.  Branch j carries
the label of wire 2i for bit j & 1 and the label of wire 2i+1 for bit
j >> 1, 32 bytes together.  An odd bit count pads the last pair with
choice bit 0 and a filler wire whose two labels are zero.

The sender publishes A = aG; the receiver answers B = bG + cA; the
sender encrypts branch j under a pad from a(B - jA).  Only branch c's
equals the receiver's bA, so one pad decrypts and the others stay
opaque, while B is a uniform point whatever c is.  The receiver
computes all four candidates bG + jA and picks one, so its Python work
does not depend on its choices.  No UC security is claimed:
Genc-Iovino-Rial and Hauck-Loss (2017) show where Simplest OT falls
short of it.

Scalar multiplications run in C through ``cryptography``: fixed-base
``derive_private_key`` and variable-base ECDH ``exchange``, which yields
only the x-coordinate of the product.  They are nearly all of the OT
time.  Per transfer the sender runs two exchanges, for aB and a(B - A),
and one point decompression; the receiver one derivation and one
exchange.  The sender gets x(a(B - 2A)) and x(a(B - 3A)) from the
differential addition law for short Weierstrass curves (Brier-Joye,
PKC 2002) with T = aA:

    x(R - T) = (2(x_R + x_T)(x_R x_T + a_4) + 4 a_6) / (x_R - x_T)^2 - x(R + T)

and x(T) once per session, from a derivation of a^2 mod n.  So a
transfer carries two bits for the sender's cost of one 1-of-2
transfer.  The receiver's bG + A, + 2A, + 3A and the sender's B - A are
affine additions; each step over a message shares one field inversion
(Montgomery's trick).

Every element is 33 bytes of SEC1 compressed point.  Anything else,
and any point off the curve, is an ``OtProtocolError``; P-256 has
cofactor 1, so a point on the curve is in the prime-order group.  The
sender refuses x(B) in {x(A), x(2A), x(3A)}, that is B = +-A, +-2A or
+-3A, and the receiver a blinding point bG at any of them (b = +-a,
+-2a, +-3a: odds 3 * 2^-255 per transfer).  Both check every element
before any inversion, and every denominator above is nonzero once
those six points are out.

Each pad hashes the transfer index, the branch and the shared x.  The
branch matters: two branches' keys share an x whenever B - jA and
B - j'A are negatives of each other, as B = A/2 makes branches 0 and 1,
B = 3A/2 branches 1 and 2 and also 0 and 3, and B = 5A/2 branches 2
and 3.  Without the branch those pads would match, and the two
ciphertexts would XOR to the XOR of their plaintexts: the free-XOR
offset, wherever the two branches differ in one wire's bit.

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
# P-256 field prime, group order and y^2 = x^3 + a_4 x + a_6 (SEC 2, 2.4.2)
FIELD_PRIME = 2**256 - 2**224 + 2**192 + 2**96 - 1
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
CURVE_A4 = -3
CURVE_A6 = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
COORD_BYTES = 32
ELEMENT_BYTES = 1 + COORD_BYTES
# two evaluator bits per transfer; larger groups measured slower (ROADMAP item 7)
BRANCHES = 4
CIPHERTEXT_BYTES = 2 * LABEL_BYTES

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


def _invert_all(values: Sequence[int]) -> list[int]:
    """1/v mod p for every v, with one field inversion (Montgomery's trick).

    The product of all values is inverted once; each inverse is then
    peeled off with two products.  No value may be 0 mod p.
    """
    prefix = []
    product = 1
    for v in values:
        prefix.append(product)
        product = product * v % FIELD_PRIME
    inverse = pow(product, -1, FIELD_PRIME)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inverse % FIELD_PRIME
        inverse = inverse * values[i] % FIELD_PRIME
    return out


def _add_each(points: Sequence[Point], q: Point) -> list[Point]:
    """P + Q for every P; the caller has refused x(P) = x(Q)."""
    qx, qy = q
    inverses = _invert_all([x - qx for x, _ in points])
    sums = []
    for (x, y), inverse in zip(points, inverses):
        slope = (y - qy) * inverse % FIELD_PRIME
        x3 = (slope * slope - x - qx) % FIELD_PRIME
        sums.append((x3, (slope * (qx - x3) - qy) % FIELD_PRIME))
    return sums


def _x_law(x_r: int, x_t: int, x_other: int, inverse: int) -> int:
    """x(R - T) from x(R), x(T), x(R + T) and 1 / (x(R) - x(T)).

    The law is symmetric in +-T: given x(R - T) it yields x(R + T).
    """
    numerator = 2 * (x_r + x_t) * (x_r * x_t + CURVE_A4) + 4 * CURVE_A6
    return (numerator * inverse * inverse - x_other) % FIELD_PRIME


def _x_step(xs: Sequence[int], x_t: int, x_others: Sequence[int]) -> list[int]:
    """x(R - T) for every R, given x(R + T): one batch inversion."""
    inverses = _invert_all([x - x_t for x in xs])
    return [_x_law(x, x_t, o, inv) for x, o, inv in zip(xs, x_others, inverses)]


def _multiples(x: int) -> dict[int, int]:
    """{x(jA): j} for j = 1, 2, 3, from x(A) alone."""
    # x(2A) from the tangent at A; A has odd order, so y^2 != 0
    y_squared = x**3 + CURVE_A4 * x + CURVE_A6
    x2 = ((x * x - CURVE_A4) ** 2 - 8 * CURVE_A6 * x) * pow(
        4 * y_squared, -1, FIELD_PRIME
    ) % FIELD_PRIME
    # 3A = 2A + A, and 2A - A = A
    x3 = _x_law(x2, x, x, pow(x2 - x, -1, FIELD_PRIME))
    return {x: 1, x2: 2, x3: 3}


def _refuse_multiples(xs: Sequence[int], a_x: int, what: str) -> None:
    multiples = _multiples(a_x)
    for i, x in enumerate(xs):
        j = multiples.get(x)
        if j is not None:
            m = "A" if j == 1 else f"{j}A"
            raise OtProtocolError(f"{what} {i} is {m} or -{m}")


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
    return int.from_bytes(hashlib.sha256(b"ot-pad" + material).digest(), "big")


class OtSender:
    """Holds the label pairs; answers the receiver's blinded choices."""

    def __init__(
        self, pairs: Sequence[tuple[WireLabel, WireLabel]], rand_bits: RandomBits
    ) -> None:
        labels = [
            (int.from_bytes(k0.bits, "big"), int.from_bytes(k1.bits, "big"))
            for k0, k1 in pairs
        ]
        labels += [(0, 0)] * (len(labels) % 2)
        # branch j of the transfer over wires w, w + 1: w's label for
        # bit j & 1, then w + 1's for bit j >> 1
        self._plaintexts = [
            [
                labels[w][j & 1] << 8 * LABEL_BYTES | labels[w + 1][j >> 1]
                for j in range(BRANCHES)
            ]
            for w in range(0, len(labels), 2)
        ]
        scalar = _rand_scalar(rand_bits)
        self._key = ec.derive_private_key(scalar, CURVE)
        self._big_a = _affine(self._key)
        self._t_x = _affine(ec.derive_private_key(scalar * scalar % ORDER, CURVE))[0]

    def public_message(self) -> bytes:
        return _encode(self._big_a)

    def respond(self, blinded: bytes) -> bytes:
        """Encrypt every branch of every transfer; one pad per branch."""
        elements = _parse_elements(blinded, len(self._plaintexts), "receiver message")
        points = []
        for key in elements:
            numbers = key.public_numbers()
            points.append((numbers.x, numbers.y))
        ax, ay = self._big_a
        _refuse_multiples([x for x, _ in points], ax, "receiver message: element")
        key_xs: list[list[int]] = [[], []]
        for b_key, b_minus_a in zip(
            elements, _add_each(points, (ax, -ay % FIELD_PRIME))
        ):
            peer = ec.EllipticCurvePublicNumbers(*b_minus_a, CURVE).public_key()
            for branch, point in enumerate((b_key, peer)):
                shared_x = self._key.exchange(ec.ECDH(), point)
                key_xs[branch].append(int.from_bytes(shared_x, "big"))
        while len(key_xs) < BRANCHES:
            key_xs.append(_x_step(key_xs[-1], self._t_x, key_xs[-2]))
        parts = []
        for i, plaintexts in enumerate(self._plaintexts):
            for branch, plaintext in enumerate(plaintexts):
                shared_x = key_xs[branch][i].to_bytes(COORD_BYTES, "big")
                ct = _pad(i, branch, shared_x) ^ plaintext
                parts.append(ct.to_bytes(CIPHERTEXT_BYTES, "big"))
        return b"".join(parts)


class OtReceiver:
    """Blinds the choice bits, then unwraps the chosen labels."""

    def __init__(self, choices: Sequence[int], rand_bits: RandomBits) -> None:
        bits = [c & 1 for c in choices]
        self._count = len(bits)
        bits += [0] * (len(bits) % 2)
        self._choices = [bits[i] | bits[i + 1] << 1 for i in range(0, len(bits), 2)]
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
        # candidates[j][i] = b_i G + jA
        candidates = [[_affine(key) for key in keys]]
        _refuse_multiples([x for x, _ in candidates[0]], a_point[0], "blinding point")
        while len(candidates) < BRANCHES:
            candidates.append(_add_each(candidates[-1], a_point))
        self._keys, self._big_a = keys, big_a
        return b"".join(
            _encode(candidates[choice][i]) for i, choice in enumerate(self._choices)
        )

    def unwrap(self, ciphertexts: bytes) -> list[WireLabel]:
        if self._big_a is None:
            raise OtProtocolError("unwrap before blind")
        n = len(self._choices)
        if len(ciphertexts) != n * BRANCHES * CIPHERTEXT_BYTES:
            raise OtProtocolError(f"expected {n} transfers of {BRANCHES} ciphertexts")
        labels = []
        for i, (choice, key) in enumerate(zip(self._choices, self._keys)):
            pad = _pad(i, choice, key.exchange(ec.ECDH(), self._big_a))
            start = (BRANCHES * i + choice) * CIPHERTEXT_BYTES
            ct = int.from_bytes(ciphertexts[start : start + CIPHERTEXT_BYTES], "big")
            plain = (pad ^ ct).to_bytes(CIPHERTEXT_BYTES, "big")
            labels += WireLabel(plain[:LABEL_BYTES]), WireLabel(plain[LABEL_BYTES:])
        return labels[: self._count]


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

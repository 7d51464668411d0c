"""1-out-of-8 oblivious transfer for the evaluator's input labels.

Simplest OT (Chou-Orlandi, LATINCRYPT 2015) over the NIST P-256 curve
(SEC 2, FIPS 186), about 128-bit security.  The evaluator's bits go in
triples (3i, 3i+1, 3i+2), one transfer per triple, and its choice
c = sum of bit 3i+t * 2^t picks one of eight branches.  Branch j
carries the label of wire 3i+t for bit t of j, for t = 0, 1, 2: 48
bytes together.  Labels are 16-byte strings.  A bit count that is not
a multiple of three pads the last triple with choice bits 0 and filler
wires whose two labels are 16 zero bytes.

The sender publishes A = aG; the receiver answers B = bG + (c + 1)A,
taking (c + 1)A from a per-session table of A ... 8A, so each transfer
costs it one point addition whatever c is and its Python work does not
depend on its choices.  The sender encrypts branch j under a pad from
a(B - (j + 1)A).  Only branch c's equals the receiver's bA, so one pad
decrypts and the others stay opaque, while B is a uniform point
whatever c is.  No UC security is claimed: Genc-Iovino-Rial and
Hauck-Loss (2017) show where Simplest OT falls short of it.

Scalar multiplications run in C through ``cryptography``: fixed-base
``derive_private_key`` and variable-base ECDH ``exchange``, which yields
only the x-coordinate of the product.  They are nearly all of the OT
time.  Per transfer the sender runs two exchanges, for aB and (a - 1)B
(a second key; the draw keeps a > 1), and one on-curve check of B; the
receiver one derivation and one exchange.  The sender recovers y(aB)
by the y-recovery for short Weierstrass curves (Okeya-Sakurai, CHES
2001) with P = B and Q = aB:

    y_Q = (2 a_6 + (a_4 + x_P x_Q)(x_P + x_Q) - x(Q - P)(x_P - x_Q)^2) / (-2 y_P)

and then x(a(B - mA)) = x(aB - mT) for m = 1 ... 8 by affine additions
against a table of T ... 8T, T = aA, built once per session from a
derivation of a^2 mod n.  So a transfer carries three bits for the
sender's cost of one 1-of-2 transfer, plus eight additions and eight
hashes.  The receiver's bG + (c + 1)A is an affine addition too, from
its own table of A ... 8A; the divisions over one message share one
field inversion (Montgomery's trick).

Every element is a 65-byte SEC1 uncompressed point, 04 || x || y (SEC 1
v2, 2.3.3): 32 bytes more than the compressed form, whose decoding
spends a field square root in C to recover y, where the uncompressed
form costs only its on-curve check and hands over x and y as read.
The lengths of the three messages follow from the transfer count
(``transfer_count``, ``ELEMENT_BYTES``, ``RESPONSE_BYTES``), and the
settlement protocol refuses any other length before a message reaches
this module.  Any other prefix (compressed or hybrid), a coordinate not
below p and any point off the curve is an ``OtProtocolError``; P-256
has cofactor 1, so a point on the curve is in the prime-order group.  The sender refuses x(aB) in
{x(jT) : j = 1 ... 8}, that is B = +-A ... +-8A.
The receiver refuses a blinding point bG there, and a blinded point B
there too, so an honest receiver never sends what the sender refuses
(odds about 32 * 2^-256 per transfer).  Both check every element before
any inversion, and every denominator above is nonzero once those
sixteen points are out; y(B) is never 0, as P-256 has no point of
order 2.

Each 48-byte pad is SHA-384 of the transfer index, the branch and the
shared x.  The branch matters: two branches' keys share an x whenever
B - (j + 1)A and B - (j' + 1)A are negatives of each other, that is
B = kA/2 with k = j + j' + 2, as B = 3A/2 makes branches 0 and 1 and
B = 9A/2 four pairs at once.  Without the branch those pads would
match, and the two ciphertexts would XOR to the XOR of their
plaintexts: the free-XOR offset, wherever the two branches differ in
one wire's bit.

The three byte blobs produced here travel as protocol messages; the
pure in-process composition ``ot_transfer``, which returns the chosen
labels as bytes, is what the tests exercise.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Sequence

from cryptography.hazmat.primitives.asymmetric import ec

from .garbling import LABEL_BYTES

CURVE = ec.SECP256R1()
# P-256 field prime, group order and y^2 = x^3 + a_4 x + a_6 (SEC 2, 2.4.2)
FIELD_PRIME = 2**256 - 2**224 + 2**192 + 2**96 - 1
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
CURVE_A4 = -3
CURVE_A6 = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
COORD_BYTES = 32
ELEMENT_BYTES = 1 + 2 * COORD_BYTES
# three evaluator bits per transfer, one of eight branches chosen
BITS_PER_TRANSFER = 3
BRANCHES = 1 << BITS_PER_TRANSFER
CIPHERTEXT_BYTES = BITS_PER_TRANSFER * LABEL_BYTES
# the sender's answer to one transfer: one ciphertext per branch
RESPONSE_BYTES = BRANCHES * CIPHERTEXT_BYTES

RandomBits = Callable[[int], int]
Point = tuple[int, int]


class OtProtocolError(ValueError):
    """Malformed or off-curve key material."""


def transfer_count(bits: int) -> int:
    """Transfers that carry ``bits`` evaluator bits, the last maybe part full."""
    return -(-bits // BITS_PER_TRANSFER)


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


def _add_each(points: Sequence[Point], addends: Sequence[Point]) -> list[Point]:
    """P + Q for every pair, by the tangent where P = Q.

    The caller has refused P = -Q, so every denominator is nonzero.
    """
    inverses = _invert_all(
        [x - qx or 2 * y for (x, y), (qx, _) in zip(points, addends)]
    )
    sums = []
    for (x, y), (qx, qy), inverse in zip(points, addends, inverses):
        rise = y - qy if x != qx else 3 * x * x + CURVE_A4
        slope = rise * inverse % FIELD_PRIME
        x3 = (slope * slope - x - qx) % FIELD_PRIME
        sums.append((x3, (slope * (qx - x3) - qy) % FIELD_PRIME))
    return sums


def _multiples(point: Point) -> list[Point]:
    """[A, 2A, ..., 8A] for A = point, in three batch inversions.

    Each step adds the top entry to every entry; 2A, 4A and 8A come from
    the tangent, whose y is nonzero: P-256 has no point of order 2.
    """
    table = [point]
    while len(table) < BRANCHES:
        table += _add_each([table[-1]] * len(table), table)
    return table


def _refuse_multiples(
    xs: Sequence[int], multiples: Sequence[Point], what: str
) -> None:
    names = {x: j for j, (x, _) in enumerate(multiples, 1)}
    for i, x in enumerate(xs):
        j = names.get(x)
        if j is not None:
            m = "A" if j == 1 else f"{j}A"
            raise OtProtocolError(f"{what} {i} is {m} or -{m}")


def _encode(point: Point) -> bytes:
    x, y = point
    return b"\x04" + x.to_bytes(COORD_BYTES, "big") + y.to_bytes(COORD_BYTES, "big")


def _parse_elements(
    data: bytes, what: str
) -> list[tuple[ec.EllipticCurvePublicKey, int, int]]:
    """Each element's key with the x and y it was read from.

    ``data`` is whole elements, a length the caller has checked.
    ``from_encoded_point`` refuses a coordinate not below p and a point
    off the curve, so the x and y handed back are those of a group element.
    """
    out = []
    for i, start in enumerate(range(0, len(data), ELEMENT_BYTES)):
        element = data[start : start + ELEMENT_BYTES]
        if element[0] != 4:
            raise OtProtocolError(f"{what}: element {i} is not an uncompressed point")
        try:
            key = ec.EllipticCurvePublicKey.from_encoded_point(CURVE, element)
        except ValueError:
            raise OtProtocolError(f"{what}: element {i} is not on the curve") from None
        x = int.from_bytes(element[1 : 1 + COORD_BYTES], "big")
        out.append((key, x, int.from_bytes(element[1 + COORD_BYTES :], "big")))
    return out


def _pad(index: int, branch: int, shared_x: bytes) -> int:
    material = struct.pack("<IB", index, branch) + shared_x
    return int.from_bytes(hashlib.sha384(b"ot-pad" + material).digest(), "big")


class OtSender:
    """Holds the label pairs; answers the receiver's blinded choices."""

    def __init__(
        self, pairs: Sequence[tuple[bytes, bytes]], rand_bits: RandomBits
    ) -> None:
        labels = [
            (int.from_bytes(k0, "big"), int.from_bytes(k1, "big")) for k0, k1 in pairs
        ]
        labels += [(0, 0)] * (-len(labels) % BITS_PER_TRANSFER)
        # branch j of the transfer over wires w, w + 1, w + 2: wire
        # w + t's label for bit t of j, wire w's first
        self._plaintexts = []
        for w in range(0, len(labels), BITS_PER_TRANSFER):
            triple = labels[w : w + BITS_PER_TRANSFER]
            branches = []
            for j in range(BRANCHES):
                plaintext = 0
                for t, pair in enumerate(triple):
                    plaintext = plaintext << 8 * LABEL_BYTES | pair[j >> t & 1]
                branches.append(plaintext)
            self._plaintexts.append(branches)
        scalar = _rand_scalar(rand_bits)
        self._key = ec.derive_private_key(scalar, CURVE)
        # a > 1, so a - 1 is a scalar too
        self._key_less = ec.derive_private_key(scalar - 1, CURVE)
        self._big_a = _affine(self._key)
        # T ... 8T for T = aA = a^2 G; x(aB) = x(mT) just when B = +-mA
        t = _affine(ec.derive_private_key(scalar * scalar % ORDER, CURVE))
        self._t_multiples = _multiples(t)

    def public_message(self) -> bytes:
        return _encode(self._big_a)

    def respond(self, blinded: bytes) -> bytes:
        """Encrypt every branch of every transfer; one pad per branch."""
        elements = _parse_elements(blinded, "receiver message")
        ecdh = ec.ECDH()
        rows = []  # x(B), y(B), x(aB), x((a - 1)B)
        for key, x, y in elements:
            x_ab = int.from_bytes(self._key.exchange(ecdh, key), "big")
            x_less = int.from_bytes(self._key_less.exchange(ecdh, key), "big")
            rows.append((x, y, x_ab, x_less))
        x_abs = [x_ab for _, _, x_ab, _ in rows]
        _refuse_multiples(x_abs, self._t_multiples, "receiver message: element")
        denominators = []
        for _, y, x_ab, _ in rows:
            denominators.append(-2 * y)
            denominators += [x_ab - x_m for x_m, _ in self._t_multiples]
        inverses = iter(_invert_all(denominators))
        parts = []
        for i, ((x, _, x_ab, x_less), plaintexts) in enumerate(
            zip(rows, self._plaintexts)
        ):
            # y(aB) from B = P and the x of aB = Q and (a - 1)B = Q - P
            numerator = (
                2 * CURVE_A6
                + (CURVE_A4 + x * x_ab) * (x + x_ab)
                - x_less * (x - x_ab) ** 2
            )
            y_ab = numerator * next(inverses) % FIELD_PRIME
            # branch j's key is x(a(B - (j + 1)A)) = x(aB - (j + 1)T)
            for branch, (plaintext, (x_m, y_m)) in enumerate(
                zip(plaintexts, self._t_multiples)
            ):
                slope = (y_ab + y_m) * next(inverses) % FIELD_PRIME
                shared_x = (slope * slope - x_ab - x_m) % FIELD_PRIME
                ct = _pad(i, branch, shared_x.to_bytes(COORD_BYTES, "big")) ^ plaintext
                parts.append(ct.to_bytes(CIPHERTEXT_BYTES, "big"))
        return b"".join(parts)


class OtReceiver:
    """Blinds the choice bits, then unwraps the chosen labels."""

    def __init__(self, choices: Sequence[int], rand_bits: RandomBits) -> None:
        bits = [c & 1 for c in choices]
        self._count = len(bits)
        bits += [0] * (-len(bits) % BITS_PER_TRANSFER)
        self._choices = [
            sum(bits[i + t] << t for t in range(BITS_PER_TRANSFER))
            for i in range(0, len(bits), BITS_PER_TRANSFER)
        ]
        self._rand_bits = rand_bits
        self._keys: list[ec.EllipticCurvePrivateKey] = []
        self._big_a: ec.EllipticCurvePublicKey | None = None

    def blind(self, sender_public: bytes) -> bytes:
        ((big_a, x, y),) = _parse_elements(sender_public, "sender message")
        multiples = _multiples((x, y))
        keys = [
            ec.derive_private_key(_rand_scalar(self._rand_bits), CURVE)
            for _ in self._choices
        ]
        blinding = [_affine(key) for key in keys]
        _refuse_multiples([x for x, _ in blinding], multiples, "blinding point")
        # B = bG + (c + 1)A: one addition per transfer, whatever c is
        blinded = _add_each(blinding, [multiples[c] for c in self._choices])
        _refuse_multiples([x for x, _ in blinded], multiples, "blinded point")
        self._keys, self._big_a = keys, big_a
        return b"".join(_encode(point) for point in blinded)

    def unwrap(self, ciphertexts: bytes) -> list[bytes]:
        if self._big_a is None:
            raise OtProtocolError("unwrap before blind")
        labels = []
        for i, (choice, key) in enumerate(zip(self._choices, self._keys)):
            pad = _pad(i, choice, key.exchange(ec.ECDH(), self._big_a))
            start = RESPONSE_BYTES * i + CIPHERTEXT_BYTES * choice
            ct = int.from_bytes(ciphertexts[start : start + CIPHERTEXT_BYTES], "big")
            plain = (pad ^ ct).to_bytes(CIPHERTEXT_BYTES, "big")
            labels += (
                plain[t : t + LABEL_BYTES]
                for t in range(0, CIPHERTEXT_BYTES, LABEL_BYTES)
            )
        return labels[: self._count]


def ot_transfer(
    pairs: Sequence[tuple[bytes, bytes]], choices: Sequence[int], rand_bits: RandomBits
) -> list[bytes]:
    """All three flows composed in-process; returns the chosen labels."""
    if len(pairs) != len(choices):
        raise ValueError("one choice bit per label pair")
    sender = OtSender(pairs, rand_bits)
    receiver = OtReceiver(choices, rand_bits)
    blinded = receiver.blind(sender.public_message())
    return receiver.unwrap(sender.respond(blinded))

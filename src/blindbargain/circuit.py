"""Boolean-circuit form of the fixed-point settlement rules.

``build_mechanism_circuit`` lowers the integer semantics of
``outcome_fixed`` to a flat list of XOR/AND/NOT gates over six input
ranges: each party contributes two k-bit random words and one k_theta-bit
report.  The circuit XORs the word shares, compares them against
hard-wired scaled constants, multiplies with shift-and-add, and selects
the branch with two-input muxes.  Construction is a pure function of the
parameters: identical params yield a byte-identical serialization, which
is what lets the evaluating side rebuild the circuit independently and
compare digests instead of trusting the builder.

The builder folds constants as it emits: an AND with const-0 is
const-0, an AND with const-1 or an XOR with const-0 is the other input,
an XOR with const-1 is a NOT, and a NOT of a constant is the other
constant.  So a multiply by the public ``q_scale`` or ``inv_q_scale``
keeps only the partial products of its set bits, and the AND count
depends on the constants' values as well as on (k_theta, k).  The only
gates that read the constant wires are their own definitions and the
alignment copies that pin the ransom bits to one contiguous range.  A
ransom bit that folds to a constant (``q_scale`` of 0, say) is copied
by a garbled AND rather than a free XOR, so every output wire carries
fresh labels.

Right-shifts cost zero gates: they are bit reindexing.  The product
r2 * inv_q_scale can exceed the output width in branches that are never
selected; a dedicated overflow wire ORs the truncated high bits under
the selecting condition so tests can assert it never fires.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Sequence

from .mechanism import (
    DEFAULT_MAX_WIDTH,
    MechanismOutcome,
    MechanismParams,
    ScaledParams,
    product_widths,
)

MAGIC = b"BCIR"
FORMAT_VERSION = 2
NOT_SENTINEL = 0xFFFFFFFF


class GateKind(IntEnum):
    XOR = 0
    AND = 1
    NOT = 2


@dataclass(frozen=True)
class Gate:
    """One two-input (or NOT) gate; ``out`` is assigned exactly once."""

    kind: GateKind
    in_a: int
    in_b: int | None
    out: int


@dataclass(frozen=True)
class WireRange:
    start: int
    length: int

    def indices(self) -> range:
        return range(self.start, self.start + self.length)


@dataclass(frozen=True)
class InputMap:
    """Where each party's inputs live on the wire vector, LSB first."""

    s0_v: WireRange
    s1_v: WireRange
    theta_v: WireRange
    s0_a: WireRange
    s1_a: WireRange
    theta_a: WireRange

    def ranges(self) -> tuple[WireRange, ...]:
        return (self.s0_v, self.s1_v, self.theta_v, self.s0_a, self.s1_a, self.theta_a)

    def victim_ranges(self) -> tuple[WireRange, ...]:
        return (self.s0_v, self.s1_v, self.theta_v)

    def attacker_ranges(self) -> tuple[WireRange, ...]:
        return (self.s0_a, self.s1_a, self.theta_a)

    @property
    def total_bits(self) -> int:
        return sum(r.length for r in self.ranges())

    @property
    def victim_bits(self) -> int:
        """Count of victim input wires, which precede the attacker's."""
        return sum(r.length for r in self.victim_ranges())


@dataclass(frozen=True)
class OutputMap:
    """Output wires: the ransom bits, both flags, and the overflow probe.

    ``overflow`` is a builder diagnostic, not a protocol output; it is
    serialized so rebuilt circuits stay byte-identical, but it is not
    part of the revealed result.
    """

    r_f: WireRange
    alpha: int
    sigma: int
    overflow: int


@dataclass(frozen=True)
class Circuit:
    wire_count: int
    gates: tuple[Gate, ...]
    inputs: InputMap
    outputs: OutputMap

    def __post_init__(self) -> None:
        assigned = set()
        for rng in self.inputs.ranges():
            for w in rng.indices():
                if w in assigned:
                    raise ValueError("input ranges overlap")
                assigned.add(w)
        if assigned != set(range(len(assigned))):
            raise ValueError("input ranges must be a prefix of the wire vector")
        for gate in self.gates:
            if gate.kind not in (GateKind.XOR, GateKind.AND, GateKind.NOT):
                raise ValueError(f"unknown gate kind {gate.kind!r}")
            needs_b = gate.kind is not GateKind.NOT
            if needs_b != (gate.in_b is not None):
                raise ValueError("gate arity does not match its kind")
            srcs = (gate.in_a,) if gate.in_b is None else (gate.in_a, gate.in_b)
            for src in srcs:
                if src not in assigned:
                    raise ValueError(f"gate reads unassigned wire {src}")
            if gate.out in assigned or gate.out >= self.wire_count:
                raise ValueError(f"wire {gate.out} assigned twice or out of range")
            assigned.add(gate.out)
        if len(assigned) != self.wire_count:
            raise ValueError("wire_count does not match assigned wires")
        out_wires = list(self.outputs.r_f.indices())
        out_wires += [self.outputs.alpha, self.outputs.sigma, self.outputs.overflow]
        for w in out_wires:
            if w not in assigned:
                raise ValueError(f"output wire {w} is never assigned")

    @property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g.kind is GateKind.AND)

    def output_wires(self) -> tuple[int, ...]:
        """Revealed output wires: r_f LSB first, then alpha, then sigma."""
        return (*self.outputs.r_f.indices(), self.outputs.alpha, self.outputs.sigma)


class CircuitBuilder:
    """Gate assembler: wires are write-once, emission order is the topo order."""

    def __init__(self) -> None:
        self.wire_count = 0
        self.gates: list[Gate] = []
        self._zero: int | None = None
        self._one: int | None = None

    def new_inputs(self, length: int) -> list[int]:
        if self.gates:
            raise ValueError("inputs must be allocated before any gate")
        wires = list(range(self.wire_count, self.wire_count + length))
        self.wire_count += length
        return wires

    def _emit(self, kind: GateKind, in_a: int, in_b: int | None) -> int:
        out = self.wire_count
        self.wire_count += 1
        self.gates.append(Gate(kind, in_a, in_b, out))
        return out

    def xor(self, a: int, b: int) -> int:
        if a == self._zero:
            return b
        if b == self._zero:
            return a
        if a == self._one:
            return self.not_(b)
        if b == self._one:
            return self.not_(a)
        return self._emit(GateKind.XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        if self._zero in (a, b):
            return self._zero
        if a == self._one:
            return b
        if b == self._one:
            return a
        return self._emit(GateKind.AND, a, b)

    def not_(self, a: int) -> int:
        if a == self._zero:
            return self.one()
        if a == self._one:
            return self._zero
        return self._emit(GateKind.NOT, a, None)

    def copy(self, a: int) -> int:
        """A fresh wire equal to ``a``, never folded.

        A computed wire is copied by a free XOR with const-0.  A constant
        is copied by a garbled AND with itself, whose output labels are
        fresh: the constants' own labels are public functions of the
        garbling offset (0 and the offset), and no output may carry them.
        """
        if a in (self._zero, self._one):
            return self._emit(GateKind.AND, a, a)
        return self._emit(GateKind.XOR, a, self.zero())

    def or_(self, a: int, b: int) -> int:
        return self.xor(self.xor(a, b), self.and_(a, b))

    def zero(self) -> int:
        if self._zero is None:
            self._zero = self._emit(GateKind.XOR, 0, 0)
        return self._zero

    def one(self) -> int:
        if self._one is None:
            self._one = self._emit(GateKind.NOT, self.zero(), None)
        return self._one

    def const_bits(self, value: int, width: int) -> list[int]:
        if value < 0 or value >= 1 << width:
            raise ValueError(f"constant {value} does not fit in {width} bits")
        return [self.one() if (value >> i) & 1 else self.zero() for i in range(width)]

    def xor_vec(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        self._match(a, b)
        return [self.xor(x, y) for x, y in zip(a, b)]

    def zero_extend(self, bits: Sequence[int], width: int) -> list[int]:
        if width < len(bits):
            raise ValueError("cannot extend to a narrower width")
        return list(bits) + [self.zero() for _ in range(width - len(bits))]

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
        """Ripple-carry sum of equal-width vectors; returns (bits, carry out)."""
        self._match(a, b)
        carry = self.zero()
        out = []
        for x, y in zip(a, b):
            half = self.xor(x, y)
            out.append(self.xor(half, carry))
            carry = self.xor(self.and_(x, y), self.and_(carry, half))
        return out, carry

    def less_than(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Unsigned a < b.

        Scans LSB to MSB; at each bit either the bits differ (one term)
        or they are equal and the verdict carries (other term), so the
        two AND terms are exclusive and XOR acts as OR.
        """
        self._match(a, b)
        lt = self.zero()
        for x, y in zip(a, b):
            eq = self.not_(self.xor(x, y))
            lt = self.xor(self.and_(self.not_(x), y), self.and_(eq, lt))
        return lt

    def mux(self, sel: int, x: int, y: int) -> int:
        # x if sel else y, one AND
        return self.xor(y, self.and_(sel, self.xor(x, y)))

    def mux_vec(self, sel: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        self._match(xs, ys)
        return [self.mux(sel, x, y) for x, y in zip(xs, ys)]

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Shift-and-add product, len(a) + len(b) bits."""
        m = len(a)
        acc = [self.zero() for _ in range(m + len(b))]
        for j, bj in enumerate(b):
            partial = [self.and_(ai, bj) for ai in a]
            summed, carry = self.add(acc[j : j + m], partial)
            acc[j : j + m] = summed
            # bits above j+m are still untouched zeros, so the carry
            # lands in a bare wire and cannot ripple further
            acc[j + m] = self.xor(acc[j + m], carry)
        return acc

    def or_tree(self, bits: Sequence[int]) -> int:
        if not bits:
            raise ValueError("or_tree needs at least one bit")
        out = bits[0]
        for b in bits[1:]:
            out = self.or_(out, b)
        return out

    @staticmethod
    def _match(a: Sequence[int], b: Sequence[int]) -> None:
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")


def party_input_bits(k: int, k_theta: int, s0: int, s1: int, report: int) -> list[int]:
    """One party's input bits in circuit order: s0, s1, report, each LSB first.

    The victim's bits occupy the first input wires and the attacker's
    the next, both in this layout.
    """
    bits = []
    for value, width in ((s0, k), (s1, k), (report, k_theta)):
        if value < 0 or value >= 1 << width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        bits += [(value >> i) & 1 for i in range(width)]
    return bits


def build_mechanism_circuit(params: MechanismParams, scaled: ScaledParams) -> Circuit:
    """Lower the fixed-point settlement rules to gates.

    The gate list mirrors ``outcome_fixed`` exactly: same products, same
    shifts, same comparisons, same tie directions.  Both sides of the
    protocol call this with the agreed parameters and must obtain the
    same bytes.
    """
    if max(product_widths(params, scaled)) > DEFAULT_MAX_WIDTH:
        raise OverflowError(
            f"intermediate products exceed the declared width {DEFAULT_MAX_WIDTH}"
        )
    k, kt = params.k, params.k_theta
    bld = CircuitBuilder()
    # the victim's inputs, then the attacker's, as party_input_bits lays them out
    s0_v = bld.new_inputs(k)
    s1_v = bld.new_inputs(k)
    theta_v = bld.new_inputs(kt)
    s0_a = bld.new_inputs(k)
    s1_a = bld.new_inputs(k)
    theta_a = bld.new_inputs(kt)
    inputs = InputMap(
        s0_v=WireRange(s0_v[0], k),
        s1_v=WireRange(s1_v[0], k),
        theta_v=WireRange(theta_v[0], kt),
        s0_a=WireRange(s0_a[0], k),
        s1_a=WireRange(s1_a[0], k),
        theta_a=WireRange(theta_a[0], kt),
    )

    # Joint randomness: neither party controls the combined words.
    word0 = bld.xor_vec(s0_v, s0_a)
    word1 = bld.xor_vec(s1_v, s1_a)

    # p_scale reaches 2^k when p_bar = 1, so compare one bit wider.
    cmp_w = k + 1
    below_p = bld.less_than(
        bld.zero_extend(word0, cmp_w), bld.const_bits(scaled.p_scale, cmp_w)
    )
    below_q = bld.less_than(
        bld.zero_extend(word1, cmp_w), bld.const_bits(scaled.q_scale, cmp_w)
    )

    # r2 = (q_scale * theta_v) >> k on the screening branch, else theta_v.
    prod1 = bld.multiply(theta_v, bld.const_bits(scaled.q_scale, k))
    r2 = bld.mux_vec(below_p, prod1[k:], theta_v)

    accept = bld.not_(bld.less_than(r2, theta_a))

    # r3 = max((r2 * inv_q_scale) >> k, theta_a), carried at full width.
    inv_w = scaled.inv_q_scale.bit_length()
    prod2 = bld.multiply(r2, bld.const_bits(scaled.inv_q_scale, inv_w))
    undone = prod2[k:]
    w3 = len(undone)
    theta_a_ext = bld.zero_extend(theta_a, w3)
    r3 = bld.mux_vec(bld.less_than(undone, theta_a_ext), theta_a_ext, undone)
    in_deal = bld.not_(bld.less_than(bld.zero_extend(theta_v, w3), r3))

    countered = bld.and_(bld.not_(accept), in_deal)
    pay_counter = bld.and_(countered, below_q)
    sigma = bld.and_(countered, bld.not_(below_q))

    out_w = kt + 1
    zeros = [bld.zero() for _ in range(out_w)]
    picked = bld.mux_vec(pay_counter, r3[:out_w], zeros)
    r_f_bits = bld.mux_vec(accept, bld.zero_extend(r2, out_w), picked)

    # Alignment pass: pin the ransom to one contiguous range.
    bld.zero()  # allocated before r_f_start, so the copies stay contiguous
    r_f_start = bld.wire_count
    r_f_bits = [bld.copy(b) for b in r_f_bits]

    alpha = bld.or_(bld.or_tree(r_f_bits), sigma)
    # r3 <= theta_v < 2^kt whenever the counter branch is live, so the
    # bits dropped by the truncation above must all be zero then.
    overflow = bld.and_(countered, bld.or_tree(r3[kt:]))

    outputs = OutputMap(
        r_f=WireRange(r_f_start, out_w), alpha=alpha, sigma=sigma, overflow=overflow
    )
    return Circuit(bld.wire_count, tuple(bld.gates), inputs, outputs)


def eval_gates(
    wire_count: int, gates: Iterable[Gate], inputs: Sequence[int], lanes: int = 1
) -> list[int]:
    """Bit-sliced plaintext evaluation; returns every wire's word.

    ``inputs`` are the words of wires 0 .. len(inputs) - 1.  Bit s of
    each word is sample s, so one int operation advances ``lanes``
    samples at once; a single run is one lane.
    """
    ones = (1 << lanes) - 1
    wires = list(inputs) + [0] * (wire_count - len(inputs))
    for gate in gates:
        if gate.kind is GateKind.XOR:
            wires[gate.out] = wires[gate.in_a] ^ wires[gate.in_b]
        elif gate.kind is GateKind.AND:
            wires[gate.out] = wires[gate.in_a] & wires[gate.in_b]
        else:
            wires[gate.out] = wires[gate.in_a] ^ ones
    return wires


def eval_plain(circuit: Circuit, input_bits: Sequence[int]) -> tuple[int, ...]:
    """Plaintext reference evaluation; returns (r_f bits..., alpha, sigma)."""
    if len(input_bits) != circuit.inputs.total_bits:
        raise ValueError(
            f"expected {circuit.inputs.total_bits} input bits, got {len(input_bits)}"
        )
    wires = eval_gates(circuit.wire_count, circuit.gates, [b & 1 for b in input_bits])
    return tuple(wires[w] for w in circuit.output_wires())


def encode_inputs(
    circuit: Circuit,
    theta_v: int,
    theta_a: int,
    s0_v: int,
    s1_v: int,
    s0_a: int,
    s1_a: int,
) -> list[int]:
    """Pack the six field values into the circuit's input bit-vector."""
    k, kt = circuit.inputs.s0_v.length, circuit.inputs.theta_v.length
    return party_input_bits(k, kt, s0_v, s1_v, theta_v) + party_input_bits(
        k, kt, s0_a, s1_a, theta_a
    )


def decode_outcome(circuit: Circuit, output_bits: Sequence[int]) -> MechanismOutcome:
    """Rebuild the settlement from the revealed output bits."""
    n = circuit.outputs.r_f.length
    if len(output_bits) != n + 2:
        raise ValueError(f"expected {n + 2} output bits, got {len(output_bits)}")
    r_f = sum(bit << i for i, bit in enumerate(output_bits[:n]))
    return MechanismOutcome(output_bits[n], Fraction(r_f), output_bits[n + 1])


def serialize_circuit(circuit: Circuit) -> bytes:
    """Canonical little-endian byte form; input to the digest and the wire."""
    parts = [
        struct.pack(
            "<4sHHII", MAGIC, FORMAT_VERSION, 0, circuit.wire_count, len(circuit.gates)
        )
    ]
    for rng in circuit.inputs.ranges():
        parts.append(struct.pack("<II", rng.start, rng.length))
    parts.append(
        struct.pack(
            "<IIIII",
            circuit.outputs.r_f.start,
            circuit.outputs.r_f.length,
            circuit.outputs.alpha,
            circuit.outputs.sigma,
            circuit.outputs.overflow,
        )
    )
    for gate in circuit.gates:
        in_b = NOT_SENTINEL if gate.in_b is None else gate.in_b
        parts.append(struct.pack("<BIII", gate.kind, gate.in_a, in_b, gate.out))
    return b"".join(parts)


def circuit_digest(circuit: Circuit) -> bytes:
    return hashlib.sha256(serialize_circuit(circuit)).digest()

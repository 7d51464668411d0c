"""Boolean-circuit form of the fixed-point settlement rules.

``build_mechanism_circuit`` lowers the integer semantics of
``outcome_fixed`` to a flat list of XOR/AND/NOT gates over the two
parties' input bits.  Each party lays out two k-bit random words and one
k_theta-bit report (``party_input_bits``), and the circuit reads only
the positions of that layout that reach a revealed output.  The format
is positional: gate i drives the wire after the inputs and the i earlier
gates, so no gate names its output.
A circuit is one packed gate table, the bytes that ``serialize_circuit``
emits after its header and hashes into the digest: a ``<BII`` row
(kind, in_a, in_b) per gate, ``NOT_SENTINEL`` as a NOT's second input,
checked once as plain ints when the circuit is made.  The garbler and
the evaluators read the rows; a built circuit holds no per-gate object,
so a long-lived process that keeps many sessions does not carry their
gates through its garbage collector.  ``Circuit.gates``, a view for
tests and tracing, builds ``Gate`` tuples from the table on demand.
The circuit XORs the word shares, compares them against
hard-wired scaled constants, multiplies by the public constants through
shared partial sums (``CircuitBuilder.multiply_const``), and selects the
branch with two-input muxes.  Construction is a pure function of the
parameters: identical params yield a byte-identical serialization, which
is what lets the evaluating side rebuild the circuit independently and
compare digests instead of trusting the builder.

Two mechanisms keep only the gates the public profile needs.  Folding:
constants are not wires.  ``ZERO`` and ``ONE`` are values the gate
methods fold away as they emit, so no gate reads a constant or one wire
twice: AND(x, ZERO) is ZERO, AND(x, ONE), AND(x, x) and XOR(x, ZERO)
are x, XOR(x, ONE) is NOT x, XOR(x, x) is ZERO, and a NOT of a constant
is the other constant; a mux on a constant select is the input it
picks.  A multiply by the public ``q_scale`` or ``inv_q_scale`` is a
sum of shifted copies of its input, one per set bit of the constant,
where a sum t = v + (v << d) built once stands in for every disjoint
pair of copies d apart; an adder spends one AND per bit.  So a constant
with one set bit, as at q = 2^-j, multiplies for free, and the AND count
depends on the constants' values as well as on (k_theta, k).
Liveness: ``CircuitBuilder.finish`` walks back from the revealed
outputs, drops every gate and input wire they do not reach, and
renumbers the rest.  A comparison against a constant ignores every bit
below the constant's lowest set bit, so at q = 1/4, k = 32 the low 30
bits of s1 and bit 0 of s0 are dead, and of a product's bits below the
right-shift only the carries stay.  The circuit records which layout
positions each party still feeds, and only those bits are encoded, sent
and transferred.

Right-shifts cost zero gates: they are bit reindexing.  The product
r2 * inv_q_scale can exceed the output width, but only in branches that
are never selected: ``in_deal`` compares theta_v against the full-width
r3, so on the counter branch r3 <= theta_v < 2^k_theta.  The mechanism
never settles above the victim's report, so the revealed ransom has
k_theta bits; a further bit would be ZERO, and ``finish`` refuses a
constant output, which has no labels to reveal.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .mechanism import MechanismOutcome, MechanismParams, ScaledParams

MAGIC = b"BCIR"
FORMAT_VERSION = 5
NOT_SENTINEL = 0xFFFFFFFF
# one gate table row: kind, first input, second input
_ROW = struct.Struct("<BII")


class GateKind(IntEnum):
    XOR = 0
    AND = 1
    NOT = 2


class Gate(NamedTuple):
    """One two-input (or NOT) gate; gate i drives wire n_inputs + i."""

    kind: GateKind
    in_a: int
    in_b: int | None


# the members as plain names: an Enum attribute lookup costs as much as
# the gate work it selects in the loops below
_XOR, _AND, _NOT = GateKind


@dataclass(frozen=True)
class Circuit:
    """A positional gate table over the two parties' live input bits.

    Each party lays out its inputs as ``party_input_bits`` describes,
    2k + k_theta bits; ``victim_positions`` and ``attacker_positions``
    are the increasing positions of that layout the circuit reads.  Wires
    0 .. victim_inputs - 1 carry the victim's bits at those positions and
    the next attacker_inputs wires the attacker's; gate i drives wire
    n_inputs + i.  ``table`` holds one ``<BII`` row per gate, as
    ``CircuitBuilder.finish`` packs it.  ``outputs`` are the revealed
    wires, r_f LSB first, then alpha, then sigma.
    """

    k: int
    k_theta: int
    victim_positions: tuple[int, ...]
    attacker_positions: tuple[int, ...]
    table: bytes = field(repr=False)
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        layout = 2 * self.k + self.k_theta
        for positions in (self.victim_positions, self.attacker_positions):
            if list(positions) != sorted(set(positions)) or not all(
                0 <= p < layout for p in positions
            ):
                raise ValueError(
                    f"input positions must increase within the {layout}-bit layout"
                )
        if len(self.table) % _ROW.size:
            raise ValueError("gate table is not a whole number of rows")
        n_inputs, not_ = self.n_inputs, int(_NOT)
        # gate i drives wire n_inputs + i, so it reads only wires below that
        for bound, (kind, in_a, in_b) in enumerate(self.rows(), n_inputs):
            if kind > not_:
                raise ValueError(f"unknown gate kind {kind}")
            if (kind == not_) != (in_b == NOT_SENTINEL):
                raise ValueError("gate arity does not match its kind")
            if in_a >= bound or (kind != not_ and in_b >= bound):
                src = in_a if in_a >= bound else in_b
                raise ValueError(
                    f"gate {bound - n_inputs} reads wire {src}, not an earlier one"
                )
        wire_count = n_inputs + len(self.table) // _ROW.size
        for w in self.outputs:
            if not 0 <= w < wire_count:
                raise ValueError(f"output wire {w} does not exist")

    @property
    def victim_inputs(self) -> int:
        return len(self.victim_positions)

    @property
    def attacker_inputs(self) -> int:
        return len(self.attacker_positions)

    @property
    def n_inputs(self) -> int:
        return self.victim_inputs + self.attacker_inputs

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """The table's (kind, in_a, in_b) rows as plain ints, one at a time."""
        return _ROW.iter_unpack(self.table)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The rows as ``Gate`` tuples, built on each call, for tests and tracing."""
        kinds = tuple(GateKind)
        return tuple(
            Gate(kinds[k], a, None if b == NOT_SENTINEL else b) for k, a, b in self.rows()
        )

    @cached_property
    def and_count(self) -> int:
        return self.table[:: _ROW.size].count(_AND)

    @cached_property
    def _digest(self) -> bytes:
        # the fields are immutable, so one hash serves every later check
        return hashlib.sha256(serialize_circuit(self)).digest()


# Constants are not wires: the gate methods fold them away, so no gate
# reads one.  Neither fits a list index, so one that leaked would raise.
ZERO, ONE = -(1 << 64), 1 - (1 << 64)


def _disjoint_pairs(held: Sequence[int], d: int) -> list[tuple[int, int]]:
    """Most pairs (i, i + d) of the increasing shifts ``held``, none sharing one.

    Taking the lowest free i first is optimal: the shifts d apart form
    chains, and each chain yields half its length rounded down.
    """
    present = set(held)
    taken: set[int] = set()
    pairs = []
    for i in held:
        if i not in taken and i + d in present and i + d not in taken:
            taken.update((i, i + d))
            pairs.append((i, i + d))
    return pairs


class CircuitBuilder:
    """Gate assembler: wires are write-once, emission order is the topo order.

    Emitted gates are kept as three plain lists (kind, first and second
    input); ``finish`` packs each gate it keeps into the circuit's table.
    """

    def __init__(self) -> None:
        self.n_inputs = 0
        self._kinds: list[GateKind] = []
        self._in_a: list[int] = []
        self._in_b: list[int | None] = []

    def new_inputs(self, length: int) -> list[int]:
        if self._kinds:
            raise ValueError("inputs must be allocated before any gate")
        wires = list(range(self.n_inputs, self.n_inputs + length))
        self.n_inputs += length
        return wires

    def _emit(self, kind: GateKind, in_a: int, in_b: int | None) -> int:
        self._kinds.append(kind)
        self._in_a.append(in_a)
        self._in_b.append(in_b)
        return self.n_inputs + len(self._kinds) - 1

    def xor(self, a: int, b: int) -> int:
        if a == b:
            return ZERO
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a == ONE:
            return self.not_(b)
        if b == ONE:
            return self.not_(a)
        return self._emit(_XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        if a == b:
            return a
        if ZERO in (a, b):
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        return self._emit(_AND, a, b)

    def not_(self, a: int) -> int:
        if a == ZERO:
            return ONE
        if a == ONE:
            return ZERO
        return self._emit(_NOT, a, None)

    def or_(self, a: int, b: int) -> int:
        return self.xor(self.xor(a, b), self.and_(a, b))

    def const_bits(self, value: int, width: int) -> list[int]:
        if value < 0 or value >= 1 << width:
            raise ValueError(f"constant {value} does not fit in {width} bits")
        return [ONE if (value >> i) & 1 else ZERO for i in range(width)]

    def xor_vec(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        self._match(a, b)
        return [self.xor(x, y) for x, y in zip(a, b)]

    def zero_extend(self, bits: Sequence[int], width: int) -> list[int]:
        if width < len(bits):
            raise ValueError("cannot extend to a narrower width")
        return list(bits) + [ZERO] * (width - len(bits))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
        """Ripple-carry sum of equal-width vectors; returns (bits, carry out).

        One AND per bit: the free-XOR full adder of Kolesnikov, Sadeghi
        and Schneider carries carry ^ ((x ^ carry) & (y ^ carry)), the
        majority of the three bits.  Where x or y is ZERO the bit is a
        half adder, one XOR and one AND.
        """
        self._match(a, b)
        carry = ZERO
        out = []
        for x, y in zip(a, b):
            if x == ZERO:
                x, y = y, x
            if y == ZERO:
                out.append(self.xor(x, carry))
                carry = self.and_(x, carry)
                continue
            x_carry = self.xor(x, carry)
            out.append(self.xor(x_carry, y))
            carry = self.xor(carry, self.and_(x_carry, self.xor(y, carry)))
        return out, carry

    def _add_at(self, acc: Sequence[int], v: Sequence[int], shift: int) -> list[int]:
        """acc + (v << shift), modulo 2^len(acc)."""
        top = len(acc)
        if shift >= top:
            return list(acc)
        summed, _ = self.add(acc[shift:], self.zero_extend(v[: top - shift], top - shift))
        return list(acc[:shift]) + summed

    def less_than(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Unsigned a < b, one AND per bit.

        Scans LSB to MSB: where the bits differ, b's bit decides,
        otherwise the verdict carries.  lt ^ ((x ^ y) & (y ^ lt)) is y
        when x != y and lt when x == y.
        """
        self._match(a, b)
        lt = ZERO
        for x, y in zip(a, b):
            lt = self.xor(lt, self.and_(self.xor(x, y), self.xor(y, lt)))
        return lt

    def mux(self, sel: int, x: int, y: int) -> int:
        # x if sel else y, one AND; a constant select picks without a gate
        if sel == ONE:
            return x
        if sel == ZERO:
            return y
        return self.xor(y, self.and_(sel, self.xor(x, y)))

    def mux_vec(self, sel: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        self._match(xs, ys)
        return [self.mux(sel, x, y) for x, y in zip(xs, ys)]

    def multiply_const(self, a: Sequence[int], c: int, width: int) -> list[int]:
        """a * c modulo 2^width for a public constant c, sharing partial sums.

        Each set bit i of c is a term: a at shift i.  While one vector v
        holds at least two disjoint pairs of shifts (i, i + d), the sum
        t = v + (v << d) is built once and stands in for each pair, at
        shift i (Hartley's common-subexpression constant multiplication).
        The vector and d with the most pairs go first, ties to the
        earlier vector and then the smaller d, so the build stays a pure
        function of (len(a), c, width).  The remaining terms are summed
        in order of shift.  A c with one set bit emits no gate.
        """
        if c < 0:
            raise ValueError(f"constant {c} is negative")
        vectors = [list(a)]
        # a term at shift width or above adds nothing modulo 2^width
        shifts = [[i for i in range(min(c.bit_length(), width)) if c >> i & 1]]
        while True:
            best: list[tuple[int, int]] = []
            for index, held in enumerate(shifts):
                if len(held) < 4:
                    continue  # two disjoint pairs need four shifts
                for d in range(1, held[-1] - held[0]):
                    pairs = _disjoint_pairs(held, d)
                    if len(pairs) >= 2 and len(pairs) > len(best):
                        best, chosen, gap = pairs, index, d
            if not best:
                break
            v = vectors[chosen]
            low = best[0][0]
            t = self._add_at(self.zero_extend(v, len(v) + gap + 1), v, gap)
            paired = {i for pair in best for i in pair}
            shifts[chosen] = [i for i in shifts[chosen] if i not in paired]
            vectors.append(t[: width - low])
            shifts.append([i for i, _ in best])
        terms = sorted((i, index) for index, held in enumerate(shifts) for i in held)
        acc = [ZERO] * width
        for i, index in terms:
            acc = self._add_at(acc, vectors[index], i)
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

    def finish(self, k: int, k_theta: int, outputs: Sequence[int]) -> Circuit:
        """The circuit of everything ``outputs`` reach, renumbered.

        The first 2k + k_theta inputs are the victim's layout, the rest
        the attacker's.  A gate or input wire no output reaches is
        dropped.  An output must be a wire: a constant has no labels to
        reveal.
        """
        if ZERO in outputs or ONE in outputs:
            raise ValueError("a constant cannot be a revealed output")
        n_in, kinds, in_a, in_b = self.n_inputs, self._kinds, self._in_a, self._in_b
        live = bytearray(n_in + len(kinds))
        for w in outputs:
            live[w] = 1
        for wire in range(len(live) - 1, n_in - 1, -1):
            if live[wire]:
                position = wire - n_in
                live[in_a[position]] = 1
                if in_b[position] is not None:
                    live[in_b[position]] = 1
        layout = 2 * k + k_theta
        kept = [w for w in range(n_in) if live[w]]
        index = [0] * len(live)
        for new, w in enumerate(kept):
            index[w] = new
        rows = []
        for position, kind in enumerate(kinds):
            wire = n_in + position
            if not live[wire]:
                continue
            index[wire] = len(kept) + len(rows)
            b = in_b[position]
            rows.append(
                _ROW.pack(kind, index[in_a[position]], NOT_SENTINEL if b is None else index[b])
            )
        return Circuit(
            k,
            k_theta,
            tuple(w for w in kept if w < layout),
            tuple(w - layout for w in kept if w >= layout),
            b"".join(rows),
            tuple(index[w] for w in outputs),
        )


def party_input_bits(
    circuit: Circuit, positions: Sequence[int], s0: int, s1: int, report: int
) -> list[int]:
    """One party's input bits, as the circuit reads them.

    The party's layout is s0 and s1 (k bits each) and then the report
    (k_theta bits), each LSB first; the result holds the layout's bits
    at ``positions``, the party's ``victim_positions`` or
    ``attacker_positions``.  Every value must fit its full width, read
    or not.
    """
    layout = []
    for value, width in ((s0, circuit.k), (s1, circuit.k), (report, circuit.k_theta)):
        if value < 0 or value >= 1 << width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        layout += [(value >> i) & 1 for i in range(width)]
    return [layout[p] for p in positions]


def build_mechanism_circuit(params: MechanismParams, scaled: ScaledParams) -> Circuit:
    """Lower the fixed-point settlement rules to gates.

    The gate list mirrors ``outcome_fixed`` exactly: same products, same
    shifts, same comparisons, same tie directions.  Both sides of the
    protocol call this with the agreed parameters and must obtain the
    same bytes.  ``ScaledParams.from_params`` has bounded the product
    widths.
    """
    k, kt = params.k, params.k_theta
    bld = CircuitBuilder()
    # the victim's inputs, then the attacker's, as party_input_bits lays them out
    s0_v = bld.new_inputs(k)
    s1_v = bld.new_inputs(k)
    theta_v = bld.new_inputs(kt)
    s0_a = bld.new_inputs(k)
    s1_a = bld.new_inputs(k)
    theta_a = bld.new_inputs(kt)

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
    prod1 = bld.multiply_const(theta_v, scaled.q_scale, kt + k)
    r2 = bld.mux_vec(below_p, prod1[k:], theta_v)

    accept = bld.not_(bld.less_than(r2, theta_a))

    # r3 = max((r2 * inv_q_scale) >> k, theta_a), carried at full width.
    inv_w = scaled.inv_q_scale.bit_length()
    prod2 = bld.multiply_const(r2, scaled.inv_q_scale, kt + inv_w)
    undone = prod2[k:]
    w3 = len(undone)
    theta_a_ext = bld.zero_extend(theta_a, w3)
    r3 = bld.mux_vec(bld.less_than(undone, theta_a_ext), theta_a_ext, undone)
    in_deal = bld.not_(bld.less_than(bld.zero_extend(theta_v, w3), r3))

    countered = bld.and_(bld.not_(accept), in_deal)
    pay_counter = bld.and_(countered, below_q)
    sigma = bld.and_(countered, bld.not_(below_q))

    # r_f <= theta_v < 2^k_theta, so the ransom is revealed at k_theta bits
    picked = [bld.and_(pay_counter, b) for b in r3[:kt]]
    r_f_bits = bld.mux_vec(accept, r2, picked)
    alpha = bld.or_(bld.or_tree(r_f_bits), sigma)

    return bld.finish(k, kt, (*r_f_bits, alpha, sigma))


def eval_gates(
    gates: Iterable[tuple[int, int, int | None]], inputs: Sequence[int], lanes: int = 1
) -> list[int]:
    """Bit-sliced plaintext evaluation; returns every wire's word.

    ``gates`` are table rows (``Circuit.rows``) or ``Gate``s: the kind's
    value selects the operation, and a NOT's second input is not read.
    ``inputs`` are the words of the input wires, and gate i appends the
    word of wire len(inputs) + i.  Bit s of each word is sample s, so
    one int operation advances ``lanes`` samples at once; a single run
    is one lane.
    """
    ones = (1 << lanes) - 1
    wires = list(inputs)
    for kind, in_a, in_b in gates:
        if kind == _XOR:
            wires.append(wires[in_a] ^ wires[in_b])
        elif kind == _AND:
            wires.append(wires[in_a] & wires[in_b])
        else:
            wires.append(wires[in_a] ^ ones)
    return wires


def eval_plain(circuit: Circuit, input_bits: Sequence[int]) -> tuple[int, ...]:
    """Plaintext reference evaluation; returns (r_f bits..., alpha, sigma)."""
    if len(input_bits) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input bits, got {len(input_bits)}"
        )
    wires = eval_gates(circuit.rows(), [b & 1 for b in input_bits])
    return tuple(wires[w] for w in circuit.outputs)


def encode_inputs(
    circuit: Circuit,
    theta_v: int,
    theta_a: int,
    s0_v: int,
    s1_v: int,
    s0_a: int,
    s1_a: int,
) -> list[int]:
    """Pack the six field values into the circuit's input bit-vector:
    the victim's live bits, then the attacker's."""
    return party_input_bits(
        circuit, circuit.victim_positions, s0_v, s1_v, theta_v
    ) + party_input_bits(circuit, circuit.attacker_positions, s0_a, s1_a, theta_a)


def decode_outcome(circuit: Circuit, output_bits: Sequence[int]) -> MechanismOutcome:
    """Rebuild the settlement from the revealed output bits."""
    if len(output_bits) != len(circuit.outputs):
        raise ValueError(
            f"expected {len(circuit.outputs)} output bits, got {len(output_bits)}"
        )
    *r_f_bits, alpha, sigma = output_bits
    r_f = sum(bit << i for i, bit in enumerate(r_f_bits))
    return MechanismOutcome(alpha, Fraction(r_f), sigma)


def serialize_circuit(circuit: Circuit) -> bytes:
    """Canonical little-endian byte form, hashed by ``circuit_digest``.

    Only the digest crosses the wire, inside the garbled blob.  The
    header carries the layout widths and the list lengths; the
    outputs, then both parties' input positions, then the gate table
    follow.
    """
    n_out = len(circuit.outputs)
    n_victim, n_attacker = circuit.victim_inputs, circuit.attacker_inputs
    return b"".join((
        struct.pack(
            "<4sHIIIIII",
            MAGIC,
            FORMAT_VERSION,
            circuit.k,
            circuit.k_theta,
            n_victim,
            n_attacker,
            len(circuit.table) // _ROW.size,
            n_out,
        ),
        struct.pack(
            f"<{n_out + n_victim + n_attacker}I",
            *circuit.outputs,
            *circuit.victim_positions,
            *circuit.attacker_positions,
        ),
        circuit.table,
    ))


def circuit_digest(circuit: Circuit) -> bytes:
    """sha256 of ``serialize_circuit``, computed once per Circuit object."""
    return circuit._digest

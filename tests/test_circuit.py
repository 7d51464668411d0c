"""Gate-level tests: sub-circuits against integer arithmetic, the full
circuit against the fixed-point oracle, and the canonical byte format."""

import gc
import hashlib
import itertools
import random
import struct
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindbargain.bench import GRID
from blindbargain.circuit import (
    NOT_SENTINEL,
    ONE,
    ZERO,
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    build_mechanism_circuit,
    circuit_digest,
    decode_outcome,
    encode_inputs,
    eval_gates,
    eval_plain,
    serialize_circuit,
)
from blindbargain.mechanism import (
    MechanismParams,
    Report,
    ScaledParams,
    ScalingWarning,
    outcome_fixed,
)

PARAMS = MechanismParams(Fraction(1, 4), 4, 4)
SCALED = ScaledParams.from_params(PARAMS)

GOLDEN_DIGESTS = {
    (Fraction(1, 4), 8, 8): "ab7a83842bd329ef96dbbdde2bc7c3a16c22f11b5497a922dc7510ac5eb9de98",
    (Fraction(1, 2), 8, 8): "4a9f08a0039c32af9314d5db9c04aceb7a6bddbc1b9c7f69375cf63744ae60b7",
    (Fraction(1, 4), 4, 4): "705600054e285e036cec87aa09f6c7ef8c00604ddb72eea7efa1881a01f00f8d",
}
# The six q of perfbench's workloads; with bench.GRID, the 36 profiles
# its settle-mixed workload settles.
BENCH_QS = (Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
            Fraction(3, 8), Fraction(1, 2))
# per q of BENCH_QS, sha256 over circuit_digest of its profile at every
# bench.GRID cell, in GRID order
GOLDEN_GRID_DIGESTS = {
    Fraction(1, 8): "ba80c6073951acf9add4748cd52631ccd4e6a33ac057b6de58065de27b50ce4f",
    Fraction(1, 5): "81e6eec4f41a2ac56c9fc24669b325489ee416ccdcd60dd787b19a24ee0d6ade",
    Fraction(1, 4): "dcb6de525c440b018e3112fca8d3c977db1a808b3b429b5cfb3dcbced638ad8c",
    Fraction(1, 3): "ef02aa5ee6ade0f3b6e813fcc18baaa13f94d2ff6f9c3618d24255bbb56e3ba0",
    Fraction(3, 8): "b4842561c8b50f47d7a4e283f367ea619793c248699ef30bb7b0f93ce91cf29d",
    Fraction(1, 2): "78075c629e920e1ebb880bad4d2dca9f2d0a9d1f29f984b96b7d4efdf65b8f32",
}


def _sweep(bld, n_inputs, outputs):
    """All input assignments at once, lane v setting input i to bit i of v.

    Returns the words of ``outputs``, a constant as its all-zero or
    all-one word.  One party's layout holds every input, and ``finish``
    drops whatever the other outputs do not read.
    """
    lanes = 1 << n_inputs
    consts = {ZERO: 0, ONE: (1 << lanes) - 1}
    circuit = bld.finish(0, n_inputs, [w for w in outputs if w not in consts])
    inputs = [
        sum(((v >> i) & 1) << v for v in range(lanes)) for i in circuit.victim_positions
    ]
    wires = eval_gates(circuit.rows(), inputs, lanes)
    read = iter(circuit.outputs)
    return [consts[w] if w in consts else wires[next(read)] for w in outputs]


def _lane(words, wires, v):
    """The integer that ``wires`` (LSB first) hold in lane v."""
    return sum(((words[w] >> v) & 1) << i for i, w in enumerate(wires))


def _pack_lanes(rows):
    """One word per input wire from (lanes, wires) 0/1 rows; bit s is row s."""
    columns = np.asarray(rows, dtype=np.uint8).T
    return [
        int.from_bytes(np.packbits(c, bitorder="little").tobytes(), "little")
        for c in columns
    ]


def test_adder_exhaustive_small_widths():
    for width in range(1, 7):
        bld = CircuitBuilder()
        xa = bld.new_inputs(width)
        xb = bld.new_inputs(width)
        out, carry = bld.add(xa, xb)
        assert bld._kinds.count(GateKind.AND) == width  # one AND per bit
        words = _sweep(bld, 2 * width, out + [carry])
        for a, b in itertools.product(range(1 << width), repeat=2):
            assert _lane(words, range(width + 1), a | b << width) == a + b


def test_comparator_exhaustive_small_widths():
    for width in range(1, 7):
        bld = CircuitBuilder()
        xa = bld.new_inputs(width)
        xb = bld.new_inputs(width)
        lt = bld.less_than(xa, xb)
        words = _sweep(bld, 2 * width, [lt])
        for a, b in itertools.product(range(1 << width), repeat=2):
            assert _lane(words, [0], a | b << width) == (1 if a < b else 0)


def _lane_ints(words, lanes):
    """Per lane, the integer whose bit i is that lane of words[i]."""
    values = np.zeros(lanes, dtype=np.int64)
    for i, word in enumerate(words):
        bits = np.unpackbits(
            np.frombuffer(word.to_bytes((lanes + 7) // 8, "little"), np.uint8),
            bitorder="little",
        )[:lanes]
        values |= bits.astype(np.int64) << i
    return values


def test_multiply_const_exhaustive_small_widths():
    # every w-bit constant times every w-bit input, at the product's
    # full width and truncated; a constant with one set bit emits no gate
    for w in range(1, 7):
        a = np.arange(1 << w, dtype=np.int64)
        for c in range(1 << w):
            for width in (2 * w, w + 1, w):
                bld = CircuitBuilder()
                prod = bld.multiply_const(bld.new_inputs(w), c, width)
                assert len(prod) == width
                if c & (c - 1) == 0:
                    assert bld._kinds == [], c
                words = _sweep(bld, w, prod)
                assert (_lane_ints(words, 1 << w) == a * c % (1 << width)).all(), (w, c)


# 0, 1, powers of two, all-ones, the alternating and paired-bit
# patterns, and the scaled constants of the six benchmark q at k = 32
STRUCTURED_CONSTANTS = (
    0, 1, *(1 << j for j in (1, 5, 17, 31, 35)),
    *((1 << n) - 1 for n in (2, 3, 8, 16, 33)),
    0x55, 0x5555, 0x5555_5555, 0x33, 0x3333_3333, 0x2AA, 0x2_AAAA_AAAA,
)


def test_multiply_const_structured_constants():
    bench = []
    for q in BENCH_QS:
        scaled = _build_quiet(q, 16, 32)[1]
        bench += [scaled.q_scale, scaled.inv_q_scale]
    w = 8
    a = np.arange(1 << w, dtype=np.int64)
    for c in STRUCTURED_CONSTANTS + tuple(bench):
        width = w + max(c.bit_length(), 1)
        bld = CircuitBuilder()
        prod = bld.multiply_const(bld.new_inputs(w), c, width)
        words = _sweep(bld, w, prod)
        assert (_lane_ints(words, 1 << w) == a * c).all(), hex(c)
    with pytest.raises(ValueError):
        CircuitBuilder().multiply_const([ZERO], -1, 2)


def test_mux_and_or_tree():
    bld = CircuitBuilder()
    sel, x, y = bld.new_inputs(3)
    m = bld.mux(sel, x, y)
    words = _sweep(bld, 3, [m])
    for s, a, b in itertools.product((0, 1), repeat=3):
        assert _lane(words, [0], s | a << 1 | b << 2) == (a if s else b)
    for width in range(1, 5):
        bld = CircuitBuilder()
        xs = bld.new_inputs(width)
        tree = bld.or_tree(xs)
        words = _sweep(bld, width, [tree])
        for v in range(1 << width):
            assert _lane(words, [0], v) == (1 if v else 0)


def test_mux_on_a_constant_select_emits_no_gate():
    bld = CircuitBuilder()
    x, y = bld.new_inputs(2)
    assert bld.mux(ONE, x, y) == x
    assert bld.mux(ZERO, x, y) == y
    assert bld.mux_vec(ONE, [x, ZERO], [y, y]) == [x, ZERO]
    assert bld._kinds == []


def test_finish_refuses_a_constant_output():
    bld = CircuitBuilder()
    prod = bld.multiply_const(bld.new_inputs(2), 3, 5)
    assert prod[4] == ZERO  # 3 * 3 < 2^4, so the top bit folds away
    with pytest.raises(ValueError, match="constant"):
        bld.finish(0, 2, prod)
    assert bld.finish(0, 2, prod[:4]).and_count == 2


def test_builder_input_and_width_rules():
    bld = CircuitBuilder()
    xs = bld.new_inputs(2)
    bld.xor(xs[0], xs[1])
    with pytest.raises(ValueError):
        bld.new_inputs(1)
    with pytest.raises(ValueError):
        bld.add(xs, [xs[0]])
    with pytest.raises(ValueError):
        bld.const_bits(4, 2)
    with pytest.raises(ValueError):
        bld.or_tree([])


def _table(gates):
    """The packed rows of ``Gate``s or (kind, in_a, in_b) rows, a NOT's
    missing second input as the sentinel."""
    return b"".join(
        struct.pack("<BII", kind, in_a, NOT_SENTINEL if in_b is None else in_b)
        for kind, in_a, in_b in gates
    )


def _circuit(n_victim, n_attacker, gates, outputs):
    """A circuit over the first n_victim and n_attacker bits of k-bit
    layouts, from its gates."""
    return Circuit(
        max(n_victim, n_attacker), 0, tuple(range(n_victim)), tuple(range(n_attacker)),
        _table(gates), outputs,
    )


def _single_gate_circuit(kind):
    # Two victim input wires, one gate driving wire 2, revealed thrice.
    return _circuit(2, 0, (Gate(kind, 0, 1),), (2, 2, 2))


def test_eval_plain_single_gates():
    assert eval_plain(_single_gate_circuit(GateKind.XOR), [1, 1])[0] == 0
    assert eval_plain(_single_gate_circuit(GateKind.XOR), [1, 0])[0] == 1
    assert eval_plain(_single_gate_circuit(GateKind.AND), [1, 0])[0] == 0
    assert eval_plain(_single_gate_circuit(GateKind.AND), [1, 1])[0] == 1
    with pytest.raises(ValueError):
        eval_plain(_single_gate_circuit(GateKind.AND), [1, 0, 1])


def test_circuit_structural_validation():
    ok = _single_gate_circuit(GateKind.XOR)
    assert (ok.n_inputs, len(ok.gates)) == (2, 1)
    # the same wires split between the parties are just as valid
    _circuit(1, 1, ok.gates, ok.outputs)
    bad_gates = [
        (Gate(GateKind.XOR, 0, 5), "gate 0 reads wire 5, not an earlier one"),
        (Gate(GateKind.XOR, 0, 2), "gate 0 reads wire 2, not an earlier one"),
        (Gate(GateKind.AND, 3, 1), "gate 0 reads wire 3, not an earlier one"),
        (Gate(GateKind.NOT, 0, 1), "gate arity does not match its kind"),
        (Gate(GateKind.XOR, 0, None), "gate arity does not match its kind"),
        (Gate(7, 0, 1), "unknown gate kind 7"),
    ]
    for gate, message in bad_gates:
        with pytest.raises(ValueError, match=f"^{message}$"):
            _circuit(2, 0, (gate,), ok.outputs)
    # a table holds whole 9-byte rows
    with pytest.raises(ValueError, match="whole number of rows"):
        Circuit(2, 0, (0, 1), (), ok.table + b"\0", ok.outputs)
    # a later gate may read an earlier gate's wire, never a later one's
    _circuit(2, 0, (ok.gates[0], Gate(GateKind.NOT, 2, None)), (3, 3, 3))
    with pytest.raises(ValueError, match="reads wire 3"):
        _circuit(2, 0, (Gate(GateKind.NOT, 3, None), ok.gates[0]), (3, 3, 3))
    # revealed outputs must be existing wires
    with pytest.raises(ValueError, match="output wire 3"):
        _circuit(2, 0, ok.gates, (2, 3, 2))
    # input positions increase within the 2k + k_theta layout
    Circuit(2, 1, (0, 4), (), ok.table, ok.outputs)
    for positions in ((1, 0), (3, 3), (0, 5), (-1, 0)):
        with pytest.raises(ValueError, match="positions"):
            Circuit(2, 1, positions, (), ok.table, ok.outputs)


@dataclass(frozen=True)
class _TwoPassCircuit:
    """The Circuit validator before its one-pass rewrite: the oracle.

    Verbatim but for reading (kind, in_a, in_b) table rows, kind a plain
    int and ``NOT_SENTINEL`` as a NOT's second input, where it read Gates.
    """

    victim_inputs: int
    attacker_inputs: int
    rows: tuple
    outputs: tuple

    def __post_init__(self) -> None:
        for position, (kind, in_a, in_b) in enumerate(self.rows):
            if kind not in tuple(GateKind):
                raise ValueError(f"unknown gate kind {kind}")
            needs_b = kind != GateKind.NOT
            if needs_b != (in_b != NOT_SENTINEL):
                raise ValueError("gate arity does not match its kind")
            srcs = (in_a,) if in_b == NOT_SENTINEL else (in_a, in_b)
            for src in srcs:
                if not 0 <= src < self.n_inputs + position:
                    raise ValueError(
                        f"gate {position} reads wire {src}, not an earlier one"
                    )
        for w in self.outputs:
            if not 0 <= w < self.wire_count:
                raise ValueError(f"output wire {w} does not exist")

    @property
    def n_inputs(self) -> int:
        return self.victim_inputs + self.attacker_inputs

    @property
    def wire_count(self) -> int:
        return self.n_inputs + len(self.rows)


# the three kinds and two unknown ones
_KINDS = st.integers(0, 4)
# wires around every boundary: first, own output, later ones
_WIRES = st.integers(0, 14)


@st.composite
def _gate_lists(draw):
    """(n_victim, n_attacker, table rows, outputs), mostly well formed."""
    n_victim, n_attacker = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = []
    for position in range(draw(st.integers(0, 8))):
        bound = n_victim + n_attacker + position
        earlier = st.integers(0, bound - 1) if bound else _WIRES
        if draw(st.integers(0, 7)):  # well formed, unless there is no earlier wire
            kind = draw(st.sampled_from(list(GateKind)))
            in_a = draw(earlier)
            in_b = NOT_SENTINEL if kind is GateKind.NOT else draw(earlier)
        else:
            kind = draw(_KINDS)
            in_a = draw(earlier | _WIRES)
            in_b = draw(st.just(NOT_SENTINEL) | earlier | _WIRES)
        rows.append((int(kind), in_a, in_b))
    wire_count = n_victim + n_attacker + len(rows)
    wires = st.integers(0, max(wire_count - 1, 0))
    if not draw(st.integers(0, 3)):
        wires |= st.integers(-2, 14)  # missing outputs
    outputs = draw(st.lists(wires, max_size=4))
    return n_victim, n_attacker, tuple(rows), tuple(outputs)


def _verdict(cls, fields):
    try:
        cls(*fields)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_gate_lists())
def test_one_pass_validator_matches_the_two_pass_one(fields):
    assert _verdict(_circuit, fields) == _verdict(_TwoPassCircuit, fields)


def _per_gate_serialization(circuit, gates):
    """serialize_circuit as it was before the packed table, over the Gates
    the circuit was made from: the oracle of the header's byte layout."""
    n_out = len(circuit.outputs)
    n_victim, n_attacker = circuit.victim_inputs, circuit.attacker_inputs
    parts = [
        struct.pack(
            "<4sHIIIIII",
            b"BCIR",
            5,
            circuit.k,
            circuit.k_theta,
            n_victim,
            n_attacker,
            len(gates),
            n_out,
        ),
        struct.pack(
            f"<{n_out + n_victim + n_attacker}I",
            *circuit.outputs,
            *circuit.victim_positions,
            *circuit.attacker_positions,
        ),
    ]
    return b"".join(parts) + _table(gates)


@st.composite
def _well_formed_circuits(draw):
    """(n_victim, n_attacker, gates, outputs, input words) of a valid circuit."""
    n_victim, n_attacker = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n_inputs = n_victim + n_attacker
    gates = []
    for position in range(draw(st.integers(0, 12)) if n_inputs else 0):
        earlier = st.integers(0, n_inputs + position - 1)
        kind = draw(st.sampled_from(list(GateKind)))
        in_b = None if kind is GateKind.NOT else draw(earlier)
        gates.append(Gate(kind, draw(earlier), in_b))
    wires = n_inputs + len(gates)
    outputs = draw(st.lists(st.integers(0, wires - 1), max_size=4)) if wires else []
    words = draw(st.lists(st.integers(0, 255), min_size=n_inputs, max_size=n_inputs))
    return n_victim, n_attacker, tuple(gates), tuple(outputs), words


@settings(max_examples=300, deadline=None)
@given(_well_formed_circuits())
def test_gate_table_round_trips_against_the_per_gate_serializer(drawn):
    n_victim, n_attacker, gates, outputs, words = drawn
    circuit = _circuit(n_victim, n_attacker, gates, outputs)
    assert circuit.gates == gates
    assert all(type(gate.kind) is GateKind for gate in circuit.gates)
    assert serialize_circuit(circuit) == _per_gate_serialization(circuit, gates)
    assert eval_gates(circuit.rows(), words, 8) == eval_gates(gates, words, 8)
    # the table alone makes the same circuit
    again = Circuit(circuit.k, 0, circuit.victim_positions, circuit.attacker_positions,
                    circuit.table, outputs)
    assert again == circuit and again.gates == gates


def test_a_built_circuit_holds_no_per_gate_objects():
    params = MechanismParams(Fraction(1, 4), 16, 32)
    scaled = ScaledParams.from_params(params)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        circuit = build_mechanism_circuit(params, scaled)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert held < 20  # a Gate per gate would add 533
    kinds = [gate.kind for gate in circuit.gates]
    assert len(kinds) == 533
    assert [kinds.count(kind) for kind in GateKind] == [330, 167, 36]


def test_build_is_deterministic():
    first = build_mechanism_circuit(PARAMS, SCALED)
    second = build_mechanism_circuit(PARAMS, SCALED)
    assert serialize_circuit(first) == serialize_circuit(second)
    assert circuit_digest(first) == circuit_digest(second)


def test_digest_tracks_scaled_constants():
    base = circuit_digest(build_mechanism_circuit(PARAMS, SCALED))
    patched = ScaledParams(SCALED.p_scale, SCALED.q_scale + 1, SCALED.inv_q_scale)
    assert circuit_digest(build_mechanism_circuit(PARAMS, patched)) != base


def test_golden_digests_stable():
    for (q, kt, k), expected in GOLDEN_DIGESTS.items():
        params = MechanismParams(q, kt, k)
        circuit = build_mechanism_circuit(params, ScaledParams.from_params(params))
        assert circuit_digest(circuit).hex() == expected


def test_golden_digests_over_the_benchmark_profiles():
    pinned = {}
    for q in BENCH_QS:
        combined = hashlib.sha256()
        for kt, k in GRID:
            combined.update(circuit_digest(_build_quiet(q, kt, k)[2]))
        pinned[q] = combined.hexdigest()
    assert pinned == GOLDEN_GRID_DIGESTS


def test_matches_fixed_point_on_random_inputs():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    rng = random.Random(0x11)
    for _ in range(60):
        tv, ta = rng.randrange(16), rng.randrange(16)
        s0v, s1v = rng.randrange(16), rng.randrange(16)
        s0a, s1a = rng.randrange(16), rng.randrange(16)
        bits = encode_inputs(circuit, tv, ta, s0_v=s0v, s1_v=s1v, s0_a=s0a, s1_a=s1a)
        got = decode_outcome(circuit, eval_plain(circuit, bits))
        want = outcome_fixed(PARAMS, SCALED, Report(tv, ta), s0v ^ s0a, s1v ^ s1a)
        assert got == want


def test_matches_fixed_point_wide_widths_batch():
    params = MechanismParams(Fraction(1, 4), 16, 32)
    scaled = ScaledParams.from_params(params)
    circuit = build_mechanism_circuit(params, scaled)
    rng = random.Random(0x22)
    cases = []
    rows = []
    for _ in range(1000):
        tv, ta = rng.randrange(1 << 16), rng.randrange(1 << 16)
        s0, s1 = rng.randrange(1 << 32), rng.randrange(1 << 32)
        cases.append((tv, ta, s0, s1))
        rows.append(encode_inputs(circuit, tv, ta, s0_v=s0, s1_v=s1, s0_a=0, s1_a=0))
    words = eval_gates(circuit.rows(), _pack_lanes(rows), len(cases))
    *r_f_wires, alpha, sigma = circuit.outputs
    for v, (tv, ta, s0, s1) in enumerate(cases):
        want = outcome_fixed(params, scaled, Report(tv, ta), s0, s1)
        got = [_lane(words, [w], v) for w in (alpha, sigma)]
        r_f = _lane(words, r_f_wires, v)
        assert (r_f, *got) == (want.r_f, want.alpha, want.sigma)


def _build_quiet(q, kt, k):
    params = MechanismParams(q, kt, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingWarning)
        scaled = ScaledParams.from_params(params)
    return params, scaled, build_mechanism_circuit(params, scaled)


def _unreached(circuit):
    """Input and gate wires that no revealed output depends on."""
    live = set(circuit.outputs)
    driven = list(enumerate(circuit.gates, circuit.n_inputs))  # (wire, gate)
    for w, g in reversed(driven):
        if w in live:
            live.update(src for src in (g.in_a, g.in_b) if src is not None)
    return [w for w in range(circuit.n_inputs + len(circuit.gates)) if w not in live]


# Dyadic, non-dyadic, the q = 1/2 (p_bar = 1) edge, and q = 1/40, whose
# q_scale floors to 0 for k <= 5.
QS = [Fraction(n, d) for n, d in ((1, 2), (1, 4), (3, 8), (1, 5), (1, 3), (2, 7), (1, 40))]


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(QS) | st.fractions(Fraction(1, 64), Fraction(1, 2), max_denominator=64),
    kt=st.integers(1, 10),
    k=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
# 2/5's constants leave multiplier rows that never carry into the kept
# bits; liveness drops those rows
@example(q=Fraction(2, 5), kt=2, k=7, seed=0)
def test_folded_circuit_matches_fixed_point(q, kt, k, seed):
    params, scaled, circuit = _build_quiet(q, kt, k)
    rng = random.Random(seed)
    top_t, top_s = (1 << kt) - 1, (1 << k) - 1
    cases = [(0, 0, 0, 0), (top_t, top_t, top_s, top_s), (top_t, 0, 0, top_s)]
    cases += [
        (rng.randrange(1 << kt), rng.randrange(1 << kt),
         rng.randrange(1 << k), rng.randrange(1 << k))
        for _ in range(200)
    ]
    rows = [
        encode_inputs(circuit, tv, ta, s0_v=s0, s1_v=s1, s0_a=0, s1_a=0)
        for tv, ta, s0, s1 in cases
    ]
    words = eval_gates(circuit.rows(), _pack_lanes(rows), len(rows))
    *r_f_wires, alpha, sigma = circuit.outputs
    for v, (tv, ta, s0, s1) in enumerate(cases):
        want = outcome_fixed(params, scaled, Report(tv, ta), s0, s1)
        got = [_lane(words, [w], v) for w in (alpha, sigma)]
        r_f = _lane(words, r_f_wires, v)
        assert (r_f, *got) == (want.r_f, want.alpha, want.sigma)
    assert _unreached(circuit) == []


def _fixed_outcomes(params, scaled, tv, ta, s0, s1):
    """``outcome_fixed`` over numpy arrays: (r_f, alpha, sigma) per entry."""
    k = params.k
    r2 = np.where(s0 < scaled.p_scale, (scaled.q_scale * tv) >> k, tv)
    accept = ta <= r2
    r3 = np.maximum((r2 * scaled.inv_q_scale) >> k, ta)
    countered = ~accept & (r3 <= tv)
    paid = countered & (s1 < scaled.q_scale)
    r_f = np.where(accept, r2, np.where(paid, r3, 0))
    sigma = countered & ~paid
    return r_f, (r_f > 0) | sigma, sigma


# Every q = n/d <= 1/2 with d <= ORACLE_DENOMINATOR, at every k_theta <= 3
# and k <= 4: 162 q, 1,944 profiles and 4,626,720 cases
ORACLE_DENOMINATOR = 32
ORACLE_QS = sorted(
    {Fraction(n, d) for d in range(2, ORACLE_DENOMINATOR + 1) for n in range(1, d // 2 + 1)}
)


def test_circuit_equals_fixed_point_exhaustively_over_q():
    # lane v holds s0, s1, theta_v and theta_a, in that order from bit 0,
    # so the victim's layout is v's low 2k + k_theta bits and the
    # attacker's report bit p - 2k is bit p + k_theta of v; the attacker's
    # word shares are zero, so each victim word is the joint word
    for kt, k in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        n_bits = 2 * k + 2 * kt
        lanes = 1 << n_bits
        lane = np.arange(lanes, dtype=np.int64)
        bit_words = _pack_lanes((lane[:, None] >> np.arange(n_bits)) & 1)
        kmask, tmask = (1 << k) - 1, (1 << kt) - 1
        s0, s1 = lane & kmask, (lane >> k) & kmask
        tv, ta = (lane >> 2 * k) & tmask, lane >> (2 * k + kt)
        sample = range(0, lanes, lanes // 8 + 1)
        for q in ORACLE_QS:
            params, scaled, circuit = _build_quiet(q, kt, k)
            inputs = [bit_words[p] for p in circuit.victim_positions] + [
                bit_words[p + kt] if p >= 2 * k else 0 for p in circuit.attacker_positions
            ]
            wires = eval_gates(circuit.rows(), inputs, lanes)
            *r_f_wires, alpha, sigma = circuit.outputs
            got = [
                _lane_ints([wires[w] for w in ws], lanes) for ws in (r_f_wires, [alpha], [sigma])
            ]
            want = _fixed_outcomes(params, scaled, tv, ta, s0, s1)
            for g, w in zip(got, want):
                assert (g == w).all(), (q, kt, k)
            # the numpy form against outcome_fixed itself, on spread lanes
            for v in sample:
                out = outcome_fixed(params, scaled, Report(int(tv[v]), int(ta[v])),
                                    int(s0[v]), int(s1[v]))
                assert (out.r_f, out.alpha, out.sigma) == tuple(int(w[v]) for w in want)


# Six widths near the 64-bit product cap, each of 13 q once: 1/2 puts
# p_scale at 2^k and 499/1000 and 31/64 near it, 1/1000 and 1/64 make
# q_scale small, the non-dyadic q round their constants down.  The subset runs in
# about 1 s.  REFUSED_WIDTHS are refused at every q <= 1/2, because
# r2 * inv_q_scale needs at least k_theta + k + 2 bits.
THRESHOLD_PROFILES = [
    (Fraction(7, 16), 16, 16), (Fraction(1, 1000), 16, 16),
    (Fraction(1, 4), 16, 32), (Fraction(1, 40), 16, 32),
    (Fraction(1, 5), 8, 32), (Fraction(1, 64), 8, 32),
    (Fraction(1, 8), 24, 32), (Fraction(31, 64), 24, 32),
    (Fraction(1, 2), 31, 31), (Fraction(1, 3), 31, 31), (Fraction(499, 1000), 31, 31),
    (Fraction(3, 8), 20, 40), (Fraction(2, 7), 20, 40),
]
REFUSED_WIDTHS = ((32, 32), (30, 33), (16, 48), (8, 56), (1, 62), (62, 1))


def _around(*centres, below):
    return sorted({v for c in centres for v in (c - 1, c, c + 1) if 0 <= v < below})


def _threshold_cases(params, scaled, rng):
    """(theta_v, theta_a, s0, s1) at every comparison's threshold and next
    to it: s0 around p_scale, s1 around q_scale, theta_a around r2, around
    the counteroffer (r2 * inv_q_scale) >> k and around theta_v; the ends
    of each range and random draws besides."""
    unit, top = 1 << params.k, 1 << params.k_theta
    s0s = _around(0, scaled.p_scale, unit - 1, below=unit)
    s1s = _around(0, scaled.q_scale, unit - 1, below=unit)
    cases = set()
    for tv in _around(0, top - 1, below=top) + [rng.randrange(top) for _ in range(3)]:
        for s0 in s0s:
            r2 = (scaled.q_scale * tv) >> params.k if s0 < scaled.p_scale else tv
            r3 = (r2 * scaled.inv_q_scale) >> params.k
            for ta in _around(r2, r3, tv, below=top):
                cases.update((tv, ta, s0, s1) for s1 in s1s)
    for _ in range(200):
        cases.add((rng.randrange(top), rng.randrange(top), rng.randrange(unit),
                   rng.randrange(unit)))
    return sorted(cases)


def test_circuit_equals_fixed_point_at_the_thresholds():
    # random wide reports almost never tie a threshold; the oracle is
    # outcome_fixed on Python ints, since its products near 64 bits would
    # overflow the int64 arrays of _fixed_outcomes
    for (q, _, _), (kt, k) in itertools.product(THRESHOLD_PROFILES, REFUSED_WIDTHS):
        with pytest.raises(ValueError, match="64 bits"):
            _build_quiet(q, kt, k)
    rng = random.Random(0x7E)
    for q, kt, k in THRESHOLD_PROFILES:
        params, scaled, circuit = _build_quiet(q, kt, k)
        cases = _threshold_cases(params, scaled, rng)
        rows = [encode_inputs(circuit, tv, ta, s0_v=s0, s1_v=s1, s0_a=0, s1_a=0)
                for tv, ta, s0, s1 in cases]
        words = eval_gates(circuit.rows(), _pack_lanes(rows), len(cases))
        *r_f_wires, alpha, sigma = circuit.outputs
        for v, (tv, ta, s0, s1) in enumerate(cases):
            want = outcome_fixed(params, scaled, Report(tv, ta), s0, s1)
            got = tuple(_lane(words, ws, v) for ws in (r_f_wires, [alpha], [sigma]))
            assert got == (want.r_f, want.alpha, want.sigma), (q, kt, k, tv, ta, s0, s1)


def test_no_gate_reads_one_wire_twice():
    # constants are not wires, and AND(a, a) and XOR(a, a) fold to a and ZERO
    for q, kt, k in itertools.product(QS, (1, 4, 8, 16), (1, 4, 8, 32)):
        gates = _build_quiet(q, kt, k)[2].gates
        assert all(g.in_a != g.in_b for g in gates), (q, kt, k)


# AND counts over bench.GRID at q = 1/4, in GRID order
GRID_AND_COUNTS = (79, 87, 103, 143, 151, 167)
# AND counts at (16, 32) of the non-dyadic benchmark q, whose constants
# have many set bits: the multipliers share their partial sums
WIDE_AND_COUNTS = {Fraction(1, 5): 277, Fraction(1, 3): 275, Fraction(3, 8): 291}


def test_every_and_gate_reaches_an_output():
    # the benchmark profiles are test_pruned_circuit_reads_only_live_bits'
    for q, kt, k in itertools.product(QS, (1, 4, 8, 16), (1, 4, 8, 32)):
        assert _unreached(_build_quiet(q, kt, k)[2]) == [], (q, kt, k)
    counts = tuple(_build_quiet(Fraction(1, 4), kt, k)[2].and_count for kt, k in GRID)
    assert counts == GRID_AND_COUNTS
    wide = {q: _build_quiet(q, 16, 32)[2].and_count for q in WIDE_AND_COUNTS}
    assert wide == WIDE_AND_COUNTS


# bench.GRID x BENCH_QS (q = 1/2 is the p_bar = 1 edge, 1/5 and 1/3 are
# non-dyadic), then odd report widths and a one-bit report
LIVENESS_PROFILES = [(q, kt, k) for kt, k in GRID for q in BENCH_QS] + [
    (Fraction(1, 4), 5, 8), (Fraction(1, 3), 7, 16), (Fraction(1, 2), 3, 4),
    (Fraction(1, 4), 1, 4),
]


def _fields(layout_bits, k):
    """(s0, s1, report) of one party's layout, read as one integer."""
    mask = (1 << k) - 1
    return layout_bits & mask, layout_bits >> k & mask, layout_bits >> 2 * k


def test_pruned_circuit_reads_only_live_bits():
    rng = random.Random(0x4C)
    for q, kt, k in LIVENESS_PROFILES:
        params, scaled, circuit = _build_quiet(q, kt, k)
        assert _unreached(circuit) == [], (q, kt, k)
        assert circuit.victim_inputs >= 1 and circuit.attacker_inputs >= 1
        full = (1 << (2 * k + kt)) - 1
        live = [
            sum(1 << p for p in positions)
            for positions in (circuit.victim_positions, circuit.attacker_positions)
        ]
        for case in range(40):
            draws = [0, 0] if case == 0 else [rng.getrandbits(2 * k + kt) for _ in live]
            # the same live bits under fresh draws at every dropped position
            redrawn = [(d & m) | (rng.getrandbits(2 * k + kt) & ~m & full)
                       for d, m in zip(draws, live)]
            outcomes = set()
            for victim, attacker in (draws, redrawn):
                s0_v, s1_v, theta_v = _fields(victim, k)
                s0_a, s1_a, theta_a = _fields(attacker, k)
                bits = encode_inputs(circuit, theta_v, theta_a, s0_v=s0_v, s1_v=s1_v,
                                     s0_a=s0_a, s1_a=s1_a)
                want = outcome_fixed(params, scaled, Report(theta_v, theta_a),
                                     s0_v ^ s0_a, s1_v ^ s1_a)
                assert decode_outcome(circuit, eval_plain(circuit, bits)) == want
                outcomes.add(want)
            assert len(outcomes) == 1, (q, kt, k, draws, redrawn)
    # settle-wide's profile: 31 of each party's 80 bits are dead
    _, _, wide = _build_quiet(Fraction(1, 4), 16, 32)
    kinds = [g.kind for g in wide.gates]
    assert (wide.victim_inputs, wide.attacker_inputs) == (49, 49)
    assert wide.victim_positions == wide.attacker_positions
    assert wide.victim_positions == (*range(1, 32), *range(62, 80))
    assert [kinds.count(kind) for kind in GateKind] == [330, 167, 36]


def test_digest_binds_the_input_positions():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    base = circuit_digest(circuit)
    for field in ("victim_positions", "attacker_positions"):
        positions = getattr(circuit, field)
        dead = min(set(range(2 * PARAMS.k + PARAMS.k_theta)) - set(positions))
        moved = tuple(sorted({*positions[1:], dead}))
        assert len(moved) == len(positions) and moved != positions
        moved_circuit = replace(circuit, **{field: moved})
        assert circuit_digest(moved_circuit) != base


def test_and_count_monotone_in_widths():
    q = Fraction(1, 4)
    grid = {}
    for kt in (4, 6, 8, 16):
        for k in (4, 8, 16, 32):
            params = MechanismParams(q, kt, k)
            circuit = build_mechanism_circuit(params, ScaledParams.from_params(params))
            grid[kt, k] = circuit.and_count
    kts = (4, 6, 8, 16)
    ks = (4, 8, 16, 32)
    for k in ks:
        counts = [grid[kt, k] for kt in kts]
        assert counts == sorted(counts)
    for kt in kts:
        counts = [grid[kt, k] for k in ks]
        assert counts == sorted(counts)


def test_width_overflow_guard():
    # the constants the builder reads are scaled only for products within 64 bits
    params = MechanismParams(Fraction(1, 4), 8, 60)  # k + k_theta = 68 bits
    with pytest.raises(ValueError, match="64 bits"):
        ScaledParams.from_params(params)
    # k + k_theta = 64 fits, but r2 * inv_q_scale needs 16 + 51 bits
    params = MechanismParams(Fraction(1, 4), 16, 48)
    with pytest.raises(ValueError, match="64 bits"):
        ScaledParams.from_params(params)


def test_encode_and_decode_guards():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    with pytest.raises(ValueError):
        encode_inputs(circuit, 16, 0, s0_v=0, s1_v=0, s0_a=0, s1_a=0)
    with pytest.raises(ValueError):
        decode_outcome(circuit, [0] * 3)
    with pytest.raises(ValueError):
        eval_plain(circuit, [0] * 3)


def test_decode_refuses_a_flipped_alpha_or_sigma_bit():
    # every legal settlement becomes illegal when alpha or sigma alone
    # flips, so a garbler that swaps one of their commitments is caught
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    rng = random.Random(0x5A)
    seen = set()
    for _ in range(60):
        tv, ta = rng.randrange(16), rng.randrange(16)
        draws = {name: rng.randrange(16) for name in ("s0_v", "s1_v", "s0_a", "s1_a")}
        bits = eval_plain(circuit, encode_inputs(circuit, tv, ta, **draws))
        out = decode_outcome(circuit, bits)
        seen.add((out.alpha, out.sigma, out.r_f > 0))
        for flipped in (-2, -1):
            tampered = list(bits)
            tampered[flipped] ^= 1
            with pytest.raises(ValueError):
                decode_outcome(circuit, tampered)
    assert seen == {(0, 0, False), (1, 0, True), (1, 1, False)}


def test_zero_report_forces_zero_ransom():
    circuit = build_mechanism_circuit(PARAMS, SCALED)
    bits = encode_inputs(circuit, 0, 0, s0_v=0, s1_v=0, s0_a=0, s1_a=0)
    out = decode_outcome(circuit, eval_plain(circuit, bits))
    assert out.r_f == 0

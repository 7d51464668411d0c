"""Spans around the public calls of each layer, recorded from outside.

The benchmark never edits the program.  ``Tracer.install`` replaces the
module attributes that ``protocol``, ``garbling`` and ``cli`` look up at
call time with timing wrappers, and ``uninstall`` puts the originals
back, so untraced operations run the unmodified code.

A span holds only public facts: a layer name, start and end on the
``perf_counter`` clock, the id of the span that caused it, a random
operation id, the thread's role (victim, attacker or cli), an end
status (``ok``, or the public abort stage) and public counts such as
gates, transfers or blob bytes.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import secrets
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from blindbargain import cli, garbling, protocol
from blindbargain.circuit import GateKind

OP = "op"
SESSIONS = ("protocol.victim_session", "protocol.attacker_session")
SPAN_FIELDS = ("span_id", "parent", "op", "role", "name", "start", "end", "status", "counts")


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: str
    role: str
    name: str
    start: float
    end: float = 0.0
    status: str = "ok"
    counts: dict[str, int] = field(default_factory=dict)

    def row(self) -> list:
        return [getattr(self, name) for name in SPAN_FIELDS]


def _gate_counts(args, kwargs, circuit) -> dict[str, int]:
    kinds = Counter(gate.kind for gate in circuit.gates)
    return {
        "and_gates": kinds[GateKind.AND],
        "xor_gates": kinds[GateKind.XOR],
        "not_gates": kinds[GateKind.NOT],
    }


def _blob_bytes(args, kwargs, blob) -> dict[str, int]:
    return {"blob_bytes": len(blob)}


def _transfers(args, kwargs, _result) -> dict[str, int]:
    return {"transfers": len(args[1])}


def _status(exc: BaseException) -> str:
    stage = getattr(exc, "stage", None)
    return f"abort:{stage}" if stage else type(exc).__name__


class Tracer:
    """Collects spans for the operations run inside ``op``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _new_span(self, name: str, role: str | None = None) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._op
        return Span(
            self._next_id(),
            parent.span_id if parent else None,
            self._op.op if self._op else "",
            role or (parent.role if parent else "client"),
            name,
            time.perf_counter(),
        )

    @contextmanager
    def op(self):
        """Root span of one operation; its self time is uncovered time."""
        span = Span(self._next_id(), None, secrets.token_hex(8), "client", OP, 0.0)
        self._op = span
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._op = None
            self.spans.append(span)

    def wrap(self, name, fn, counts=None, role=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._new_span(name, role)
            stack = self._local.stack
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.status = _status(exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _traced_class(self, base, name: str, methods, counts):
        body = {
            method: self.wrap(name, getattr(base, method), counts.get(method))
            for method in methods
        }
        return type(base.__name__, (base,), body)

    def install(self) -> None:
        """Wrap every layer boundary that protocol, garbling and cli call."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wraps = [
            (protocol, "run_victim", "protocol.victim_session", None, "victim"),
            (protocol, "run_attacker", "protocol.attacker_session", None, "attacker"),
            (protocol, "build_mechanism_circuit", "circuit.build", _gate_counts, None),
            (protocol, "circuit_digest", "circuit.digest", None, None),
            (garbling, "circuit_digest", "circuit.digest", None, None),
            (protocol, "garble", "garbling.garble", None, None),
            (protocol, "evaluate", "garbling.evaluate", None, None),
            (protocol, "serialize_garbled", "garbling.serialize", _blob_bytes, None),
            (protocol, "deserialize_garbled", "garbling.parse", None, None),
            (protocol, "decode_and_prove", "garbling.decode", None, None),
            (cli, "main", "cli.main", None, "cli"),
            (cli, "determine_horizon", "bargaining.horizon", None, None),
            (cli, "backward_induction_offers", "bargaining.offers", None, None),
            (cli, "spne", "stage_game.spne", None, None),
            (cli, "expected_victim_utility", "mechanism.victim_utility", None, None),
            (cli, "attacker_truthfulness_margin", "mechanism.attacker_margin", None, None),
        ]
        for owner, attr, name, counts, role in wraps:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), counts, role))
        self._patch(
            protocol,
            "OtSender",
            self._traced_class(
                protocol.OtSender,
                "ot.sender",
                ("__init__", "public_message", "respond"),
                {"__init__": _transfers},
            ),
        )
        self._patch(
            protocol,
            "OtReceiver",
            self._traced_class(
                protocol.OtReceiver, "ot.receiver", ("__init__", "blind", "unwrap"), {}
            ),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def by_op(self) -> dict[str, list[Span]]:
        groups: dict[str, list[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.op, []).append(span)
        return groups

    def write_jsonl(self, path) -> None:
        """One JSON array per span after a header naming the fields, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.row()) + "\n")


# -- analysis ------------------------------------------------------------
def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = _union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.span_id, ())
            if min(e, span.end) > max(s, span.start)
        )
        out[span.span_id] = span.end - span.start - covered
    return out


def sweep(spans: list[Span]) -> dict[str, float]:
    """Split one operation's wall time by what both threads were doing.

    ``exposed``: inside a session while no layer call is open on either
    thread (framing, hashing, waiting on the socket).  ``overlap``:
    layer calls open on two threads at once.  ``uncovered``: inside no
    span at all (listener set-up, connect, thread start and join).
    """
    (root,) = [s for s in spans if s.name == OP]
    events = []
    for span in spans:
        if span.name == OP:
            continue
        kind = "session" if span.name in SESSIONS else span.role
        events.append((span.start, 1, kind))
        events.append((span.end, -1, kind))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Counter = Counter()
    totals = {"exposed": 0.0, "overlap": 0.0, "covered": 0.0}
    last = root.start
    for when, delta, kind in events:
        width = when - last
        if width > 0 and +active:
            layers = sum(1 for k, n in active.items() if k != "session" and n > 0)
            totals["covered"] += width
            if layers == 0:
                totals["exposed"] += width
            elif layers > 1:
                totals["overlap"] += width
        active[kind] += delta
        last = when
    totals["uncovered"] = (root.end - root.start) - totals["covered"]
    return totals


SELF_METRICS = {
    OP: "protocol.uncovered_ms",
    "protocol.victim_session": "protocol.victim_self_ms",
    "protocol.attacker_session": "protocol.attacker_self_ms",
    "circuit.build": "circuit.build_ms",
    "circuit.digest": "circuit.digest_ms",
    "garbling.garble": "garbling.garble_ms",
    "garbling.evaluate": "garbling.evaluate_ms",
    "garbling.serialize": "garbling.serialize_ms",
    "garbling.parse": "garbling.parse_ms",
    "garbling.decode": "garbling.decode_ms",
    "ot.sender": "ot.sender_ms",
    "ot.receiver": "ot.receiver_ms",
    "cli.main": "cli.self_ms",
    "bargaining.horizon": "bargaining.horizon_ms",
    "bargaining.offers": "bargaining.offers_ms",
    "stage_game.spne": "stage_game.spne_ms",
    "mechanism.victim_utility": "mechanism.victim_grid_ms",
    "mechanism.attacker_margin": "mechanism.attacker_margin_ms",
}


def breakdown(spans: list[Span]) -> tuple[Counter, dict]:
    """Per-layer totals of one operation, and the checks on its timeline.

    Returns (metrics, facts).  ``facts["accounting_error_ms"]`` is the
    op's wall time minus uncovered + exposed + layer self times -
    overlap; the two sides are computed independently, so a value away
    from zero means the span bookkeeping is wrong.
    """
    selfs = self_times(spans)
    metrics: Counter = Counter()
    layer_self = 0.0
    session_end = {}
    (root,) = [s for s in spans if s.name == OP]
    for span in spans:
        metrics[SELF_METRICS[span.name]] += selfs[span.span_id] * 1e3
        if span.name in SESSIONS:
            session_end[span.role] = ((span.end - root.start) * 1e3, span.status)
        elif span.name != OP:
            layer_self += selfs[span.span_id]
        if span.name == "circuit.build" and span.role == "victim":
            for key, value in span.counts.items():
                metrics[f"circuit.{key}"] += value
        elif span.name == "garbling.serialize":
            metrics["garbling.blob_bytes"] += span.counts["blob_bytes"]
        elif span.name == "ot.sender" and span.counts:
            metrics["ot.transfers"] += span.counts["transfers"]
        elif span.name == "mechanism.victim_utility":
            metrics["mechanism.victim_utility_calls"] += 1
    swept = sweep(spans)
    metrics["protocol.exposed_ms"] += swept["exposed"] * 1e3
    metrics["protocol.overlap_ms"] += swept["overlap"] * 1e3
    wall = root.end - root.start
    accounted = selfs[root.span_id] + swept["exposed"] + layer_self - swept["overlap"]
    facts = {
        "wall_ms": wall * 1e3,
        "accounting_error_ms": (wall - accounted) * 1e3,
        "session_end_ms": session_end,
    }
    return metrics, facts

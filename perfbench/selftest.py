"""Self-test of the benchmark's own output: exact counters, privacy guard.

Runs traced honest settlements on one fixed profile with two session
seeds and with reports at both ends of their range.  It fails when any
emitted metric key, count or span shape changes with the seed or the
reports, or when a span carries a field outside the public schema, so
the result files, spans and logs can hold no report, random word or
label.  This mirrors ``test_transcript_shape_independent_of_*``.
"""

from __future__ import annotations

from fractions import Fraction

from blindbargain.protocol import PiProfile
from tracing import SELF_METRICS, SPAN_FIELDS, Tracer, breakdown
from workloads import Settle, wire_counts

PROFILE = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, 0)
# (session seed tag, victim report, attacker report)
CASES = [(b"one", 0, 0), (b"two", 0, 0), (b"one", 255, 254), (b"two", 200, 37)]
ROLES = {"client", "cli", "victim", "attacker"}
COUNT_KEYS = {"and_gates", "xor_gates", "not_gates", "blob_bytes", "transfers"}


def _schema_problems(span) -> list[str]:
    problems = []
    if tuple(vars(span)) != SPAN_FIELDS:
        problems.append(f"span fields {tuple(vars(span))}")
    if span.name not in SELF_METRICS or span.role not in ROLES or span.status != "ok":
        problems.append(f"span {span.name}/{span.role}/{span.status} outside the schema")
    if not set(span.counts) <= COUNT_KEYS or not all(
        type(v) is int for v in span.counts.values()
    ):
        problems.append(f"span {span.name} carries counts {sorted(span.counts)}")
    return problems


def run() -> list[str]:
    """Problems found; an empty list means the self-test passed."""
    tracer = Tracer()
    problems: list[str] = []
    sessions = []
    with tracer.installed():
        for tag, theta_v, theta_a in CASES:
            op = Settle.make_op(PROFILE, theta_v, theta_a, (b"v-" + tag, b"a-" + tag))
            with tracer.op() as root:
                raw = op.execute()
            reason = op.check(raw)
            if reason is not None:
                problems.append(f"self-test session: {reason}")
            sessions.append((root.op, raw))
    views = set()
    by_op = tracer.by_op()
    for op_id, raw in sessions:
        spans = by_op[op_id]
        for span in spans:
            problems.extend(_schema_problems(span))
        metrics, _ = breakdown(spans)
        metrics.update(wire_counts(raw))
        counts = tuple(sorted((k, v) for k, v in metrics.items() if not k.endswith("_ms")))
        shape = tuple(sorted((s.name, s.role, tuple(sorted(s.counts.items()))) for s in spans))
        views.add((tuple(sorted(metrics)), counts, shape))
    if len(views) != 1:
        problems.append("emitted keys or counts depend on the session seed or the reports")
    return problems

"""Settlement and solver benchmark for blindbargain.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload settle-wide --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one command
    python3 perfbench/run.py --self-test                 # exact counters + privacy guard
    python3 perfbench/run.py --manifest                  # the BENCHMARK.json body

A run measures whole cycles of a workload for at least ``RUN_SECONDS``.
``--seconds`` is accepted only with that value, so that every run has
the same length and ``op_ms.tail`` the same percentile.  ``--trace 0``
measures the end-to-end metrics with the program untouched; their
timings are scaled to a reference host speed (see ``hostspeed``) and the
raw timings are stored beside them.
``--trace 1`` gives the per-layer metrics: every other cycle is traced,
so the same run also yields the tracing overhead.  ``--workload all``
runs each workload in a fresh interpreter, so that each peak RSS is its
own.  Every operation is checked against an oracle after the timed
region; the last stdout line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) and the full result, with
machine facts, goes to ``perfbench/out/``.  The exit code is 0 only when
every check passed; it is 2 when the program cannot be found, a workload
gives no result, or BENCHMARK.json or ``--seconds`` disagrees with the
tables below.
"""

from __future__ import annotations

import argparse
import contextlib
import ipaddress
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

from hostspeed import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_SECONDS = 36
SETUP_PROBES = 5

WORKLOADS = {
    "settle-wide": "loopback settlements at the largest bench.GRID cell (16,32), q=1/4: "
    "garbling 3548 ANDs and 80 OTs dominate; a per-profile cache would hit every session",
    "settle-mixed": "loopback settlements over the 36 profiles bench.GRID x six q, one in ten "
    "adversarial: OT and per-session cost dominate, 36 cache keys, abort paths run",
    "solve": "offers, stage-game and mechanism verify-bic through cli.main in process: exact "
    "rational solvers only; garbling, OT and protocol do no work here",
}
# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("op_ms.p50", "ms", "lower", 0.24),
    ("op_ms.tail", "ms", "lower", 0.24),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("cpu_ms_per_op", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]
PER_LAYER = [
    ("circuit.build_ms", "ms"),
    ("circuit.digest_ms", "ms"),
    ("circuit.and_gates", "count"),
    ("circuit.xor_gates", "count"),
    ("circuit.not_gates", "count"),
    ("garbling.garble_ms", "ms"),
    ("garbling.evaluate_ms", "ms"),
    ("garbling.garble_us_per_and", "us"),
    ("garbling.evaluate_us_per_and", "us"),
    ("garbling.serialize_ms", "ms"),
    ("garbling.parse_ms", "ms"),
    ("garbling.decode_ms", "ms"),
    ("garbling.blob_bytes", "bytes"),
    ("ot.sender_ms", "ms"),
    ("ot.receiver_ms", "ms"),
    ("ot.sender_us_per_transfer", "us"),
    ("ot.receiver_us_per_transfer", "us"),
    ("ot.transfers", "count"),
    ("protocol.victim_self_ms", "ms"),
    ("protocol.attacker_self_ms", "ms"),
    ("protocol.uncovered_ms", "ms"),
    ("protocol.exposed_ms", "ms"),
    ("protocol.overlap_ms", "ms"),
    ("protocol.abort_ms", "ms"),
    ("protocol.messages", "count"),
    ("protocol.wire_bytes", "bytes"),
    ("protocol.bytes.CIRCUIT", "bytes"),
    ("protocol.bytes.GARBLER_INPUT_LABELS", "bytes"),
    ("protocol.bytes.OT_MSG2", "bytes"),
    ("protocol.bytes.OT_MSG3", "bytes"),
    ("mechanism.victim_grid_ms", "ms"),
    ("mechanism.victim_utility_calls", "count"),
    ("mechanism.attacker_margin_ms", "ms"),
    ("bargaining.offers_ms", "ms"),
    ("bargaining.horizon_ms", "ms"),
    ("stage_game.spne_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.op_ms.p50", "ms"),
    ("trace.overhead_ms", "ms"),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_program() -> str | None:
    """Import blindbargain from this checkout's src/; None when absent."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import blindbargain
    except ImportError:
        return None
    if Path(blindbargain.__file__).resolve().parent.parent != src:
        return None
    from blindbargain.mechanism import ScalingWarning
    from blindbargain.stage_game import RegimeWarning

    warnings.simplefilter("ignore", ScalingWarning)
    warnings.simplefilter("ignore", RegimeWarning)
    return str(src)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_facts(seed: int) -> dict:
    import cryptography
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def tail(values: list[float]) -> tuple[float, int, int]:
    """Value at the highest whole percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    pct = 100 * (n - 10) // n
    return xs[max(math.ceil(pct * n / 100) - 1, 0)], pct, n


def loopback_hosts(workload) -> list[str]:
    """Run the warm-up session and return the hosts the attacker dialled."""
    from blindbargain import protocol

    hosts = []
    original = protocol.run_attacker

    def spy(config, *args, **kwargs):
        hosts.append(config.address[0])
        return original(config, *args, **kwargs)

    protocol.run_attacker = spy
    try:
        workload.warm_up()
    finally:
        protocol.run_attacker = original
    return hosts


def probe_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to warmed up, in fresh interpreters.

    Returns the raw seconds and the same scaled to the reference host
    speed, measured in this process around each probe.
    """
    host = Calibration()
    times = []
    for k in range(SETUP_PROBES):
        host.before(k, force=True)
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {name} failed (exit {code})")
        times.append(elapsed)
    host.close(SETUP_PROBES)
    return times, [t * host.scales(k)[0] for k, t in enumerate(times)]


def drop_tracebacks(raw) -> None:
    """Keep no frames of a failed session alive after it returns.

    Results are checked after the loop; an exception's traceback would
    hold that session's circuit and labels, so peak memory would depend
    on which sessions aborted rather than on the program.
    """
    for exc in raw:
        while isinstance(exc, BaseException):
            exc.__traceback__ = None
            exc = exc.__cause__ or exc.__context__


def measure(workload, tracer) -> tuple[list[dict], Calibration]:
    """Closed loop of whole cycles for at least ``RUN_SECONDS``.

    With a tracer, every other cycle is traced, so the traced and the
    untraced operations hold the same mix.  The reference job is timed
    between operations.  Returns the per-op records and those samples.
    """
    records = []
    host = Calibration()
    start = time.perf_counter()
    i = 0
    while i % workload.cycle or time.perf_counter() - start < RUN_SECONDS:
        op = workload.next_op()
        host.before(i)
        traced = tracer is not None and (i // workload.cycle) % 2 == 0
        if traced:
            tracer.install()
        with tracer.op() if traced else contextlib.nullcontext() as root:
            c0, t0 = time.process_time(), time.perf_counter()
            raw = op.execute()
            t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        drop_tracebacks(raw)
        records.append(
            {"op": op, "raw": raw, "ms": (t1 - t0) * 1e3, "cpu_ms": (c1 - c0) * 1e3,
             "traced": traced, "op_id": root.op if traced else None}
        )
        i += 1
    host.close(i)
    return records, host


def check_records(records) -> tuple[list[dict], list[str]]:
    """Per-op oracle checks plus the per-profile transcript-shape check."""
    import workloads

    failures, problems = [], []
    shapes: dict[str, set] = {}
    for index, rec in enumerate(records):
        reason = rec["op"].check(rec["raw"])
        if reason is not None:
            failures.append({"index": index, "kind": rec["op"].kind,
                             "profile": rec["op"].profile, "reason": reason})
        if rec["op"].kind == "honest" and reason is None:
            shape = tuple(tuple(t.shape()) for t in workloads.transcripts(rec["raw"]))
            shapes.setdefault(rec["op"].profile, set()).add(shape)
    for profile, seen in shapes.items():
        if len(seen) != 1:
            problems.append(f"{profile}: transcript shape differs between sessions")
    return failures, problems


def timings(ms: list[float], cpu_ms: list[float], setup_s: list[float]) -> dict:
    """The end-to-end timings of one run; ``ops_per_s`` counts op time only."""
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail(ms)[0],
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "cpu_ms_per_op": statistics.fmean(cpu_ms),
        "setup_s": statistics.median(setup_s),
    }


def end_to_end(records, host, setup) -> tuple[dict, dict]:
    """Timings at the reference host speed plus memory and wire bytes,
    and the raw timings."""
    from workloads import wire_counts

    scales = [host.scales(i) for i in range(len(records))]
    for rec, (wall, cpu) in zip(records, scales):
        rec["ref_ms"], rec["ref_cpu_ms"] = rec["ms"] * wall, rec["cpu_ms"] * cpu
    raw_setup, ref_setup = setup
    wire = Counter()
    for rec in records:
        wire.update(wire_counts(rec["raw"]))
    metrics = timings([r["ref_ms"] for r in records], [r["ref_cpu_ms"] for r in records],
                      ref_setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["wire_bytes_per_op"] = wire["protocol.wire_bytes"] / len(records)
    raw = timings([r["ms"] for r in records], [r["cpu_ms"] for r in records], raw_setup)
    return metrics, raw


def per_layer(records, tracer) -> tuple[dict, list[str], dict]:
    from tracing import breakdown
    from workloads import VARIANTS, wire_counts

    by_op = tracer.by_op()
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    totals: Counter = Counter()
    problems = []
    counters: dict[str, set] = {}
    aborts, max_error = [], 0.0
    for rec in traced:
        metrics, facts = breakdown(by_op[rec["op_id"]])
        metrics.update(wire_counts(rec["raw"]))
        totals.update(metrics)
        max_error = max(max_error, abs(facts["accounting_error_ms"]))
        if abs(facts["accounting_error_ms"]) > 1e-6 * max(facts["wall_ms"], 1.0):
            problems.append(f"op {rec['op_id']}: layer times do not add up to wall time")
        if rec["op"].kind in VARIANTS:
            side = VARIANTS[rec["op"].kind][1]
            aborts.append(facts["session_end_ms"][side][0])
        if rec["op"].kind == "honest":
            exact = {k: v for k, v in metrics.items() if not k.endswith("_ms")}
            counters.setdefault(rec["op"].profile, set()).add(tuple(sorted(exact.items())))
    for profile, seen in counters.items():
        if len(seen) != 1:
            problems.append(f"{profile}: layer counters differ between sessions")
    n = max(len(traced), 1)
    out = {name: totals[name] / n for name, _ in PER_LAYER}

    def ratio(ms_key, count_key):
        return totals[ms_key] * 1e3 / totals[count_key] if totals[count_key] else 0.0

    out["garbling.garble_us_per_and"] = ratio("garbling.garble_ms", "circuit.and_gates")
    out["garbling.evaluate_us_per_and"] = ratio("garbling.evaluate_ms", "circuit.and_gates")
    out["ot.sender_us_per_transfer"] = ratio("ot.sender_ms", "ot.transfers")
    out["ot.receiver_us_per_transfer"] = ratio("ot.receiver_ms", "ot.transfers")
    out["protocol.abort_ms"] = statistics.mean(aborts) if aborts else 0.0
    traced_p50 = statistics.median(r["ms"] for r in traced) if traced else 0.0
    untraced_p50 = statistics.median(r["ms"] for r in untraced) if untraced else traced_p50
    out["trace.op_ms.p50"] = traced_p50
    out["trace.overhead_ms"] = traced_p50 - untraced_p50
    crypto = sum(out[k] for k in ("ot.sender_ms", "ot.receiver_ms",
                                  "garbling.garble_ms", "garbling.evaluate_ms"))
    extra = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "untraced_op_ms.p50": untraced_p50,
        "crypto_share_of_p50": crypto / traced_p50 if traced_p50 else 0.0,
        "max_accounting_error_ms": max_error,
    }
    return out, problems, extra


def run_workload(name: str, seed: int, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    facts = machine_facts(seed)
    setup = ([], []) if trace else probe_setup(name, seed)
    workload = workloads.make(name, seed)
    hosts = loopback_hosts(workload)
    facts["transport"] = (
        "loopback only" if hosts and all(ipaddress.ip_address(h).is_loopback for h in hosts)
        else ("none: in process, no sockets" if not hosts else "NOT loopback")
    )
    tracer = Tracer() if trace else None
    records, host = measure(workload, tracer)
    failures, problems = check_records(records)
    if facts["transport"] == "NOT loopback":
        problems.append("settlement traffic left the loopback interface")
    if trace and isinstance(workload, workloads.Settle):
        import selftest

        problems.extend(selftest.run())
    result = {"workload": name, "seed": seed, "seconds": RUN_SECONDS, "trace": int(trace),
              "facts": facts, "attempted": len(records), "failed": len(failures),
              "failed_ratio": len(failures) / len(records), "failures": failures,
              "host_speed": host.summary()}
    if trace:
        layer, layer_problems, extra = per_layer(records, tracer)
        problems.extend(layer_problems)
        result["metrics"] = layer
        result["trace_summary"] = extra
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{name}-seed{seed}.spans.jsonl.gz")
    else:
        result["metrics"], result["raw_metrics"] = end_to_end(records, host, setup)
        _, pct, n = tail([r["ms"] for r in records])
        result["tail"] = {"percentile": pct, "samples": n}
        result["setup_samples_s"] = {"raw": setup[0], "ref": setup[1]}
    op_keys = ("ms", "cpu_ms", "ref_ms", "ref_cpu_ms", "traced")
    result["ops"] = [{"kind": r["op"].kind, "profile": r["op"].profile}
                     | {k: r[k] for k in op_keys if k in r} for r in records]
    result["problems"] = problems
    result["correct"] = not failures and not problems
    return result


def report(result: dict) -> None:
    units = dict((n, u) for n, u, *_ in END_TO_END) | dict(PER_LAYER)
    units.update({"wire_bytes_per_op": "bytes"})
    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']} s, "
          f"trace {result['trace']}) ==")
    for name, value in result["metrics"].items():
        note = ""
        if name in result.get("raw_metrics", {}):
            note = f"  (raw {result['raw_metrics'][name]:.4f})"
        if name == "op_ms.tail":
            note += f"  (p{result['tail']['percentile']} of {result['tail']['samples']} samples)"
        print(f"  {name:38s} {value:14.4f} {units[name]}{note}")
    print(f"  {'failed_ratio':38s} {result['failed_ratio']:14.4f} "
          f"({result['failed']}/{result['attempted']})")
    for key, value in result.get("trace_summary", {}).items():
        print(f"  {key:38s} {value:14.4f}")
    for line in result["problems"] + [f["reason"] for f in result["failures"]]:
        print(f"  CHECK FAILED: {line}")


def summary_line(results: list[dict]) -> dict:
    """The last stdout line: verdict, op counts and the declared metrics."""
    units = dict((n, u) for n, u, *_ in END_TO_END) | dict(PER_LAYER)
    declared = [n for n, *_ in END_TO_END] if not results[0]["trace"] else [n for n, _ in PER_LAYER]
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name in declared:
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": result["metrics"][name], "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def result_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_all(seed: int, trace: int) -> int:
    """Every workload in its own interpreter, then one summary line."""
    results = []
    for name in WORKLOADS:
        path = result_path(name, seed, trace)
        path.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--trace", str(trace)],
            cwd=ROOT, check=False,
        )
        if not path.is_file():
            return fail(f"{name} gave no result")
        results.append(json.loads(path.read_text()))
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if declared != manifest():
        return fail("BENCHMARK.json differs from perfbench/run.py --manifest")
    if args.seconds != RUN_SECONDS:
        return fail(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    if load_program() is None:
        return fail(f"blindbargain not found under {ROOT / 'src'}")

    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0
    if args.self_test:
        import selftest

        problems = selftest.run()
        for line in problems:
            print(f"CHECK FAILED: {line}")
        print("self-test: " + ("FAIL" if problems else "PASS"))
        return 1 if problems else 0

    if args.workload == "all":
        return run_all(args.seed, args.trace)
    result = run_workload(args.workload, args.seed, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    report(result)
    path = result_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(result, indent=2, default=str) + "\n")
    line = summary_line([result])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

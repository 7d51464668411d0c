"""perfbench's tracer wraps attributes of the library by name.

A rename or removal in ``src/`` that the tracer depends on would
otherwise surface only in a later ``perfbench/run.py --trace 1`` run.
The same holds for the settlement hooks its workloads override: the
session steps, ``_evaluate``'s return shape and ``GarbledMaterial``.
perfbench is imported read-only.
"""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

from blindbargain import cli
from blindbargain.protocol import PiProfile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_against_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = cli.expected_victim_utility
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.expected_victim_utility is not original
        with tracer.op(), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["mechanism", "verify-bic", "--attacker-grid", "2", "--victim-step-bits", "1"]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.expected_victim_utility is original
    names = {span.name for span in tracer.spans}
    # the CLI's victim search and attacker check run through the wrapped names
    assert {"mechanism.victim_utility", "mechanism.attacker_margin"} <= names


def test_perfbench_selftest_passes_against_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    # four traced (8, 8) settlements: spans, counters and the privacy guard
    assert selftest.run() == []


def test_every_adversarial_settle_variant_meets_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    pi = PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, 0)
    for variant in workloads.VARIANTS:
        seeds = (b"v-" + variant.encode(), b"a-" + variant.encode())
        op = workloads.Settle.make_op(pi, 200, 37, seeds, variant)
        assert op.check(op.execute()) is None, variant

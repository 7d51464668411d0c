"""perfbench's tracer wraps attributes of the library by name.

A rename or removal in ``src/`` that the tracer depends on would
otherwise surface only in a later ``perfbench/run.py --trace 1`` run.
"""

import contextlib
import io
from pathlib import Path

from blindbargain import cli

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

"""End-user command surface: output formats and exit codes."""

import argparse
import ast
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import blindbargain
from blindbargain import bargaining, cli, protocol
from blindbargain.bargaining import MarginalLossWarning
from blindbargain.circuit import build_mechanism_circuit
from blindbargain.cli import main
from blindbargain.config import MAX_CONFIG_BYTES, load_config
from blindbargain.garbling import garble, serialize_garbled
from blindbargain.losses import LossProfile, residual_value
from blindbargain.mechanism import MechanismParams, ScaledParams
from blindbargain.ot import BITS_PER_TRANSFER, ELEMENT_BYTES, OtReceiver, OtSender
from blindbargain.protocol import (
    MSG_OT_MSG1,
    MSG_OT_MSG2,
    MSG_OT_MSG3,
    AttackerSession,
    NegotiationAbort,
    NegotiationConfig,
    TransportFailure,
    VictimSession,
    run_attacker,
    run_victim,
)
from test_garbling import WRONG_ENCODINGS, _negated, _uncompressed, _wrong_encodings

VICTIM_CFG = """\
blocks = 120, 40, 30, 10
l0 = 25
tail = 60
r_max = 220
q = 1/4
k = 8
k_theta = 8
t_e = 1
"""

ATTACKER_CFG = """\
q = 1/4
k = 8
k_theta = 8
t_e = 1
theta_hex = 0x25
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_offers_worked_example(capsys):
    code, out, _ = run(
        capsys, "offers", "--blocks", "1,1,1,1,1", "--r-min", "1.5"
    )
    assert code == 0
    assert "N = 3" in out
    assert "offers: [3, 2, 2]" in out


_SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(Path(blindbargain.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ),
)


def _python_m_blindbargain(*argv):
    return subprocess.run(
        [sys.executable, "-m", "blindbargain", *argv],
        capture_output=True, text=True, env=_SRC_ENV, timeout=60,
    )


SCALING_WARNING = "warning: q=1/3 is not dyadic; scaled constants round down\n"
STEEP_WARNING = "warning: final-round block 1 is not small next to the remaining mass 1\n"


def test_schedule_outside_marginal_loss_assumption_warns(capsys):
    # the last block (1) is not small next to the remaining mass (1)
    steep = ("--blocks", "1,1,1,1,1", "--r-min", "1.5")
    code, out, err = run(capsys, "offers", *steep)
    assert code == 0 and out.splitlines()[-1] == "offers: [3, 2, 2]"
    assert err == STEEP_WARNING
    code, out, err = run(capsys, "horizon", *steep)
    assert (code, out, err) == (0, "N = 3\n", STEEP_WARNING)
    # the caller's filters still decide what is shown
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalLossWarning)
        code, out, err = run(capsys, "offers", *steep)
    assert code == 0 and out.splitlines()[-1] == "offers: [3, 2, 2]" and err == ""
    flat = ("--blocks", "1,1,1,1", "--tail", "100", "--r-min", "100.5")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, out, err = run(capsys, "offers", *flat)
        assert code == 0 and "offers: [102, 101, 101]" in out and err == ""
        assert run(capsys, "horizon", *flat) == (0, "N = 3\n", "")


def test_readme_offers_example_prints_what_it_quotes():
    # the first sh block of the README's CLI section quotes the output of
    # its offers line as "# " comments, stdout first, then "on stderr:"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    command = "blindbargain offers --blocks 1,1,1,1,1 --r-min 1.5"
    quoted = []
    for line in lines[lines.index(command) + 1 :]:
        if not line.startswith("# "):
            break
        quoted.append(line[2:] + "\n")
    split = quoted.index("on stderr:\n")
    proc = _python_m_blindbargain(*command.split()[1:])
    assert proc.returncode == 0
    assert proc.stdout == "".join(quoted[:split])
    assert proc.stderr == "".join(quoted[split + 1 :])


def test_readme_settle_wide_figures_match_the_code():
    # the private-settlement paragraph quotes the (16, 32), q = 1/4 circuit
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    circuit_figures = re.search(
        r"At k_theta = 16, k = 32, q = 1/4 the circuit reads (\d+) of each party's "
        r"(\d+) input bits .*? has ([\d,]+) AND gates, for an? ([\d,]+)-byte garbled",
        text,
    )
    ot_figures = re.search(
        r"a \(16, 32\) session at q = 1/4 makes (\d+) transfers for its (\d+) live bits",
        text,
    )
    assert circuit_figures and ot_figures, "the README no longer quotes the figures"
    live, layout, ands, blob_bytes = (
        int(figure.replace(",", "")) for figure in circuit_figures.groups()
    )
    transfers, transferred_bits = map(int, ot_figures.groups())
    params = MechanismParams(Fraction(1, 4), 16, 32)
    circuit = build_mechanism_circuit(params, ScaledParams.from_params(params))
    blob = serialize_garbled(garble(circuit, b"readme").garbled)
    assert (circuit.victim_inputs, circuit.attacker_inputs) == (live, live)
    assert layout == 2 * params.k + params.k_theta
    assert ands == circuit.and_count
    assert blob_bytes == len(blob)
    # one transfer carries three of the attacker's live bits
    assert transferred_bits == circuit.attacker_inputs
    assert transfers == -(-circuit.attacker_inputs // BITS_PER_TRANSFER)


def _step_stages(source):
    """The stage literals a module passes to ``step(...)`` calls."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "step"
    }


def test_readme_abort_table_lists_exactly_the_protocol_stages():
    # one row per stage a step of protocol.py names, plus the two the
    # channel raises itself
    source = Path(protocol.__file__).read_text(encoding="utf-8")
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    header = "\n| Stage | Raised by | Check that fails |\n"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    # the first line is the header's separator row
    rows = [line.split("|")[1].strip().strip("`") for line in table.splitlines()[1:]]
    assert sorted(rows) == sorted(_step_stages(source) | {"timeout:<stage>", "peer-abort"})


def test_abort_bound_is_the_longest_stage_tag():
    # the plan admits an ABORT of at most MAX_ABORT_BYTES: the longest tag
    # a step of protocol.py can send, its stage behind "timeout:"
    source = Path(protocol.__file__).read_text(encoding="utf-8")
    tags = [f"timeout:{stage}".encode() for stage in _step_stages(source)]
    assert max(map(len, tags)) == protocol.MAX_ABORT_BYTES


def test_marginal_loss_warning_leaves_no_registry_entries(capsys):
    # under the default filter, warn() records each message text in the
    # warning module's registry, and this text carries the profile; the
    # catch_warnings of each main() call invalidates what earlier calls left
    for module in (cli, bargaining):
        vars(module).pop("__warningregistry__", None)
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("default", MarginalLossWarning)
        for k in range(200):
            tail = f"{k}/400"  # every tail keeps N = 3 and the warning
            code, _, err = run(capsys, "offers", "--blocks", "1,1,1,1,1", "--tail", tail, "--r-min", "1.5")
            assert code == 0
            lines += err.splitlines()
    assert len(set(lines)) == len(lines) == 200
    assert all(line.startswith("warning: final-round block 1 is not small") for line in lines)
    last = lines[-1].removeprefix("warning: ")
    for module in (cli, bargaining):
        registry = vars(module).get("__warningregistry__", {})
        assert all(key == "version" or key[0] == last for key in registry)


def test_offers_csv_export(capsys, tmp_path):
    path = tmp_path / "schedule.csv"
    code, out, _ = run(
        capsys,
        "offers",
        "--blocks",
        "1,1,1,1,1",
        "--r-min",
        "1.5",
        "--csv",
        str(path),
    )
    assert code == 0
    assert path.read_text().splitlines() == [
        "round,offer,remaining_value",
        "1,3,4",
        "2,2,3",
        "3,2,2",
    ]
    # the remaining_value column, text and CSV, is v(n) from its definition;
    # an explicit --horizon at len(blocks) + 2 runs the column into the tail
    rng = random.Random(0x0FF3)
    at_limit = 0
    for trial in range(60):
        blocks = [Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(rng.randint(1, 9))]
        tail = Fraction(rng.randrange(12), rng.choice((1, 2, 4)))
        profile = LossProfile(blocks=blocks, tail=tail)
        flags = ["--blocks", ",".join(map(str, blocks)), "--tail", str(tail)]
        if trial % 3 and len(blocks) % 2:
            horizon = len(blocks) + 2
        elif trial % 3 or len(blocks) < 2:
            horizon = rng.randrange(1, len(blocks) + 2, 2)
        else:
            horizon = None
        if horizon is None:
            # r_min strictly inside (v(N + 1), v(N)) fixes the computed horizon at N
            n = rng.randrange(1, len(blocks), 2)
            flags += ["--r-min", str(residual_value(profile, n + 1) + blocks[n] / 2)]
        else:
            flags += ["--r-min", "0", "--horizon", str(horizon)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MarginalLossWarning)
            code, out, _ = run(capsys, "offers", *flags, "--csv", str(path))
        assert code == 0
        horizon = int(out.splitlines()[0].removeprefix("N = "))
        expected = [(str(n), str(residual_value(profile, n))) for n in range(1, horizon + 1)]
        text_rows = [line.split() for line in out.splitlines()[2 : 2 + horizon]]
        csv_rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(row[0], row[2]) for row in text_rows] == expected
        assert [(row[0], row[2]) for row in csv_rows] == expected
        if horizon == len(blocks) + 2:
            at_limit += 1
            assert expected[-3][1] == expected[-1][1] == str(tail)
    assert at_limit > 10


def test_offers_refuses_a_horizon_past_the_profile(capsys):
    # round len(blocks) + 2 is the last one accepted; every later row would
    # repeat the tail, and 10^9 rounds would be a list of 10^9 offers
    five = ("--blocks", "1,1,1,1,1", "--r-min", "1.5")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalLossWarning)
        code, out, _ = run(capsys, "offers", *five, "--horizon", "7")
    assert code == 0 and out.splitlines()[-1] == "offers: [2, 1, 1, 0, 0, 0, 0]"
    tracemalloc.start()
    try:
        for horizon in ("8", "9", "200001", "999999999"):
            code, out, err = run(capsys, "offers", *five, "--horizon", horizon)
            assert code == 1 and out == ""
            assert err == f"error: --horizon must be at most 7 (5 profiled rounds + 2), got {horizon}\n"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    proc = _python_m_blindbargain("offers", *five, "--horizon", "999999999")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: --horizon must be at most 7")


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "rubinstein", "10", "8", "2")[:2] == (0, "5\n")
    del built[:]
    assert run(capsys, "rubinstein", "10", "9", "2")[:2] == (0, "11/2\n")
    assert built == []
    assert cli.build_parser.cache_info().currsize == 1
    # the counter does see a build: the root parser and each subcommand's
    cli.build_parser.cache_clear()
    assert run(capsys, "rubinstein", "10", "8", "2")[:2] == (0, "5\n")
    assert built[0] == "blindbargain" and len(built) > 10


def test_parser_reuse_leaks_no_state(capsys, monkeypatch, tmp_path):
    path = tmp_path / "schedule.csv"
    five = ("--blocks", "1,1,1,1,1", "--r-min", "1.5")
    calls = [
        ("offers", "--horizon", "x"),  # usage error
        ("--help",),
        ("offers", *five, "--csv", str(path)),
        ("offers", *five),  # no --csv: writes no file
        ("stage-game", "--r-f", "3", "--v", "10", "--r-max", "5"),
    ]
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalLossWarning)
        for shared in (True, False):
            if not shared:
                monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            path.unlink(missing_ok=True)
            results[shared] = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results[shared].append((code, captured.out, captured.err, path.exists()))
                if path.exists():
                    path.rename(tmp_path / f"written-{shared}.csv")
    assert results[True] == results[False]
    assert [(r[0], r[3]) for r in results[True]] == [(1, False), (0, False), (0, True), (0, False), (0, False)]
    assert "schedule written to" in results[True][2][1]
    assert "schedule written to" not in results[True][3][1]
    assert (tmp_path / "written-True.csv").read_text() == (tmp_path / "written-False.csv").read_text()


def test_offers_from_config_file(capsys, tmp_path):
    cfg = tmp_path / "victim.cfg"
    cfg.write_text(VICTIM_CFG + "r_min = 65\n")
    # remaining value: 140, 100, 70, 60, 60, ... so 65 stops after round 3
    code, out, _ = run(capsys, "offers", "--config", str(cfg))
    assert code == 0
    assert "N = 3" in out
    # a command-line r_min overrides the file; 99 lands on an even
    # horizon, which is refused rather than adjusted
    code, _, err = run(capsys, "offers", "--config", str(cfg), "--r-min", "99")
    assert code == 1 and "error:" in err
    # and below the tail mass the attacker never has to settle
    code, _, err = run(capsys, "offers", "--config", str(cfg), "--r-min", "50")
    assert code == 1 and "error:" in err


def test_loss_flag_overrides_its_config_key(capsys, tmp_path):
    cfg = tmp_path / "victim.cfg"
    cfg.write_text("blocks = 1, 1, 1, 1, 1\ntail = 0\nr_min = 2\n")
    # without the tail, r_min = 2 lands on the even horizon 2
    code, _, err = run(capsys, "offers", "--config", str(cfg))
    assert code == 1 and "N=2 is even" in err
    code, out, _ = run(capsys, "offers", "--config", str(cfg), "--tail", "1")
    assert code == 0 and "offers: [4, 3, 3]" in out


def test_config_keys_no_flag_names_are_kept(capsys, tmp_path):
    cfg = tmp_path / "victim.cfg"
    cfg.write_text("blocks = 9, 9\ntail = 1\nr_min = 2\n")
    # --blocks replaces the file's blocks and keeps its tail
    code, out, _ = run(
        capsys, "offers", "--config", str(cfg), "--blocks", "1,1,1,1,1"
    )
    assert code == 0
    assert "1      4      5" in out and "offers: [4, 3, 3]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["offers", "--blocks", "1,1/0", "--r-min", "1"],
        ["rubinstein", "1/0", "1", "1"],
        ["rubinstein", "1", "2", "-5"],
        ["stage-game", "--r-f", "1/0", "--v", "1", "--r-max", "2"],
        ["stage-game", "--r-f", "1", "--v", "-2", "--r-max", "5"],
        ["stage-game", "--r-f", "1", "--v", "2", "--r-max", "-5"],
        ["mechanism", "eval", "1", "1", "1/0", "8", "8", "0", "0"],
        ["mechanism", "verify-bic", "--q", "1/0"],
        ["mechanism", "verify-bic", "--q", "1"],
        ["offers", "--horizon", "x"],
        ["mechanism", "eval", "1", "1", "1/4", "60", "8", "0", "0"],
        ["mechanism", "verify-bic", "--attacker-grid", "1"],
        ["mechanism", "verify-bic", "--attacker-grid", "0"],
        ["mechanism", "verify-bic", "--k", "8"],
        ["mechanism", "verify-bic", "--k-theta", "8"],
        ["offers", "--blocks", "1", "--r-min", "1e999999999"],
        ["offers", "--blocks", "1,1,1", "--r-min", "3/2", "--round-length", "2"],
    ],
)
def test_malformed_arguments_exit_one_without_traceback(argv):
    proc = _python_m_blindbargain(*argv)
    assert proc.returncode == 1
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_horizon_and_errors(capsys):
    code, out, _ = run(capsys, "horizon", "--blocks", "1,1,1,1,1", "--r-min", "1.5")
    assert code == 0 and "N = 3" in out
    code, _, err = run(capsys, "horizon", "--blocks", "1,1", "--r-min", "100")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "offers", "--r-min", "1")
    assert code == 1 and "no loss profile" in err
    # an r_min the victim cannot pay is no deal, as in rubinstein
    code, out, err = run(capsys, "offers", "--blocks", "1,1,1,1,1", "--r-min", "1.5", "--r-max", "1")
    assert code == 1 and out == "" and "error: r_min=3/2 exceeds r_max=1" in err


def test_rubinstein_exact_fractions(capsys):
    code, out, _ = run(capsys, "rubinstein", "10", "8", "2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "rubinstein", "10", "9", "2")
    assert code == 0 and out.strip() == "11/2"
    code, _, err = run(capsys, "rubinstein", "1", "1", "5")
    assert code == 1 and "error:" in err


def test_stage_game_both_regimes(capsys):
    code, out, _ = run(
        capsys,
        "stage-game",
        "--r-f", "3", "--v", "10", "--r-max", "8",
        "--kappa-g", "2", "--kappa-l", "2",
    )
    assert code == 0
    assert "regime: anonymous" in out
    assert "victim: REFUSE (V2)" in out
    assert "attacker: DESTROY_UNPAID (A7)" in out
    code, out, _ = run(
        capsys,
        "stage-game",
        "--r-f", "3", "--v", "10", "--r-max", "8",
        "--tau-g", "2", "--tau-l", "2", "--kappa-g", "3", "--kappa-l", "3",
    )
    assert code == 0
    assert "regime: reputation" in out
    assert "victim: PAY (V1)" in out
    assert "attacker: RELEASE_PAID (A4)" in out


def test_mechanism_eval_fixed_point(capsys):
    base = ["mechanism", "eval", "200", "60", "1/4", "8", "8", "17"]
    code, out, _ = run(capsys, *base, "20")
    assert code == 0
    assert "alpha = 1" in out and "r_f = 200" in out and "sigma = 0" in out
    code, out, _ = run(capsys, *base, "200")
    assert code == 0
    assert "alpha = 1" in out and "r_f = 0" in out and "sigma = 1" in out
    code, _, err = run(capsys, "mechanism", "eval", "300", "60", "1/4", "8", "8", "0", "0")
    assert code == 1 and "does not fit" in err


def test_mechanism_eval_refuses_huge_k_before_scaling(capsys):
    # 2^k at k = 10^8 alone would take 12.5 MB
    tracemalloc.start()
    try:
        huge_k = ("1", "1", "1/4", "100000000", "8", "0", "0")
        code, _, err = run(capsys, "mechanism", "eval", *huge_k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and "64 bits" in err
    assert peak < 1 << 20
    # a non-dyadic q still warns about rounding exactly once
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        non_dyadic = ("200", "60", "1/3", "8", "8", "17", "20")
        code, out, err = run(capsys, "mechanism", "eval", *non_dyadic)
    assert code == 0 and "r_f = 66" in out
    assert err == SCALING_WARNING


def test_mechanism_verify_bic(capsys):
    code, out, _ = run(
        capsys,
        "mechanism", "verify-bic",
        "--attacker-grid", "9", "--victim-step-bits", "4",
    )
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_verify_bic_fails_when_the_attacker_gains_by_lying(capsys, monkeypatch):
    monkeypatch.setattr(cli, "attacker_truthfulness_margin", lambda *a, **kw: Fraction(-1, 3))
    code, out, _ = run(
        capsys, "mechanism", "verify-bic", "--attacker-grid", "9", "--victim-step-bits", "2"
    )
    assert code == 1
    assert out == (
        "attacker dominance at support endpoints (9x9 grid): FAIL (worst margin -1/3)\n"
        "victim optimality (grid step 2^-2): PASS (worst shortfall 0, step 1/4)\n"
    )


def test_verify_bic_fails_when_the_victim_gains_by_lying(capsys, monkeypatch):
    # every untruthful report pays 1 more than the truth
    monkeypatch.setattr(
        cli, "expected_victim_utility", lambda params, theta, r: Fraction(r != theta)
    )
    code, out, _ = run(
        capsys, "mechanism", "verify-bic", "--attacker-grid", "9", "--victim-step-bits", "2"
    )
    assert code == 1
    assert out == (
        "attacker dominance at support endpoints (9x9 grid): PASS (worst margin 0)\n"
        "victim optimality (grid step 2^-2): FAIL (worst shortfall 1, step 1/4)\n"
    )


_DEFAULT_GRID_LINES = (
    "attacker dominance at support endpoints (64x64 grid): PASS (worst margin 0)\n"
    "victim optimality (grid step 2^-6): PASS (worst shortfall 0, step 1/64)\n"
)
# stdout of the Fraction-arithmetic utilities, before the integer kernels
GOLDEN_VERIFY_BIC = {
    **{("--q", q): _DEFAULT_GRID_LINES for q in ("1/8", "1/5", "1/4", "1/3", "3/8", "1/2")},
    # the README example
    ("--attacker-grid", "64", "--victim-step-bits", "6"): _DEFAULT_GRID_LINES,
    ("--q", "2/7", "--attacker-grid", "9", "--victim-step-bits", "4"): (
        "attacker dominance at support endpoints (9x9 grid): PASS (worst margin 0)\n"
        "victim optimality (grid step 2^-4): PASS (worst shortfall 0, step 1/16)\n"
    ),
    ("--q", "1/40", "--attacker-grid", "2", "--victim-step-bits", "0"): (
        "attacker dominance at support endpoints (2x2 grid): PASS (worst margin 0)\n"
        "victim optimality (grid step 2^-0): PASS (worst shortfall 0, step 1)\n"
    ),
}


@pytest.mark.parametrize("flags", GOLDEN_VERIFY_BIC)
def test_verify_bic_golden_stdout(capsys, flags):
    code, out, _ = run(capsys, "mechanism", "verify-bic", *flags)
    assert code == 0 and out == GOLDEN_VERIFY_BIC[flags]


@pytest.mark.parametrize(
    "flags",
    [
        ("--victim-step-bits", "-1"),
        ("--victim-step-bits", str(cli.MAX_VICTIM_STEP_BITS + 1)),
        ("--victim-step-bits", "40"),  # 2^40 + 1 reports if it were built
        ("--attacker-grid", "1"),
        ("--attacker-grid", str(cli.MAX_ATTACKER_GRID + 1)),
        ("--attacker-grid", str(10**12)),  # 10^12 grid points if they were built
    ],
)
def test_verify_bic_refuses_grids_before_any_suite(capsys, flags):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "mechanism", "verify-bic", *flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == "" and "must lie in" in err
    assert peak < 1 << 20


def _free_port(host="127.0.0.1") -> int:
    with socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _settle_roles(capsys, victim_argv, attacker_argv):
    """Victim through main() on a thread, attacker in its own process.

    Two overlapping main() calls in one process would share the warnings
    module's process-wide hooks, so the attacker never runs in-process.
    """
    codes = {}
    thread = threading.Thread(target=lambda: codes.update(victim=main(victim_argv)), daemon=True)
    thread.start()
    for _ in range(50):  # wait out the listener race
        attacker = _python_m_blindbargain(*attacker_argv)
        if attacker.returncode != 3:
            break
        time.sleep(0.1)
    thread.join(15)
    assert not thread.is_alive()
    victim_out, victim_err = capsys.readouterr()
    return codes, victim_out, victim_err, attacker


def _settle_over_cli(
    capsys, tmp_path, attacker_cfg_text, transcript=None, attacker_seed="61", host="127.0.0.1"
):
    victim_cfg = tmp_path / "victim.cfg"
    victim_cfg.write_text(VICTIM_CFG)
    attacker_cfg = tmp_path / "attacker.cfg"
    attacker_cfg.write_text(attacker_cfg_text)
    address = f"{host}:{_free_port(host.strip('[]'))}"
    victim_argv = [
        "victim", "--config", str(victim_cfg),
        "--listen", address, "--seed", "76",
    ]
    if transcript:
        victim_argv += ["--transcript", str(transcript)]
    attacker_argv = [
        "attacker", "--config", str(attacker_cfg),
        "--connect", address, "--seed", attacker_seed,
    ]
    codes, victim_out, victim_err, attacker = _settle_roles(capsys, victim_argv, attacker_argv)
    codes["attacker"] = attacker.returncode
    return codes, victim_out + attacker.stdout, victim_err + attacker.stderr


def test_protocol_roles_over_cli(capsys, tmp_path):
    transcript = tmp_path / "session.transcript"
    codes, out, _ = _settle_over_cli(capsys, tmp_path, ATTACKER_CFG, transcript)
    assert codes == {"victim": 0, "attacker": 0}
    assert out.count("settled:") == 2
    lines = [l for l in out.splitlines() if l.startswith("settled:")]
    assert lines[0] == lines[1]
    from blindbargain.protocol import load_transcript

    records = load_transcript(transcript).records
    assert records[0].msg_type == "HELLO"
    assert records[-1].msg_type == "RESULT_ACK"


def test_protocol_roles_over_cli_on_ipv6_loopback(capsys, tmp_path):
    try:
        _free_port("::1")
    except OSError:
        pytest.skip("::1 cannot be bound on this host")
    codes, out, _ = _settle_over_cli(capsys, tmp_path, ATTACKER_CFG, host="[::1]")
    assert codes == {"victim": 0, "attacker": 0}
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1] and lines[0].startswith("settled:")


def test_non_dyadic_settlement_warns_once_per_role(capsys, tmp_path):
    # each role scales q when it loads its config and again in its session;
    # the victim runs through main() here, the attacker in its own process
    victim_cfg, attacker_cfg = tmp_path / "victim.cfg", tmp_path / "attacker.cfg"
    for path, text in ((victim_cfg, VICTIM_CFG), (attacker_cfg, ATTACKER_CFG)):
        path.write_text(text.replace("q = 1/4", "q = 1/3"))
    address = f"127.0.0.1:{_free_port()}"
    victim_argv = ["victim", "--config", str(victim_cfg), "--listen", address, "--seed", "76"]
    attacker_argv = ["attacker", "--config", str(attacker_cfg), "--connect", address, "--seed", "61"]
    codes, victim_out, victim_err, attacker = _settle_roles(capsys, victim_argv, attacker_argv)
    assert (codes["victim"], attacker.returncode) == (0, 0)
    assert victim_out == attacker.stdout and victim_out.startswith("settled:")
    assert victim_err == attacker.stderr == SCALING_WARNING


@pytest.mark.parametrize("role", ["victim", "attacker"])
@pytest.mark.parametrize(
    "port, timeout, message",
    [
        # int() takes these; a port must be written in plain decimal
        ("7_301", "10", "bad port in"),
        ("+80", "10", "bad port in"),
        (" 80", "10", "bad port in"),
        ("\u0668\u0660", "10", "bad port in"),  # Arabic-Indic 80
        ("65536", "10", "port must lie in 0..65535"),
        ("70000", "10", "port must lie in 0..65535"),  # would dial 4464
        ("-1", "10", "port must lie in 0..65535"),
        ("0", "inf", "timeout must lie in"),
        ("0", "nan", "timeout must lie in"),
        ("0", "0", "timeout must lie in"),  # a non-blocking socket
        ("0", "1e300", "timeout must lie in"),
    ],
)
def test_out_of_range_port_or_timeout_exits_one_before_any_socket(
    capsys, tmp_path, monkeypatch, role, port, timeout, message
):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)  # create_server calls it too
    monkeypatch.setattr(socket, "create_connection", no_socket)
    cfg = tmp_path / f"{role}.cfg"
    cfg.write_text(VICTIM_CFG if role == "victim" else ATTACKER_CFG)
    flag = "--listen" if role == "victim" else "--connect"
    code, out, err = run(
        capsys, role, "--config", str(cfg), flag, f"127.0.0.1:{port}", "--timeout", timeout
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_unwritable_victim_transcript_exits_one_before_any_socket(
    capsys, tmp_path, monkeypatch
):
    # a session that ran would exit 2 or 3; a late write error would hide that
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    cfg = tmp_path / "victim.cfg"
    cfg.write_text(VICTIM_CFG)
    missing = tmp_path / "missing" / "t.tsv"
    code, out, err = run(
        capsys, "victim", "--config", str(cfg), "--listen", "127.0.0.1:0",
        "--timeout", "0.5", "--transcript", str(missing),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2]") and "Traceback" not in err


def test_unwritable_offers_csv_exits_one_before_any_output(capsys, tmp_path):
    missing = tmp_path / "missing" / "s.csv"
    code, out, err = run(
        capsys, "offers", "--blocks", "4,3,2,1", "--tail", "1", "--r-min", "5",
        "--csv", str(missing),
    )
    assert (code, out) == (1, "")
    # the marginal-loss warning comes first, on stderr, as at any path
    assert err.splitlines()[-1].startswith("error: [Errno 2]") and "Traceback" not in err


def test_victim_transcript_is_written_when_no_peer_connects(capsys, tmp_path):
    cfg = tmp_path / "victim.cfg"
    cfg.write_text(VICTIM_CFG)
    transcript = tmp_path / "t.tsv"
    code, _, err = run(
        capsys, "victim", "--config", str(cfg), "--listen", "127.0.0.1:0",
        "--timeout", "0.2", "--transcript", str(transcript),
    )
    assert code == 3 and "transport failure: no peer connected" in err
    assert transcript.read_text(encoding="utf-8") == ""


def test_profile_mismatch_exits_abort_code(capsys, tmp_path):
    # both sides hold internally valid profiles that disagree on t_e
    codes, _, err = _settle_over_cli(
        capsys, tmp_path, ATTACKER_CFG.replace("t_e = 1", "t_e = 2")
    )
    assert codes["attacker"] == 2
    assert codes["victim"] == 2
    assert "aborted at" in err


def test_equal_seeds_abort_at_ot_on_both_sides(capsys, tmp_path):
    # one seed on both sides makes the attacker's second blinding scalar
    # the victim's OT scalar, so bG = A: a typed abort, not a bare error
    codes, out, err = _settle_over_cli(capsys, tmp_path, ATTACKER_CFG, attacker_seed="76")
    assert codes == {"victim": 2, "attacker": 2}
    assert out == ""
    assert "aborted at ot: blinding point 1 is A or -A" in err
    assert "aborted at peer-abort: ot" in err


class _MinusALastAttacker(AttackerSession):
    """Blinds honestly, then sends ``wrong(A, last)`` in place of its last
    element: -A here."""

    @staticmethod
    def wrong(sender_public, last):
        return _negated(sender_public)

    def _run_ot(self, circuit):
        receiver = OtReceiver([0] * circuit.attacker_inputs, self.randomness.word)
        sender_public = self.channel.recv(MSG_OT_MSG1)
        blinded = receiver.blind(sender_public)
        wrong = self.wrong(sender_public, blinded[-ELEMENT_BYTES:])
        self.channel.send(MSG_OT_MSG2, blinded[:-ELEMENT_BYTES] + wrong)
        self.channel.recv(MSG_OT_MSG3)
        raise AssertionError("victim answered a refused element")


def _cli_victim_against(attacker_cls, tmp_path):
    """The victim through main() on a thread against ``attacker_cls``;
    returns the victim's exit code and the attacker's abort."""
    victim_cfg = tmp_path / "victim.cfg"
    victim_cfg.write_text(VICTIM_CFG)
    attacker_cfg = tmp_path / "attacker.cfg"
    attacker_cfg.write_text(ATTACKER_CFG)
    port = _free_port()
    victim_argv = [
        "victim", "--config", str(victim_cfg), "--listen", f"127.0.0.1:{port}",
    ]
    codes = {}
    thread = threading.Thread(
        target=lambda: codes.setdefault("victim", main(victim_argv)), daemon=True
    )
    thread.start()
    config = NegotiationConfig(load_config(attacker_cfg).pi(), 0x25, ("127.0.0.1", port))
    for _ in range(50):  # wait out the listener race
        try:
            run_attacker(config, None, attacker_cls)
        except TransportFailure:
            time.sleep(0.1)
        except NegotiationAbort as exc:
            attacker = exc
            break
    thread.join(15)
    assert not thread.is_alive()
    # the circuit reads 17 of the attacker's 24 input bits at (8, 8),
    # q = 1/4, and they go three to an element: element 5 is the last
    pi = config.pi
    assert build_mechanism_circuit(pi.params(), pi.scaled).attacker_inputs == 17
    return codes["victim"], attacker


def _cli_attacker_against(victim_cls, tmp_path):
    """The attacker through main() against ``victim_cls`` on a thread;
    returns the attacker's exit code and the victim's abort."""
    attacker_cfg = tmp_path / "attacker.cfg"
    attacker_cfg.write_text(ATTACKER_CFG)
    pi = load_config(attacker_cfg).pi()
    victim = {}
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = listener.getsockname()

        def serve():
            try:
                run_victim(NegotiationConfig(pi, 200, address), None, listener, victim_cls)
            except NegotiationAbort as exc:
                victim["abort"] = exc

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        connect = f"127.0.0.1:{address[1]}"
        code = main(["attacker", "--config", str(attacker_cfg), "--connect", connect])
        thread.join(15)
    assert not thread.is_alive()
    return code, victim["abort"]


def test_sender_point_as_last_ot_element_exits_abort_code(capsys, tmp_path):
    code, attacker = _cli_victim_against(_MinusALastAttacker, tmp_path)
    assert code == 2
    assert attacker.stage == "peer-abort" and attacker.detail == "ot"
    err = capsys.readouterr().err
    assert "aborted at ot: receiver message: element 5 is A or -A" in err


@pytest.mark.parametrize("name", WRONG_ENCODINGS)
def test_wrongly_encoded_ot_element_exits_abort_code_on_either_side(
    name, capsys, tmp_path
):
    # the victim, OT sender, refuses a wrong last element of OT_MSG2
    class WrongLastAttacker(_MinusALastAttacker):
        @staticmethod
        def wrong(sender_public, last):
            return _wrong_encodings(last)[name][0]

    code, attacker = _cli_victim_against(WrongLastAttacker, tmp_path)
    assert code == 2
    assert attacker.stage == "peer-abort" and attacker.detail == "ot"
    refusal = WRONG_ENCODINGS[name]
    # a wrong length is refused at the frame's header, as the plan has it
    wrong_length = len(_wrong_encodings(_uncompressed(2))[name][0])
    detail = (
        f"receiver message: element 5 {refusal}" if refusal
        else f"OT_MSG2 must be {6 * ELEMENT_BYTES} bytes, got {5 * ELEMENT_BYTES + wrong_length}"
    )
    err = capsys.readouterr().err
    assert f"aborted at ot: {detail}\n" in err

    # the attacker, OT receiver, refuses a wrong OT_MSG1
    class WrongOtMsg1Victim(VictimSession):
        def _serve_ot(self, circuit, material):
            sender = OtSender(
                material.input_labels[circuit.victim_inputs :], self.randomness.word
            )
            wrong = _wrong_encodings(sender.public_message())[name][0]
            self.channel.send(MSG_OT_MSG1, wrong)
            self.channel.recv(MSG_OT_MSG2)
            raise AssertionError("attacker answered a refused element")

    code, victim = _cli_attacker_against(WrongOtMsg1Victim, tmp_path)
    assert code == 2
    assert victim.stage == "peer-abort" and victim.detail == "ot"
    detail = (
        f"sender message: element 0 {refusal}" if refusal
        else f"OT_MSG1 must be {ELEMENT_BYTES} bytes, got {wrong_length}"
    )
    err = capsys.readouterr().err
    assert f"aborted at ot: {detail}\n" in err


def test_connect_without_listener_is_transport_failure(capsys, tmp_path):
    attacker_cfg = tmp_path / "attacker.cfg"
    attacker_cfg.write_text(ATTACKER_CFG)
    code, _, err = run(
        capsys,
        "attacker", "--config", str(attacker_cfg),
        "--connect", f"127.0.0.1:{_free_port()}", "--timeout", "1",
    )
    assert code == 3
    assert "transport failure" in err


def test_config_errors_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("q = 1/4\nk = 8\n")  # k_theta missing
    code, _, err = run(
        capsys, "victim", "--config", str(bad), "--listen", "127.0.0.1:1"
    )
    assert code == 1 and "error:" in err
    no_theta = tmp_path / "no_theta.cfg"
    no_theta.write_text("q = 1/4\nk = 8\nk_theta = 8\n")
    code, _, err = run(
        capsys, "attacker", "--config", str(no_theta), "--connect", "127.0.0.1:1"
    )
    assert code == 1 and "set theta_hex" in err
    good = tmp_path / "good.cfg"
    good.write_text(ATTACKER_CFG)
    code, _, err = run(
        capsys, "attacker", "--config", str(good), "--connect", "nowhere"
    )
    assert code == 1 and "host:port" in err


def _padded(text, size):
    """``text`` and a comment line, ``size`` bytes in all."""
    return text + "#" * (size - len(text) - 1) + "\n"


def test_config_file_past_the_size_cap_exits_one(capsys, tmp_path):
    at_cap = tmp_path / "at_cap.cfg"
    at_cap.write_text(_padded(VICTIM_CFG + "r_min = 65\n", MAX_CONFIG_BYTES))
    code, out, _ = run(capsys, "offers", "--config", str(at_cap))
    assert code == 0 and "N = 3" in out
    over = tmp_path / "over.cfg"
    over.write_text(_padded(VICTIM_CFG + "r_min = 65\n", MAX_CONFIG_BYTES + 1))
    # /dev/zero never ends: the read stops one byte past the cap
    for path in (str(over), "/dev/zero"):
        for argv in (
            ["offers", "--config", path, "--r-min", "1"],
            ["horizon", "--config", path, "--r-min", "1"],
            ["victim", "--config", path, "--listen", "127.0.0.1:1"],
            ["attacker", "--config", path, "--connect", "127.0.0.1:1"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: config file {path} is longer than {MAX_CONFIG_BYTES} bytes\n"


def test_fifo_config_without_a_writer_exits_one_at_once(tmp_path):
    # the open does not wait for a writer, and a FIFO with none reads as
    # empty, so the config misses its keys; the timeout turns a hang into
    # a failure
    fifo = tmp_path / "config.fifo"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "blindbargain", "victim", "--config", str(fifo),
         "--listen", "127.0.0.1:1"],
        capture_output=True, text=True, env=_SRC_ENV, timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: missing required keys: q, k, k_theta\n"


def test_pipe_config_with_a_writer_reads_all_it_is_written():
    # as --config <(...) does: the reads block until the writer closes
    text = VICTIM_CFG + "r_min = 65\n"
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "blindbargain", "offers", "--config", f"/dev/fd/{read_end}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_SRC_ENV,
            pass_fds=(read_end,),
        )
    finally:
        os.close(read_end)
    with os.fdopen(write_end, "w") as writer:
        writer.write(text[:20])
        writer.flush()
        time.sleep(0.5)
        writer.write(text[20:])
    out, err = proc.communicate(timeout=20)
    assert proc.returncode == 0, err
    assert "N = 3" in out


def test_unsendable_profile_exits_one_before_listening(capsys, tmp_path):
    # a t_e the profile's u64 fields cannot carry, and a negative t_e; the
    # report comes from theta_hex, so only the profile can fail
    for t_e in ("1/18446744073709551617", "-1"):
        cfg = tmp_path / "victim.cfg"
        cfg.write_text(ATTACKER_CFG.replace("t_e = 1", f"t_e = {t_e}"))
        code, _, err = run(
            capsys,
            "victim", "--config", str(cfg),
            "--listen", f"127.0.0.1:{_free_port()}", "--timeout", "1",
        )
        assert code == 1 and "error:" in err


def test_unbuildable_profile_exits_one_before_listening(capsys, tmp_path):
    # k = 64 pushes theta * inv_q_scale past 64 bits, and q = 0 has no
    # scaled constants: the sessions would fail on either profile only
    # after a peer had agreed to it
    for old, new, message in (
        ("k = 8\nk_theta = 8", "k = 64\nk_theta = 16", "64 bits"),
        ("q = 1/4", "q = 0", "q > 0"),
    ):
        cfg = tmp_path / "victim.cfg"
        cfg.write_text(ATTACKER_CFG.replace(old, new))
        code, _, err = run(
            capsys,
            "victim", "--config", str(cfg),
            "--listen", f"127.0.0.1:{_free_port()}", "--timeout", "1",
        )
        assert code == 1 and message in err

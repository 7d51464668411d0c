"""Command-line front end.

Subcommands mirror the library layers: ``offers``, ``horizon``, and
``rubinstein`` solve the bargaining game; ``stage-game`` solves the
final-round game; ``mechanism eval`` and ``mechanism verify-bic`` run
the sealed-report mechanism; ``victim``/``attacker`` run the garbled
settlement protocol over TCP; ``bench`` times it on loopback.

All money is printed as exact rationals ("3", "3/2"), never floats.
Exit codes: 0 success, 1 domain or configuration error, 2 protocol
abort on a failed check, 3 transport failure.  Warnings print as
``warning: <message>`` on stderr, once per message per command.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import warnings
from fractions import Fraction

from . import bench as bench_mod
from .bargaining import (
    BargainingInstance,
    backward_induction_offers,
    determine_horizon,
    lint_marginal_loss,
    rubinstein_split,
)
from .config import (
    ConfigError,
    config_from_values,
    load_config,
    parse_config_text,
    read_config_text,
)
from .losses import LossProfile, VictimParams, as_money, block_mass, residual_value, total_value
from .mechanism import (
    MechanismParams,
    Report,
    ScaledParams,
    attacker_truthfulness_margin,
    expected_victim_utility,
    outcome_fixed,
)
from .protocol import (
    DEFAULT_TIMEOUT,
    NegotiationAbort,
    NegotiationConfig,
    TransportFailure,
    persist_transcript,
    run_attacker,
    run_victim,
)
from .stage_game import ReputationParams, regime, spne

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT = 2
EXIT_TRANSPORT = 3

# loss-model flags, each named after the config-file key it overrides
_LOSS_KEYS = ("blocks", "l0", "tail", "r_min", "r_max")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any configuration error; 2 is a protocol abort."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_address(text: str) -> tuple[str, int]:
    """``host:port``; an IPv6 host may be bracketed, as in ``[::1]:7301``."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {text!r}")
    try:
        if str(int(port)) == port:  # int() alone also reads "7_301", "+80", " 80"
            return host, int(port)
    except ValueError:
        pass
    raise ConfigError(f"bad port in {text!r}")


def _loss_inputs(args) -> tuple[LossProfile, BargainingInstance]:
    """Loss profile and negotiation: the config file's keys, each flag over its own."""
    values = {}
    if args.config:
        values = parse_config_text(read_config_text(args.config))
    for key in _LOSS_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    config = config_from_values(values)
    if config.profile is None:
        raise ConfigError("no loss profile: give --blocks or a config file")
    if config.r_min is None:
        raise ConfigError("no attacker reservation: give --r-min or a config file")
    r_max = config.r_max
    if r_max is None:
        r_max = total_value(config.profile)  # non-binding cap
    return config.profile, BargainingInstance(VictimParams(r_max, config.profile), config.r_min)


def _add_loss_flags(parser) -> None:
    parser.add_argument("--config", help="key-value config file")
    parser.add_argument("--blocks", help="comma-separated per-round losses")
    parser.add_argument("--l0", help="immediate fixed loss")
    parser.add_argument("--tail", help="loss mass beyond the profiled rounds")
    parser.add_argument("--r-min", help="attacker reservation ransom")
    parser.add_argument("--r-max", help="largest affordable ransom")


def _offers_horizon(args, inst: BargainingInstance) -> int:
    """``--horizon`` if given, else the computed horizon.

    From round len(blocks) on the remaining value is the tail, and so is
    every offer: a longer schedule only appends copies of that row.  An
    N past len(blocks) + 2 is refused before any schedule is built.
    """
    if args.horizon is None:
        return determine_horizon(inst)
    rounds = len(inst.victim.profile.blocks)
    if args.horizon > rounds + 2:
        raise ValueError(
            f"--horizon must be at most {rounds + 2} "
            f"({rounds} profiled rounds + 2), got {args.horizon}"
        )
    return args.horizon


def _cmd_offers(args) -> int:
    profile, inst = _loss_inputs(args)
    horizon = _offers_horizon(args, inst)
    offers = backward_induction_offers(inst, horizon)
    lint_marginal_loss(profile, horizon)
    # remaining value step by step, v(n + 1) = v(n) - b_n
    rows, remaining = [], residual_value(profile, 1)
    for n, offer in enumerate(offers, start=1):
        rows.append((n, offer, remaining))
        remaining -= block_mass(profile, n)
    # the file comes first, so an unwritable path fails before any output
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "offer", "remaining_value"])
            for n, offer, remaining in rows:
                writer.writerow([n, offer, remaining])
    print(f"N = {horizon}")
    print("round  offer  remaining_value")
    for n, offer, remaining in rows:
        print(f"{n:<6d} {offer!s:<6} {remaining}")
    print("offers: [" + ", ".join(map(str, offers)) + "]")
    if args.csv:
        print(f"schedule written to {args.csv}")
    return EXIT_OK


def _cmd_horizon(args) -> int:
    profile, inst = _loss_inputs(args)
    horizon = determine_horizon(inst)
    lint_marginal_loss(profile, horizon)
    print(f"N = {horizon}")
    return EXIT_OK


def _cmd_rubinstein(args) -> int:
    split = rubinstein_split(args.v, args.r_max, args.r_min)
    print(split)
    return EXIT_OK


def _cmd_stage_game(args) -> int:
    rep = ReputationParams(
        tau_g=args.tau_g,
        tau_l=args.tau_l,
        kappa_g=args.kappa_g,
        kappa_l=args.kappa_l,
        c_r=args.c_r,
        c_d=args.c_d,
    )
    outcome = spne(rep, args.r_f, args.v, args.r_max)
    print(f"regime: {regime(rep) or 'unclassified'}")
    print(
        f"victim: {outcome.victim_action.name} ({outcome.victim_action.value})"
    )
    print(
        f"attacker: {outcome.attacker_action.name} "
        f"({outcome.attacker_action.value})"
    )
    print(
        f"payoffs: victim={outcome.victim_payoff} "
        f"attacker={outcome.attacker_payoff}"
    )
    return EXIT_OK


def _cmd_mechanism_eval(args) -> int:
    params = MechanismParams(args.q, args.k_theta, args.k)
    scaled = ScaledParams.from_params(params)  # refuses a huge k before 2^k is formed
    outcome = outcome_fixed(
        params, scaled, Report(args.theta_v, args.theta_a), args.s0, args.s1
    )
    print(f"alpha = {outcome.alpha}")
    print(f"r_f = {outcome.r_f}")
    print(f"sigma = {outcome.sigma}")
    return EXIT_OK


# verify-bic's grids are capped at criterion 6's 2^10 + 1 points per axis.
# Each suite makes about points^2 exact utility calls; at the cap that is
# about 10 s for the victim's and 23 s for the attacker's (two endpoints)
# on a 2-vCPU host.  Past it the wait and the grid lists grow unbounded.
MAX_VICTIM_STEP_BITS = 10
MAX_ATTACKER_GRID = (1 << MAX_VICTIM_STEP_BITS) + 1


def _cmd_mechanism_verify_bic(args) -> int:
    if not 2 <= args.attacker_grid <= MAX_ATTACKER_GRID:
        raise ValueError(f"--attacker-grid must lie in [2, {MAX_ATTACKER_GRID}]")
    if not 0 <= args.victim_step_bits <= MAX_VICTIM_STEP_BITS:
        raise ValueError(f"--victim-step-bits must lie in [0, {MAX_VICTIM_STEP_BITS}]")
    # the suites read only q and p_bar; the widths are placeholders
    params = MechanismParams(args.q, 8, 8)
    ok = True

    worst = min(
        attacker_truthfulness_margin(params, endpoint, grid=args.attacker_grid)
        for endpoint in (0, 1)
    )
    passed = worst >= 0
    ok &= passed
    print(
        f"attacker dominance at support endpoints "
        f"({args.attacker_grid}x{args.attacker_grid} grid): "
        f"{'PASS' if passed else 'FAIL'} (worst margin {worst})"
    )

    step = Fraction(1, 1 << args.victim_step_bits)
    reports = [i * step for i in range((1 << args.victim_step_bits) + 1)]
    worst_shortfall = Fraction(0)
    for theta in reports:
        truthful = expected_victim_utility(params, theta, theta)
        best = max(expected_victim_utility(params, theta, r) for r in reports)
        worst_shortfall = max(worst_shortfall, best - truthful)
    passed = worst_shortfall <= step
    ok &= passed
    print(
        f"victim optimality (grid step 2^-{args.victim_step_bits}): "
        f"{'PASS' if passed else 'FAIL'} "
        f"(worst shortfall {worst_shortfall}, step {step})"
    )
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_bench(args) -> int:
    cells = bench_mod.run_benchmark(reps=args.reps, warmup=args.warmup)
    print(bench_mod.format_table(cells))
    monotone = bench_mod.monotone_over_grid(cells)
    print(f"monotone over grid: {'yes' if monotone else 'no'}")
    return EXIT_OK


def _session_config(args, role: str, address: str):
    """The role's session config, the one check of its report's width, and its seed."""
    config = load_config(args.config)
    pi, report = config.pi(), config.resolve_report(role)
    seed = bytes.fromhex(args.seed) if args.seed else None
    return NegotiationConfig(pi, report, _parse_address(address), args.timeout), seed


def _print_outcome(result) -> None:
    outcome = result.outcome
    print(
        f"settled: alpha={outcome.alpha} r_f={outcome.r_f} "
        f"sigma={outcome.sigma}"
    )


def _cmd_victim(args) -> int:
    cfg, seed = _session_config(args, "victim", args.listen)
    if args.transcript:
        # an unwritable path fails here, not after the session's own exit
        open(args.transcript, "w", encoding="utf-8").close()
    try:
        result = run_victim(cfg, seed)
    except (NegotiationAbort, TransportFailure) as exc:
        if args.transcript and exc.transcript is not None:
            persist_transcript(exc.transcript, args.transcript)
        raise
    _print_outcome(result)
    if args.transcript:
        persist_transcript(result.transcript, args.transcript)
        print(f"transcript written to {args.transcript}")
    return EXIT_OK


def _cmd_attacker(args) -> int:
    cfg, seed = _session_config(args, "attacker", args.connect)
    result = run_attacker(cfg, seed)
    _print_outcome(result)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared for the process.

    Building it costs more than most requests (about 60 arguments, each
    with its own help formatter), so ``main`` reuses one instance;
    ``build_parser.__wrapped__()`` builds a fresh one.  Parsing mutates
    nothing in it: every call gets a new namespace.
    """
    parser = _Parser(
        prog="blindbargain",
        description="Ransom bargaining solvers and the garbled settlement protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offers", help="equilibrium offer schedule")
    _add_loss_flags(p)
    p.add_argument("--horizon", type=int, help="override the computed horizon")
    p.add_argument("--csv", help="also write the schedule to this CSV file")
    p.set_defaults(func=_cmd_offers)

    p = sub.add_parser("horizon", help="number of rounds the attacker tolerates")
    _add_loss_flags(p)
    p.set_defaults(func=_cmd_horizon)

    p = sub.add_parser("rubinstein", help="no-deadline split")
    p.add_argument("v", help="data value")
    p.add_argument("r_max", help="largest affordable ransom")
    p.add_argument("r_min", help="attacker reservation ransom")
    p.set_defaults(func=_cmd_rubinstein)

    p = sub.add_parser("stage-game", help="final-round equilibrium")
    p.add_argument("--r-f", required=True, help="ransom on the table")
    p.add_argument("--v", required=True, help="data value")
    p.add_argument("--r-max", required=True, help="largest affordable ransom")
    p.add_argument("--c-r", default="1", help="cost of releasing the key")
    p.add_argument("--c-d", default="0", help="cost of destroying the key")
    p.add_argument("--tau-g", default="0", help="reputation gain for honoring payment")
    p.add_argument("--tau-l", default="0", help="reputation loss for burning a payer")
    p.add_argument("--kappa-g", default="0", help="reputation gain for punishing refusal")
    p.add_argument("--kappa-l", default="0", help="reputation loss for unpaid release")
    p.set_defaults(func=_cmd_stage_game)

    p = sub.add_parser("mechanism", help="sealed-report mechanism")
    mech = p.add_subparsers(dest="mechanism_command", required=True)

    q = mech.add_parser("eval", help="evaluate one outcome in fixed point")
    q.add_argument("theta_v", type=int, help="victim report")
    q.add_argument("theta_a", type=int, help="attacker report")
    q.add_argument("q", type=as_money, help="counteroffer acceptance odds; fixes p_bar")
    q.add_argument("k", type=int, help="randomness word width")
    q.add_argument("k_theta", type=int, help="report width")
    q.add_argument("s0", type=int, help="first combined random word")
    q.add_argument("s1", type=int, help="second combined random word")
    q.set_defaults(func=_cmd_mechanism_eval)

    q = mech.add_parser("verify-bic", help="grid truthfulness suites")
    q.add_argument("--q", default="1/4", help="counteroffer acceptance odds")
    q.add_argument("--attacker-grid", type=int, default=64)
    q.add_argument("--victim-step-bits", type=int, default=6)
    q.set_defaults(func=_cmd_mechanism_verify_bic)

    p = sub.add_parser("bench", help="loopback protocol timing over the width grid")
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--warmup", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("victim", help="run the garbler side of a settlement")
    p.add_argument("--config", required=True)
    p.add_argument("--listen", required=True, metavar="ADDR:PORT")
    p.add_argument("--seed", help="hex test seed; omit for system entropy")
    p.add_argument("--transcript", help="write the session transcript here")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.set_defaults(func=_cmd_victim)

    p = sub.add_parser("attacker", help="run the evaluator side of a settlement")
    p.add_argument("--config", required=True)
    p.add_argument("--connect", required=True, metavar="ADDR:PORT")
    p.add_argument("--seed", help="hex test seed; omit for system entropy")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.set_defaults(func=_cmd_attacker)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    # copies the caller's filters (-W, simplefilter); not thread-safe
    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # ConfigError, HorizonError, NoDeal included
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except NegotiationAbort as exc:
            print(f"aborted at {exc.stage}" + (f": {exc.detail}" if exc.detail else ""), file=sys.stderr)
            return EXIT_ABORT
        except TransportFailure as exc:
            print(f"transport failure: {exc}", file=sys.stderr)
            return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())

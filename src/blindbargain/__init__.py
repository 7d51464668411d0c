"""Ransom bargaining solvers and a privacy-preserving settlement protocol.

The library has three layers.  Game solvers: final-round equilibria
(:mod:`.stage_game`), finite-horizon alternating offers with an
independent backward-induction check (:mod:`.bargaining`), and the
victim's loss accounting that feeds both (:mod:`.losses`).  A
sealed-report settlement mechanism in exact and fixed-point semantics
(:mod:`.mechanism`), compiled to a deterministic boolean circuit
(:mod:`.circuit`).  A two-party execution of that circuit: garbled
tables (:mod:`.garbling`), oblivious label transfer (:mod:`.ot`), and a
framed TCP protocol with transcripts (:mod:`.protocol`), timed by
:mod:`.bench` and driven by :mod:`.cli` / plain-text :mod:`.config`
files.
"""

from .bargaining import (
    AttackerResponse,
    BargainingInstance,
    HorizonError,
    IncompleteInfoProfile,
    InfiniteHorizon,
    NoDeal,
    NoFeasibleHorizon,
    NonOddHorizon,
    OfferSchedule,
    attacker_best_response,
    backward_induction_offers,
    closed_form_offer,
    determine_horizon,
    round1_limit,
    rubinstein_split,
    screening_offer,
)
from .circuit import (
    Circuit,
    build_mechanism_circuit,
    circuit_digest,
    decode_outcome,
    encode_inputs,
    eval_plain,
    serialize_circuit,
)
from .config import ConfigError, SessionConfig, load_config
from .garbling import GarbledCircuit, GarbledMaterial, evaluate, garble
from .losses import LossProfile, Money, VictimParams, as_money, residual_value, total_value
from .mechanism import (
    MechanismOutcome,
    MechanismParams,
    Report,
    ScaledParams,
    outcome_fixed,
    outcome_real,
)
from .protocol import (
    NegotiationAbort,
    NegotiationConfig,
    NegotiationResult,
    PiProfile,
    SessionTranscript,
    TransportFailure,
    load_transcript,
    loopback_run,
    persist_transcript,
    run_attacker,
    run_victim,
)
from .stage_game import AttackerAction, ReputationParams, StageOutcome, VictimAction, spne

__all__ = [
    "AttackerAction",
    "AttackerResponse",
    "BargainingInstance",
    "Circuit",
    "ConfigError",
    "GarbledCircuit",
    "GarbledMaterial",
    "HorizonError",
    "IncompleteInfoProfile",
    "InfiniteHorizon",
    "LossProfile",
    "MechanismOutcome",
    "MechanismParams",
    "Money",
    "NegotiationAbort",
    "NegotiationConfig",
    "NegotiationResult",
    "NoDeal",
    "NoFeasibleHorizon",
    "NonOddHorizon",
    "OfferSchedule",
    "PiProfile",
    "Report",
    "ReputationParams",
    "ScaledParams",
    "SessionConfig",
    "SessionTranscript",
    "StageOutcome",
    "TransportFailure",
    "VictimAction",
    "VictimParams",
    "as_money",
    "attacker_best_response",
    "backward_induction_offers",
    "build_mechanism_circuit",
    "circuit_digest",
    "closed_form_offer",
    "decode_outcome",
    "determine_horizon",
    "encode_inputs",
    "eval_plain",
    "evaluate",
    "garble",
    "load_config",
    "load_transcript",
    "loopback_run",
    "outcome_fixed",
    "outcome_real",
    "persist_transcript",
    "residual_value",
    "round1_limit",
    "rubinstein_split",
    "run_attacker",
    "run_victim",
    "screening_offer",
    "serialize_circuit",
    "spne",
    "total_value",
]

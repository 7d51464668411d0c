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

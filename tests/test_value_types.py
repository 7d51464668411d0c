"""The frozen value types declare their fields once: the dataclass
constructor, ``dataclasses.fields`` and ``dataclasses.replace`` all read
the same field list, and ``__post_init__`` converts and checks every
amount the constructor takes."""

import inspect
from dataclasses import MISSING, fields, replace
from fractions import Fraction

import pytest

from blindbargain.bargaining import BargainingInstance
from blindbargain.losses import LossProfile, VictimParams
from blindbargain.mechanism import MechanismParams, Report
from blindbargain.protocol import PiProfile
from blindbargain.stage_game import ReputationParams

PROFILE = LossProfile(1, [2, 3], 4)
VICTIM = VictimParams(10, PROFILE)

# one value of each type, the defaults its constructor declares, and one
# field to replace with a new value and the value it must read back
SAMPLES = [
    (PROFILE, {"l0": 0, "blocks": (), "tail": 0}, "tail", "5/2", Fraction(5, 2)),
    (VICTIM, {}, "r_max", 12, Fraction(12)),
    (BargainingInstance(VICTIM, 1), {}, "r_min", "2", Fraction(2)),
    (
        ReputationParams(kappa_g=1, kappa_l=1),
        {"tau_g": 0, "tau_l": 0, "kappa_g": 0, "kappa_l": 0, "c_r": 1, "c_d": 0},
        "c_d",
        "0.5",
        Fraction(1, 2),
    ),
    (MechanismParams(Fraction(1, 4), 8, 8), {}, "k", 16, 16),
    (Report(3, 4), {}, "theta_a", 5, Fraction(5)),
    (PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, 0), {}, "t_e", "4", Fraction(4)),
]


def _init_fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}


@pytest.mark.parametrize(
    "obj,defaults,name,new,expected", SAMPLES, ids=[type(row[0]).__name__ for row in SAMPLES]
)
def test_field_metadata_matches_the_constructor(obj, defaults, name, new, expected):
    cls = type(obj)
    declared = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    assert declared == defaults
    signature = inspect.signature(cls).parameters
    assert list(signature) == list(_init_fields(obj))
    assert {
        p.name: p.default for p in signature.values() if p.default is not p.empty
    } == defaults
    assert replace(obj) == obj
    changed = replace(obj, **{name: new})
    assert changed == cls(**{**_init_fields(obj), name: new})
    assert _init_fields(changed) == {**_init_fields(obj), name: expected}


def test_derived_fields_follow_a_replaced_field():
    params = replace(MechanismParams(Fraction(1, 4), 8, 8), q=Fraction(1, 3))
    assert params.p_bar == Fraction(3, 4)
    pi = replace(PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, 0), k=16)
    assert pi.params() == MechanismParams(Fraction(1, 4), 8, 16)
    assert pi.scaled.q_scale == 1 << 14


# every amount each constructor takes: how to build the type with that
# amount, how to read it back, an exact value for it as an "a/b" or
# decimal string, and the message a negative amount raises
AMOUNTS = [
    ("LossProfile.l0", lambda v: LossProfile(l0=v), lambda o: o.l0,
     "3/8", "l0 must be >= 0"),
    ("LossProfile.blocks", lambda v: LossProfile(blocks=[1, v]), lambda o: o.blocks[1],
     "0.375", "loss blocks must be >= 0"),
    ("LossProfile.tail", lambda v: LossProfile(tail=v), lambda o: o.tail,
     "3/8", "tail must be >= 0"),
    ("VictimParams.r_max", lambda v: VictimParams(v, PROFILE), lambda o: o.r_max,
     "12.5", "r_max must be >= 0"),
    ("BargainingInstance.r_min", lambda v: BargainingInstance(VICTIM, v),
     lambda o: o.r_min, "3/8", "r_min must be >= 0"),
    *(
        (f"ReputationParams.{name}", lambda v, name=name: ReputationParams(**{name: v}),
         lambda o, name=name: getattr(o, name), "0.375", message)
        for name, message in (
            ("tau_g", "reputation deltas must be >= 0"),
            ("tau_l", "reputation deltas must be >= 0"),
            ("kappa_g", "reputation deltas must be >= 0"),
            ("kappa_l", "reputation deltas must be >= 0"),
            ("c_r", "costs must satisfy c_r > c_d >= 0"),
            ("c_d", "costs must satisfy c_r > c_d >= 0"),
        )
    ),
    ("MechanismParams.q", lambda v: MechanismParams(v, 8, 8), lambda o: o.q,
     "3/8", r"q must lie in \[0, 1/2\]"),
    ("Report.theta_v", lambda v: Report(v, 0), lambda o: o.theta_v,
     "3/8", "reports must be >= 0"),
    ("Report.theta_a", lambda v: Report(0, v), lambda o: o.theta_a,
     "0.375", "reports must be >= 0"),
    ("PiProfile.q", lambda v: PiProfile(v, Fraction(4, 5), 8, 8, 0), lambda o: o.q,
     "0.375", r"q must lie in \[0, 1/2\]"),
    ("PiProfile.p_bar", lambda v: PiProfile(Fraction(1, 4), v, 8, 8, 0),
     lambda o: o.p_bar, "2/3", r"p_bar \* \(1 - q\) must equal 1/2 exactly"),
    ("PiProfile.t_e", lambda v: PiProfile(Fraction(1, 4), Fraction(2, 3), 8, 8, v),
     lambda o: o.t_e, "3/8", "t_e must be >= 0"),
]


@pytest.mark.parametrize(
    "make,read,text,negative", [row[1:] for row in AMOUNTS], ids=[row[0] for row in AMOUNTS]
)
def test_every_amount_is_converted_and_checked(make, read, text, negative):
    exact = Fraction(text)
    value = read(make(text))
    assert type(value) is Fraction and value == exact
    with pytest.raises(TypeError, match="money must be exact"):
        make(float(exact))
    with pytest.raises(ValueError, match=negative):
        make(-exact)


def test_widths_are_converted_to_int():
    params = MechanismParams(Fraction(1, 4), "8", Fraction(16))
    assert (type(params.k_theta), type(params.k)) == (int, int)
    assert (params.k_theta, params.k) == (8, 16)
    pi = PiProfile(Fraction(1, 4), Fraction(2, 3), "16", Fraction(8), 0)
    assert (type(pi.k), type(pi.k_theta)) == (int, int)
    assert pi == PiProfile(Fraction(1, 4), Fraction(2, 3), 16, 8, 0)


# a width that is not a whole number, the error it raises, and the message
REFUSED_WIDTHS = [
    (8.9, TypeError, "must be a whole number, got float 8.9"),
    (8.0, TypeError, "must be a whole number, got float 8.0"),
    (True, TypeError, "must be a whole number, got bool True"),
    (Fraction(17, 2), ValueError, "must be a whole number, got 17/2"),
    ("8.5", ValueError, "must be a whole number, got 8.5"),
]


@pytest.mark.parametrize("width,error,message", REFUSED_WIDTHS, ids=repr)
def test_widths_are_refused_not_truncated(width, error, message):
    q, p_bar = Fraction(1, 4), Fraction(2, 3)
    for name, make in (
        ("k_theta", lambda w: MechanismParams(q, w, 8)),
        ("k", lambda w: MechanismParams(q, 8, w)),
        ("k", lambda w: PiProfile(q, p_bar, w, 8, 0)),
        ("k_theta", lambda w: PiProfile(q, p_bar, 8, w, 0)),
    ):
        with pytest.raises(error, match=f"^{name} {message}$"):
            make(width)

"""Key-value config parsing and report resolution."""

import socket
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindbargain.cli import main
from blindbargain.config import (
    ConfigError,
    ConfigWarning,
    config_from_values,
    load_config,
    parse_config_text,
)
from blindbargain.mechanism import ScalingWarning

VICTIM_TEXT = """\
# victim session
blocks = 120, 40, 30, 10
l0 = 25
tail = 60
r_max = 220
q = 1/4
k = 8
k_theta = 8
t_e = 1
"""


def test_parse_and_load(tmp_path):
    values = parse_config_text(VICTIM_TEXT)
    assert values["blocks"] == "120, 40, 30, 10"
    path = tmp_path / "victim.cfg"
    path.write_text(VICTIM_TEXT)
    config = load_config(path)
    assert config.q == Fraction(1, 4)
    assert config.profile.tail == 60
    assert config.r_max == 220
    assert config.t_e == 1


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("qq = 1/4\n")
    with pytest.raises(ConfigError, match="unknown key 'round_length'"):
        parse_config_text("blocks = 1, 1, 1\nround_length = 2\n")
    # p_bar is derived from q, so a file that still sets it, even to the
    # value q pins, is refused
    with pytest.raises(ConfigError, match="unknown key 'p_bar'"):
        parse_config_text("q = 1/4\np_bar = 2/3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("q = 1/4\nq = 1/2\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("q =\n")
    assert parse_config_text("# only a comment\n\n") == {}


def test_decimal_strings_stay_exact():
    config = config_from_values({"q": "0.25", "t_e": "1.5"})
    assert config.q == Fraction(1, 4)
    assert config.t_e == Fraction(3, 2)


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError, match="bad value for 'q'"):
        config_from_values({"q": "fast"})
    with pytest.raises(ConfigError, match="bad value for 'k'"):
        config_from_values({"k": "8.0"})
    with pytest.raises(ConfigError, match="bad value for 'theta_hex'"):
        config_from_values({"theta_hex": "0xzz"})
    with pytest.raises(ConfigError, match="without 'blocks'"):
        config_from_values({"l0": "5"})
    with pytest.raises(ConfigError, match="bad loss model"):
        config_from_values({"blocks": "1, -2"})


def test_theta_hex_accepts_prefix_and_bare_digits():
    assert config_from_values({"theta_hex": "0x8c"}).theta_hex == 0x8C
    assert config_from_values({"theta_hex": "8c"}).theta_hex == 0x8C


def test_victim_report_from_loss_model():
    config = config_from_values(parse_config_text(VICTIM_TEXT))
    # value left at the end of round 1: 260 total minus the 120 burned
    assert config.resolve_report("victim") == 140


def test_fractional_exchange_round_floors():
    values = parse_config_text(VICTIM_TEXT.replace("t_e = 1", "t_e = 3/2"))
    assert config_from_values(values).resolve_report("victim") == 140


def test_theta_hex_overrides_with_warning():
    values = parse_config_text(VICTIM_TEXT) | {"theta_hex": "90"}
    config = config_from_values(values)
    with pytest.warns(ConfigWarning, match="overrides"):
        assert config.resolve_report("victim") == 0x90
    agreeing = config_from_values(parse_config_text(VICTIM_TEXT) | {"theta_hex": "8c"})
    assert agreeing.resolve_report("victim") == 140  # no warning path


def test_attacker_needs_an_explicit_report():
    config = config_from_values({"q": "1/4", "k": "8", "k_theta": "8"})
    with pytest.raises(ConfigError, match="set theta_hex"):
        config.resolve_report("attacker")
    assert (
        config_from_values({"k_theta": "8", "theta_hex": "25"}).resolve_report(
            "attacker"
        )
        == 0x25
    )


def test_report_must_fit_the_width(capsys, tmp_path, monkeypatch):
    # the session config checks the width, before any socket opens
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    for role, flag, text in (
        ("attacker", "--connect", "q = 1/4\nk = 8\nk_theta = 4\ntheta_hex = ff\n"),
        # the loss model's report, 140, needs 8 bits
        ("victim", "--listen", VICTIM_TEXT.replace("k_theta = 8", "k_theta = 4")),
    ):
        path = tmp_path / f"{role}.cfg"
        path.write_text(text)
        code = main([role, "--config", str(path), flag, "127.0.0.1:7301"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "does not fit" in captured.err and "Traceback" not in captured.err


def test_pi_requires_the_protocol_keys():
    config = config_from_values({"q": "1/4", "k": "8"})
    with pytest.raises(ConfigError, match="k_theta"):
        config.pi()
    full = config_from_values(parse_config_text(VICTIM_TEXT))
    pi = full.pi()
    assert (pi.q, pi.p_bar, pi.k, pi.k_theta, pi.t_e) == (
        Fraction(1, 4),
        Fraction(2, 3),
        8,
        8,
        1,
    )


# the config keys, plus "p_bar" and "bogus", which are not
_KEYS = (
    "l0", "blocks", "tail", "r_max", "r_min",
    "q", "p_bar", "k", "k_theta", "theta_hex", "t_e", "bogus",
)
# files of distinct real keys get past the line syntax to the value parsers
_VALUES = st.text(max_size=12) | st.sampled_from(
    ["1/4", "2/3", "8", "0", "1/0", "-1", "1, 2", "ff", "9" * 30]
)
_FUZZED_CONFIGS = st.text() | st.dictionaries(st.sampled_from(_KEYS), _VALUES).map(
    lambda values: "\n".join(f"{key} = {value}" for key, value in values.items())
)


@settings(max_examples=300, deadline=None)
@given(_FUZZED_CONFIGS)
def test_fuzzed_config_text_raises_only_value_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingWarning)
        try:
            config_from_values(parse_config_text(text)).pi()
        except ValueError:
            pass

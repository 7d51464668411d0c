"""Plain-text key-value session configuration.

One file describes one party: the victim's loss model, the public
profile values both sides must agree on, and optionally an explicit
report.  Format is ``key = value`` with ``#`` comments; all numbers are
exact (decimal or ``a/b`` strings), never floats.

Recognized keys: l0, blocks (comma-separated), tail, r_max, r_min, q,
k, k_theta, theta_hex, t_e.  The profile's p_bar is derived from q.
Every file is read through ``read_config_text``, which refuses one
longer than ``MAX_CONFIG_BYTES``.

The victim's report defaults to the residual value of the data at the
agreed exchange round, ``floor(psi(t_e))``; an explicit ``theta_hex``
overrides that (with a warning when both are given and disagree), and
is the only way to give the attacker a report.  Whether the report fits
in ``k_theta`` bits is checked when the session is configured
(``protocol.NegotiationConfig``).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .losses import LossProfile, Money, as_money, residual_value
from .mechanism import p_bar_for
from .protocol import PiProfile


class ConfigError(ValueError):
    """The configuration file is malformed or incomplete for its use."""


class ConfigWarning(UserWarning):
    """A legal but suspicious configuration, e.g. a contradicted default."""


_SCALAR_KEYS = ("l0", "tail", "r_max", "r_min", "q", "t_e")
_INT_KEYS = ("k", "k_theta")
_ALL_KEYS = _SCALAR_KEYS + _INT_KEYS + ("blocks", "theta_hex")
# a config file is a few short lines; 64 KiB still holds thousands of blocks
MAX_CONFIG_BYTES = 1 << 16


@dataclass(frozen=True)
class SessionConfig:
    """Parsed configuration; raw values only, resolution happens on use."""

    profile: Optional[LossProfile]
    r_max: Optional[Money]
    r_min: Optional[Money]
    q: Optional[Fraction]
    k: Optional[int]
    k_theta: Optional[int]
    theta_hex: Optional[int]
    t_e: Fraction

    def pi(self) -> PiProfile:
        """The profile this party proposes or expects."""
        missing = [
            name
            for name in ("q", "k", "k_theta")
            if getattr(self, name) is None
        ]
        if missing:
            raise ConfigError(f"missing required keys: {', '.join(missing)}")
        return PiProfile(self.q, p_bar_for(self.q), self.k, self.k_theta, self.t_e)

    def resolve_report(self, role: str) -> int:
        """The report this party feeds into the mechanism.

        The victim values the data at what it is still worth at the
        exchange round (losses step at round boundaries, so fractional
        ``t_e`` floors to the last completed round).  The attacker has
        no loss model; it must state ``theta_hex``.  The width is not
        checked here but by the session's ``NegotiationConfig``.
        """
        derived = None
        if role == "victim" and self.profile is not None:
            derived = math.floor(residual_value(self.profile, math.floor(self.t_e)))
        if self.theta_hex is not None:
            if derived is not None and derived != self.theta_hex:
                warnings.warn(
                    f"theta_hex=0x{self.theta_hex:x} overrides the loss-model "
                    f"value {derived} at t_e={self.t_e}",
                    ConfigWarning,
                )
            report = self.theta_hex
        elif derived is not None:
            report = derived
        else:
            raise ConfigError(
                f"no report for the {role}: set theta_hex"
                + (" or a loss model" if role == "victim" else "")
            )
        return report


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines to a dict; comments and blanks skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def config_from_values(values: dict[str, str]) -> SessionConfig:
    def scalar(key: str) -> Optional[Fraction]:
        if key not in values:
            return None
        try:
            return as_money(values[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from exc

    def integer(key: str) -> Optional[int]:
        if key not in values:
            return None
        try:
            return int(values[key], 10)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from exc

    def scalar_or(key: str, default: int) -> Fraction:
        value = scalar(key)
        return Fraction(default) if value is None else value

    profile = None
    if "blocks" in values:
        try:
            blocks = [as_money(b.strip()) for b in values["blocks"].split(",")]
            profile = LossProfile(
                l0=scalar_or("l0", 0),
                blocks=blocks,
                tail=scalar_or("tail", 0),
            )
        except ValueError as exc:
            raise ConfigError(f"bad loss model: {exc}") from exc
    elif any(k in values for k in ("l0", "tail")):
        raise ConfigError("loss-model keys given without 'blocks'")

    theta_hex = None
    if "theta_hex" in values:
        try:
            theta_hex = int(values["theta_hex"], 16)
        except ValueError as exc:
            raise ConfigError(f"bad value for 'theta_hex': {values['theta_hex']!r}") from exc
        if theta_hex < 0:
            raise ConfigError("theta_hex must be >= 0")

    return SessionConfig(
        profile=profile,
        r_max=scalar("r_max"),
        r_min=scalar("r_min"),
        q=scalar("q"),
        k=integer("k"),
        k_theta=integer("k_theta"),
        theta_hex=theta_hex,
        t_e=scalar("t_e") if "t_e" in values else Fraction(0),
    )


def _open_without_waiting(path, flags: int) -> int:
    # opening a FIFO for reading waits for a writer unless O_NONBLOCK;
    # the reads that follow block as usual
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    return fd


def read_config_text(path) -> str:
    """The text of the config file at ``path``, at most ``MAX_CONFIG_BYTES``.

    At most one byte past the cap is read, so a file that is too long,
    or a device such as /dev/zero that never ends, is refused with a
    ConfigError instead of being read into memory whole.  The open does
    not wait for a FIFO's writer: a FIFO that has none reads as empty,
    while a pipe with a writer, such as ``<(...)``, reads as it is written.
    """
    with open(path, "rb", opener=_open_without_waiting) as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config file {path} is longer than {MAX_CONFIG_BYTES} bytes")
    return data.decode("utf-8")


def load_config(path) -> SessionConfig:
    return config_from_values(parse_config_text(read_config_text(path)))

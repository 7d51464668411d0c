"""Victim-side loss accounting for a ransomware incident.

An incident imposes an immediate fixed loss, a stream of downtime losses
that accrue while the data stays encrypted, and the ransom itself if one
is paid.  The downtime stream is discretized per bargaining round: block
``j`` is the loss mass accrued during round ``j`` (between the j-th and
(j+1)-th offers), and a single tail value holds everything beyond the
profiled rounds.  Rounds carry no duration; every quantity here is
indexed by round number.

All money is exact (:class:`fractions.Fraction`): the bargaining
equilibrium computations downstream require exact equality, not
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Money = Fraction

MoneyLike = Union[Fraction, int, str]

# Fraction expands a decimal exponent e<n> to 10^n before anything can
# reject the value, so an unbounded exponent is an unbounded wait.
MAX_DECIMAL_EXPONENT = 1000


def as_money(value: MoneyLike) -> Money:
    """Convert an exact numeric representation to money.

    Accepts integers, rationals, and decimal/rational strings such as
    ``"1.5"``, ``"1.5e-2"`` or ``"2/3"``.  Floats are rejected: their
    binary rounding would silently break the exact-arithmetic contract.
    A zero denominator, or a decimal exponent beyond
    ``MAX_DECIMAL_EXPONENT`` either way, is a ``ValueError`` like any
    other malformed amount.
    """
    if isinstance(value, float):
        raise TypeError(f"money must be exact, got float {value!r}")
    if isinstance(value, str):
        _, marker, exponent = value.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if marker and digits.isdecimal() and (
            len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            or int(digits) > MAX_DECIMAL_EXPONENT
        ):
            raise ValueError(
                f"decimal exponent in {value!r} exceeds {MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


@dataclass(frozen=True)
class LossProfile:
    """Discretized downtime-loss stream.

    Attributes:
        l0: Immediate fixed loss at the moment of the attack.
        blocks: Per-round loss masses; ``blocks[j]`` accrues during
            round ``j``.
        tail: Loss mass accruing after the last profiled round.
    """

    l0: Money
    blocks: tuple[Money, ...]
    tail: Money = Fraction(0)

    def __init__(
        self,
        l0: MoneyLike = 0,
        blocks: Iterable[MoneyLike] = (),
        tail: MoneyLike = 0,
    ) -> None:
        object.__setattr__(self, "l0", as_money(l0))
        object.__setattr__(self, "blocks", tuple(as_money(b) for b in blocks))
        object.__setattr__(self, "tail", as_money(tail))
        if self.l0 < 0:
            raise ValueError("l0 must be >= 0")
        if any(b < 0 for b in self.blocks):
            raise ValueError("loss blocks must be >= 0")
        if self.tail < 0:
            raise ValueError("tail must be >= 0")


@dataclass(frozen=True)
class VictimParams:
    """A victim: its loss profile plus the largest ransom it can pay."""

    r_max: Money
    profile: LossProfile

    def __init__(self, r_max: MoneyLike, profile: LossProfile) -> None:
        object.__setattr__(self, "r_max", as_money(r_max))
        object.__setattr__(self, "profile", profile)
        if self.r_max < 0:
            raise ValueError("r_max must be >= 0")


def total_value(profile: LossProfile) -> Money:
    """Full downtime loss if the data is never released; the data's value."""
    return sum(profile.blocks, start=Fraction(0)) + profile.tail


def block_mass(profile: LossProfile, j: int) -> Money:
    """Loss mass accruing during round ``j`` (zero beyond the profile)."""
    if j < 0:
        raise ValueError("round index must be >= 0")
    if j < len(profile.blocks):
        return profile.blocks[j]
    return Fraction(0)


def elapsed_loss(profile: LossProfile, n: int) -> Money:
    """Downtime loss accrued during the first ``n`` rounds."""
    if n < 0:
        raise ValueError("round index must be >= 0")
    return sum(profile.blocks[:n], start=Fraction(0))


def residual_value(profile: LossProfile, n: int) -> Money:
    """Value the data still holds after ``n`` rounds of downtime.

    Equal to ``total_value`` minus the loss already accrued; once every
    profiled round has elapsed only the tail remains.
    """
    return total_value(profile) - elapsed_loss(profile, n)

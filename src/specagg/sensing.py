"""Per-band binary sensing: false alarms on idle bands, misdetections on busy ones."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import _real

__all__ = ["SensingParams"]


@dataclass(frozen=True)
class SensingParams:
    """Sensor error rates, identical for every band and every slot.

    p_fa: probability an idle band is declared busy (a lost opportunity).
    p_md: probability a busy band is declared idle (a collision risk).
    """

    p_fa: float
    p_md: float

    def __post_init__(self) -> None:
        if not 0.0 <= _real("p_fa", self.p_fa) <= 1.0:
            raise ValueError(f"p_fa: must be in [0, 1], got {self.p_fa}")
        if not 0.0 <= _real("p_md", self.p_md) <= 1.0:
            raise ValueError(f"p_md: must be in [0, 1], got {self.p_md}")

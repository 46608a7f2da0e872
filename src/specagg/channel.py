"""Physical-layer model for a secondary user that aggregates idle primary bands.

Everything is expressed in dimensionless ratios: mean link SNRs per Hz
(snr_p, snr_s), the per-band sensing time as a fraction of the slot
(tau_b_frac), and the nominal spectral efficiency in bits/s/Hz
(spectral_eff_r).  Per-slot packet success over a Rayleigh block-fading
link with mean SNR g and target spectral efficiency r is
exp(-(2**r - 1) / g).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

__all__ = [
    "PowerMode",
    "ChannelParams",
    "sensing_fraction",
    "pu_success_prob",
    "su_success_table",
]

_LN2 = math.log(2.0)


def _integer(name: str, value) -> int:
    """value as a Python int, which cannot overflow as a numpy integer can.

    A bool, or anything that is not an integer, is a ValueError naming name.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: must be an integer, got {value}")
    return int(value)


def _real(name: str, value):
    """value itself; NaN passes on, for the caller's range check to refuse.

    A bool, or anything that is not a real number, is a ValueError naming name.
    """
    # int and float come first: the numbers.Real check alone costs about
    # 0.5 us, and the stability grid builds one TrafficParams per grid value
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name}: must be a real number, got {value!r}")
    return value


class PowerMode(Enum):
    """How the secondary spends transmit power over the aggregated bandwidth.

    PSD: constant power spectral density, so total power grows with the
    number of aggregated bands.  LIMITED: fixed total power spread evenly
    over the aggregate.
    """

    PSD = "PSD"
    LIMITED = "LIMITED"


@dataclass(frozen=True)
class ChannelParams:
    """Link and framing parameters for one operating point.

    Exactly one of snr_p / p_bar_p must be given: either the primary link
    SNR from which the primary success probability is derived, or that
    probability directly.
    """

    snr_s: float
    spectral_eff_r: float
    tau_b_frac: float
    m_bands: int
    k_antennas: int
    snr_p: float | None = None
    p_bar_p: float | None = None
    power_mode: PowerMode = PowerMode.PSD

    def __post_init__(self) -> None:
        if (self.snr_p is None) == (self.p_bar_p is None):
            raise ValueError("exactly one of snr_p / p_bar_p must be supplied")
        # Written as "not <in range>" so that NaN fails every check.
        if self.snr_p is not None and not _real("snr_p", self.snr_p) > 0:
            raise ValueError(f"snr_p: must be > 0, got {self.snr_p}")
        if self.p_bar_p is not None and not 0.0 <= _real("p_bar_p", self.p_bar_p) <= 1.0:
            raise ValueError(f"p_bar_p: must be in [0, 1], got {self.p_bar_p}")
        if not _real("snr_s", self.snr_s) > 0:
            raise ValueError(f"snr_s: must be > 0, got {self.snr_s}")
        if not _real("spectral_eff_r", self.spectral_eff_r) > 0:
            raise ValueError(f"spectral_eff_r: must be > 0, got {self.spectral_eff_r}")
        if not 0.0 <= _real("tau_b_frac", self.tau_b_frac) <= 1.0:
            raise ValueError(f"tau_b_frac: must be in [0, 1], got {self.tau_b_frac}")
        for name in ("m_bands", "k_antennas"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not self.m_bands >= 1:
            raise ValueError(f"m_bands: must be >= 1, got {self.m_bands}")
        if not self.k_antennas >= 1:
            raise ValueError(f"k_antennas: must be >= 1, got {self.k_antennas}")
        # _su_success tests the mode by identity: the string "LIMITED" would run as PSD
        if not isinstance(self.power_mode, PowerMode):
            raise ValueError(f"power_mode: must be a PowerMode, got {self.power_mode!r}")


def sensing_fraction(params: ChannelParams) -> float:
    """Fraction of the slot spent sensing: ceil(m_bands / k_antennas) * tau_b_frac.

    With more antennas than bands the ceiling is 1 and a single per-band
    sensing period covers everything.
    """
    return _passes(params) * params.tau_b_frac


def _passes(params: ChannelParams) -> int:
    """ceil(m_bands / k_antennas), the number of sensing passes."""
    return -(-params.m_bands // params.k_antennas)


def pu_success_prob(params: ChannelParams) -> float:
    """Per-slot success probability of a primary packet on its own link."""
    if params.p_bar_p is not None:
        return params.p_bar_p
    return _link_success(params.spectral_eff_r, params.snr_p)


def _link_success(rate: float, snr: float, eta: int = 1) -> float:
    """exp(-eta (2**rate - 1) / snr), the success of a Rayleigh link.

    Where 2**rate overflows, the exponent comes from its logarithm,
    rate ln 2 + ln eta - ln snr, in which the -1 is far below precision, so
    the result is 0.0 only where exp of minus the exponent underflows.
    """
    try:
        exponent = (2.0 ** rate - 1.0) / snr * eta
    except OverflowError:
        log_exponent = rate * _LN2 + math.log(eta) - math.log(snr)
        # exp overflows just above 709.78, where exp(-exponent) is long since 0.0
        exponent = math.exp(log_exponent) if log_exponent < 709.0 else math.inf
    return math.exp(-exponent)


def _su_success(params: ChannelParams, widths: Sequence[int], passes: int) -> list[float]:
    """s(n) at each aggregate width n in widths, after passes sensing passes.

    The one formula for s(n): the packet must fit in the slot time left
    after sensing, so the link needs rate r / (n (1 - passes tau_b_frac)),
    and s(n) is exactly 0.0 where sensing consumes the whole slot; in
    LIMITED mode the fixed total power is spread over the aggregate,
    scaling the outage exponent by n.  It checks nothing and makes one
    call per width, so a table of m widths costs m link successes and no
    more.
    """
    available = 1.0 - passes * params.tau_b_frac
    if available <= 0.0:
        return [0.0] * len(widths)
    rate, snr = params.spectral_eff_r, params.snr_s
    if params.power_mode is PowerMode.LIMITED:
        return [_link_success(rate / (n * available), snr, n) for n in widths]
    return [_link_success(rate / (n * available), snr) for n in widths]


def su_success_table(params: ChannelParams) -> tuple[float, ...]:
    """s(n) for aggregate widths n = 0..m, s(0) = 0.0; rebuilt on every call."""
    # From a list: tuple() of a generator resizes the tuple as it grows, which
    # raised a long CLI sweep's peak RSS by about 2 MB.
    return (0.0, *_su_success(params, range(1, params.m_bands + 1), _passes(params)))

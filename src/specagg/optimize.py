"""Grid search for the number of primary bands the secondary should sense."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import (
    TrafficParams,
    UnstablePrimaryError,
    empty_probability,
    primary_service_rate,
    secondary_service_rate,
)
from .channel import ChannelParams
from .sensing import SensingParams

__all__ = ["OptimizeResult", "optimize_sensed_bands"]


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the sensed-band grid search.

    profile holds (m, service_rate) for every candidate count m = 1..m_bands;
    m_opt is the smallest maximizer.
    """

    m_opt: int
    mu_s_opt: float
    profile: list[tuple[int, float]]


def optimize_sensed_bands(
    channel: ChannelParams, sensing: SensingParams, traffic: TrafficParams
) -> OptimizeResult:
    """Pick how many bands to sense so the secondary service rate is maximized.

    Sensing fewer bands shortens the sensing time and trims misdetection
    exposure at the cost of aggregation opportunities, so the service rate
    typically rises and then falls with the sensed count.  Each candidate m
    is evaluated as a full operating point with m_bands = m (the sensing
    time scales with the sensed subset).  Ties break toward smaller m:
    same throughput for less sensing.
    """
    mu_p = primary_service_rate(channel, sensing)
    if empty_probability(mu_p, traffic) == 0.0:  # raises when lambda_p > mu_p
        raise UnstablePrimaryError(
            f"lambda_p = {traffic.lambda_p} leaves no idle bands "
            f"(mu_p = {mu_p}); nothing to optimize"
        )
    profile: list[tuple[int, float]] = []
    m_opt, mu_s_opt = 1, -1.0
    for m in range(1, channel.m_bands + 1):
        rate = secondary_service_rate(replace(channel, m_bands=m), sensing, traffic)
        profile.append((m, rate))
        if rate > mu_s_opt:
            m_opt, mu_s_opt = m, rate
    return OptimizeResult(m_opt=m_opt, mu_s_opt=mu_s_opt, profile=profile)

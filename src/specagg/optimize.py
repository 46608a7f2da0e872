"""Grid search for the number of primary bands the secondary should sense."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import (
    TrafficParams,
    UnstablePrimaryError,
    _binomial_sum,
    _log_a_b,
    _log_factorials,
    empty_probability,
    primary_service_rate,
)
from .channel import ChannelParams, su_success_table
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

    profile[m - 1][1] equals secondary_service_rate at m_bands = m bit for
    bit, at less cost: pi, log a, log b and the log-factorials up to M are
    computed once, and one s(n) table serves every m with the same number
    of sensing passes ceil(m / k_antennas).
    """
    mu_p = primary_service_rate(channel, sensing)
    if empty_probability(mu_p, traffic) == 0.0:  # raises when lambda_p > mu_p
        raise UnstablePrimaryError(
            f"lambda_p = {traffic.lambda_p} leaves no idle bands "
            f"(mu_p = {mu_p}); nothing to optimize"
        )
    log_a, log_b = _log_a_b(channel, sensing, traffic)
    log_factorials = _log_factorials(channel.m_bands)
    profile: list[tuple[int, float]] = []
    m_opt, mu_s_opt = 1, -1.0
    for first in range(1, channel.m_bands + 1, channel.k_antennas):
        # s(n; m) depends on m only through the ceil(m / k) sensing passes, so
        # every m of a pass count reads a prefix of its widest m's table
        widest = min(first + channel.k_antennas - 1, channel.m_bands)
        success = su_success_table(replace(channel, m_bands=widest))
        for m in range(first, widest + 1):
            rate = _binomial_sum(m, log_a, log_b, success, log_factorials)
            profile.append((m, rate))
            if rate > mu_s_opt:
                m_opt, mu_s_opt = m, rate
    return OptimizeResult(m_opt=m_opt, mu_s_opt=mu_s_opt, profile=profile)

"""Grid search for the number of primary bands the secondary should sense."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    _CHUNK_ELEMENTS,
    TrafficParams,
    UnstablePrimaryError,
    _binomial_rows,
    _log_a_b,
    _log_factorials,
    empty_probability,
    primary_service_rate,
)
from .channel import ChannelParams, _su_success
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
    computed once, one s(n) table serves every m with the same number of
    sensing passes ceil(m / k_antennas), and the sums run as rows of
    _binomial_rows a few thousand terms at a time, never as an M x M array.
    """
    mu_p = primary_service_rate(channel, sensing)
    pi = empty_probability(mu_p, traffic)  # raises when lambda_p > mu_p
    if pi == 0.0:
        raise UnstablePrimaryError(
            f"lambda_p = {traffic.lambda_p} leaves no idle bands "
            f"(mu_p = {mu_p}); nothing to optimize"
        )
    log_a, log_b = _log_a_b(pi, sensing)
    m_bands, k = channel.m_bands, channel.k_antennas
    log_factorials = _log_factorials(m_bands)
    # s(n; m) depends on m only through the ceil(m / k) sensing passes, so
    # every m of a pass count reads a prefix of its widest m's table
    widest = np.minimum(np.arange(k, m_bands + k, k), m_bands)
    offsets = np.cumsum(widest) - widest  # where each pass count's table starts
    tables = np.zeros(widest.sum() + m_bands)  # room to read past the last table
    for passes, (start, width) in enumerate(zip(offsets.tolist(), widest.tolist()), start=1):
        tables[start : start + width] = _su_success(channel, range(1, width + 1), passes)
    row_offsets = offsets[np.arange(m_bands) // k, None]  # row m's table, at index m - 1
    profile: list[tuple[int, float]] = []
    rows = max(1, _CHUNK_ELEMENTS // m_bands)
    for first in range(1, m_bands + 1, rows):
        # one row per m of the chunk, n = 1..its widest m; the terms past
        # n = m read from the wrong places and are left out of the sums
        m = np.arange(first, min(first + rows, m_bands + 1))[:, None]
        n = np.arange(1, m[-1, 0] + 1)
        counts = np.maximum(m - n, 0)
        log_binomials = log_factorials[m] - log_factorials[n] - log_factorials[counts]
        success = tables[row_offsets[first - 1 : first - 1 + len(m)] + n - 1]
        rates = _binomial_rows(log_binomials, counts, log_a, log_b, success, n <= m)
        profile += zip(m[:, 0].tolist(), rates.tolist())
    m_opt, mu_s_opt = 1, -1.0
    for m, rate in profile:
        if rate > mu_s_opt:
            m_opt, mu_s_opt = m, rate
    return OptimizeResult(m_opt=m_opt, mu_s_opt=mu_s_opt, profile=profile)

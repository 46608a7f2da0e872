"""Closed-form service rates and stability region, plus an enumeration cross-check.

The secondary user is analyzed in its saturated (always-backlogged) form,
which upper-bounds the real system and shares its stability boundary, so
the saturated service rate is also the maximum stable arrival rate.

Each band independently falls into one of four cases: idle and declared
idle, a = pi (1 - p_fa); idle and falsely declared busy, pi p_fa; busy and
detected, c = (1 - pi)(1 - p_md); busy and missed, (1 - pi) p_md.  A slot
serves the secondary only when no band is busy and missed, so both closed
forms reduce to binomial sums in a, b = pi p_fa + c and c.  mu_s costs
O(m) and the single-band baseline O(1); both stay finite for m_bands in
the thousands.

Every entry point, analyze included, derives mu_p and pi once per point;
_a_b_c gives a, b and c to _log_a_b and to the single-band baseline, and
_mu_s sums mu_s at a given pi for secondary_service_rate and analyze.
mu_s, the stability grid and the sensed-band optimizer share one private
kernel, _binomial_rows: numpy forms a row of log-weights per sum, libm's
exp turns them into weights one value at a time, and np.add.accumulate
adds each row from n = 1 up, so every value is what a Python loop over n
gives, bit for bit.  _fixed_m_terms builds log C(m, n), m - n and s(n) at
one m for mu_s and the stability grid; stability_region builds them once
per call and makes one row per grid value that leaves idle bands.
The optimizer makes one row per m = 1..M, O(M**2) terms in chunks of
bounded size, but computes pi, log a and log b once and builds one s(n)
table per sensing-pass count, about M**2 / (2 k_antennas) entries in all
instead of M**2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import (
    ChannelParams,
    _passes,
    _real,
    _su_success,
    pu_success_prob,
    su_success_table,
)
from .sensing import SensingParams

__all__ = [
    "TrafficParams",
    "AnalyticalResult",
    "BoundaryPoint",
    "UnstablePrimaryError",
    "primary_service_rate",
    "empty_probability",
    "secondary_service_rate",
    "secondary_service_rate_oracle",
    "stability_region",
    "single_band_service_rate",
    "analyze",
]

# 4**m outcome patterns; past this the exhaustive cross-check is refused.
ORACLE_MAX_BANDS = 12
# rows x width of the largest weight array a sweep hands _binomial_rows
_CHUNK_ELEMENTS = 1 << 12


class UnstablePrimaryError(Exception):
    """Primary arrivals exceed the primary service rate; the empty-band
    probability (and everything built on it) is undefined."""


@dataclass(frozen=True)
class TrafficParams:
    """Bernoulli arrival means, in packets per slot."""

    lambda_p: float
    lambda_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= _real("lambda_p", self.lambda_p) <= 1.0:
            raise ValueError(f"lambda_p: must be in [0, 1], got {self.lambda_p}")
        if not 0.0 <= _real("lambda_s", self.lambda_s) <= 1.0:
            raise ValueError(f"lambda_s: must be in [0, 1], got {self.lambda_s}")


@dataclass(frozen=True)
class AnalyticalResult:
    """Closed-form rates and stability verdicts for one operating point."""

    mu_p: float
    pi: float
    mu_s: float
    primary_stable: bool
    secondary_stable: bool


@dataclass(frozen=True)
class BoundaryPoint:
    """One point of the stability-region boundary.

    lambda_s_max is None when the grid value leaves the primary queues
    unstable, in which case the point is reported but carries no boundary.
    """

    lambda_p: float
    lambda_s_max: float | None

    @property
    def skipped(self) -> bool:
        return self.lambda_s_max is None


def primary_service_rate(channel: ChannelParams, sensing: SensingParams) -> float:
    """Mean primary service rate: own-link success times correct detection.

    A busy band is lost only to its own fading or to a secondary
    misdetection (the saturated secondary transmits whenever it declares
    any band idle, so a misdetected band always sees a collision).
    """
    return pu_success_prob(channel) * (1.0 - sensing.p_md)


def empty_probability(mu_p: float, traffic: TrafficParams) -> float:
    """Stationary probability 1 - lambda_p / mu_p that a primary queue is empty."""
    if traffic.lambda_p == 0.0:
        return 1.0  # never loaded, even when mu_p is 0 too
    if traffic.lambda_p > mu_p:
        raise UnstablePrimaryError(
            f"lambda_p = {traffic.lambda_p} exceeds mu_p = {mu_p}"
        )
    return 1.0 - traffic.lambda_p / mu_p


def _log(x: float) -> float:
    """log x, and -1e300 for x = 0.

    Times any count k >= 1 it weighs exp(-1e300 k) = 0.0, as -inf would,
    but 0 times it is -0.0, which leaves a log-weight as it is, where
    0 * -inf is NaN.
    """
    return math.log(x) if x > 0.0 else -1e300


def _a_b_c(pi: float, sensing: SensingParams) -> tuple[float, float, float]:
    """a, b and c of the module docstring; none depends on m_bands."""
    c = (1.0 - pi) * (1.0 - sensing.p_md)
    return pi * (1.0 - sensing.p_fa), pi * sensing.p_fa + c, c


def _log_a_b(pi: float, sensing: SensingParams) -> tuple[float, float]:
    """log a and log b of the module docstring."""
    a, b, _ = _a_b_c(pi, sensing)
    return _log(a), _log(b)


def _log_factorials(m: int) -> np.ndarray:
    """log k! for k = 0..m."""
    return np.fromiter(map(math.lgamma, range(1, m + 2)), float, m + 1)


def _fixed_m_terms(channel: ChannelParams) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """log C(m, n), m - n and s(n) for n = 1..m at the channel's m_bands."""
    m = channel.m_bands
    log_factorials = _log_factorials(m)
    log_binomials = log_factorials[m] - log_factorials[1 : m + 1] - log_factorials[m - 1 :: -1]
    success = _su_success(channel, range(1, m + 1), _passes(channel))
    return log_binomials, np.arange(m - 1, -1.0, -1.0), success


def _binomial_rows(log_binomials, counts, log_a, log_b, success, summed=None) -> np.ndarray:
    """sum_{n=1..m} C(m, n) a**n b**(m-n) s(n) along the last axis.

    log_binomials holds log C(m, n) and counts m - n for n = 1..width;
    success holds s(1..width).  log_a and log_b are floats or one value
    per row (a column); the arrays broadcast against each other.  Where
    rows have different m, summed marks the terms n <= m of each row, and
    the rest weigh 0.

    Every weight is formed in log space, log C(m, n) + n log a + (m - n)
    log b, operation for operation as a loop over n forms it, and goes
    through libm's exp one value at a time: numpy's exp differs from it in
    the last bit on a few percent of values.  np.add.accumulate adds each
    row from n = 1 up, as the loop does, so every sum is the loop's, bit
    for bit.
    """
    log_weight = log_binomials + np.arange(1.0, log_binomials.shape[-1] + 1.0) * log_a
    log_weight += counts * log_b
    if summed is None:
        weights = np.fromiter(map(math.exp, log_weight.ravel().data), float, log_weight.size)
        weights = weights.reshape(log_weight.shape)
    else:
        weights = np.zeros(log_weight.shape)
        weights[summed] = np.fromiter(map(math.exp, log_weight[summed].data), float)
    weights *= success
    return np.add.accumulate(weights, axis=-1)[..., -1]


def _mu_s(channel: ChannelParams, sensing: SensingParams, pi: float) -> float:
    """mu_s at the empty-band probability pi; see secondary_service_rate."""
    log_binomials, counts, success = _fixed_m_terms(channel)
    return float(_binomial_rows(log_binomials, counts, *_log_a_b(pi, sensing), success))


def secondary_service_rate(
    channel: ChannelParams, sensing: SensingParams, traffic: TrafficParams
) -> float:
    """Mean service rate of the saturated secondary user.

    mu_s = sum_{n=1..m} C(m, n) a**n b**(m-n) s(n): exactly n bands are
    idle and declared idle, every other band is declared busy (so no busy
    band was missed), and the channel draw over the n-band aggregate
    succeeds with s(n) = su_success_table(channel)[n].  O(m) work.  The
    weights are formed in log space, so none of C(m, n), a**n or b**(m-n)
    overflows or underflows on its own; a zero a or b gives its terms
    their exact value 0 (or 1 for a zero power).
    """
    pi = empty_probability(primary_service_rate(channel, sensing), traffic)
    return _mu_s(channel, sensing, pi)


def secondary_service_rate_oracle(
    channel: ChannelParams, sensing: SensingParams, traffic: TrafficParams
) -> float:
    """Saturated secondary service rate by exhaustive outcome enumeration.

    Walks every (band occupancy) x (per-band declaration) pattern, weights
    it band by band, and applies the protocol rules literally: transmit
    over all declared-idle bands if there is at least one; the packet
    survives only if no declared-idle band was actually busy and the
    channel draw at the aggregate width succeeds.  Independent of the
    closed form above, and deliberately kept free of binomial shortcuts.
    """
    m = channel.m_bands
    if m > ORACLE_MAX_BANDS:
        raise ValueError(
            f"enumeration walks 4**m_bands outcomes; m_bands must be "
            f"<= {ORACLE_MAX_BANDS}, got {m}"
        )
    pi = empty_probability(primary_service_rate(channel, sensing), traffic)
    success = su_success_table(channel)
    p_fa, p_md = sensing.p_fa, sensing.p_md
    total = 0.0
    for occupancy in range(1 << m):
        for declared in range(1 << m):
            weight = 1.0
            for band in range(m):
                busy = occupancy >> band & 1
                declared_idle = declared >> band & 1
                if busy:
                    weight *= (1.0 - pi) * (p_md if declared_idle else 1.0 - p_md)
                else:
                    weight *= pi * (1.0 - p_fa if declared_idle else p_fa)
            if declared == 0:
                continue  # nothing declared idle: the secondary stays silent
            if declared & occupancy:
                continue  # it transmitted into an active band: both packets die
            total += weight * success[declared.bit_count()]
    return total


def stability_region(
    channel: ChannelParams, sensing: SensingParams, lambda_p_grid: Iterable[float]
) -> list[BoundaryPoint]:
    """Boundary of the arrival-rate region keeping every queue stable.

    For each primary arrival rate on the grid, the maximum stable
    secondary arrival rate.  Grid values that leave no idle band (the
    empty probability is undefined or 0) are reported as skipped points
    rather than failing the sweep.  s(n) and the log-factorials are built
    once per call and shared by every grid value.
    """
    mu_p = primary_service_rate(channel, sensing)
    log_binomials, counts, success = _fixed_m_terms(channel)
    points = []  # (lambda_p, (log a, log b) where it leaves idle bands, else None)
    for lam_p in lambda_p_grid:
        traffic = TrafficParams(lambda_p=lam_p, lambda_s=0.0)
        try:
            pi = empty_probability(mu_p, traffic)
        except UnstablePrimaryError:
            pi = 0.0
        points.append((lam_p, _log_a_b(pi, sensing) if pi > 0.0 else None))
    logs = [ab for _, ab in points if ab is not None]
    rates, step = [], max(1, _CHUNK_ELEMENTS // channel.m_bands)
    for first in range(0, len(logs), step):
        log_a, log_b = np.array(logs[first : first + step]).T[:, :, None]
        rates += _binomial_rows(log_binomials, counts, log_a, log_b, success).tolist()
    rates = iter(rates)
    return [BoundaryPoint(lam_p, None if ab is None else next(rates)) for lam_p, ab in points]


def single_band_service_rate(
    channel: ChannelParams, sensing: SensingParams, traffic: TrafficParams
) -> float:
    """Service rate of the baseline that picks a single sensed-free band.

    The secondary transmits on one declared-idle band (any one: bands are
    statistically identical) with its full slot power concentrated there,
    so PSD and LIMITED modes coincide.  Service needs every busy band
    detected and at least one idle band declared idle:
    s(1) [(pi + c)**m - b**m], with a, b and c as in the module docstring.
    O(1) work.  The difference is taken as
    (pi + c)**m (1 - (1 - a / (pi + c))**m) through expm1/log1p, so it
    keeps its relative accuracy when p_fa is near 1.
    """
    m = channel.m_bands
    pi = empty_probability(primary_service_rate(channel, sensing), traffic)
    a, _, c = _a_b_c(pi, sensing)
    if a == 0.0:
        return 0.0  # no band is ever idle and declared idle
    idle_or_detected = pi + c
    if a == idle_or_detected:
        share = 1.0  # b is 0
    else:
        share = -math.expm1(m * math.log1p(-a / idle_or_detected))
    one_band = _su_success(channel, (1,), _passes(channel))[0]  # both power modes agree
    return one_band * idle_or_detected**m * share


def analyze(
    channel: ChannelParams, sensing: SensingParams, traffic: TrafficParams
) -> AnalyticalResult:
    """Evaluate all closed forms for one operating point."""
    mu_p = primary_service_rate(channel, sensing)
    pi = empty_probability(mu_p, traffic)
    mu_s = _mu_s(channel, sensing, pi)
    return AnalyticalResult(
        mu_p=mu_p,
        pi=pi,
        mu_s=mu_s,
        primary_stable=pi > 0.0,
        secondary_stable=traffic.lambda_s < mu_s,
    )

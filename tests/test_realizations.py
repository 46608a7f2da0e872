"""Simulator realizations at fixed points across the parameter domain.

DIGEST_POINTS were drawn once and are kept as they are: m from
{1, 2, 3, 5, 8, 13, 20, 40, 64, 65, 100, 130} and four more above 64, K in
1..m, tau_b_frac up to 0.8 / passes, snr_s = 10**U(-0.5, 1.5), r from
U(0.2, 4), p_bar_p from U(0.5, 1), p_fa and p_md each 0 or from U(0, 0.3),
lambda_p up to 0.95 mu_p, lambda_s from U(0.3, 1.2) mu_s and at most 1,
LIMITED power about 30% of the time, every value rounded to 3 or 4
decimals, and only points with mu_s >= 1e-3.  Point i runs with seed i for
max(2000, 100_000 // m) slots, DOMINANT at every point and ORIGINAL as well
at every third.  The runs are made once per module: they are pinned by a
digest, and their DOMINANT rates are checked against the closed form.
"""

import hashlib

import numpy as np
import pytest

from specagg import (
    ChannelParams,
    Mode,
    PowerMode,
    ScenarioConfig,
    SensingParams,
    SimConfig,
    TrafficParams,
    run,
    secondary_service_rate,
)

PSD, LIMITED = PowerMode.PSD, PowerMode.LIMITED

# m_bands, k_antennas, tau_b_frac, snr_s, spectral_eff_r, p_bar_p, p_fa, p_md,
# lambda_p, lambda_s, power_mode
DIGEST_POINTS = [
    (1, 1, 0.6454, 26.363, 1.301, 0.883, 0.198, 0.0, 0.023, 0.4868, PSD),
    (2, 2, 0.6878, 12.728, 2.634, 0.842, 0.041, 0.042, 0.6066, 0.0039, LIMITED),
    (3, 3, 0.4471, 25.726, 0.998, 0.77, 0.192, 0.025, 0.6704, 0.2477, PSD),
    (5, 2, 0.182, 2.077, 2.123, 0.668, 0.172, 0.222, 0.0249, 0.4059, PSD),
    (8, 3, 0.0667, 1.304, 1.522, 0.585, 0.0, 0.235, 0.1423, 0.2044, LIMITED),
    (13, 1, 0.0287, 1.109, 2.606, 0.864, 0.023, 0.273, 0.0126, 0.6755, PSD),
    (20, 13, 0.194, 25.285, 3.919, 0.908, 0.0, 0.288, 0.4151, 0.0056, PSD),
    (40, 35, 0.122, 19.03, 1.399, 0.658, 0.0, 0.207, 0.1545, 0.089, LIMITED),
    (64, 62, 0.03, 0.468, 2.619, 0.621, 0.08, 0.0, 0.1739, 0.6675, PSD),
    (65, 51, 0.3298, 0.881, 1.75, 0.813, 0.0, 0.066, 0.3485, 0.1411, PSD),
    (100, 97, 0.0844, 2.331, 1.906, 0.547, 0.0, 0.0, 0.4896, 0.7375, PSD),
    (130, 46, 0.1198, 2.461, 2.116, 0.768, 0.004, 0.0, 0.7204, 0.6132, PSD),
    (1, 1, 0.169, 1.082, 2.167, 0.85, 0.0, 0.272, 0.3601, 0.0015, PSD),
    (2, 1, 0.1821, 13.885, 3.711, 0.934, 0.0, 0.037, 0.8167, 0.0029, PSD),
    (3, 1, 0.167, 16.992, 1.436, 0.559, 0.0, 0.277, 0.3156, 0.1204, PSD),
    (5, 1, 0.109, 1.321, 0.961, 0.683, 0.0, 0.236, 0.0751, 0.1553, LIMITED),
    (8, 7, 0.3124, 5.115, 3.62, 0.832, 0.0, 0.281, 0.2806, 0.0922, PSD),
    (13, 7, 0.0263, 0.938, 3.628, 0.575, 0.0, 0.162, 0.2029, 0.107, PSD),
    (20, 8, 0.1322, 3.197, 1.615, 0.818, 0.023, 0.0, 0.4, 0.1916, LIMITED),
    (40, 7, 0.1265, 10.228, 3.939, 0.813, 0.077, 0.0, 0.4203, 0.87, PSD),
    (64, 49, 0.1081, 0.454, 1.737, 0.954, 0.0, 0.011, 0.5095, 0.0192, LIMITED),
    (65, 63, 0.1616, 5.249, 2.819, 0.725, 0.049, 0.057, 0.5545, 0.0408, PSD),
    (100, 28, 0.1716, 3.057, 1.998, 0.703, 0.144, 0.055, 0.0193, 0.401, PSD),
    (130, 9, 0.0414, 0.365, 2.239, 0.767, 0.211, 0.0, 0.4487, 0.8729, PSD),
    (1, 1, 0.0348, 1.756, 1.897, 0.901, 0.11, 0.0, 0.5145, 0.0447, PSD),
    (2, 2, 0.0146, 4.855, 3.139, 0.57, 0.0, 0.09, 0.2988, 0.1405, PSD),
    (3, 2, 0.0012, 2.647, 3.529, 0.768, 0.138, 0.261, 0.0499, 0.2526, PSD),
    (5, 1, 0.116, 4.788, 2.731, 0.881, 0.0, 0.012, 0.1271, 0.5289, PSD),
    (8, 4, 0.3497, 9.932, 3.218, 0.554, 0.24, 0.123, 0.3683, 0.0342, PSD),
    (13, 10, 0.2006, 2.04, 0.692, 0.868, 0.249, 0.141, 0.56, 0.0537, LIMITED),
    (20, 7, 0.2005, 2.727, 1.871, 0.683, 0.016, 0.075, 0.1554, 0.6815, PSD),
    (40, 24, 0.3318, 1.874, 0.374, 0.78, 0.005, 0.299, 0.1684, 0.0213, PSD),
    (64, 23, 0.2622, 1.647, 2.512, 0.659, 0.0, 0.0, 0.2768, 0.3567, PSD),
    (65, 18, 0.0908, 0.64, 1.89, 0.793, 0.052, 0.21, 0.0589, 0.0044, LIMITED),
    (100, 3, 0.0143, 25.423, 1.443, 0.738, 0.21, 0.0, 0.5107, 0.3797, PSD),
    (130, 27, 0.0397, 0.997, 0.588, 0.759, 0.097, 0.0, 0.2816, 1.0, PSD),
    (65, 28, 0.0569, 0.367, 0.632, 0.52, 0.098, 0.0, 0.0863, 0.794, PSD),
    (65, 37, 0.3062, 13.117, 2.683, 0.578, 0.0, 0.251, 0.0671, 0.0456, PSD),
    (100, 63, 0.0934, 2.615, 3.346, 0.825, 0.212, 0.0, 0.4447, 1.0, PSD),
    (100, 60, 0.2177, 5.819, 2.882, 0.894, 0.04, 0.011, 0.6145, 0.177, PSD),
]

# sha256 of the digested fields of every run, in DIGEST_POINTS order
REALIZATION_SHA256 = "5205e12ebe518df491539cd47742bf18ce365df7d599acbfe362631e0579e552"


def _configs():
    for seed, (m, k, tau, snr_s, r, p_bar_p, p_fa, p_md, lambda_p, lambda_s, power) in enumerate(
        DIGEST_POINTS
    ):
        channel = ChannelParams(
            snr_s=snr_s,
            spectral_eff_r=r,
            tau_b_frac=tau,
            m_bands=m,
            k_antennas=k,
            p_bar_p=p_bar_p,
            power_mode=power,
        )
        scenario = ScenarioConfig(
            channel, SensingParams(p_fa, p_md), TrafficParams(lambda_p, lambda_s)
        )
        slots = max(2000, 100_000 // m)
        yield SimConfig(scenario, Mode.DOMINANT, slots, seed)
        if seed % 3 == 0:
            yield SimConfig(scenario, Mode.ORIGINAL, slots, seed)


@pytest.fixture(scope="module")
def runs():
    return [(cfg, run(cfg)) for cfg in _configs()]


def test_realizations_at_fixed_domain_points_are_pinned(runs):
    # std_err_mu_s is left out: it is not yet shown to be the same on every CPU
    digest = hashlib.sha256()
    for _, report in runs:
        fields = (
            report.collisions,
            report.arrivals_s,
            report.departures_s,
            report.final_queue_s,
            report.throughput_s,
            report.mean_queue_s,
            report.empirical_mu_s,
        )
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == REALIZATION_SHA256


def test_dominant_rates_lie_within_four_standard_errors_of_the_closed_form(runs):
    # z of empirical_mu_s against mu_s, in its own batch-means standard
    # errors: each within 4, and spread as a unit normal's would be
    z = []
    for cfg, report in runs:
        if cfg.mode is Mode.DOMINANT:
            sc = cfg.scenario
            mu_s = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
            z.append((report.empirical_mu_s - mu_s) / report.std_err_mu_s)
    assert len(z) == len(DIGEST_POINTS)
    assert max(map(abs, z)) <= 4, z
    assert 0.7 <= np.std(z, ddof=1) <= 1.4, z

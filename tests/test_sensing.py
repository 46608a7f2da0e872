"""Sensing parameters, and the per-band sensing draws the simulator makes.

ProtocolStreams draws every sensing outcome the simulator uses: per band
and slot, one uniform u, declared idle if busy when u < p_md and declared
idle if idle when u < 1 - p_fa.  next_slot returns both outcomes as band
bitmasks (sense_if_busy, sense_if_idle).
"""

import math

import numpy as np
import pytest

from specagg import ProtocolStreams, ScenarioConfig, SensingParams, TrafficParams

from conftest import make_channel


def test_sensing_params_validation():
    with pytest.raises(ValueError, match="p_fa"):
        SensingParams(p_fa=1.5, p_md=0.0)
    with pytest.raises(ValueError, match="p_md"):
        SensingParams(p_fa=0.0, p_md=-0.1)


def sensing_masks(p_fa, p_md, m_bands, slots, seed=0):
    """(sense_if_busy, sense_if_idle) bitmasks of the first slots of a stream."""
    scenario = ScenarioConfig(
        channel=make_channel(m_bands=m_bands, k_antennas=1, tau_b_frac=0.0),
        sensing=SensingParams(p_fa=p_fa, p_md=p_md),
        traffic=TrafficParams(lambda_p=0.5, lambda_s=0.5),
    )
    streams = ProtocolStreams(scenario, seed)
    return [streams.next_slot()[:2] for _ in range(slots)]


def band_bits(masks, m_bands):
    """(slots, bands) boolean matrix of a list of bitmasks."""
    return np.array([[mask >> b & 1 for b in range(m_bands)] for mask in masks], bool)


def test_sense_no_false_alarms_declares_all_idle():
    masks = sensing_masks(p_fa=0.0, p_md=0.3, m_bands=64, slots=200)
    assert all(idle == (1 << 64) - 1 for _, idle in masks)


def test_sense_perfect_detection_declares_all_busy():
    masks = sensing_masks(p_fa=0.3, p_md=0.0, m_bands=64, slots=200)
    assert all(busy == 0 for busy, _ in masks)


def test_sense_pair_of_idle_bands_both_declared_idle_rate():
    # 10^6 independent two-band slots; both declared idle with prob (1-p_fa)^2
    masks = sensing_masks(p_fa=0.05, p_md=0.0, m_bands=2, slots=1_000_000, seed=123)
    frac = sum(idle == 0b11 for _, idle in masks) / len(masks)
    assert abs(frac - 0.9025) <= 0.001


def test_sense_marginals_at_a_million_draws():
    m, slots = 10, 100_000
    masks = sensing_masks(p_fa=0.1, p_md=0.2, m_bands=m, slots=slots, seed=7)
    busy_idle_rate = band_bits([busy for busy, _ in masks], m).mean()
    idle_idle_rate = band_bits([idle for _, idle in masks], m).mean()
    n = m * slots
    se_md = math.sqrt(0.2 * 0.8 / n)
    se_fa = math.sqrt(0.9 * 0.1 / n)
    assert abs(busy_idle_rate - 0.2) <= 3 * se_md
    assert abs(idle_idle_rate - 0.9) <= 3 * se_fa


def test_sense_applies_one_uniform_per_band_with_two_thresholds():
    # the sensing streams are the third child of the seed, one per band
    p_fa, p_md, m, slots, seed = 0.2, 0.3, 7, 500, 9
    masks = sensing_masks(p_fa, p_md, m_bands=m, slots=slots, seed=seed)
    band_seeds = np.random.SeedSequence(seed).spawn(3)[2].spawn(m)
    u = np.array([np.random.default_rng(s).random(slots) for s in band_seeds]).T
    assert (band_bits([busy for busy, _ in masks], m) == (u < p_md)).all()
    assert (band_bits([idle for _, idle in masks], m) == (u < 1.0 - p_fa)).all()


def test_sense_is_deterministic_under_a_seed():
    a = sensing_masks(0.2, 0.3, m_bands=5, slots=1000, seed=42)
    assert a == sensing_masks(0.2, 0.3, m_bands=5, slots=1000, seed=42)
    assert a != sensing_masks(0.2, 0.3, m_bands=5, slots=1000, seed=43)

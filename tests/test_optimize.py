from dataclasses import replace

import pytest

from specagg import (
    SensingParams,
    TrafficParams,
    UnstablePrimaryError,
    optimize_sensed_bands,
    secondary_service_rate,
)

from conftest import make_channel, reference_scenario


def test_profile_shape_and_consistency():
    sc = reference_scenario()
    result = optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
    assert len(result.profile) == sc.channel.m_bands
    assert [m for m, _ in result.profile] == list(range(1, sc.channel.m_bands + 1))
    assert all(result.mu_s_opt >= rate for _, rate in result.profile)
    # evaluating the winning count as a plain operating point reproduces the optimum
    direct = secondary_service_rate(
        replace(sc.channel, m_bands=result.m_opt), sc.sensing, sc.traffic
    )
    assert direct == result.mu_s_opt


def test_single_band_domain():
    sc = reference_scenario(m_bands=1, k_antennas=1)
    result = optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
    assert result.m_opt == 1
    assert len(result.profile) == 1


def test_error_free_profile_prefers_all_bands():
    ch = make_channel(m_bands=20, tau_b_frac=0.0)
    sensing = SensingParams(0.0, 0.0)
    traffic = TrafficParams(0.5, 0.0)
    result = optimize_sensed_bands(ch, sensing, traffic)
    assert result.m_opt == 20
    rates = [rate for _, rate in result.profile]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_reference_profile_peaks_at_fourteen_bands():
    # At the reference operating point the marginal gain of one more sensed
    # band turns negative between 14 and 15 sensed bands (independently
    # cross-checked against the exhaustive-enumeration service rate).
    sc = reference_scenario(m_bands=30)
    result = optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
    assert result.m_opt == 14
    assert result.mu_s_opt == pytest.approx(0.47701148521014214, rel=1e-12)
    rates = [rate for _, rate in result.profile]
    assert all(b > a for a, b in zip(rates[:13], rates[1:14]))   # rising up to 14
    assert all(b < a for a, b in zip(rates[13:], rates[14:]))    # falling past 14


def test_ties_break_toward_fewer_bands():
    # sensing consumes the whole slot for every candidate count: all rates 0
    ch = make_channel(m_bands=4, k_antennas=1, tau_b_frac=1.0, p_bar_p=0.9)
    result = optimize_sensed_bands(ch, SensingParams(0.0, 0.0), TrafficParams(0.0, 0.0))
    assert result.m_opt == 1
    assert result.mu_s_opt == 0.0
    assert all(rate == 0.0 for _, rate in result.profile)


def test_unstable_primary_is_rejected():
    sc = reference_scenario()
    with pytest.raises(UnstablePrimaryError):
        optimize_sensed_bands(
            sc.channel, sc.sensing, TrafficParams(lambda_p=0.855, lambda_s=0.0)
        )


def test_no_primary_traffic_is_optimized_even_when_mu_p_is_zero():
    # p_md = 1 makes mu_p = 0, yet lambda_p = 0 leaves every band idle
    sc = reference_scenario(m_bands=4)
    sensing = SensingParams(p_fa=0.05, p_md=1.0)
    result = optimize_sensed_bands(sc.channel, sensing, TrafficParams(0.0, 0.0))
    assert len(result.profile) == 4
    assert result.mu_s_opt == max(rate for _, rate in result.profile) > 0.0


import pytest

import specagg.analysis
from specagg import (
    PowerMode,
    SensingParams,
    TrafficParams,
    UnstablePrimaryError,
    analyze,
    empty_probability,
    primary_service_rate,
    secondary_service_rate,
    secondary_service_rate_oracle,
    single_band_service_rate,
    stability_region,
    su_success_table,
)

from conftest import error_free_scenario, make_channel, reference_scenario


def test_primary_service_rate_products():
    ch = make_channel()
    assert primary_service_rate(ch, SensingParams(0.05, 0.05)) == pytest.approx(0.855)
    assert primary_service_rate(ch, SensingParams(0.05, 0.01)) == pytest.approx(0.891)
    assert primary_service_rate(ch, SensingParams(0.0, 1.0)) == 0.0


def test_empty_probability_values_and_bounds():
    traffic = TrafficParams(lambda_p=0.5, lambda_s=0.0)
    assert empty_probability(0.855, traffic) == pytest.approx(
        0.41520467836257313, rel=1e-12
    )
    assert empty_probability(0.855, TrafficParams(0.0, 0.0)) == 1.0
    assert empty_probability(0.5, TrafficParams(0.5, 0.0)) == 0.0
    # no arrivals means a perpetually empty queue even with zero service
    assert empty_probability(0.0, TrafficParams(0.0, 0.0)) == 1.0
    with pytest.raises(UnstablePrimaryError):
        empty_probability(0.4, traffic)


def test_secondary_service_rate_single_band_hand_value():
    # one error-free band, no sensing overhead: pi * exp(-(2**r - 1))
    ch = make_channel(m_bands=1, k_antennas=1, tau_b_frac=0.0)
    rate = secondary_service_rate(
        ch, SensingParams(0.0, 0.0), TrafficParams(0.5, 0.0)
    )
    assert rate == pytest.approx(0.022127585941272863, rel=1e-12)


def test_secondary_service_rate_reference_value():
    sc = reference_scenario()
    rate = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
    assert rate == pytest.approx(0.475888323349973, rel=1e-12)


def test_secondary_service_rate_zero_when_primaries_saturated():
    sc = reference_scenario()
    saturated = TrafficParams(lambda_p=0.855, lambda_s=0.0)
    assert secondary_service_rate(sc.channel, sc.sensing, saturated) == 0.0


def test_oracle_matches_closed_form_on_a_small_grid():
    for m in (1, 2, 3, 4):
        for p_fa, p_md in [(0.0, 0.0), (0.05, 0.3), (0.3, 0.05)]:
            sensing = SensingParams(p_fa, p_md)
            for mode in (PowerMode.PSD, PowerMode.LIMITED):
                ch = make_channel(m_bands=m, k_antennas=2, power_mode=mode)
                mu_p = primary_service_rate(ch, sensing)
                for lam in (0.0, 0.5 * mu_p):
                    traffic = TrafficParams(lam, 0.0)
                    closed = secondary_service_rate(ch, sensing, traffic)
                    oracle = secondary_service_rate_oracle(ch, sensing, traffic)
                    assert abs(closed - oracle) <= 1e-12


def test_oracle_returns_zero_when_every_band_is_always_busy():
    ch = make_channel(m_bands=3, k_antennas=2)
    sensing = SensingParams(p_fa=0.05, p_md=0.05)
    saturated = TrafficParams(lambda_p=0.855, lambda_s=0.0)  # pi = 0 exactly
    assert secondary_service_rate_oracle(ch, sensing, saturated) == 0.0


def test_oracle_agrees_with_certain_misdetection_and_no_load():
    # p_md = 1 never matters when the primaries have nothing to send
    ch = make_channel(m_bands=3, k_antennas=2)
    sensing = SensingParams(p_fa=0.1, p_md=1.0)
    traffic = TrafficParams(0.0, 0.0)
    closed = secondary_service_rate(ch, sensing, traffic)
    oracle = secondary_service_rate_oracle(ch, sensing, traffic)
    assert closed == pytest.approx(oracle, abs=1e-15)
    assert closed > 0.0


def test_oracle_single_band_reduction():
    ch = make_channel(m_bands=1, k_antennas=1)
    sensing = SensingParams(p_fa=0.2, p_md=0.1)
    traffic = TrafficParams(0.3, 0.0)
    pi = empty_probability(primary_service_rate(ch, sensing), traffic)
    expected = pi * (1 - sensing.p_fa) * su_success_table(ch)[1]
    assert secondary_service_rate_oracle(ch, sensing, traffic) == pytest.approx(
        expected, rel=1e-12
    )


def test_oracle_refuses_large_band_counts():
    sc = reference_scenario()
    with pytest.raises(ValueError, match="m_bands"):
        secondary_service_rate_oracle(sc.channel, sc.sensing, sc.traffic)


def test_stability_region_boundary():
    sc = reference_scenario()
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 0.855, 0.9]
    points = stability_region(sc.channel, sc.sensing, grid)
    assert [p.lambda_p for p in points] == grid
    # values at or past mu_p = 0.855 are reported but carry no boundary
    assert points[-1].skipped and points[-2].skipped
    kept = [p for p in points if not p.skipped]
    for a, b in zip(kept, kept[1:]):
        assert b.lambda_s_max <= a.lambda_s_max
    # all bands free at lambda_p = 0 reproduces the saturated-free closed form
    free = secondary_service_rate(sc.channel, sc.sensing, TrafficParams(0.0, 0.0))
    assert points[0].lambda_s_max == pytest.approx(free, rel=1e-12)


def test_stability_region_collapses_at_the_primary_limit():
    sc = reference_scenario()
    near = 0.855 * (1 - 1e-9)
    [point] = stability_region(sc.channel, sc.sensing, [near])
    assert point.lambda_s_max < 1e-6


def test_single_band_coincides_with_aggregation_on_one_band():
    ch = make_channel(m_bands=1, k_antennas=1)
    sensing = SensingParams(0.1, 0.05)
    traffic = TrafficParams(0.4, 0.0)
    assert single_band_service_rate(ch, sensing, traffic) == pytest.approx(
        secondary_service_rate(ch, sensing, traffic), rel=1e-12
    )


def test_single_band_zero_when_no_band_is_ever_free():
    sc = reference_scenario()
    saturated = TrafficParams(lambda_p=0.855, lambda_s=0.0)
    assert single_band_service_rate(sc.channel, sc.sensing, saturated) == 0.0


def test_single_band_never_beats_aggregation_in_psd_mode():
    for r in (0.5, 1.0, 2.0):
        sc = error_free_scenario(spectral_eff_r=r)
        agg = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
        single = single_band_service_rate(sc.channel, sc.sensing, sc.traffic)
        assert single <= agg


def test_aggregation_beats_single_band_in_limited_mode_at_reference_point():
    sc = error_free_scenario(power_mode=PowerMode.LIMITED)
    agg = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
    single = single_band_service_rate(sc.channel, sc.sensing, sc.traffic)
    assert single < agg


def test_secondary_rate_monotone_in_error_rates_and_load():
    base = reference_scenario()
    traffic = base.traffic
    for p_md in (0.0, 0.05, 0.1):
        rates = [
            secondary_service_rate(base.channel, SensingParams(p_fa, p_md), traffic)
            for p_fa in (0.0, 0.05, 0.2, 0.5)
        ]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
    for p_fa in (0.0, 0.05, 0.1):
        rates = [
            secondary_service_rate(base.channel, SensingParams(p_fa, p_md), traffic)
            for p_md in (0.0, 0.05, 0.2, 0.4)
        ]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
    rates = [
        secondary_service_rate(base.channel, base.sensing, TrafficParams(lam, 0.0))
        for lam in (0.0, 0.2, 0.4, 0.6, 0.8)
    ]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_secondary_rate_grows_with_band_count_without_sensing_errors():
    rates = []
    for m in range(1, 31):
        sc = error_free_scenario(m_bands=m)
        rates.append(secondary_service_rate(sc.channel, sc.sensing, sc.traffic))
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_rates_stay_in_unit_interval():
    for p_fa, p_md in [(0.0, 0.0), (0.3, 0.3), (0.9, 0.05)]:
        sensing = SensingParams(p_fa, p_md)
        for lam in (0.0, 0.3):
            mu_p = primary_service_rate(make_channel(), sensing)
            if lam > mu_p:
                continue
            traffic = TrafficParams(lam, 0.0)
            for mode in (PowerMode.PSD, PowerMode.LIMITED):
                ch = make_channel(power_mode=mode)
                assert 0.0 <= secondary_service_rate(ch, sensing, traffic) <= 1.0
                assert 0.0 <= single_band_service_rate(ch, sensing, traffic) <= 1.0


def test_analyze_bundles_everything():
    sc = reference_scenario(lambda_s=0.3)
    result = analyze(sc.channel, sc.sensing, sc.traffic)
    assert result.mu_p == pytest.approx(0.855)
    assert result.pi == pytest.approx(0.41520467836257313, rel=1e-12)
    assert result.mu_s == pytest.approx(0.475888323349973, rel=1e-12)
    assert result.primary_stable
    assert result.secondary_stable  # 0.3 < mu_s


def test_analyze_derives_mu_p_once(monkeypatch):
    calls = []
    rate = specagg.analysis.primary_service_rate

    def counted(channel, sensing):
        calls.append(channel)
        return rate(channel, sensing)

    monkeypatch.setattr(specagg.analysis, "primary_service_rate", counted)
    sc = reference_scenario(lambda_s=0.3)
    analyze(sc.channel, sc.sensing, sc.traffic)
    assert len(calls) == 1


def test_analyze_raises_on_unstable_primary():
    sc = reference_scenario()
    overloaded = TrafficParams(lambda_p=0.9, lambda_s=0.0)
    with pytest.raises(UnstablePrimaryError):
        analyze(sc.channel, sc.sensing, overloaded)


def test_no_primary_traffic_is_stable_even_when_mu_p_is_zero():
    # p_md = 1 makes mu_p = 0; with lambda_p = 0 every band is idle (pi = 1)
    sc = reference_scenario(m_bands=4)
    sensing = SensingParams(p_fa=0.05, p_md=1.0)
    result = analyze(sc.channel, sensing, TrafficParams(0.0, 0.0))
    assert result.mu_p == 0.0 and result.pi == 1.0
    assert result.primary_stable
    assert result.mu_s > 0.0


def test_stability_region_keeps_lambda_p_zero_when_mu_p_is_zero():
    sc = reference_scenario(m_bands=4)
    sensing = SensingParams(p_fa=0.05, p_md=1.0)
    free, busy = stability_region(sc.channel, sensing, [0.0, 0.1])
    expected = secondary_service_rate(sc.channel, sensing, TrafficParams(0.0, 0.0))
    assert free.lambda_s_max == expected > 0.0
    assert busy.skipped

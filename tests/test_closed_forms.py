"""The O(m) closed forms: oracle agreement, exact-arithmetic accuracy, domain edges."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specagg.channel
from specagg import (
    PowerMode,
    SensingParams,
    TrafficParams,
    UnstablePrimaryError,
    empty_probability,
    optimize_sensed_bands,
    primary_service_rate,
    secondary_service_rate,
    secondary_service_rate_oracle,
    single_band_service_rate,
    stability_region,
    su_success_prob,
)

from conftest import make_channel, reference_scenario

# derandomized so every run draws the same examples; no example database
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

unit = st.floats(min_value=0.0, max_value=1.0)
# the ends of [0, 1] on their own, so error rates of 0 and 1 and pi = 0 are drawn
unit_or_end = st.sampled_from([0.0, 1.0]) | unit


@st.composite
def operating_points(draw, max_bands=8):
    """A random (channel, sensing, traffic) point with lambda_p in [0, mu_p]."""
    m = draw(st.integers(1, max_bands))
    channel = make_channel(
        snr_s=draw(st.floats(0.1, 10.0)),
        spectral_eff_r=draw(st.floats(0.1, 4.0)),
        tau_b_frac=draw(st.floats(0.0, 0.2)),
        m_bands=m,
        k_antennas=draw(st.integers(1, m)),
        p_bar_p=draw(unit),
        power_mode=draw(st.sampled_from(PowerMode)),
    )
    sensing = SensingParams(p_fa=draw(unit_or_end), p_md=draw(unit_or_end))
    lambda_p = draw(unit_or_end) * primary_service_rate(channel, sensing)
    return channel, sensing, TrafficParams(lambda_p=lambda_p, lambda_s=0.0)


@PROPERTY
@given(operating_points())
def test_closed_form_matches_oracle_at_random_points(point):
    closed = secondary_service_rate(*point)
    assert abs(closed - secondary_service_rate_oracle(*point)) <= 1e-12


@PROPERTY
@given(operating_points())
def test_single_band_matches_its_sum_over_idle_band_counts(point):
    channel, sensing, traffic = point
    m = channel.m_bands
    pi = empty_probability(primary_service_rate(channel, sensing), traffic)
    # eta idle bands, every busy band detected, at least one idle band declared idle
    by_idle_count = su_success_prob(channel, 1) * sum(
        math.comb(m, eta)
        * pi**eta
        * ((1.0 - pi) * (1.0 - sensing.p_md)) ** (m - eta)
        * (1.0 - sensing.p_fa**eta)
        for eta in range(1, m + 1)
    )
    assert abs(single_band_service_rate(*point) - by_idle_count) <= 1e-12


def _exact_rates(channel, sensing, traffic):
    """Both closed forms in exact rational arithmetic on the same float inputs."""
    m = channel.m_bands
    pi = Fraction(empty_probability(primary_service_rate(channel, sensing), traffic))
    p_fa, p_md = Fraction(sensing.p_fa), Fraction(sensing.p_md)
    a = pi * (1 - p_fa)
    c = (1 - pi) * (1 - p_md)
    b = pi * p_fa + c
    mu_s = sum(
        math.comb(m, n) * a**n * b ** (m - n) * Fraction(su_success_prob(channel, n))
        for n in range(1, m + 1)
    )
    single = Fraction(su_success_prob(channel, 1)) * ((pi + c) ** m - b**m)
    return mu_s, single


def _relative_error(value: float, exact: Fraction) -> float:
    if exact == 0:
        return 0.0 if value == 0.0 else math.inf
    return float(abs(Fraction(value) - exact) / exact)


@pytest.mark.parametrize("m", [1, 2, 13, 60, 200])
# p_fa near 1 makes the single-band difference of two m-th powers cancel
@pytest.mark.parametrize(
    "p_fa, p_md", [(0.05, 0.05), (0.3, 0.01), (1.0 - 1e-9, 0.2)]
)
@pytest.mark.parametrize("mode", list(PowerMode))
def test_closed_forms_match_exact_rational_sums(m, p_fa, p_md, mode):
    channel = make_channel(
        m_bands=m, k_antennas=max(1, m // 4), tau_b_frac=0.002, power_mode=mode
    )
    sensing = SensingParams(p_fa, p_md)
    traffic = TrafficParams(0.3 * primary_service_rate(channel, sensing), 0.0)
    exact_mu_s, exact_single = _exact_rates(channel, sensing, traffic)
    mu_s = secondary_service_rate(channel, sensing, traffic)
    single = single_band_service_rate(channel, sensing, traffic)
    assert _relative_error(mu_s, exact_mu_s) <= 1e-12
    assert _relative_error(single, exact_single) <= 1e-12


@pytest.mark.parametrize("m", [1100, 5000])
def test_closed_forms_stay_finite_at_thousands_of_bands(m):
    for k in (1, m // 2, m):
        channel = make_channel(m_bands=m, k_antennas=k, tau_b_frac=1e-4)
        for p_fa in (0.0, 0.05, 1.0):
            for p_md in (0.0, 0.05, 1.0):
                sensing = SensingParams(p_fa, p_md)
                mu_p = primary_service_rate(channel, sensing)
                for lambda_p in (0.0, 0.5 * mu_p, mu_p):
                    traffic = TrafficParams(lambda_p, 0.0)
                    mu_s = secondary_service_rate(channel, sensing, traffic)
                    single = single_band_service_rate(channel, sensing, traffic)
                    assert 0.0 <= mu_s <= 1.0, (k, p_fa, p_md, lambda_p, mu_s)
                    assert 0.0 <= single <= 1.0, (k, p_fa, p_md, lambda_p, single)
                    if lambda_p == 0.0 and p_fa < 1.0:
                        assert mu_s > 0.0 and single > 0.0
        # idle, perfectly sensed bands: every band is aggregated with certainty
        free = TrafficParams(0.0, 0.0)
        perfect = SensingParams(0.0, 0.0)
        assert secondary_service_rate(channel, perfect, free) == su_success_prob(channel, m)


def _assert_positive_zero(value: float) -> None:
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("m", [1, 13, 1100])
def test_closed_forms_are_exactly_zero_without_opportunity(m):
    channel = make_channel(m_bands=m, k_antennas=min(m, 8))
    sensing = SensingParams(0.05, 0.05)
    busy = TrafficParams(primary_service_rate(channel, sensing), 0.0)  # pi = 0
    blind = SensingParams(1.0, 0.05)  # every idle band is declared busy
    half = TrafficParams(0.5, 0.0)
    slot_eaten = make_channel(m_bands=m, k_antennas=1, tau_b_frac=1.0)
    for args in (
        (channel, sensing, busy),
        (channel, blind, half),
        (slot_eaten, sensing, half),
    ):
        _assert_positive_zero(secondary_service_rate(*args))
        _assert_positive_zero(single_band_service_rate(*args))


@st.composite
def sweep_points(draw, max_bands=60):
    """A point for the two sweeps, with lambda_p in [0, mu_p].

    k_antennas runs past m_bands, and tau_b_frac takes 0 and values at
    which the sensing passes fill the slot, where s(n) is 0 at every width.
    """
    m = draw(st.integers(1, max_bands))
    channel = make_channel(
        snr_s=draw(st.floats(0.1, 10.0)),
        spectral_eff_r=draw(st.floats(0.1, 4.0)),
        tau_b_frac=draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 0.2)),
        m_bands=m,
        k_antennas=draw(st.integers(1, m + 10)),
        p_bar_p=draw(unit_or_end),
        power_mode=draw(st.sampled_from(PowerMode)),
    )
    sensing = SensingParams(p_fa=draw(unit_or_end), p_md=draw(unit_or_end))
    lambda_p = draw(unit_or_end) * primary_service_rate(channel, sensing)
    return channel, sensing, TrafficParams(lambda_p=lambda_p, lambda_s=0.0)


@PROPERTY
@given(sweep_points())
def test_profile_is_the_closed_form_at_every_band_count(point):
    channel, sensing, traffic = point
    assume(empty_probability(primary_service_rate(channel, sensing), traffic) > 0.0)
    result = optimize_sensed_bands(*point)
    for m, rate in result.profile:
        assert rate == secondary_service_rate(replace(channel, m_bands=m), sensing, traffic)
    assert result.mu_s_opt == result.profile[result.m_opt - 1][1]


@PROPERTY
@given(sweep_points(), st.lists(unit_or_end, max_size=4), st.lists(unit, max_size=3))
def test_boundary_is_the_closed_form_at_every_grid_value(point, loads, lambda_ps):
    channel, sensing, _ = point
    mu_p = primary_service_rate(channel, sensing)
    grid = [load * mu_p for load in loads] + lambda_ps  # mu_p itself, and past it
    points = stability_region(channel, sensing, grid)
    assert [p.lambda_p for p in points] == grid
    for p in points:
        traffic = TrafficParams(lambda_p=p.lambda_p, lambda_s=0.0)
        try:
            idle = empty_probability(mu_p, traffic) > 0.0
        except UnstablePrimaryError:
            idle = False
        if idle:
            assert p.lambda_s_max == secondary_service_rate(channel, sensing, traffic)
        else:
            assert p.skipped


@pytest.fixture
def table_entries(monkeypatch):
    """The widths passed to su_success_prob by every s(n) table built."""
    widths = []
    build = specagg.channel.su_success_prob

    def counted(params, eta):
        widths.append(eta)
        return build(params, eta)

    monkeypatch.setattr(specagg.channel, "su_success_prob", counted)
    return widths


def test_optimizer_builds_one_table_per_sensing_pass_count(table_entries):
    sc = reference_scenario(m_bands=100)  # 8 antennas: 13 pass counts
    # one table per pass count p, at its widest m = min(8p, 100): 724 entries
    # in all, where rebuilding s(1..m) for every m takes 1 + ... + 100 = 5050
    optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
    assert len(table_entries) == sum(min(8 * p, 100) for p in range(1, 14)) == 724
    optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
    assert len(table_entries) == 2 * 724  # nothing outlives a call


@pytest.mark.parametrize("grid_length", [1, 5, 18])
def test_stability_region_builds_one_table_per_call(grid_length, table_entries):
    sc = reference_scenario(m_bands=40)
    grid = [0.05 * i for i in range(grid_length)]
    stability_region(sc.channel, sc.sensing, grid)
    assert table_entries == list(range(1, 41))
    stability_region(sc.channel, sc.sensing, grid)
    assert table_entries == 2 * list(range(1, 41))

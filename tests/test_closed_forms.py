"""The O(m) closed forms: oracle agreement, exact-arithmetic accuracy, domain edges."""

import decimal
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import specagg.analysis
import specagg.channel
import specagg.optimize
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
    sensing_fraction,
    stability_region,
    su_success_prob,
    su_success_table,
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


def _decimal_mu_s(channel, sensing, traffic) -> decimal.Decimal:
    """mu_s summed in 60-digit decimals on the code's float pi, p_fa, p_md and s(n).

    The terms come from t_0 = b**m by t_n = t_{n-1} (m - n + 1) / n * a / b,
    so no term is formed in floating point.
    """
    m = channel.m_bands
    success = su_success_table(channel)
    context = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        D = decimal.Decimal
        pi = D(empty_probability(primary_service_rate(channel, sensing), traffic))
        p_fa, p_md = D(sensing.p_fa), D(sensing.p_md)
        a = pi * (1 - p_fa)
        b = pi * p_fa + (1 - pi) * (1 - p_md)
        term, total = b**m, D(0)
        for n in range(1, m + 1):
            term = term * (m - n + 1) / n * a / b
            total += term * D(success[n])
        return +total


# at K = 8 sensing fills the slot from m = 800 on, and mu_s is 0 there
@pytest.mark.parametrize(
    "m, k, mode",
    [
        (100, 50, PowerMode.PSD),
        (1000, 500, PowerMode.PSD),
        (5000, 2500, PowerMode.PSD),
        (1000, 500, PowerMode.LIMITED),
    ],
)
def test_mu_s_is_accurate_at_thousands_of_bands(m, k, mode):
    sc = reference_scenario(m_bands=m, k_antennas=k, power_mode=mode)
    exact = _decimal_mu_s(sc.channel, sc.sensing, sc.traffic)
    mu_s = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
    assert exact > 0
    assert float(abs(decimal.Decimal(mu_s) - exact) / exact) <= 1e-10


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
    """The widths of every s(n) table built, in the order they are computed."""
    widths = []
    build = specagg.channel._su_success

    def counted(params, table_widths, passes):
        widths.extend(table_widths)
        return build(params, table_widths, passes)

    for module in (specagg.channel, specagg.analysis, specagg.optimize):
        monkeypatch.setattr(module, "_su_success", counted)
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


# A literal scalar reference for the array kernel: s(n) one width at a time
# and mu_s as a loop over n, term by term, with -inf for log 0.


def scalar_success(channel, n):
    available = 1.0 - sensing_fraction(channel)
    if available <= 0.0:
        return 0.0
    rate = channel.spectral_eff_r / (n * available)
    eta = n if channel.power_mode is PowerMode.LIMITED else 1
    try:
        exponent = (2.0**rate - 1.0) / channel.snr_s * eta
    except OverflowError:
        log_exponent = rate * math.log(2.0) + math.log(eta) - math.log(channel.snr_s)
        exponent = math.exp(log_exponent) if log_exponent < 709.0 else math.inf
    return math.exp(-exponent)


def scalar_mu_s(channel, sensing, traffic):
    m = channel.m_bands
    pi = empty_probability(primary_service_rate(channel, sensing), traffic)
    c = (1.0 - pi) * (1.0 - sensing.p_md)
    a, b = pi * (1.0 - sensing.p_fa), pi * sensing.p_fa + c
    log_a = math.log(a) if a > 0.0 else -math.inf
    log_b = math.log(b) if b > 0.0 else -math.inf
    log_factorials = [math.lgamma(k + 1) for k in range(m + 1)]
    total = 0.0
    for n in range(1, m + 1):
        log_weight = log_factorials[m] - log_factorials[n] - log_factorials[m - n]
        log_weight += n * log_a
        if n < m:
            log_weight += (m - n) * log_b
        total += math.exp(log_weight) * scalar_success(channel, n)
    return total


@st.composite
def kernel_points(draw):
    """A point for the bit-identity check, m up to 2000, lambda_p in [0, mu_p].

    spectral_eff_r reaches past 1024, where 2**rate overflows, and
    tau_b_frac takes values at which the sensing passes fill the slot.
    """
    m = draw(st.sampled_from([1, 2, 13, 2000]) | st.integers(1, 60) | st.integers(61, 2000))
    channel = make_channel(
        snr_s=draw(st.sampled_from([1e-3, 1e3]) | st.floats(0.1, 10.0)),
        spectral_eff_r=draw(st.sampled_from([1024.0, 3000.0]) | st.floats(0.1, 6.0)),
        tau_b_frac=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 0.05)),
        m_bands=m,
        k_antennas=draw(st.integers(1, m + 10)),
        p_bar_p=draw(unit_or_end),
        power_mode=draw(st.sampled_from(PowerMode)),
    )
    sensing = SensingParams(p_fa=draw(unit_or_end), p_md=draw(unit_or_end))
    lambda_p = draw(unit_or_end) * primary_service_rate(channel, sensing)
    return channel, sensing, TrafficParams(lambda_p=lambda_p, lambda_s=0.0)


def _edge_point(m, p_fa=0.05, p_md=0.05, load=0.5, **channel):
    channel = make_channel(m_bands=m, **channel)
    sensing = SensingParams(p_fa, p_md)
    lambda_p = load * primary_service_rate(channel, sensing)
    return channel, sensing, TrafficParams(lambda_p=lambda_p, lambda_s=0.0)


KERNEL_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@KERNEL_PROPERTY
@given(kernel_points())
@example(_edge_point(2000, p_fa=0.0, p_md=1.0, load=0.0, power_mode=PowerMode.LIMITED))
@example(_edge_point(40, p_fa=1.0, p_md=0.0, load=1.0))
@example(_edge_point(30, tau_b_frac=0.5, k_antennas=8))  # sensing fills the slot from m = 17
@example(_edge_point(25, spectral_eff_r=1500.0, power_mode=PowerMode.LIMITED, k_antennas=30))
# 2**rate overflows at n = 1 and 2, but an SNR near the largest double leaves
# s(2) = 0.013, which reads the log-space branch's ln eta
@example(
    _edge_point(
        3, spectral_eff_r=2050.0, snr_s=1.7e308, tau_b_frac=0.0, power_mode=PowerMode.LIMITED
    )
)
def test_array_kernel_is_the_scalar_loop_bit_for_bit(point):
    channel, sensing, traffic = point
    m = channel.m_bands
    success = [scalar_success(channel, n) for n in range(1, m + 1)]
    assert su_success_table(channel) == (0.0, *success)
    assert su_success_prob(channel, m) == success[-1]
    assert secondary_service_rate(*point) == scalar_mu_s(*point)
    mu_p = primary_service_rate(channel, sensing)
    grid = [0.0, traffic.lambda_p, mu_p, min(1.0, 2.0 * mu_p + 0.01)]
    for p in stability_region(channel, sensing, grid):
        if not p.skipped:
            p_traffic = TrafficParams(lambda_p=p.lambda_p, lambda_s=0.0)
            assert p.lambda_s_max == scalar_mu_s(channel, sensing, p_traffic)
    if empty_probability(mu_p, traffic) > 0.0:
        ceiling = replace(channel, m_bands=min(m, 60))
        for m_sensed, rate in optimize_sensed_bands(ceiling, sensing, traffic).profile:
            assert rate == scalar_mu_s(replace(ceiling, m_bands=m_sensed), sensing, traffic)


def test_optimizer_memory_is_bounded_at_thousands_of_bands():
    sc = reference_scenario(m_bands=2000)  # 8 antennas
    tracemalloc.start()
    try:
        result = optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2000 x 2000 float64 matrix alone would take 32 MB
    assert peak < 6_000_000
    assert [m for m, _ in result.profile] == list(range(1, 2001))
    assert all(0.0 <= rate <= 1.0 for _, rate in result.profile)
    assert result.mu_s_opt == max(rate for _, rate in result.profile) > 0.0


@pytest.mark.parametrize("mode", list(PowerMode))
def test_sweeps_stay_finite_at_thousands_of_bands(mode):
    sc = reference_scenario(m_bands=5000, k_antennas=5000, power_mode=mode)
    mu_s = secondary_service_rate(sc.channel, sc.sensing, sc.traffic)
    assert 0.0 < mu_s <= 1.0
    mu_p = primary_service_rate(sc.channel, sc.sensing)
    points = stability_region(sc.channel, sc.sensing, [0.0, 0.5, mu_p, 1.0])
    assert [p.skipped for p in points] == [False, False, True, True]
    assert points[1].lambda_s_max == mu_s
    assert all(0.0 < p.lambda_s_max <= 1.0 for p in points[:2])

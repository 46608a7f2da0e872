import decimal
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from specagg import (
    Mode,
    PowerMode,
    SimConfig,
    pu_success_prob,
    sensing_fraction,
    su_success_table,
)

from conftest import error_free_scenario, make_channel, reference_scenario


def test_sensing_fraction_examples():
    assert sensing_fraction(make_channel(m_bands=8, k_antennas=8)) == 0.01
    assert sensing_fraction(make_channel(m_bands=40, k_antennas=8, tau_b_frac=0.05)) == 0.25
    assert sensing_fraction(make_channel(m_bands=13, k_antennas=8)) == 0.02


def test_sensing_fraction_monotone_in_antennas():
    fractions = [
        sensing_fraction(make_channel(m_bands=40, k_antennas=k, tau_b_frac=0.05))
        for k in range(1, 61)
    ]
    for a, b in zip(fractions, fractions[1:]):
        assert b <= a
    # one sensing pass suffices once every band has its own antenna
    assert all(f == fractions[39] for f in fractions[39:])


def test_pu_success_prob_direct_and_derived():
    assert pu_success_prob(make_channel(p_bar_p=0.9)) == 0.9
    derived = pu_success_prob(make_channel(p_bar_p=None, snr_p=4.0))
    assert derived == pytest.approx(0.4723665527410147, rel=1e-12)
    noiseless = pu_success_prob(make_channel(p_bar_p=None, snr_p=1e12))
    assert abs(noiseless - 1.0) < 1e-6


def test_channel_params_require_exactly_one_primary_rate_input():
    with pytest.raises(ValueError, match="snr_p / p_bar_p"):
        make_channel(snr_p=4.0)  # p_bar_p=0.9 already set
    with pytest.raises(ValueError, match="snr_p / p_bar_p"):
        make_channel(p_bar_p=None)


@pytest.mark.parametrize(
    "field,value",
    [
        ("snr_s", 0.0),
        ("snr_s", -1.0),
        ("spectral_eff_r", 0.0),
        ("tau_b_frac", -0.1),
        ("tau_b_frac", 1.5),
        ("m_bands", 0),
        ("k_antennas", 0),
        ("p_bar_p", 1.2),
        ("snr_s", math.nan),
        ("spectral_eff_r", math.nan),
        ("tau_b_frac", math.nan),
        ("m_bands", math.nan),
        ("k_antennas", math.nan),
        ("p_bar_p", math.nan),
    ],
)
def test_channel_params_validation(field, value):
    with pytest.raises(ValueError, match=field):
        make_channel(**{field: value})


@pytest.mark.parametrize("field", ["m_bands", "k_antennas"])
@pytest.mark.parametrize("value", [2.5, 13.0, True, np.float64(13.0)])
def test_band_and_antenna_counts_must_be_integers(field, value):
    with pytest.raises(ValueError) as info:
        make_channel(**{field: value})
    assert str(info.value) == f"{field}: must be an integer, got {value}"


@pytest.mark.parametrize("field", ["m_bands", "k_antennas"])
def test_numpy_integer_counts_are_kept_as_python_ints(field):
    channel = make_channel(**{field: np.int64(13)})
    assert getattr(channel, field) == 13 and type(getattr(channel, field)) is int
    assert channel == make_channel(**{field: 13})


REAL_FIELDS = ("snr_s", "spectral_eff_r", "tau_b_frac", "snr_p", "p_bar_p",
               "p_fa", "p_md", "lambda_p", "lambda_s")  # fmt: skip


def with_field(field, value):
    """The reference part that owns field (ChannelParams, SensingParams or
    TrafficParams), rebuilt with field set to value."""
    scenario = error_free_scenario() if field == "snr_p" else reference_scenario()
    for part in (scenario.channel, scenario.sensing, scenario.traffic):
        if field in {f.name for f in fields(part)}:
            return replace(part, **{field: value})
    raise AssertionError(field)


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in REAL_FIELDS
        for value in [True, np.True_, "2", None, [0.5], decimal.Decimal("0.5")]
        # None leaves snr_p or p_bar_p unset: exactly one of them must be set
        if not (value is None and field in ("snr_p", "p_bar_p"))
    ],
)
def test_every_real_field_refuses_a_non_number_by_name(field, value):
    with pytest.raises(ValueError) as info:
        with_field(field, value)
    assert str(info.value) == f"{field}: must be a real number, got {value!r}"


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), np.float64(0.5), 1])
def test_every_real_field_keeps_a_real_number_as_given(field, value):
    kept = getattr(with_field(field, value), field)
    assert kept == value and type(kept) is type(value)


@pytest.mark.parametrize("field", REAL_FIELDS)
def test_a_nan_real_field_gets_its_range_message(field):
    with pytest.raises(ValueError, match=rf"^{field}: must be (> 0|in \[0, 1\]), got nan$"):
        with_field(field, math.nan)


@pytest.mark.parametrize("mode", ["LIMITED", "PSD", None, 1])
def test_power_mode_must_be_a_power_mode(mode):
    with pytest.raises(ValueError) as info:
        make_channel(power_mode=mode)
    assert str(info.value) == f"power_mode: must be a PowerMode, got {mode!r}"


@pytest.mark.parametrize("snr_p", [0.0, -1.0, math.nan])
def test_snr_p_must_be_positive(snr_p):
    with pytest.raises(ValueError, match=r"^snr_p: must be > 0"):
        make_channel(p_bar_p=None, snr_p=snr_p)


def test_su_success_is_zero_when_sensing_eats_the_slot():
    ch = make_channel(m_bands=40, k_antennas=2, tau_b_frac=0.05)  # 20 passes * 0.05
    assert su_success_table(ch) == (0.0,) * 41


def test_su_success_values():
    ch = make_channel(m_bands=8, k_antennas=8)
    assert su_success_table(ch)[1] == pytest.approx(0.04705651763492641, rel=1e-12)
    flat = make_channel(m_bands=8, k_antennas=8, tau_b_frac=0.0)
    assert su_success_table(flat)[1] == pytest.approx(0.049787068367863944, rel=1e-12)


def test_su_success_nondecreasing_in_width_psd():
    for m, k, tau in [(13, 8, 0.01), (40, 8, 0.05), (30, 1, 0.0)]:
        ch = make_channel(m_bands=m, k_antennas=k, tau_b_frac=tau)
        values = su_success_table(ch)[1:]
        for a, b in zip(values, values[1:]):
            assert b >= a


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_su_success_nondecreasing_in_width_limited(c):
    # tau=0 and one antenna make the required aggregate rate exactly c/width
    ch = make_channel(
        m_bands=100,
        k_antennas=1,
        tau_b_frac=0.0,
        spectral_eff_r=c,
        power_mode=PowerMode.LIMITED,
    )
    values = su_success_table(ch)[1:]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-15


def test_limited_never_beats_psd_and_matches_at_width_one():
    for m, k, tau in [(13, 8, 0.01), (10, 2, 0.02), (6, 6, 0.0)]:
        psd = make_channel(m_bands=m, k_antennas=k, tau_b_frac=tau)
        lim = make_channel(
            m_bands=m, k_antennas=k, tau_b_frac=tau, power_mode=PowerMode.LIMITED
        )
        lim_table, psd_table = su_success_table(lim), su_success_table(psd)
        assert lim_table[1] == psd_table[1]
        for n in range(2, m + 1):
            assert lim_table[n] < psd_table[n]


def test_probabilities_stay_in_unit_interval():
    for snr_s in (0.01, 1.0, 100.0):
        for r in (0.1, 2.0, 20.0):
            for tau in (0.0, 0.01, 0.2, 1.0):
                ch = make_channel(
                    snr_s=snr_s, spectral_eff_r=r, tau_b_frac=tau, m_bands=5, k_antennas=2
                )
                assert 0.0 <= pu_success_prob(ch) <= 1.0
                assert all(0.0 <= s <= 1.0 for s in su_success_table(ch))


def exact_link_success(rate: float, snr: float, eta: int = 1) -> float:
    """exp(-eta (2**rate - 1) / snr) in 60-digit decimals, rounded to a float."""
    context = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        two_to_rate = decimal.Decimal(2) ** decimal.Decimal(rate)
        exponent = eta * (two_to_rate - 1) / decimal.Decimal(snr)
        return float((-exponent).exp())


@pytest.mark.parametrize("snr", [1.0, 4.0, 1e308])
# at r = 1024.5 and snr = 1e308 the exponent is 2.54 though 2**r overflows
@pytest.mark.parametrize("r", [1023.9, 1024.0, 1024.5, 1100.0, 1e6])
def test_success_is_exact_where_two_to_the_rate_overflows(r, snr):
    # no sensing time: the secondary's rate over one band is r itself
    channel = dict(spectral_eff_r=r, tau_b_frac=0.0, m_bands=4, k_antennas=4)
    psd = make_channel(snr_s=snr, p_bar_p=None, snr_p=snr, **channel)
    want = exact_link_success(r, snr)
    assert pu_success_prob(psd) == pytest.approx(want, rel=1e-12, abs=0)
    assert su_success_table(psd)[1] == pytest.approx(want, rel=1e-12, abs=0)
    limited = make_channel(snr_s=snr, power_mode=PowerMode.LIMITED, **channel)
    for eta in (1, 3):
        want = exact_link_success(r / eta, snr, eta)  # no sensing time
        assert su_success_table(limited)[eta] == pytest.approx(want, rel=1e-12, abs=0)


def test_success_where_two_to_the_rate_is_finite_is_the_plain_expression():
    for r, snr in [(1023.9, 1e308), (2.0, 1.0), (20.0, 100.0), (1000.0, 1e300)]:
        ch = make_channel(snr_s=snr, p_bar_p=None, snr_p=snr, spectral_eff_r=r, tau_b_frac=0.0)
        plain = math.exp(-(2.0**r - 1.0) / snr)
        assert pu_success_prob(ch) == plain and su_success_table(ch)[1] == plain


def test_extreme_rate_underflows_to_zero_without_overflow():
    ch = make_channel(m_bands=10, k_antennas=1, tau_b_frac=0.0999, spectral_eff_r=5.0)
    # available time 1 - 0.999 leaves a required rate of 5000 per band
    assert su_success_table(ch)[1] == 0.0


@pytest.mark.parametrize("mode", list(PowerMode))
@pytest.mark.parametrize("m", [1, 2, 13, 40])
def test_su_success_table_is_s_of_every_width(m, mode):
    scenario = reference_scenario(m_bands=m, power_mode=mode)
    table = su_success_table(scenario.channel)
    assert len(table) == m + 1
    assert table[0] == 0.0
    # s(n) = exp(-eta (2**(r / (n (1 - f))) - 1) / snr), eta = n in LIMITED mode, 1 in PSD
    ch, f = scenario.channel, sensing_fraction(scenario.channel)
    for n in range(1, m + 1):
        eta = n if mode is PowerMode.LIMITED else 1
        want = math.exp(-eta * (2.0 ** (ch.spectral_eff_r / (n * (1.0 - f))) - 1.0) / ch.snr_s)
        assert table[n] == pytest.approx(want, rel=1e-12, abs=0)
    cfg = SimConfig(scenario=scenario, mode=Mode.ORIGINAL, slots=1, seed=0)
    assert cfg._success_table == table

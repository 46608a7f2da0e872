import json
import math

import pytest

from specagg import (
    ConfigError,
    PowerMode,
    ScenarioConfig,
    SweepSpec,
    apply_axis,
    load_config,
    sensing_fraction,
)

REFERENCE = {
    "m_bands": 13,
    "k_antennas": 8,
    "tau_b_frac": 0.01,
    "spectral_eff_r": 2.0,
    "snr_s": 1.0,
    "p_bar_p": 0.9,
    "p_fa": 0.05,
    "p_md": 0.05,
    "lambda_p": 0.5,
    "lambda_s": 0.3,
}


def write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_reference_scenario_parses(tmp_path):
    cfg = load_config(write(tmp_path, REFERENCE))
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.channel.m_bands == 13
    assert sensing_fraction(cfg.channel) == 0.02
    assert cfg.channel.power_mode is PowerMode.PSD  # default
    assert cfg.label is None
    assert cfg.traffic.lambda_s == 0.3


def test_label_and_power_mode(tmp_path):
    cfg = load_config(
        write(tmp_path, {**REFERENCE, "label": "ref", "power_mode": "limited"})
    )
    assert cfg.label == "ref"
    assert cfg.channel.power_mode is PowerMode.LIMITED


def test_snr_p_variant(tmp_path):
    payload = dict(REFERENCE)
    del payload["p_bar_p"]
    payload["snr_p"] = 4.0
    cfg = load_config(write(tmp_path, payload))
    assert cfg.channel.snr_p == 4.0
    assert cfg.channel.p_bar_p is None


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ({"p_fa": 1.5}, "p_fa"),
        ({"lambda_p": -0.1}, "lambda_p"),
        ({"m_bands": 0}, "m_bands"),
        ({"m_bands": 2.5}, "m_bands"),
        ({"m_bands": "13"}, "m_bands"),
        ({"snr_s": 0}, "snr_s"),
        ({"tau_b_frac": True}, "tau_b_frac"),
        ({"power_mode": "BOTH"}, "power_mode"),
        ({"label": 7}, "label"),
        ({"snr_p": 4.0}, "snr_p / p_bar_p"),  # both present
        ({"extra_key": 1}, "extra_key"),
        ({"m_bands": math.nan}, "m_bands"),
        ({"m_bands": math.inf}, "m_bands"),
        ({"k_antennas": 10**400}, "k_antennas"),
        ({"snr_s": math.nan}, "snr_s"),
        ({"snr_s": math.inf}, "snr_s"),
        ({"spectral_eff_r": math.nan}, "spectral_eff_r"),
        ({"tau_b_frac": 10**400}, "tau_b_frac"),
        ({"p_bar_p": math.nan}, "p_bar_p"),
        ({"lambda_p": -math.inf}, "lambda_p"),
    ],
)
def test_scenario_violations_name_the_key(tmp_path, mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write(tmp_path, {**REFERENCE, **mutation}))


@pytest.mark.parametrize(
    "snr_p", [0.0, math.nan, math.inf, pytest.param(10**400, id="10**400")]
)
def test_snr_p_must_be_a_finite_positive_number(tmp_path, snr_p):
    payload = {k: v for k, v in REFERENCE.items() if k != "p_bar_p"}
    with pytest.raises(ConfigError, match="snr_p"):
        load_config(write(tmp_path, {**payload, "snr_p": snr_p}))


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"p_fa": 1.5}, "p_fa: must be in [0, 1], got 1.5"),
        ({"lambda_s": 2}, "lambda_s: must be in [0, 1], got 2.0"),
        ({"tau_b_frac": -0.5}, "tau_b_frac: must be in [0, 1], got -0.5"),
        ({"m_bands": 0}, "m_bands: must be >= 1, got 0"),
        ({"k_antennas": -2.0}, "k_antennas: must be >= 1, got -2"),
        ({"spectral_eff_r": 0}, "spectral_eff_r: must be > 0, got 0.0"),
        ({"snr_s": math.nan}, "snr_s: expected a finite number, got nan"),
        ({"m_bands": 2.5}, "m_bands: expected an integer, got 2.5"),
    ],
)
def test_violation_messages_read_key_colon_constraint(tmp_path, mutation, message):
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, {**REFERENCE, **mutation}))
    assert str(info.value) == message


def test_integer_literal_past_the_digit_limit_is_a_config_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(REFERENCE)[:-1] + ', "m_bands": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_missing_keys_are_reported(tmp_path):
    payload = dict(REFERENCE)
    del payload["snr_s"]
    with pytest.raises(ConfigError, match="snr_s"):
        load_config(write(tmp_path, payload))
    payload = dict(REFERENCE)
    del payload["p_bar_p"]
    with pytest.raises(ConfigError, match="snr_p / p_bar_p"):
        load_config(write(tmp_path, payload))


def test_sweep_parses(tmp_path):
    payload = {
        **REFERENCE,
        "axis": "lambda_p",
        "values": [0.0, 0.2, 0.4],
        "with_simulation": True,
        "sim_slots": 5000,
        "sim_seed": 9,
    }
    spec = load_config(write(tmp_path, payload))
    assert isinstance(spec, SweepSpec)
    assert spec.axis == "lambda_p"
    assert spec.values == [0.0, 0.2, 0.4]
    assert spec.with_simulation and spec.sim_slots == 5000 and spec.sim_seed == 9


def test_sweep_without_simulation(tmp_path):
    spec = load_config(write(tmp_path, {**REFERENCE, "axis": "p_fa", "values": [0.0, 0.1]}))
    assert not spec.with_simulation
    assert spec.sim_slots is None


def test_integer_axis_values_are_stored_as_int(tmp_path):
    spec = load_config(
        write(tmp_path, {**REFERENCE, "axis": "k_antennas", "values": [1, 4.0]})
    )
    assert spec.values == [1, 4]
    assert all(type(v) is int for v in spec.values)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ({"axis": "bandwidth", "values": [1]}, "axis"),
        ({"axis": "lambda_p", "values": []}, "values"),
        ({"axis": "lambda_p", "values": [0.1, "x"]}, "values"),
        ({"axis": "m_bands", "values": [2.5]}, "values"),
        ({"axis": "lambda_p", "values": [0.1], "with_simulation": 1}, "with_simulation"),
        ({"axis": "lambda_p", "values": [0.1], "with_simulation": True}, "sim_slots"),
        ({"axis": "lambda_p", "values": [0.1], "sim_slots": 10}, "sim_slots"),
        ({"axis": "m_bands", "values": [math.nan]}, r"values\[0\]"),
        ({"axis": "k_antennas", "values": [2, math.inf]}, r"values\[1\]"),
        ({"axis": "m_bands", "values": [10**400]}, r"values\[0\]"),
        ({"axis": "lambda_p", "values": [math.nan]}, r"values\[0\]"),
        ({"axis": "lambda_p", "values": [0.1, 1.5]}, r"values\[1\]: lambda_p"),
        ({"axis": "m_bands", "values": [0]}, r"values\[0\]: m_bands"),
        (
            {"axis": "p_fa", "values": [0.1], "with_simulation": True,
             "sim_slots": math.inf, "sim_seed": 1},
            "sim_slots",
        ),
        (
            {"axis": "p_fa", "values": [0.1], "with_simulation": True,
             "sim_slots": 10, "sim_seed": 10**400},
            "sim_seed",
        ),
    ],
)
def test_sweep_violations(tmp_path, mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write(tmp_path, {**REFERENCE, **mutation}))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_apply_axis_touches_the_right_component(tmp_path):
    base = load_config(write(tmp_path, REFERENCE))
    assert apply_axis(base, "m_bands", 20).channel.m_bands == 20
    assert apply_axis(base, "k_antennas", 4.0).channel.k_antennas == 4
    assert apply_axis(base, "tau_b_frac", 0.05).channel.tau_b_frac == 0.05
    assert apply_axis(base, "spectral_eff_r", 1.0).channel.spectral_eff_r == 1.0
    assert apply_axis(base, "p_fa", 0.2).sensing.p_fa == 0.2
    assert apply_axis(base, "p_md", 0.2).sensing.p_md == 0.2
    assert apply_axis(base, "lambda_p", 0.1).traffic.lambda_p == 0.1
    assert apply_axis(base, "lambda_s", 0.1).traffic.lambda_s == 0.1
    # the base is untouched
    assert base.channel.m_bands == 13
    with pytest.raises(ConfigError, match="axis"):
        apply_axis(base, "snr_s", 2.0)


@pytest.mark.parametrize(
    "axis, value, needle",
    [
        ("m_bands", 2.5, "m_bands: expected an integer, got 2.5"),
        ("k_antennas", 1e-9 + 2, "k_antennas: expected an integer"),
        ("m_bands", math.nan, "m_bands: expected a finite number, got nan"),
        ("k_antennas", math.inf, "k_antennas: expected a finite number, got inf"),
        ("m_bands", True, "m_bands: expected a number, got True"),
    ],
)
def test_apply_axis_rejects_a_non_integral_count(tmp_path, axis, value, needle):
    base = load_config(write(tmp_path, REFERENCE))
    with pytest.raises(ConfigError) as info:
        apply_axis(base, axis, value)
    assert needle in str(info.value)

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specagg import (
    ChannelParams,
    ConfigError,
    PowerMode,
    ScenarioConfig,
    SensingParams,
    SweepSpec,
    TrafficParams,
    apply_axis,
    load_config,
    sensing_fraction,
)
from specagg.config import _INTEGER_KEYS, SWEEP_AXES, scenario_from_mapping

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


def test_sweep_axes_and_integer_keys_are_fields_of_exactly_one_class():
    """The schema is derived from the classes, so a renamed field fails here
    and not in a user's sweep."""
    classes = (ChannelParams, SensingParams, TrafficParams)
    for key in (*SWEEP_AXES, *_INTEGER_KEYS):
        owners = [cls for cls in classes if key in {field.name for field in fields(cls)}]
        assert len(owners) == 1, (key, owners)


def swept(scenario, axis):
    """The value of axis as the scenario stores it."""
    parts = (scenario.channel, scenario.sensing, scenario.traffic)
    return next(getattr(part, axis) for part in parts if hasattr(part, axis))


@pytest.mark.parametrize("axis", ["m_bands", "k_antennas"])
def test_apply_axis_takes_a_numpy_integer_count(axis):
    scenario = apply_axis(scenario_from_mapping(REFERENCE), axis, np.int64(5))
    assert swept(scenario, axis) == 5 and type(swept(scenario, axis)) is int


@pytest.mark.parametrize(
    "axis, value, message",
    [
        ("lambda_p", True, "lambda_p: expected a number, got True"),
        ("p_fa", "0.1", "p_fa: expected a number, got '0.1'"),
        ("p_md", None, "p_md: expected a number, got None"),
        ("tau_b_frac", math.nan, "tau_b_frac: expected a finite number, got nan"),
    ],
)
def test_apply_axis_parses_a_real_axis_as_the_loader_does(axis, value, message):
    with pytest.raises(ConfigError) as info:
        apply_axis(scenario_from_mapping(REFERENCE), axis, value)
    assert str(info.value) == message


@pytest.mark.parametrize("axis", [a for a in SWEEP_AXES if a not in _INTEGER_KEYS])
@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.25), np.float64(0.25)])
def test_apply_axis_stores_a_real_axis_as_a_float(axis, value):
    scenario = apply_axis(scenario_from_mapping(REFERENCE), axis, value)
    assert swept(scenario, axis) == float(value) and type(swept(scenario, axis)) is float


REAL_KEYS = ("snr_s", "spectral_eff_r", "tau_b_frac", "snr_p", "p_bar_p",
             "p_fa", "p_md", "lambda_p", "lambda_s")  # fmt: skip


@pytest.mark.parametrize("key", REAL_KEYS)
@pytest.mark.parametrize("number", [np.int64(1), np.float32(0.25), np.float64(0.25)])
def test_the_loader_takes_numpy_scalars_for_every_real_key(key, number):
    raw = dict(REFERENCE)
    if key == "snr_p":
        del raw["p_bar_p"]
    loaded = scenario_from_mapping(raw | {key: number})
    assert repr(loaded) == repr(scenario_from_mapping(raw | {key: float(number)}))


COUNT = st.integers(1, 64).flatmap(lambda n: st.sampled_from([n, float(n)]))
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
POSITIVE = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000))
AXIS_VALUES = {"m_bands": COUNT, "k_antennas": COUNT, "spectral_eff_r": POSITIVE}
MIXED_CASE = st.sampled_from(["PSD", "LIMITED"]).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map(
        "".join
    )
)
ROUND_TRIP = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def scenario_files(draw):
    """A valid scenario mapping and the ScenarioConfig built from it directly."""
    raw = {key: draw(UNIT) for key in ("tau_b_frac", "p_fa", "p_md", "lambda_p", "lambda_s")}
    raw |= {key: draw(COUNT) for key in ("m_bands", "k_antennas")}
    raw |= {key: draw(POSITIVE) for key in ("snr_s", "spectral_eff_r")}
    primary = draw(st.sampled_from(["snr_p", "p_bar_p"]))
    raw[primary] = draw(POSITIVE if primary == "snr_p" else UNIT)
    if draw(st.booleans()):
        raw["power_mode"] = draw(MIXED_CASE)
    if draw(st.booleans()):
        raw["label"] = draw(st.text(max_size=8))
    number = {key: float(value) for key, value in raw.items() if key in REAL_KEYS}
    expected = ScenarioConfig(
        channel=ChannelParams(
            snr_s=number["snr_s"],
            spectral_eff_r=number["spectral_eff_r"],
            tau_b_frac=number["tau_b_frac"],
            m_bands=int(raw["m_bands"]),
            k_antennas=int(raw["k_antennas"]),
            power_mode=PowerMode[raw.get("power_mode", "PSD").upper()],
            **{primary: number[primary]},
        ),
        sensing=SensingParams(p_fa=number["p_fa"], p_md=number["p_md"]),
        traffic=TrafficParams(lambda_p=number["lambda_p"], lambda_s=number["lambda_s"]),
        label=raw.get("label"),
    )
    return raw, expected


@ROUND_TRIP
@given(case=scenario_files())
def test_a_valid_scenario_file_loads_as_the_classes_built_directly(tmp_path, case):
    raw, expected = case
    assert repr(load_config(write(tmp_path, raw))) == repr(expected)


@pytest.mark.parametrize("axis", SWEEP_AXES)
@settings(ROUND_TRIP, max_examples=10)
@given(data=st.data())
def test_sweep_values_are_stored_as_apply_axis_stores_them(tmp_path, axis, data):
    values = data.draw(st.lists(AXIS_VALUES.get(axis, UNIT), min_size=1, max_size=4))
    spec = load_config(write(tmp_path, {**REFERENCE, "axis": axis, "values": values}))
    stored = [swept(apply_axis(spec.base, axis, value), axis) for value in values]
    assert [(type(v), v) for v in spec.values] == [(type(v), v) for v in stored]

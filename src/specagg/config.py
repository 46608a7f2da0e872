"""Scenario and sweep configuration: containers plus JSON loading.

Only keys and types are checked here.  The parameter classes check every
value range; load_config reports their ValueError as a ConfigError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .analysis import TrafficParams
from .channel import ChannelParams, PowerMode
from .sensing import SensingParams

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "SWEEP_AXES",
    "load_config",
    "apply_axis",
]

SCENARIO_KEYS = {
    "m_bands",
    "k_antennas",
    "tau_b_frac",
    "spectral_eff_r",
    "snr_s",
    "snr_p",
    "p_bar_p",
    "p_fa",
    "p_md",
    "lambda_p",
    "lambda_s",
    "power_mode",
    "label",
}
SWEEP_ONLY_KEYS = {"axis", "values", "with_simulation", "sim_slots", "sim_seed"}

SWEEP_AXES = (
    "m_bands",
    "k_antennas",
    "lambda_p",
    "lambda_s",
    "spectral_eff_r",
    "tau_b_frac",
    "p_fa",
    "p_md",
)
_INT_AXES = {"m_bands", "k_antennas"}


class ConfigError(Exception):
    """A configuration file or mapping violates the documented schema."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete operating point: channel, sensing, and traffic parameters."""

    channel: ChannelParams
    sensing: SensingParams
    traffic: TrafficParams
    label: str | None = None


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep over a base scenario."""

    base: ScenarioConfig
    axis: str
    values: list[int] | list[float]
    with_simulation: bool = False
    sim_slots: int | None = None
    sim_seed: int | None = None


def _number(key: str, value) -> float:
    """A JSON number as a finite float (json also reads NaN, Infinity and huge ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _integer(key: str, value, expected: str = "expected an integer") -> int:
    if not _number(key, value).is_integer():
        raise ConfigError(f"{key}: {expected}, got {value!r}")
    return int(value)


def _require(raw: dict, key: str, parse=_number):
    if key not in raw:
        raise ConfigError(f"{key}: missing required key")
    return parse(key, raw[key])


def scenario_from_mapping(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat key/value mapping."""
    unknown = set(raw) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")

    if ("snr_p" in raw) == ("p_bar_p" in raw):
        raise ConfigError("exactly one of snr_p / p_bar_p must be present")
    snr_p = _require(raw, "snr_p") if "snr_p" in raw else None
    p_bar_p = _require(raw, "p_bar_p") if "p_bar_p" in raw else None

    mode_raw = raw.get("power_mode", "PSD")
    if not isinstance(mode_raw, str) or mode_raw.upper() not in ("PSD", "LIMITED"):
        raise ConfigError(f"power_mode: expected 'PSD' or 'LIMITED', got {mode_raw!r}")

    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"label: expected a string, got {label!r}")

    channel = ChannelParams(
        snr_s=_require(raw, "snr_s"),
        spectral_eff_r=_require(raw, "spectral_eff_r"),
        tau_b_frac=_require(raw, "tau_b_frac"),
        m_bands=_require(raw, "m_bands", _integer),
        k_antennas=_require(raw, "k_antennas", _integer),
        snr_p=snr_p,
        p_bar_p=p_bar_p,
        power_mode=PowerMode[mode_raw.upper()],
    )
    sensing = SensingParams(p_fa=_require(raw, "p_fa"), p_md=_require(raw, "p_md"))
    traffic = TrafficParams(
        lambda_p=_require(raw, "lambda_p"), lambda_s=_require(raw, "lambda_s")
    )
    return ScenarioConfig(channel=channel, sensing=sensing, traffic=traffic, label=label)


def sweep_from_mapping(raw: dict) -> SweepSpec:
    """Build a SweepSpec from a flat key/value mapping.

    Values on an integer axis are stored as int.  Each value is applied to
    the base scenario once here, so one out of range fails at load.
    """
    unknown = set(raw) - SCENARIO_KEYS - SWEEP_ONLY_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")

    axis = raw.get("axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: expected one of {SWEEP_AXES}, got {axis!r}")
    values_raw = raw.get("values")
    if not isinstance(values_raw, list) or not values_raw:
        raise ConfigError("values: expected a non-empty list of numbers")
    if axis in _INT_AXES:
        values = [
            _integer(f"values[{i}]", v, f"axis {axis} needs integers")
            for i, v in enumerate(values_raw)
        ]
    else:
        values = [_number(f"values[{i}]", v) for i, v in enumerate(values_raw)]

    with_simulation = raw.get("with_simulation", False)
    if not isinstance(with_simulation, bool):
        raise ConfigError(
            f"with_simulation: expected a boolean, got {with_simulation!r}"
        )
    sim_slots = sim_seed = None
    if with_simulation:
        sim_slots = _require(raw, "sim_slots", _integer)
        if sim_slots < 1:
            raise ConfigError(f"sim_slots: must be >= 1, got {sim_slots}")
        sim_seed = _require(raw, "sim_seed", _integer)
        if sim_seed < 0:
            raise ConfigError(f"sim_seed: must be >= 0, got {sim_seed}")
    elif "sim_slots" in raw or "sim_seed" in raw:
        raise ConfigError("sim_slots/sim_seed only apply with with_simulation=true")

    base = scenario_from_mapping(
        {k: v for k, v in raw.items() if k in SCENARIO_KEYS}
    )
    for i, value in enumerate(values):
        try:
            apply_axis(base, axis, value)
        except ValueError as exc:
            raise ConfigError(f"values[{i}]: {exc}") from exc
    return SweepSpec(
        base=base,
        axis=axis,
        values=values,
        with_simulation=with_simulation,
        sim_slots=sim_slots,
        sim_seed=sim_seed,
    )


def load_config(path: str | Path) -> ScenarioConfig | SweepSpec:
    """Load a scenario or sweep description from a JSON file.

    A file containing an "axis" or "values" key is a sweep, anything else
    a single scenario.  Violations raise ConfigError naming the offending
    key and constraint.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal past int's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object at top level")
    try:
        if "axis" in raw or "values" in raw:
            return sweep_from_mapping(raw)
        return scenario_from_mapping(raw)
    except ValueError as exc:  # a range check of a parameter class
        raise ConfigError(str(exc)) from exc


def apply_axis(scenario: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """Return a copy of the scenario with one swept field replaced."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: expected one of {SWEEP_AXES}, got {axis!r}")
    if axis in _INT_AXES:
        value = _integer(axis, value)
    if axis in ("p_fa", "p_md"):
        return replace(scenario, sensing=replace(scenario.sensing, **{axis: value}))
    if axis in ("lambda_p", "lambda_s"):
        return replace(scenario, traffic=replace(scenario.traffic, **{axis: value}))
    return replace(scenario, channel=replace(scenario.channel, **{axis: value}))

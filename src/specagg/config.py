"""Scenario and sweep configuration: containers plus JSON loading.

The scenario keys are the fields of the parameter classes, plus label.
Only keys and types are checked here.  The parameter classes, and SimConfig
for a sweep's sim_slots and sim_seed, check every value range; load_config
reports their ValueError as a ConfigError.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .analysis import TrafficParams
from .channel import ChannelParams, PowerMode
from .sensing import SensingParams
from .simulate import Mode, SimConfig

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "SWEEP_AXES",
    "load_config",
    "apply_axis",
]

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
_INTEGER_KEYS = {"m_bands", "k_antennas"}

_PARTS = {"channel": ChannelParams, "sensing": SensingParams, "traffic": TrafficParams}
# each scenario key, in field order, and the part of ScenarioConfig that owns it
_OWNER = {field.name: part for part, cls in _PARTS.items() for field in fields(cls)}
_REQUIRED = {
    field.name for cls in _PARTS.values() for field in fields(cls) if field.default is MISSING
}
SCENARIO_KEYS = {*_OWNER, "label"}


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
    """A real number as a finite float (json also reads NaN, Infinity and huge ints)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _integer(key: str, value) -> int:
    if not _number(key, value).is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _require(raw: dict, key: str, parse):
    if key not in raw:
        raise ConfigError(f"{key}: missing required key")
    return parse(key, raw[key])


def _parse(key: str, value):
    """A scenario value as its class takes it: a PowerMode, an int or a finite float."""
    if key == "power_mode":
        if not isinstance(value, str) or value.upper() not in PowerMode.__members__:
            raise ConfigError(f"power_mode: expected 'PSD' or 'LIMITED', got {value!r}")
        return PowerMode[value.upper()]
    if key in _INTEGER_KEYS:
        return _integer(key, value)
    return _number(key, value)


def scenario_from_mapping(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat key/value mapping."""
    unknown = set(raw) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"label: expected a string, got {label!r}")
    kwargs = {part: {} for part in _PARTS}
    for key, part in _OWNER.items():
        if key in raw or key in _REQUIRED:
            kwargs[part][key] = _require(raw, key, _parse)
    return ScenarioConfig(
        **{part: cls(**kwargs[part]) for part, cls in _PARTS.items()}, label=label
    )


def sweep_from_mapping(raw: dict) -> SweepSpec:
    """Build a SweepSpec from a flat key/value mapping.

    Each value is applied to the base scenario once here, so one out of
    range fails at load, and stored as apply_axis stores it.
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

    with_simulation = raw.get("with_simulation", False)
    if not isinstance(with_simulation, bool):
        raise ConfigError(
            f"with_simulation: expected a boolean, got {with_simulation!r}"
        )
    base = scenario_from_mapping({k: v for k, v in raw.items() if k not in SWEEP_ONLY_KEYS})
    sim_slots = sim_seed = None
    if with_simulation:
        sim_slots = _require(raw, "sim_slots", _integer)
        sim_seed = _require(raw, "sim_seed", _integer)
        try:
            SimConfig(scenario=base, mode=Mode.DOMINANT, slots=sim_slots, seed=sim_seed)
        except ValueError as exc:  # its message starts with slots or seed
            raise ConfigError(f"sim_{exc}") from exc
    elif "sim_slots" in raw or "sim_seed" in raw:
        raise ConfigError("sim_slots/sim_seed only apply with with_simulation=true")

    values = []
    for i, value in enumerate(values_raw):
        try:
            scenario = apply_axis(base, axis, value)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"values[{i}]: {exc}") from exc
        values.append(getattr(getattr(scenario, _OWNER[axis]), axis))
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
    """Return a copy of the scenario with one swept field replaced.

    The value is parsed as the loader parses it, so an integer axis stores
    an int and any other axis a float.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: expected one of {SWEEP_AXES}, got {axis!r}")
    part = _OWNER[axis]
    swept = replace(getattr(scenario, part), **{axis: _parse(axis, value)})
    return replace(scenario, **{part: swept})

"""Cognitive MAC toolkit for a secondary user that aggregates idle primary bands.

Closed-form throughput and stability analysis, an exhaustive-enumeration
cross-check, a slotted Monte Carlo simulator of the interacting-queue
system, a sensed-band-count optimizer, and a sweep/comparison CLI.
"""

# simulate comes first, so that its module is compiled before numpy is
# loaded; the other way round the compiler's peak sits on top of numpy's
# memory and raises the process's peak RSS by about 2 MB where bytecode is
# not cached (PYTHONDONTWRITEBYTECODE)
from .simulate import (  # isort: skip
    Mode,
    ProtocolStreams,
    QueueState,
    SimConfig,
    SimReport,
    SlotOutcome,
    Verdict,
    run,
    step,
)
from .analysis import (
    AnalyticalResult,
    BoundaryPoint,
    TrafficParams,
    UnstablePrimaryError,
    analyze,
    empty_probability,
    primary_service_rate,
    secondary_service_rate,
    secondary_service_rate_oracle,
    single_band_service_rate,
    stability_region,
)
from .channel import (
    ChannelParams,
    PowerMode,
    pu_success_prob,
    sensing_fraction,
    su_success_prob,
    su_success_table,
)
from .config import ConfigError, ScenarioConfig, SweepSpec, apply_axis, load_config
from .optimize import OptimizeResult, optimize_sensed_bands
from .sensing import SensingParams

__version__ = "0.1.0"

__all__ = [
    "AnalyticalResult",
    "BoundaryPoint",
    "ChannelParams",
    "ConfigError",
    "Mode",
    "OptimizeResult",
    "PowerMode",
    "ProtocolStreams",
    "QueueState",
    "ScenarioConfig",
    "SensingParams",
    "SimConfig",
    "SimReport",
    "SlotOutcome",
    "SweepSpec",
    "TrafficParams",
    "UnstablePrimaryError",
    "Verdict",
    "analyze",
    "apply_axis",
    "empty_probability",
    "load_config",
    "optimize_sensed_bands",
    "primary_service_rate",
    "pu_success_prob",
    "run",
    "secondary_service_rate",
    "secondary_service_rate_oracle",
    "sensing_fraction",
    "single_band_service_rate",
    "stability_region",
    "step",
    "su_success_prob",
    "su_success_table",
    "__version__",
]

"""The benchmark's four workloads: inputs built from a seed, one timed job, checks.

Every workload is a closed loop with a single caller: the next job starts
only after the previous one has returned.  The program sees only inputs
generated here: scenario objects, or config files written to a temp dir.
Calls into specagg go through module attributes (``analysis.x``,
``simulate.run``, ``cli.main``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from specagg import analysis, cli, optimize, simulate
from specagg.analysis import TrafficParams
from specagg.channel import ChannelParams, PowerMode
from specagg.config import ScenarioConfig
from specagg.sensing import SensingParams

DEFAULT_SEED = 1

# The values of configs/reference.json and configs/arrival_sweep.json when the
# benchmark was defined.  They are copied here so that an edit to configs/
# cannot silently change what the benchmark measures.
REFERENCE = {
    "label": "reference-operating-point",
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
LAMBDA_P_GRID = [round(0.05 * i, 2) for i in range(18)]  # 0.0 .. 0.85
ARRIVAL_SWEEP = dict(
    REFERENCE,
    label="boundary-vs-primary-load",
    p_md=0.01,
    axis="lambda_p",
    values=LAMBDA_P_GRID,
    with_simulation=True,
    sim_slots=200000,
    sim_seed=1,
)
WIDE_BANDS = 40  # the band count of configs/antenna_sweep.json

NARROW_SLOTS = 150_000  # per mode
WIDE_SLOTS = 40_000
SWEEP_SLOTS = 20_000  # per row
OPTIMIZE_CEILING = 100
CLOSED_FORM_BANDS = 200
PROBE_BANDS, PROBE_ANTENNAS = 1100, 550
ORACLE_MAX_BANDS = 8
WARMUP_SLOTS = 1000

# Integer SimReport fields at DEFAULT_SEED, recorded at the commit that
# defined the benchmark.  A speed-up may not change any realization.
GOLDEN = {
    "sim-narrow": {
        "DOMINANT": dict(slots=150000, warmup=15000, seed=1, collisions=43446,
                         arrivals_s=45149, departures_s=45149, final_queue_s=0),
        "ORIGINAL": dict(slots=150000, warmup=15000, seed=1, collisions=27294,
                         arrivals_s=45149, departures_s=45149, final_queue_s=0),
    },
    "sim-wide-traced": {
        "DOMINANT": dict(slots=40000, warmup=4000, seed=1, collisions=25065,
                         arrivals_s=12020, departures_s=10933, final_queue_s=1087),
    },
}  # fmt: skip


class Checks:
    """Operations attempted, operations failed, and what each miss was.

    An exact check is an identity or a required output; a miss means the
    program is wrong.  A soft check is statistical (3 batch-means standard
    errors) or a known domain-edge probe: a miss is counted as a failed
    operation but does not by itself mark the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.exact_ok = True
        self.misses: dict[str, int] = {}

    def operation(self, name: str, exact=(), soft=()) -> None:
        """Record one operation given (ok, description) pairs for its checks."""
        self.attempted += 1
        missed = False
        for ok, what in exact:
            if not ok:
                missed = True
                self.exact_ok = False
                self._miss(f"{name}: {what}")
        for ok, what in soft:
            if not ok:
                missed = True
                self._miss(f"{name}: {what} [soft]")
        self.failed += missed

    def _miss(self, key: str) -> None:
        self.misses[key] = self.misses.get(key, 0) + 1


def _finite_rate(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


def _scenario(mapping: dict, **channel_overrides) -> ScenarioConfig:
    channel = dict(
        snr_s=mapping["snr_s"],
        spectral_eff_r=mapping["spectral_eff_r"],
        tau_b_frac=mapping["tau_b_frac"],
        m_bands=mapping["m_bands"],
        k_antennas=mapping["k_antennas"],
        p_bar_p=mapping["p_bar_p"],
    )
    channel.update(channel_overrides)
    return ScenarioConfig(
        channel=ChannelParams(**channel),
        sensing=SensingParams(p_fa=mapping["p_fa"], p_md=mapping["p_md"]),
        traffic=TrafficParams(lambda_p=mapping["lambda_p"], lambda_s=mapping["lambda_s"]),
        label=mapping["label"],
    )


def _report_checks(report: dict, mu_s: float | None, golden: dict | None):
    """Exact and soft checks on one SimReport given as a dict."""
    floats = [v for v in report.values() if isinstance(v, float)]
    exact = [
        (
            report["arrivals_s"] - report["departures_s"] == report["final_queue_s"],
            "arrivals_s - departures_s == final_queue_s",
        ),
        (all(math.isfinite(v) for v in floats), "every float field is finite"),
    ]
    if golden:
        exact.append(
            (
                all(report[k] == v for k, v in golden.items()),
                "integer fields equal the values recorded at the seed commit",
            )
        )
    soft = []
    if mu_s is not None:
        soft.append(
            (
                abs(report["empirical_mu_s"] - mu_s) <= 3 * report["std_err_mu_s"],
                "empirical mu_s within 3 batch-means s.e. of the closed form",
            )
        )
    return exact, soft


def _call(fn, *args):
    """Call into the program; an exception becomes the result, to be checked."""
    try:
        return fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        return exc


class Workload:
    """One workload: set up from a seed, then run the same job repeatedly."""

    name = ""
    slots_per_job = 0  # simulated slots per job; 0 when nothing is simulated

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Build inputs and finish lazy set-up; timed as setup_s."""

    def prepare_checks(self) -> None:
        """Compute reference values for the checks; not timed."""

    def job(self):
        """The fixed job; timed as wall_s.  Returns what check() inspects."""
        raise NotImplementedError

    def check(self, out, checks: Checks) -> None:
        raise NotImplementedError

    def cli_rows(self, out) -> int:
        """Rows the CLI emitted during one job."""
        return 0

    def golden(self, mode: str) -> dict | None:
        if self.seed != DEFAULT_SEED:
            return None
        return GOLDEN.get(self.name, {}).get(mode) or None


class SimNarrow(Workload):
    """Reference scenario, one long DOMINANT and one long ORIGINAL run()."""

    name = "sim-narrow"
    slots_per_job = 2 * NARROW_SLOTS

    def setup(self) -> None:
        scenario = _scenario(REFERENCE)
        self.configs = [
            simulate.SimConfig(scenario=scenario, mode=mode, slots=NARROW_SLOTS, seed=self.seed)
            for mode in (simulate.Mode.DOMINANT, simulate.Mode.ORIGINAL)
        ]
        for mode in (simulate.Mode.DOMINANT, simulate.Mode.ORIGINAL):
            simulate.run(
                simulate.SimConfig(scenario=scenario, mode=mode, slots=WARMUP_SLOTS, seed=self.seed)
            )

    def prepare_checks(self) -> None:
        s = self.configs[0].scenario
        self.mu_s = analysis.secondary_service_rate(s.channel, s.sensing, s.traffic)

    def job(self):
        return [simulate.run(cfg).to_dict() for cfg in self.configs]

    def check(self, out, checks: Checks) -> None:
        dominant, original = out
        exact, soft = _report_checks(dominant, self.mu_s, self.golden("DOMINANT"))
        checks.operation("run DOMINANT", exact, soft)
        exact, _ = _report_checks(original, None, self.golden("ORIGINAL"))
        exact.append(
            (
                original["arrivals_s"] == dominant["arrivals_s"],
                "arrivals_s equal across the coupled modes",
            )
        )
        checks.operation("run ORIGINAL", exact)


class SimWideTraced(Workload):
    """CLI simulate at m_bands=40 in DOMINANT mode with a per-slot trace file."""

    name = "sim-wide-traced"
    slots_per_job = WIDE_SLOTS

    def _argv(self, slots: int, out: Path, trace: Path) -> list[str]:
        return [
            "simulate", "--config", str(self.config), "--mode", "dominant",
            "--slots", str(slots), "--seed", str(self.seed), "--format", "json",
            "--out", str(out), "--trace", str(trace),
        ]  # fmt: skip

    def setup(self) -> None:
        self.config = self.tmp / "wide.json"
        self.config.write_text(json.dumps(dict(REFERENCE, m_bands=WIDE_BANDS)))
        self.out = self.tmp / "wide-out.json"
        self.trace = self.tmp / "wide-trace.ndjson"
        cli.main(self._argv(WARMUP_SLOTS, self.out, self.trace))
        self.trace.unlink(missing_ok=True)
        self.argv = self._argv(WIDE_SLOTS, self.out, self.trace)

    def job(self):
        return cli.main(self.argv)

    def check(self, code, checks: Checks) -> None:
        exact = [(code == 0, f"exit code 0 (got {code})")]
        soft = []
        lines = -1
        if code == 0:
            report = json.loads(self.out.read_text())
            more_exact, soft = _report_checks(
                report, report["mu_s_analytical"], self.golden("DOMINANT")
            )
            exact += more_exact
            with open(self.trace, "rb") as f:
                lines = sum(1 for _ in f)
        exact.append((lines == WIDE_SLOTS, f"trace has one line per slot (got {lines})"))
        checks.operation("cli simulate --trace", exact, soft)
        self.trace.unlink(missing_ok=True)
        self.out.unlink(missing_ok=True)

    def cli_rows(self, code) -> int:
        return 1 if code == 0 else 0


class SweepArrival(Workload):
    """CLI sweep over the 18-value lambda_p grid with a short run() per row."""

    name = "sweep-arrival"
    slots_per_job = len(LAMBDA_P_GRID) * SWEEP_SLOTS

    def setup(self) -> None:
        self.config = self.tmp / "arrival_sweep.json"
        self.config.write_text(json.dumps(ARRIVAL_SWEEP))
        warm = self.tmp / "warm_sweep.json"
        warm.write_text(json.dumps(dict(ARRIVAL_SWEEP, values=LAMBDA_P_GRID[:1])))
        self.out = self.tmp / "sweep-out.json"
        cli.main(["sweep", "--config", str(warm), "--slots", str(WARMUP_SLOTS),
                  "--format", "json", "--out", str(self.out)])  # fmt: skip
        self.argv = [
            "sweep", "--config", str(self.config), "--slots", str(SWEEP_SLOTS),
            "--seed", str(self.seed), "--format", "json", "--out", str(self.out),
        ]  # fmt: skip

    def job(self):
        return cli.main(self.argv)

    def check(self, code, checks: Checks) -> None:
        rows = json.loads(self.out.read_text()) if code == 0 else []
        checks.operation(
            "cli sweep",
            [
                (code == 0, f"exit code 0 (got {code})"),
                (len(rows) == len(LAMBDA_P_GRID), f"{len(LAMBDA_P_GRID)} rows (got {len(rows)})"),
            ],
        )
        for row in rows:
            name = f"sweep row lambda_p={row['axis_value']}"
            finite = all(
                _finite_rate(row[k]) for k in ("mu_p", "pi", "mu_s_analytical", "mu_s_simulated")
            ) and isinstance(row["std_err"], float) and math.isfinite(row["std_err"])
            exact = [
                (row["status"] == "ok", "status ok"),
                (finite, "rates and std_err finite, rates in [0, 1]"),
                (isinstance(row["m_opt"], int), "m_opt is an integer"),
            ]
            soft = []
            if finite:
                gap = abs(row["mu_s_simulated"] - row["mu_s_analytical"])
                soft.append(
                    (
                        gap <= 3 * row["std_err"],
                        "empirical mu_s within 3 batch-means s.e. of the closed form",
                    )
                )
            checks.operation(name, exact, soft)
        self.out.unlink(missing_ok=True)

    def cli_rows(self, code) -> int:
        return len(LAMBDA_P_GRID) if code == 0 else 0


class AnalysisWide(Workload):
    """Closed forms and the optimizer at large band counts; no simulation."""

    name = "analysis-wide"

    def setup(self) -> None:
        ref = _scenario(REFERENCE)
        self.sensing, self.traffic = ref.sensing, ref.traffic
        self.ceiling = _scenario(REFERENCE, m_bands=OPTIMIZE_CEILING).channel
        self.wide = _scenario(REFERENCE, m_bands=CLOSED_FORM_BANDS).channel
        self.wide_limited = _scenario(
            REFERENCE, m_bands=CLOSED_FORM_BANDS, power_mode=PowerMode.LIMITED
        ).channel
        self.probe = _scenario(REFERENCE, m_bands=PROBE_BANDS, k_antennas=PROBE_ANTENNAS).channel
        analysis.secondary_service_rate(
            _scenario(REFERENCE, m_bands=2).channel, self.sensing, self.traffic
        )

    def prepare_checks(self) -> None:
        """Random operating points at m <= 8 for the closed form vs the oracle."""
        rng = random.Random(self.seed)
        self.oracle_points = []
        for m in range(1, ORACLE_MAX_BANDS + 1):
            mode = rng.choice((PowerMode.PSD, PowerMode.LIMITED))
            scenario = _scenario(REFERENCE, m_bands=m, power_mode=mode)
            sensing = SensingParams(p_fa=rng.uniform(0, 0.3), p_md=rng.uniform(0, 0.3))
            mu_p = analysis.primary_service_rate(scenario.channel, sensing)
            traffic = TrafficParams(lambda_p=rng.uniform(0, 0.9) * mu_p, lambda_s=0.0)
            self.oracle_points.append((scenario.channel, sensing, traffic))

    def job(self):
        s, t = self.sensing, self.traffic
        return {
            "optimize": _call(optimize.optimize_sensed_bands, self.ceiling, s, t),
            "stability_region": _call(analysis.stability_region, self.wide, s, LAMBDA_P_GRID),
            "psd": _call(analysis.secondary_service_rate, self.wide, s, t),
            "limited": _call(analysis.secondary_service_rate, self.wide_limited, s, t),
            "single": _call(analysis.single_band_service_rate, self.wide, s, t),
            "probe": _call(analysis.secondary_service_rate, self.probe, s, t),
            "probe_single": _call(analysis.single_band_service_rate, self.probe, s, t),
        }

    def check(self, out, checks: Checks) -> None:
        opt = out["optimize"]
        if isinstance(opt, optimize.OptimizeResult):
            rates = [r for _, r in opt.profile]
            ok = (
                len(rates) == OPTIMIZE_CEILING
                and all(_finite_rate(r) for r in rates)
                and opt.mu_s_opt == max(rates)
                and opt.profile[opt.m_opt - 1][1] == opt.mu_s_opt
            )
        else:
            ok = False
        checks.operation(
            f"optimize_sensed_bands M={OPTIMIZE_CEILING}",
            [(ok, "finite profile over 1..M whose maximum is at m_opt")],
        )
        region = out["stability_region"]
        ok = (
            isinstance(region, list)
            and len(region) == len(LAMBDA_P_GRID)
            and all(_finite_rate(p.lambda_s_max) for p in region)
        )
        checks.operation(
            f"stability_region m={CLOSED_FORM_BANDS}",
            [(ok, "one finite boundary point in [0, 1] per grid value")],
        )
        for key in ("psd", "limited", "single"):
            exact = [(_finite_rate(out[key]), f"finite and in [0, 1] (got {out[key]!r})")]
            if key == "limited" and exact[0][0] and _finite_rate(out["psd"]):
                exact.append((out["limited"] <= out["psd"], "LIMITED never beats PSD"))
            checks.operation(f"{key} m={CLOSED_FORM_BANDS}", exact)
        for key in ("probe", "probe_single"):
            checks.operation(
                f"{key} m={PROBE_BANDS} k={PROBE_ANTENNAS}",
                soft=[(_finite_rate(out[key]), f"finite and in [0, 1] (got {out[key]!r})")],
            )
        for channel, sensing, traffic in self.oracle_points:
            closed = _call(analysis.secondary_service_rate, channel, sensing, traffic)
            oracle = _call(analysis.secondary_service_rate_oracle, channel, sensing, traffic)
            ok = _finite_rate(closed) and _finite_rate(oracle) and abs(closed - oracle) <= 1e-12
            checks.operation(
                f"closed form vs oracle m={channel.m_bands}",
                [(ok, f"agree to 1e-12 (closed {closed!r}, oracle {oracle!r})")],
            )


WORKLOADS = {w.name: w for w in (SimNarrow, SimWideTraced, SweepArrival, AnalysisWide)}

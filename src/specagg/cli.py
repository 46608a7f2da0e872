"""Command-line front end: analyze, optimize, simulate, sweep, compare.

Outputs are CSV (one header row, LF line endings, floats printed with
shortest round-trip formatting) or strict JSON, where a float that is not
finite (such as std_err_mu_s of a run with fewer than 100 measured slots
or no transmission opportunity) is null.  Exit codes: 0 success, 1 usage
or configuration error, 2 runtime error.

Each cmd_* function returns (rows, record): rows are the CSV rows, one
dict per row with its keys in column order (the header is the first
row's keys), and record is the value the JSON form prints.  main alone
reads --format and picks which of the two is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .analysis import (
    UnstablePrimaryError,
    analyze,
    primary_service_rate,
    secondary_service_rate,
    single_band_service_rate,
)
from .channel import PowerMode, pu_success_prob
from .config import ConfigError, ScenarioConfig, SweepSpec, apply_axis, load_config
from .optimize import optimize_sensed_bands
from .simulate import Mode, SimConfig, run

__all__ = ["main"]


class _UsageError(Exception):
    """A command-line value out of range."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(rows) -> str:
    lines = [",".join(rows[0])]
    lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def _finite_or_null(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_finite_or_null(obj), indent=2, allow_nan=False) + "\n"


def _load_scenario(path) -> ScenarioConfig:
    cfg = load_config(path)
    if isinstance(cfg, SweepSpec):
        raise ConfigError(
            f"{path}: expected a scenario config, found a sweep (axis/values present)"
        )
    return cfg


def _load_sweep(path) -> SweepSpec:
    cfg = load_config(path)
    if not isinstance(cfg, SweepSpec):
        raise ConfigError(f"{path}: expected a sweep config with axis and values")
    return cfg


def _sim_config(**fields) -> SimConfig:
    """A SimConfig from --slots/--seed/--warmup; a value out of range is a usage error."""
    try:
        return SimConfig(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_analyze(args) -> tuple[list[dict], object]:
    scenario = _load_scenario(args.config)
    row = asdict(analyze(scenario.channel, scenario.sensing, scenario.traffic))
    return [row], {"label": scenario.label} | row


def cmd_optimize(args) -> tuple[list[dict], object]:
    scenario = _load_scenario(args.config)
    opt = optimize_sensed_bands(scenario.channel, scenario.sensing, scenario.traffic)
    # Unsensed primaries never see secondary interference, so they are
    # served at the raw link rate; report both so consumers can tell.
    record = {
        "label": scenario.label,
        "m_opt": opt.m_opt,
        "mu_s_opt": opt.mu_s_opt,
        "mu_p_sensed_bands": primary_service_rate(scenario.channel, scenario.sensing),
        "mu_p_unsensed_bands": pu_success_prob(scenario.channel),
        "profile": [[m, rate] for m, rate in opt.profile],
    }
    return [{"m": m, "mu_s": rate} for m, rate in opt.profile], record


def cmd_simulate(args) -> tuple[list[dict], object]:
    scenario = _load_scenario(args.config)
    cfg = _sim_config(
        scenario=scenario,
        mode=Mode[args.mode.upper()],
        slots=args.slots,
        seed=args.seed,
        warmup=args.warmup,
    )
    report = run(cfg, trace_path=args.trace)
    try:
        result = analyze(scenario.channel, scenario.sensing, scenario.traffic)
        mu_p_analytical, mu_s_analytical = result.mu_p, result.mu_s
    except UnstablePrimaryError:
        mu_p_analytical = mu_s_analytical = None
    row = report.to_dict() | {
        "mu_p_analytical": mu_p_analytical,
        "mu_s_analytical": mu_s_analytical,
    }
    return [row], row | {"label": scenario.label}


def cmd_sweep(args) -> tuple[list[dict], object]:
    spec = _load_sweep(args.config)
    slots = args.slots if args.slots is not None else spec.sim_slots
    seed = args.seed if args.seed is not None else spec.sim_seed
    # built before any row, so a bad --slots or --seed is refused even when no
    # row is simulated; 1 and 0 stand in when the sweep sets neither
    sim = _sim_config(
        scenario=spec.base,
        mode=Mode.DOMINANT,
        slots=1 if slots is None else slots,
        seed=0 if seed is None else seed,
    )
    columns = ("mu_p", "pi", "mu_s_analytical", "mu_s_simulated", "std_err", "m_opt")
    rows = []
    for index, value in enumerate(spec.values):
        scenario = apply_axis(spec.base, spec.axis, value)
        row = {"axis_value": value, "status": "skipped"} | dict.fromkeys(columns)
        rows.append(row)
        try:
            result = analyze(scenario.channel, scenario.sensing, scenario.traffic)
        except UnstablePrimaryError:
            continue
        row.update(status="ok", mu_p=result.mu_p, pi=result.pi, mu_s_analytical=result.mu_s)
        if spec.axis != "m_bands":
            try:
                row["m_opt"] = optimize_sensed_bands(
                    scenario.channel, scenario.sensing, scenario.traffic
                ).m_opt
            except UnstablePrimaryError:
                pass  # lambda_p == mu_p: analyze admits pi = 0, the optimizer does not
        if spec.with_simulation:
            report = run(replace(sim, scenario=scenario, seed=sim.seed + index))
            row.update(mu_s_simulated=report.empirical_mu_s, std_err=report.std_err_mu_s)
    return rows, rows


def cmd_compare(args) -> tuple[list[dict], object]:
    spec = _load_sweep(args.config)
    columns = ("mu_s_psd", "mu_s_limited", "mu_s_single_band")
    rows = []
    for value in spec.values:
        scenario = apply_axis(spec.base, spec.axis, value)
        psd = replace(scenario.channel, power_mode=PowerMode.PSD)
        limited = replace(scenario.channel, power_mode=PowerMode.LIMITED)
        sensing, traffic = scenario.sensing, scenario.traffic
        try:
            rates = [
                secondary_service_rate(psd, sensing, traffic),
                secondary_service_rate(limited, sensing, traffic),
                single_band_service_rate(psd, sensing, traffic),
            ]
            status = "ok"
        except UnstablePrimaryError:
            rates, status = [None] * 3, "skipped"
        rows.append({"axis_value": value, "status": status} | dict(zip(columns, rates)))
    return rows, rows


def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about the code
    parser = _Parser(prog="specagg", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("analyze", help="closed-form rates for one scenario")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="sensed-band count maximizing the service rate")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo run with analytical columns")
    common(p)
    p.add_argument("--mode", choices=("dominant", "original"), default="dominant")
    p.add_argument("--slots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--trace", default=None, help="stream per-slot records to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="one row per axis value, analytical and simulated")
    common(p)
    p.add_argument("--slots", type=int, default=None, help="override sim_slots")
    p.add_argument("--seed", type=int, default=None, help="override sim_seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="both power modes vs the single-band baseline")
    common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        rows, record = args.func(args)
        text = _json_text(record) if args.format == "json" else _csv(rows)
        if args.out is not None:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"specagg: config error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"specagg: usage error: {exc}", file=sys.stderr)
        return 1
    except (UnstablePrimaryError, ValueError, OSError) as exc:
        print(f"specagg: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""specagg benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Usage, from the repository root:

  python3 perfbench/run.py --workload sim-narrow --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own fresh, single-threaded Python process that
imports specagg from ./src.  With --trace 0 the command prints setup_s,
wall_s, slots_per_s, peak_rss_mb and error_rate; with --trace 1 it prints
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every result
is also appended, with its provenance, to .perfbench_out/results.jsonl.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sim-narrow", "sim-wide-traced", "sweep-arrival", "analysis-wide")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # every run must end within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, phase: str, seconds: float, deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--phase", phase]  # fmt: skip
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {phase} phase")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {phase} phase did not end in time") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {phase} phase exited with {proc.returncode}")
    return json.loads(lines[-1])


def _provenance(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)  # fmt: skip
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if traced:
        result = _worker(workload, seed, "trace", seconds, deadline)
        metrics = {k: _metric(result["per_layer"][k], u) for k, u in PER_LAYER_UNITS.items()}
        extra = {
            "untraced_wall_s": result["untraced_wall_s"],
            "traced_wall_s": result["traced_wall_s"],
            "self_time_by_layer": result["self_time_by_layer"],
            "absent": result["absent"],
            "spans_file": result["spans_file"],
        }
    else:
        setup_runs = [_worker(workload, seed, "setup", 0, deadline)]
        result = _worker(workload, seed, "measure", seconds, deadline)
        for _ in range(SETUP_SAMPLES - 2):
            setup_runs.append(_worker(workload, seed, "setup", 0, deadline))
        setup_runs.append(result)
        setups = [r["setup_s"] for r in setup_runs]
        walls = result["walls"]
        wall = statistics.median(map(refspeed.normalised, walls, result["unit_s"]))
        metrics = {
            "setup_s": _metric(
                statistics.median(
                    refspeed.normalised(r["setup_s"], r["setup_unit_s"]) for r in setup_runs
                ),
                "s",
            ),
            "wall_s": _metric(wall, "s"),
            "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024, "MB"),
        }
        extra = {
            "jobs": len(walls),
            "walls": walls,
            "unit_s": result["unit_s"],
            "setups": setups,
            "setup_unit_s": [r["setup_unit_s"] for r in setup_runs],
            "measured_wall_s": _metric(statistics.median(walls), "s"),
            "measured_setup_s": _metric(statistics.median(setups), "s"),
            "slots_per_s": _metric(result["slots_per_job"] / wall, "1/s")
            if result["slots_per_job"]
            else None,
        }
    return {
        "workload": workload,
        "trace": int(traced),
        "provenance": _provenance(seed, result["numpy"]),
        "correct": result["exact_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": _metric(result["failed"] / result["attempted"], "ratio"),
        "misses": result["misses"],
        "metrics": metrics,
        **extra,
    }


def _print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed={rec['provenance']['seed']}  trace={rec['trace']}")
    rows = dict(rec["metrics"])
    if not rec["trace"]:
        rows["wall_s"] = dict(
            rows["wall_s"],
            note=f"median of {rec['jobs']} jobs at reference speed;"
            f" measured {rec['measured_wall_s']['value']:.6g} s",
        )
        rows["setup_s"] = dict(
            rows["setup_s"],
            note=f"median of {SETUP_SAMPLES} processes at reference speed;"
            f" measured {rec['measured_setup_s']['value']:.6g} s",
        )
        if rec["slots_per_s"] is not None:
            rows["slots_per_s"] = rec["slots_per_s"]
    rows["error_rate"] = dict(
        rec["error_rate"], note=f"{rec['failed']} failed / {rec['attempted']} attempted"
    )
    absent = set(rec.get("absent", ()))
    for name, m in rows.items():
        note = m.get("note", "")
        if any(name.startswith(a) for a in absent):
            note = "absent"
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:7s} {note}")
    if rec["trace"]:
        repeat = rec["metrics"]["tracer.counts_repeat"]["value"] == 1.0
        print(f"  counts repeat exactly between the two traced passes: {'yes' if repeat else 'NO'}")
        for layer, s in sorted(rec["self_time_by_layer"].items()):
            print(f"  self time, layer {layer:20s} {s:>16.6g} s")
        print(f"  spans written to {rec['spans_file']}")
    for miss, times in rec["misses"].items():
        print(f"  MISS x{times}: {miss}")
    print("  provenance: " + json.dumps(rec["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "specagg" / "__init__.py").is_file():
        print(f"perfbench: no specagg package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

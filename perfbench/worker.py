"""One workload in one fresh process; prints a JSON result as its last line.

Phases:
  setup    import specagg and set the workload up, report setup_s only;
  measure  set up, then repeat the job for --seconds and check every output;
  trace    two traced passes, with spans and counts, around one untraced job.

Set-up and every measured job run under refspeed.SpeedMeter, which reports
the host's speed during them, so that run.py can scale their times to a
fixed reference speed.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import refspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _timed_job(workload):
    start = time.perf_counter()
    out = workload.job()
    return out, time.perf_counter() - start


def measure(workload, checks, seconds: float) -> dict:
    """Repeat the job while another one still fits in the time budget."""
    workload.prepare_checks()
    walls, unit_s = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        with refspeed.SpeedMeter() as meter:
            out = workload.job()
        walls.append(meter.seconds)
        unit_s.append(meter.unit_s)
        workload.check(out, checks)
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    return {"walls": walls, "unit_s": unit_s}


def trace(workload, checks, seed: int) -> dict:
    """Two traced passes around one untraced job; per-layer figures and counts."""
    from tracer import Tracer

    workload.prepare_checks()
    untraced_walls = []

    def untraced_job():
        out, wall = _timed_job(workload)
        workload.check(out, checks)
        untraced_walls.append(wall)

    tracer = Tracer()
    passes = []
    for run_id in (1, 2):
        if run_id == 2:
            untraced_job()
        tracer.install(run_id)
        try:
            out, wall = _timed_job(workload)
        finally:
            tracer.uninstall()
        times, counts = tracer.pass_figures()
        counts["cli.rows"] = workload.cli_rows(out)
        workload.check(out, checks)
        passes.append((wall, times, counts))
    (wall1, times1, counts1), (wall2, times2, counts2) = passes
    repeat = counts1 == counts2
    checks.operation("traced passes", [(repeat, "every count repeats exactly")])
    metrics = {k: (times1[k] + times2[k]) / 2 for k in times1}
    metrics.update(counts1)
    metrics["tracer.overhead_s"] = (wall1 + wall2) / 2 - untraced_walls[0]
    metrics["tracer.counts_repeat"] = 1.0 if repeat else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    return {
        "per_layer": metrics,
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": [wall1, wall2],
        "self_time_by_layer": tracer.self_time_by_layer(),
        "absent": tracer.absent,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()
    # The vCPUs of a shared host can differ in speed by 10% or more; staying
    # on one CPU keeps a run from sampling both.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{args.workload}-{args.phase}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        with refspeed.SpeedMeter() as meter:
            import workloads  # imports specagg, so it belongs to set-up

            workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
            workload.setup()
        result = {"setup_s": meter.seconds, "setup_unit_s": meter.unit_s}

        import numpy
        import specagg

        src = (ROOT / "src").resolve()
        if src not in Path(specagg.__file__).resolve().parents:
            print(f"specagg imported from {specagg.__file__}, not from {src}", file=sys.stderr)
            return 1
        result["numpy"] = numpy.__version__
        if args.phase != "setup":
            checks = workloads.Checks()
            if args.phase == "measure":
                result.update(measure(workload, checks, args.seconds))
            else:
                result.update(trace(workload, checks, args.seed))
            result.update(
                slots_per_job=workload.slots_per_job,
                attempted=checks.attempted,
                failed=checks.failed,
                exact_ok=checks.exact_ok,
                misses=checks.misses,
            )
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

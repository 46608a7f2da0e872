"""Spans and counts around calls into specagg, installed from the benchmark.

Wrappers replace a public function in every loaded specagg module that holds
a reference to it, so calls between modules (cli -> analysis -> sensing) are
seen too.  A span is (name, start, end, parent, run_id); spans are kept in
memory and written out when the benchmark ends.  Leaf functions that the
closed forms call O(m^2) times are counted, not spanned.  A target missing
from the package (deleted by a later change) is reported as absent.
"""

from __future__ import annotations

import os
import sys
import time
from importlib import import_module

# Span name -> (module, attribute); "Class.method" patches a method.
SPANNED = {
    "cli.main": ("specagg.cli", "main"),
    "config.load_config": ("specagg.config", "load_config"),
    "config.apply_axis": ("specagg.config", "apply_axis"),
    "analysis.analyze": ("specagg.analysis", "analyze"),
    "analysis.secondary_service_rate": ("specagg.analysis", "secondary_service_rate"),
    "analysis.single_band_service_rate": ("specagg.analysis", "single_band_service_rate"),
    "analysis.stability_region": ("specagg.analysis", "stability_region"),
    "optimize.optimize_sensed_bands": ("specagg.optimize", "optimize_sensed_bands"),
    "simulate.run": ("specagg.simulate", "run"),
    "simulate.streams.setup": ("specagg.simulate", "ProtocolStreams.__init__"),
}
COUNTED = {
    "channel.su_success_prob": ("specagg.channel", "su_success_prob"),
    "sensing.decision_probability": ("specagg.sensing", "decision_probability"),
    "sensing.binomial": ("specagg.sensing", "binomial"),
}


def _specagg_modules():
    return [m for n, m in list(sys.modules.items()) if n == "specagg" or n.startswith("specagg.")]


class Tracer:
    """Installs wrappers for one traced pass and derives per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        self._first = len(self.spans)
        self.counts = {name: 0 for name in COUNTED}
        self.sim_calls: list[tuple[int, object, str | None, int]] = []
        self._stack: list[int] = []
        self.absent = []
        for name, target in SPANNED.items():
            self._patch(name, target, self._span_wrapper)
        for name, target in COUNTED.items():
            self._patch(name, target, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, name: str, target: tuple[str, str], make) -> None:
        module_name, attr = target
        try:
            owner = import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        if owner is not None and "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(name, original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in _specagg_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        is_run = name == "simulate.run"

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
                if is_run:
                    self._record_run(index, *args, **kwargs)

        return spanned

    def _record_run(self, index, cfg, trace_path=None):
        size = os.path.getsize(trace_path) if trace_path is not None else 0
        self.sim_calls.append((index, cfg, trace_path, size))

    def pass_figures(self) -> tuple[dict, dict]:
        """Per-layer times and counts of the pass since install().

        Replays each observed run() after the wrappers are removed: draining
        ProtocolStreams.next_slot alone gives the stream time, and a traced
        run() is repeated without its trace to give the trace overhead.
        """
        from specagg import simulate

        child_time = self._child_time()
        spans = list(enumerate(self.spans))[self._first :]

        def total(span_name, self_only=False):
            return sum(
                (end - start) - (child_time[i] if self_only else 0.0)
                for i, (name, start, end, _, _) in spans
                if name == span_name
            )

        def calls(span_name, parent_name=None):
            return sum(
                1
                for _, (name, _, _, parent, _) in spans
                if name == span_name
                and (parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name))
            )

        stream_s = trace_overhead = run_self = 0.0
        slots = traced_slots = draws = trace_bytes = 0
        for index, cfg, trace_path, size in self.sim_calls:
            name, start, end, _, _ = self.spans[index]
            run_self += (end - start) - child_time[index]
            streams = simulate.ProtocolStreams(cfg.scenario, cfg.seed)
            t0 = time.perf_counter()
            for _ in range(cfg.slots):
                streams.next_slot()
            stream_s += time.perf_counter() - t0
            slots += cfg.slots
            draws += cfg.slots * (3 * cfg.scenario.channel.m_bands + 2)
            if trace_path is not None:
                t0 = time.perf_counter()
                simulate.run(cfg)
                trace_overhead += (end - start) - (time.perf_counter() - t0)
                traced_slots += cfg.slots
                trace_bytes += size
        times = {
            "simulate.run.self_s": run_self - stream_s - trace_overhead,
            "simulate.streams.s": stream_s,
            "simulate.streams.slots_per_s": slots / stream_s if stream_s else 0.0,
            "simulate.streams.setup_s": total("simulate.streams.setup"),
            "simulate.trace.overhead_s": trace_overhead,
            "analysis.secondary_service_rate.s": total("analysis.secondary_service_rate"),
            "analysis.single_band_service_rate.s": total("analysis.single_band_service_rate"),
            "analysis.stability_region.s": total("analysis.stability_region"),
            "optimize.optimize_sensed_bands.s": total("optimize.optimize_sensed_bands"),
            "config.load_config.s": total("config.load_config"),
            "cli.main.self_s": total("cli.main", self_only=True),
        }
        counts = {
            "simulate.trace.bytes_per_slot": trace_bytes / traced_slots if traced_slots else 0.0,
            "optimize.closed_form_calls": calls(
                "analysis.secondary_service_rate", "optimize.optimize_sensed_bands"
            ),
            "channel.su_success_prob.calls": self.counts["channel.su_success_prob"],
            "sensing.decision_probability.calls": self.counts["sensing.decision_probability"],
            "sensing.binomial.calls": self.counts["sensing.binomial"],
            "config.apply_axis.calls": calls("config.apply_axis"),
            "simulate.run.calls": len(self.sim_calls),
            "simulate.run.slots": slots,
            "simulate.streams.draws": draws,
            "simulate.trace.bytes": trace_bytes,
        }
        return times, counts

    def self_time_by_layer(self) -> dict[str, float]:
        """Self time of the spans summed per layer (module), per traced pass."""
        child_time = self._child_time()
        passes = len({span[4] for span in self.spans}) or 1
        layers: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + ((end - start) - child_time[i]) / passes
        return layers

    def _child_time(self) -> list[float]:
        """Time covered by each span's direct children, by span index."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

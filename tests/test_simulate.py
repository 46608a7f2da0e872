import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from specagg import (
    ChannelParams,
    Mode,
    ProtocolStreams,
    QueueState,
    ScenarioConfig,
    SensingParams,
    SimConfig,
    SimReport,
    TrafficParams,
    Verdict,
    analyze,
    run,
    simulate,
    step,
    su_success_table,
)

from conftest import make_channel, reference_scenario

# derandomized so every run draws the same examples; no example database.  The
# monkeypatch fixture only sets module attributes that each example sets again.
PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def small_scenario(lambda_p=0.4, lambda_s=0.2, p_fa=0.05, p_md=0.05, m_bands=5):
    return ScenarioConfig(
        channel=ChannelParams(
            snr_s=1.0,
            spectral_eff_r=2.0,
            tau_b_frac=0.01,
            m_bands=m_bands,
            k_antennas=2,
            p_bar_p=0.9,
        ),
        sensing=SensingParams(p_fa=p_fa, p_md=p_md),
        traffic=TrafficParams(lambda_p=lambda_p, lambda_s=lambda_s),
    )


def test_sim_config_validation_and_default_warmup():
    sc = small_scenario()
    cfg = SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=1000, seed=1)
    assert cfg.warmup == 100
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=10, seed=1, warmup=10)
    with pytest.raises(ValueError, match="slots"):
        SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=10, seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("slots", 2000.5), ("seed", 1.5), ("warmup", 10.5), ("slots", True), ("seed", False),
     ("warmup", True), ("slots", 2000.0), ("seed", np.float64(1.0)), ("warmup", "10")],
)  # fmt: skip
def test_sim_config_refuses_what_is_not_an_integer(field, value):
    fields = dict(scenario=small_scenario(), mode=Mode.DOMINANT, slots=2000, seed=1)
    with pytest.raises(ValueError) as info:
        SimConfig(**fields | {field: value})
    assert str(info.value) == f"{field}: must be an integer, got {value}"


def test_sim_config_keeps_numpy_integers_as_python_ints():
    fields = dict(scenario=small_scenario(), mode=Mode.DOMINANT, slots=2000, seed=1)
    cfg = SimConfig(**fields | dict(slots=np.int64(2000), seed=np.int64(1), warmup=np.int32(200)))
    default = SimConfig(**fields | dict(slots=np.int64(2000)))
    for config in (cfg, default):
        assert all(type(getattr(config, name)) is int for name in ("slots", "seed", "warmup"))
    assert cfg == default == SimConfig(**fields)
    assert run(cfg).to_dict() == run(SimConfig(**fields)).to_dict()


@pytest.mark.parametrize(
    "thresholds, field",
    [
        (dict(stable_slope=0.5, unstable_slope=-0.5), "stable_slope"),
        (dict(stable_slope=math.nan, unstable_slope=math.nan), "unstable_slope"),
        (dict(stable_slope="x"), "stable_slope"),
        (dict(unstable_slope=True), "unstable_slope"),
        (dict(unstable_slope=math.inf), "unstable_slope"),
        (dict(stable_slope=-math.inf), "stable_slope"),
    ],
)
def test_sim_config_refuses_slope_thresholds_that_cannot_call_a_verdict(thresholds, field):
    # each of these used to simulate and then call a wrong verdict, or raise
    # a TypeError only after the whole horizon
    fields = dict(scenario=reference_scenario(), mode=Mode.DOMINANT, slots=5000, seed=1)
    with pytest.raises(ValueError, match=f"^{field}: must be "):
        SimConfig(**fields, **thresholds)


def test_sim_config_allows_equal_slope_thresholds():
    # no secondary arrivals: the backlog stays 0, below the one threshold
    cfg = SimConfig(
        scenario=reference_scenario(lambda_s=0.0),
        mode=Mode.DOMINANT,
        slots=5000,
        seed=1,
        unstable_slope=0.002,
        stable_slope=0.002,
    )
    assert run(cfg).stability_verdict_s is Verdict.STABLE


def test_identical_seed_gives_identical_report():
    cfg = SimConfig(scenario=small_scenario(), mode=Mode.ORIGINAL, slots=20_000, seed=99)
    assert run(cfg).to_dict() == run(cfg).to_dict()


def test_different_seeds_differ():
    sc = small_scenario()
    a = run(SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=20_000, seed=1))
    b = run(SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=20_000, seed=2))
    assert a.to_dict() != b.to_dict()


def test_no_arrivals_means_nothing_ever_happens():
    sc = small_scenario(lambda_p=0.0, lambda_s=0.0)
    report = run(SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=5000, seed=3))
    assert report.arrivals_s == report.departures_s == report.final_queue_s == 0
    assert report.throughput_s == 0.0
    assert report.mean_queue_s == 0.0
    assert report.mean_queue_p == 0.0
    assert report.collisions == 0
    # no band is ever busy and no slot is an opportunity: both ratios are undefined
    assert math.isnan(report.empirical_mu_p)
    assert math.isnan(report.empirical_mu_s)


def test_step_idle_system_only_accumulates_arrivals():
    sc = small_scenario(lambda_p=0.0, lambda_s=0.0)
    cfg = SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=10, seed=5)
    streams = ProtocolStreams(sc, cfg.seed)
    state = QueueState(primary=[0] * 5, secondary=0)
    for _ in range(50):
        state, outcome = step(state, cfg, streams)
        assert outcome.occupancy == 0
        assert not outcome.su_transmitted
        assert outcome.pu_departures == 0
        assert not outcome.su_departure
    assert state.primary == [0] * 5 and state.secondary == 0


def test_step_certain_misdetection_always_collides():
    # one busy band, p_md = 1: the dominant secondary always transmits into it
    sc = small_scenario(lambda_p=0.0, lambda_s=0.0, p_md=1.0, p_fa=0.0, m_bands=1)
    cfg = SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=10, seed=11)
    streams = ProtocolStreams(sc, cfg.seed)
    state = QueueState(primary=[3], secondary=0)
    state, outcome = step(state, cfg, streams)
    assert outcome.su_transmitted
    assert outcome.collision
    assert outcome.pu_departures == 0  # the primary packet was destroyed too
    assert not outcome.su_success
    assert state.primary[0] == 3


def test_step_silent_secondary_never_blocks_primaries():
    sc = small_scenario(lambda_p=0.0, lambda_s=0.0, p_md=1.0, p_fa=0.0, m_bands=1)
    cfg = SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=10, seed=11)
    streams = ProtocolStreams(sc, cfg.seed)
    state = QueueState(primary=[3], secondary=0)
    departures = 0
    for _ in range(200):
        state, outcome = step(state, cfg, streams)
        assert not outcome.su_transmitted  # empty queue, original system
        departures += outcome.pu_departures
        if state.primary[0] == 0:
            break
    assert departures > 0


def test_queue_recursion_replay():
    # every queue must follow q' = max(q - departures, 0) + arrivals
    sc = small_scenario()
    cfg = SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=10, seed=17)
    streams = ProtocolStreams(sc, cfg.seed)
    m = sc.channel.m_bands
    state = QueueState(primary=[0] * m, secondary=0)
    for _ in range(3000):
        new_state, out = step(state, cfg, streams)
        for band in range(m):
            departed = out.pu_departures >> band & 1
            arrived = out.primary_arrivals >> band & 1
            assert new_state.primary[band] == max(state.primary[band] - departed, 0) + arrived
        assert new_state.secondary == (
            max(state.secondary - out.su_departure, 0) + out.secondary_arrival
        )
        # departures only from nonempty queues, transmissions only from backlogged
        assert out.pu_departures & ~out.occupancy == 0
        state = new_state


def test_run_matches_step_replay():
    sc = small_scenario()
    for mode in (Mode.DOMINANT, Mode.ORIGINAL):
        cfg = SimConfig(scenario=sc, mode=mode, slots=4000, seed=23)
        report = run(cfg)
        streams = ProtocolStreams(sc, cfg.seed)
        state = QueueState(primary=[0] * sc.channel.m_bands, secondary=0)
        arrivals = departures = 0
        for _ in range(cfg.slots):
            state, out = step(state, cfg, streams)
            arrivals += out.secondary_arrival
            departures += out.su_departure
        assert report.arrivals_s == arrivals
        assert report.departures_s == departures
        assert report.final_queue_s == state.secondary


def test_conservation_over_full_horizon():
    for mode in (Mode.DOMINANT, Mode.ORIGINAL):
        for seed in (1, 2, 3):
            report = run(
                SimConfig(scenario=small_scenario(), mode=mode, slots=30_000, seed=seed)
            )
            assert report.arrivals_s == report.departures_s + report.final_queue_s


def test_dominant_mode_converges_to_closed_forms():
    sc = small_scenario(lambda_p=0.4, lambda_s=0.0, m_bands=5)
    result = analyze(sc.channel, sc.sensing, sc.traffic)
    report = run(SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=300_000, seed=29))
    assert abs(report.empirical_mu_s - result.mu_s) <= 4 * report.std_err_mu_s
    assert report.empirical_mu_p == pytest.approx(result.mu_p, abs=0.005)


def test_rates_and_counts_within_bounds():
    report = run(SimConfig(scenario=small_scenario(), mode=Mode.DOMINANT, slots=20_000, seed=31))
    assert 0.0 <= report.empirical_mu_p <= 1.0
    assert 0.0 <= report.empirical_mu_s <= 1.0
    assert 0.0 <= report.throughput_s <= 1.0
    assert 0 <= report.collisions <= report.slots


def test_dominant_queues_bound_original_queues_pointwise():
    sc = reference_scenario(lambda_s=0.42)
    m = sc.channel.m_bands
    for seed in (101, 202):
        traces = {}
        for mode in (Mode.DOMINANT, Mode.ORIGINAL):
            cfg = SimConfig(scenario=sc, mode=mode, slots=10, seed=seed)
            streams = ProtocolStreams(sc, seed)
            state = QueueState(primary=[0] * m, secondary=0)
            qs, qp = [], []
            for _ in range(20_000):
                state, _ = step(state, cfg, streams)
                qs.append(state.secondary)
                qp.append(state.primary[:])
            traces[mode] = (np.array(qs), np.array(qp))
        qs_dom, qp_dom = traces[Mode.DOMINANT]
        qs_org, qp_org = traces[Mode.ORIGINAL]
        assert (qs_dom >= qs_org).all()
        assert (qp_dom >= qp_org).all()


def test_stability_verdicts_bracket_the_boundary():
    sc = reference_scenario()
    mu_s = analyze(sc.channel, sc.sensing, sc.traffic).mu_s
    stable = reference_scenario(lambda_s=round(0.5 * mu_s, 6))
    report = run(SimConfig(scenario=stable, mode=Mode.ORIGINAL, slots=100_000, seed=37))
    assert report.stability_verdict_s is Verdict.STABLE
    unstable = reference_scenario(lambda_s=round(1.5 * mu_s, 6))
    report = run(SimConfig(scenario=unstable, mode=Mode.ORIGINAL, slots=100_000, seed=37))
    assert report.stability_verdict_s is Verdict.UNSTABLE


def test_both_modes_bracket_the_analytical_boundary():
    # coupled seeds: each seed runs both modes on the same draws
    sc = reference_scenario()
    mu_s = analyze(sc.channel, sc.sensing, sc.traffic).mu_s
    below = reference_scenario(lambda_s=round(0.9 * mu_s, 6))
    above = reference_scenario(lambda_s=round(1.1 * mu_s, 6))
    for seed in (1, 2):
        dominant = run(SimConfig(scenario=below, mode=Mode.DOMINANT, slots=60_000, seed=seed))
        original = run(SimConfig(scenario=below, mode=Mode.ORIGINAL, slots=60_000, seed=seed))
        assert dominant.stability_verdict_s is Verdict.STABLE
        assert original.stability_verdict_s is Verdict.STABLE
        # below the boundary the original system delivers its arrivals
        assert abs(original.throughput_s - min(below.traffic.lambda_s, mu_s)) < 0.02
        original = run(SimConfig(scenario=above, mode=Mode.ORIGINAL, slots=60_000, seed=seed))
        assert original.stability_verdict_s is Verdict.UNSTABLE


def test_boundary_check_zero_arrivals_means_zero_throughput():
    # the boundary comparison at lambda_s = 0 with busy primaries: neither
    # mode delivers anything, so the gap |throughput - min(0, mu_s)| is exactly 0
    sc = reference_scenario(lambda_s=0.0)
    for mode in Mode:
        report = run(SimConfig(scenario=sc, mode=mode, slots=20_000, seed=5))
        assert report.arrivals_s == report.departures_s == 0
        assert report.throughput_s == 0.0


def test_trace_file_schema_and_determinism(tmp_path):
    sc = small_scenario()
    cfg = SimConfig(scenario=sc, mode=Mode.DOMINANT, slots=500, seed=41)
    path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    run(cfg, trace_path=path_a)
    run(cfg, trace_path=path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert len(lines) == 500
    record = json.loads(lines[0])
    assert set(record) == {
        "slot",
        "occupancy",
        "declared_idle",
        "su_transmitted",
        "su_success",
        "su_departure",
        "pu_departures",
        "collision",
        "primary_arrivals",
        "secondary_arrival",
    }
    assert [json.loads(l)["slot"] for l in lines[:5]] == [0, 1, 2, 3, 4]


def test_trace_replay_reconstructs_final_queues(tmp_path):
    sc = small_scenario()
    cfg = SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=2000, seed=43)
    path = tmp_path / "trace.ndjson"
    report = run(cfg, trace_path=path)
    qs = 0
    qp = [0] * sc.channel.m_bands
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        for band in range(sc.channel.m_bands):
            dep = rec["pu_departures"] >> band & 1
            arr = rec["primary_arrivals"] >> band & 1
            qp[band] = max(qp[band] - dep, 0) + arr
        qs = max(qs - rec["su_departure"], 0) + rec["secondary_arrival"]
    assert qs == report.final_queue_s


# One slot's trace line, formatted field by field: the literal reference for
# the trace bytes, as step() is for the report.
TRACE_LINE = (
    '{"slot":%d,"occupancy":%d,"declared_idle":%d,"su_transmitted":%s,'
    '"su_success":%s,"su_departure":%s,"pu_departures":%d,"collision":%s,'
    '"primary_arrivals":%d,"secondary_arrival":%s}\n'
)


def reference_trace(cfg: SimConfig) -> bytes:
    """The --trace file of cfg, one TRACE_LINE per step() outcome."""

    def flag(x: bool) -> str:
        return "true" if x else "false"

    streams = ProtocolStreams(cfg.scenario, cfg.seed)
    state = QueueState(primary=[0] * cfg.scenario.channel.m_bands, secondary=0)
    lines = []
    for _ in range(cfg.slots):
        state, out = step(state, cfg, streams)
        lines.append(
            TRACE_LINE
            % (
                out.slot,
                out.occupancy,
                out.declared_idle,
                flag(out.su_transmitted),
                flag(out.su_success),
                flag(out.su_departure),
                out.pu_departures,
                flag(out.collision),
                out.primary_arrivals,
                flag(out.secondary_arrival),
            )
        )
    return "".join(lines).encode()


# masks of one band, of 63 and 64 bands (one uint64 word) and of 65 and 130
# (two and three words); the horizon crosses slot 10**4, where the slot number
# outgrows a four-digit group, and every m > 1 crosses block boundaries
@pytest.mark.parametrize("m_bands", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("mode", list(Mode))
def test_trace_matches_step_reference(m_bands, mode, tmp_path):
    scenario = reference_scenario(lambda_s=0.3, m_bands=m_bands, k_antennas=min(8, m_bands))
    cfg = SimConfig(scenario=scenario, mode=mode, slots=10_050, seed=67)
    path = tmp_path / "trace.ndjson"
    run(cfg, trace_path=path)
    got, want = path.read_bytes(), reference_trace(cfg)
    assert got.splitlines() == want.splitlines()  # names the first line that differs
    assert got == want


def test_trace_renderer_reuses_its_matrix_only_within_one_layout():
    # a renderer keeps its line matrix between blocks whose columns have the
    # same widths; each block must render as it does on a fresh renderer
    scenario = small_scenario(m_bands=9)
    streams = ProtocolStreams(scenario, 73)
    success = np.asarray(su_success_table(scenario.channel))
    blocks = []
    for n in (300, 300, 200):
        draws = streams.draw_block(n)
        blocks.append((draws, simulate._run_block(draws, np.zeros(9), 0, True, success, {})))
    render = simulate._TraceLines()
    # the same layout with other values, a wider slot column (its numbers
    # cross 10**4), back to the first layout, then fewer slots
    for first, index in ((0, 0), (5_000, 1), (9_800, 0), (0, 1), (0, 2)):
        draws, block = blocks[index]
        got = render(first, block, draws).tobytes()
        assert got == simulate._TraceLines()(first, block, draws).tobytes()
        assert [json.loads(line)["slot"] for line in got.splitlines()] == list(
            range(first, first + len(block.qs))
        )


def test_primary_arrival_stream_is_independent_of_secondary_load():
    # changing lambda_s must not perturb primary arrivals or channel draws
    a = small_scenario(lambda_s=0.0)
    b = small_scenario(lambda_s=0.9)
    sa, sb = ProtocolStreams(a, 77), ProtocolStreams(b, 77)
    for _ in range(2000):
        da, db = sa.next_slot(), sb.next_slot()
        assert da[:5] == db[:5]  # same sensing, channel, primary arrivals


# ORIGINAL needs secondary arrivals to have any transmission opportunity
@pytest.mark.parametrize("mode, lambda_s", [(Mode.DOMINANT, 0.0), (Mode.ORIGINAL, 0.2)])
def test_batch_means_stderr_shrinks_with_horizon(mode, lambda_s):
    sc = small_scenario(lambda_s=lambda_s)
    short = run(SimConfig(scenario=sc, mode=mode, slots=20_000, seed=53))
    long = run(SimConfig(scenario=sc, mode=mode, slots=320_000, seed=53))
    assert 0 < long.std_err_mu_s < short.std_err_mu_s
    assert not math.isnan(short.std_err_mu_s)


@pytest.mark.parametrize("lambda_s", [0.3, 0.45])
def test_original_stderr_tracks_the_spread_across_seeds(lambda_s):
    # the standard error of one run estimates the s.d. of empirical_mu_s
    # over independent runs
    sc = reference_scenario(lambda_s=lambda_s)
    reports = [
        run(SimConfig(scenario=sc, mode=Mode.ORIGINAL, slots=60_000, seed=seed))
        for seed in range(16)
    ]
    spread = np.std([r.empirical_mu_s for r in reports], ddof=1)
    ratio = np.mean([r.std_err_mu_s for r in reports]) / spread
    assert 0.5 <= ratio <= 2.0, ratio


@PROPERTY
@given(st.integers(1, 10**7), st.integers(0, 2**32))
def test_ratio_stderr_of_equal_windows_is_the_batch_means_stderr(window, seed):
    successes = np.random.default_rng(seed).integers(0, window, 100, endpoint=True)
    assert simulate.BATCH_COUNT == 100
    got = simulate._ratio_stderr(successes, np.full(100, window))
    assert got == float((successes / window).std(ddof=1) / math.sqrt(100))


@PROPERTY
@given(st.integers(1, 10**6), st.sampled_from([0.0, 0.5, 0.99]), st.integers(0, 2**32))
def test_ratio_stderr_is_the_textbook_ratio_estimator(most, share_empty, seed):
    # windows of up to `most` opportunities, about share_empty of them with none
    rng = np.random.default_rng(seed)
    opportunities = rng.integers(0, most, 100, endpoint=True) * (rng.random(100) >= share_empty)
    successes = rng.integers(0, opportunities, endpoint=True)
    assume(opportunities.any())
    # sqrt(sum (S_k - r O_k)^2 / (K (K - 1))) / O-bar, with r = sum S / sum O, exactly
    k = 100
    r = Fraction(int(successes.sum()), int(opportunities.sum()))
    squares = sum((s - r * o) ** 2 for s, o in zip(successes.tolist(), opportunities.tolist()))
    want = math.sqrt(squares / (k * (k - 1))) / float(Fraction(int(opportunities.sum()), k))
    got = simulate._ratio_stderr(successes, opportunities)
    # the absolute floor covers rounding where the exact value is 0
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (got, want)


def test_ratio_stderr_without_opportunities_is_nan_without_warnings():
    zeros = np.zeros(100, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(simulate._ratio_stderr(zeros, zeros))


def reference_run(cfg: SimConfig) -> SimReport:
    """run() as a loop of step() calls: the per-slot reference for run().

    The statistics are computed as run() computed them before it worked on
    blocks of slots: a backlog trace and an opportunity array of the whole
    window, a float least-squares slope and batch means of a uint8 array.
    ORIGINAL's standard error is the ratio estimator over BATCH_COUNT equal
    windows of measured slots, from per-slot success and opportunity arrays.
    """
    m = cfg.scenario.channel.m_bands
    streams = ProtocolStreams(cfg.scenario, cfg.seed)
    dominant = cfg.mode is Mode.DOMINANT
    warmup = cfg.warmup
    measured = cfg.slots - warmup
    state = QueueState(primary=[0] * m, secondary=0)
    qs_trace = np.zeros(measured, dtype=np.int64)
    opportunity_success = np.zeros(measured, dtype=np.uint8)
    slot_success = np.zeros(measured, dtype=np.int64)
    slot_opportunity = np.zeros(measured, dtype=np.int64)
    n_opportunities = 0
    nonempty = [0] * m
    departures = [0] * m
    sum_qp = collisions = su_departures = arrivals_s = departures_s = 0
    for t in range(cfg.slots):
        qs_start = state.secondary
        qp_start = sum(state.primary)
        state, out = step(state, cfg, streams)
        arrivals_s += out.secondary_arrival
        departures_s += out.su_departure
        if t < warmup:
            continue
        qs_trace[t - warmup] = qs_start
        sum_qp += qp_start
        collisions += out.collision
        su_departures += out.su_departure
        slot_success[t - warmup] = out.su_success
        slot_opportunity[t - warmup] = qs_start > 0
        if dominant or qs_start > 0:
            opportunity_success[n_opportunities] = out.su_success
            n_opportunities += 1
        for band in range(m):
            nonempty[band] += out.occupancy >> band & 1
            departures[band] += out.pu_departures >> band & 1

    ratios = [departures[b] / nonempty[b] for b in range(m) if nonempty[b] > 0]
    successes = opportunity_success[:n_opportunities]
    verdict = Verdict.INCONCLUSIVE
    if measured >= 2:
        x = np.arange(measured, dtype=np.float64) - (measured - 1) / 2.0
        slope = float((x * (qs_trace - qs_trace.mean())).sum() / (x * x).sum())
        if slope > cfg.unstable_slope:
            verdict = Verdict.UNSTABLE
        elif slope < cfg.stable_slope:
            verdict = Verdict.STABLE
    k = simulate.BATCH_COUNT
    std_err = math.nan
    if dominant:
        batch = n_opportunities // k
        if batch >= 1:
            means = successes[: batch * k].reshape(-1, batch).mean(axis=1)
            std_err = float(means.std(ddof=1) / math.sqrt(k))
    else:
        window = measured // k
        s = slot_success[: window * k].reshape(k, window).sum(axis=1)
        o = slot_opportunity[: window * k].reshape(k, window).sum(axis=1)
        o_bar = o.mean()
        if o_bar > 0:
            means = s / o_bar
            d = means - means.mean() * (o / o_bar)
            std_err = float(np.sqrt((d * d).sum() / (k - 1)) / math.sqrt(k))
    return SimReport(
        mode=cfg.mode,
        slots=cfg.slots,
        warmup=warmup,
        seed=cfg.seed,
        empirical_mu_p=sum(ratios) / len(ratios) if ratios else math.nan,
        empirical_mu_s=float(successes.mean()) if n_opportunities else math.nan,
        throughput_s=su_departures / measured,
        mean_queue_p=sum_qp / (measured * m),
        mean_queue_s=float(qs_trace.mean()),
        stability_verdict_s=verdict,
        collisions=collisions,
        std_err_mu_s=std_err,
        arrivals_s=arrivals_s,
        departures_s=departures_s,
        final_queue_s=state.secondary,
    )


def assert_same_report(report: SimReport, expected: SimReport) -> None:
    got, want = report.to_dict(), expected.to_dict()
    assert got.keys() == want.keys()
    for key, value in want.items():
        both_nan = isinstance(value, float) and math.isnan(value) and math.isnan(got[key])
        assert both_nan or got[key] == value, (key, got[key], value)


unit_or_end = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def sim_configs(draw):
    """A small random run: m up to 40 (past the 32-band mask word), any rates."""
    m = draw(st.integers(1, 40))
    scenario = ScenarioConfig(
        channel=ChannelParams(
            snr_s=draw(st.floats(0.2, 5.0)),
            spectral_eff_r=2.0,
            tau_b_frac=0.01,
            m_bands=m,
            k_antennas=draw(st.integers(1, m)),
            p_bar_p=draw(unit_or_end),
        ),
        sensing=SensingParams(p_fa=draw(unit_or_end), p_md=draw(unit_or_end)),
        traffic=TrafficParams(lambda_p=draw(unit_or_end), lambda_s=draw(unit_or_end)),
    )
    slots = draw(st.integers(1, 700))
    warmup = draw(st.sampled_from([0, None]) | st.integers(0, slots - 1))
    return scenario, slots, warmup, draw(st.integers(0, 2**32))


REAL_BLOCK_SLOTS = simulate._block_slots


def _check_both_modes(case, monkeypatch, block):
    scenario, slots, warmup, seed = case
    monkeypatch.setattr(
        simulate, "_block_slots", REAL_BLOCK_SLOTS if block is None else lambda m: block
    )
    for mode in Mode:
        cfg = SimConfig(scenario=scenario, mode=mode, slots=slots, seed=seed, warmup=warmup)
        assert_same_report(run(cfg), reference_run(cfg))


@PROPERTY
# None keeps the real block size; the others put many block edges in a short run
@given(sim_configs(), st.sampled_from([None, 1, 2, 7, 64]) | st.integers(1, 300))
def test_run_equals_step_reference(monkeypatch, case, block):
    _check_both_modes(case, monkeypatch, block)


def test_run_equals_step_reference_through_deep_fixed_points(monkeypatch):
    # a rare secondary arrival among busy, often misdetected primaries: one of
    # these three ORIGINAL blocks takes 9 passes to reach its fixed point
    scenario = ScenarioConfig(
        channel=make_channel(m_bands=5),
        sensing=SensingParams(p_fa=0.05, p_md=0.3),
        traffic=TrafficParams(lambda_p=0.6, lambda_s=0.0046),
    )
    slots = 3 * simulate._block_slots(5)
    cfg = SimConfig(scenario=scenario, mode=Mode.ORIGINAL, slots=slots, seed=2)
    passes = []  # the draws of every pass, kept alive so each block's id is its own
    block_pass = simulate._block_pass

    def counting_pass(draws, *args):
        passes.append(draws)
        return block_pass(draws, *args)

    monkeypatch.setattr(simulate, "_block_pass", counting_pass)
    assert_same_report(run(cfg), reference_run(cfg))
    assert max(Counter(map(id, passes)).values()) >= 8


def count_kernel_work(monkeypatch) -> Counter:
    """Count the block passes, the full primary scans, the repairs tried and
    the repairs that held, from here on."""
    counts = Counter()
    scan, repair, block_pass = (
        simulate._lindley_buffer,
        simulate._repair_backlogs,
        simulate._block_pass,
    )

    def counting_scan(*args):
        counts["scans"] += args[1].ndim == 2  # the secondary's scan is one row
        return scan(*args)

    def counting_repair(*args):
        held = repair(*args)
        counts["tried"] += 1
        counts["repairs"] += held
        return held

    def counting_pass(*args):
        counts["passes"] += 1
        return block_pass(*args)

    monkeypatch.setattr(simulate, "_lindley_buffer", counting_scan)
    monkeypatch.setattr(simulate, "_repair_backlogs", counting_repair)
    monkeypatch.setattr(simulate, "_block_pass", counting_pass)
    return counts


@pytest.mark.parametrize("mode", list(Mode))
def test_later_passes_repair_instead_of_scanning(monkeypatch, mode):
    # one full primary scan per block; every later ORIGINAL pass repairs it,
    # and DOMINANT mode stops after its one pass
    blocks = 3
    scenario = reference_scenario(lambda_s=0.3)
    cfg = SimConfig(scenario=scenario, mode=mode, slots=blocks * simulate._block_slots(13), seed=1)
    counts = count_kernel_work(monkeypatch)
    run(cfg)
    assert counts["scans"] == blocks
    assert counts["repairs"] == counts["passes"] - blocks
    assert counts["passes"] > blocks if mode is Mode.ORIGINAL else counts["passes"] == blocks


def falling_success_config(slots: int) -> SimConfig:
    """An ORIGINAL run whose s(n) falls with the width, so that silencing the
    secondary can widen its aggregate, lower its success and raise willing."""
    scenario = ScenarioConfig(
        channel=make_channel(m_bands=5, k_antennas=2),
        sensing=SensingParams(p_fa=0.5, p_md=0.3),
        traffic=TrafficParams(lambda_p=0.3, lambda_s=0.05),
    )
    cfg = SimConfig(scenario=scenario, mode=Mode.ORIGINAL, slots=slots, seed=4)
    object.__setattr__(cfg, "_success_table", (0.0, 0.95, 0.6, 0.3, 0.1, 0.02))
    return cfg


@pytest.mark.parametrize("block, slots", [(1, 700), (7, 700), (None, 2 * REAL_BLOCK_SLOTS(5) + 100)])
def test_run_equals_step_reference_when_willing_rises(monkeypatch, block, slots):
    # where willing rises a pass scans every band again without trying a
    # repair; a block of one slot settles in its second pass, before willing
    # can rise
    cfg = falling_success_config(slots)
    monkeypatch.setattr(simulate, "_block_slots", REAL_BLOCK_SLOTS if block is None else lambda m: block)
    counts = count_kernel_work(monkeypatch)
    assert_same_report(run(cfg), reference_run(cfg))
    blocks = -(-slots // (block or REAL_BLOCK_SLOTS(5)))
    guarded = counts["passes"] - blocks - counts["tried"]
    assert guarded > 0 if block != 1 else guarded == 0
    assert counts["scans"] == blocks + guarded + counts["tried"] - counts["repairs"]


@pytest.mark.parametrize("m_bands, slots", [(40, 3_500), (13, 5_100), (1, 65_600)])
@pytest.mark.parametrize("mode", list(Mode))
def test_run_equals_step_reference_across_real_blocks(m_bands, slots, mode):
    k = min(8, m_bands)
    scenario = reference_scenario(lambda_s=0.3, m_bands=m_bands, k_antennas=k)
    assert slots > simulate._block_slots(m_bands)
    cfg = SimConfig(scenario=scenario, mode=mode, slots=slots, seed=61)
    assert_same_report(run(cfg), reference_run(cfg))


@pytest.mark.parametrize("m_bands", [255, 256])
@pytest.mark.parametrize(
    "rates",
    [
        dict(lambda_p=0.5),
        # every band declared idle in every slot, and in DOMINANT mode every
        # primary is always blocked: widths reach m and band counts the window
        dict(lambda_p=0.9, p_fa=0.0, p_md=1.0),
    ],
)
@pytest.mark.parametrize("mode", list(Mode))
def test_run_equals_step_reference_where_count_dtypes_widen(m_bands, rates, mode):
    # widths are counted in uint8 up to 255 bands and in uint16 from 256; the
    # per-band counts of a block likewise over windows of 255 and 256 slots.
    # warmup leaves 255 measured slots in the first block and the second
    # block, the last, has 256.
    block = simulate._block_slots(m_bands)
    warmup = block - 255
    scenario = small_scenario(lambda_s=0.3, m_bands=m_bands, **rates)
    cfg = SimConfig(scenario=scenario, mode=mode, slots=block + 256, seed=67, warmup=warmup)
    assert_same_report(run(cfg), reference_run(cfg))


@PROPERTY
@given(sim_configs(), st.sampled_from([None, 5, 64]) | st.integers(1, 300))
def test_run_equals_step_reference_with_int64_scans(monkeypatch, case, block):
    # no block is narrow enough for int32, so every Lindley scan runs in int64
    monkeypatch.setattr(simulate, "_NARROW_LIMIT", 0)
    _check_both_modes(case, monkeypatch, block)


@PROPERTY
@given(
    sim_configs(),
    st.integers(0, 3_000),
    st.sampled_from([None, 7, 64]) | st.integers(5, 300),
)
def test_run_conserves_secondary_packets(monkeypatch, case, extra_slots, block):
    scenario, slots, _, seed = case
    monkeypatch.setattr(
        simulate, "_block_slots", REAL_BLOCK_SLOTS if block is None else lambda m: block
    )
    for mode in Mode:
        cfg = SimConfig(scenario=scenario, mode=mode, slots=slots + extra_slots, seed=seed)
        report = run(cfg)
        assert report.arrivals_s - report.departures_s == report.final_queue_s


def lindley(q0, arrivals, service):
    """The backlogs before every slot and after the last, from a fresh buffer."""
    q = simulate._lindley_buffer(q0, arrivals, service, {})
    return q[..., :-1], q[..., -1]


def lindley_reference(q0: int, arrivals, service) -> tuple[list[int], int]:
    """q' = max(q - service, 0) + arrivals, one slot at a time."""
    q, starts = int(q0), []
    for a, s in zip(arrivals.tolist(), service.tolist()):
        starts.append(q)
        q = max(q - s, 0) + a
    return starts, q


@pytest.mark.parametrize(
    "q0, dtype",
    [
        (0, np.int32),
        (7, np.int32),
        (2**31 - 1 - 2 * 300 - 1, np.int32),  # the largest backlog an int32 scan takes
        (2**31 - 1 - 2 * 300, np.int64),
        (2**31 + 12, np.int64),
        (2**40, np.int64),
    ],
)
def test_lindley_matches_the_recursion(q0, dtype):
    rng = np.random.default_rng(q0 % 1000)
    n = 300
    for p_arrival, p_service in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.2, 0.7)):
        arrivals = rng.random(n) < p_arrival
        service = rng.random(n) < p_service
        start, end = lindley(q0, arrivals, service)
        assert start.dtype == dtype
        assert (start.tolist(), int(end)) == lindley_reference(q0, arrivals, service)

        # (bands, slots): one recursion per row, each from its own backlog
        bands = 5
        q0s = np.array([q0, 0, 1, q0 // 2, 3], dtype=np.int64)
        arrivals = rng.random((bands, n)) < p_arrival
        service = rng.random((bands, n)) < p_service
        start, end = lindley(q0s, arrivals, service)
        assert start.dtype == end.dtype == dtype
        for b in range(bands):
            want = lindley_reference(q0s[b], arrivals[b], service[b])
            assert (start[b].tolist(), int(end[b])) == want


@pytest.mark.parametrize("n", [*range(1, 18), 5_041])
def test_lindley_matches_the_recursion_at_every_byte_edge(n):
    # the scan reads eight slots at a time: n covers every n % 8, including
    # the byte that holds only column n, with random rows and rows of all
    # arrivals, all service, both and neither, from backlogs up to the
    # int32/int64 edge
    rng = np.random.default_rng(n)
    ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    arrivals = np.array([rng.random(n) < 0.5, rng.random(n) < 0.2, ones, zeros, ones, zeros])
    service = np.array([rng.random(n) < 0.5, rng.random(n) < 0.8, zeros, ones, ones, zeros])
    edge = simulate._NARROW_LIMIT - 2 * n  # the smallest backlog scanned in int64
    for q0, dtype in ((0, np.int32), (edge - 1, np.int32), (edge, np.int64)):
        q0s = np.array([q0, 5, q0, q0, 1, q0], dtype=np.int64)
        want = [lindley_reference(*row) for row in zip(q0s, arrivals, service)]
        start, end = lindley(q0s, arrivals, service)
        assert start.dtype == dtype
        assert [(s.tolist(), int(e)) for s, e in zip(start, end)] == want
        for b in (0, 2, 3):
            start, end = lindley(q0s[b], arrivals[b], service[b])
            assert start.dtype == dtype and (start.tolist(), int(end)) == want[b]


def test_byte_paths_match_the_slot_recursion():
    # every entry against eight literal slots from each backlog 0..8; W <= 7,
    # so a larger backlog takes the same path as 8 does
    paths = simulate._byte_paths().view(np.uint8).reshape(1 << 16, 8).astype(np.int64)
    level, floor = (paths & 15) - 8, paths >> 4
    assert level.min() == -7 and level.max() == 7 and floor.min() == 0 and floor.max() == 7
    code = np.arange(1 << 16)
    for r in range(9):
        q = np.full(1 << 16, r)
        for i in range(8):
            assert np.array_equal(q, level[:, i] + np.maximum(r, floor[:, i]))
            q = np.maximum(q - (code >> (8 + i) & 1), 0) + (code >> i & 1)


def test_run_owns_its_primary_scans_and_other_callers_get_fresh_ones(monkeypatch):
    # a block's primary backlogs live in the buffer its caller hands in: run()
    # hands every block of a run the same one, and the secondary's backlogs
    # never share it
    sc = reference_scenario(lambda_s=0.3)
    draws = ProtocolStreams(sc, 5).draw_block(300)
    success = np.asarray(su_success_table(sc.channel))
    run_block = simulate._run_block
    for mode in Mode:
        dominant = mode is Mode.DOMINANT
        scans = [{}, {}]
        first, second = (run_block(draws, np.zeros(13), 0, dominant, success, s) for s in scans)
        assert not np.shares_memory(first.qp, second.qp)
        assert np.shares_memory(first.qp, scans[0][np.int32])
        blocks = []

        def keeping_block(*args):
            blocks.append(run_block(*args))
            return blocks[-1]

        monkeypatch.setattr(simulate, "_run_block", keeping_block)
        run(SimConfig(scenario=sc, mode=mode, slots=3 * simulate._block_slots(13), seed=5))
        assert len(blocks) == 3
        assert all(np.shares_memory(block.qp, blocks[0].qp) for block in blocks)
        assert not any(np.shares_memory(a.qp, b.qs) for a in blocks for b in blocks)


def test_concurrent_runs_share_nothing():
    # two runs on two threads at once report what each reports alone: a
    # scan buffer belongs to one run
    cfgs = [
        SimConfig(scenario=scenario, mode=mode, slots=60_000, seed=seed)
        for scenario, mode, seed in (
            (reference_scenario(lambda_s=0.3), Mode.DOMINANT, 3),
            (small_scenario(m_bands=5), Mode.ORIGINAL, 4),
        )
    ]
    alone = [run(cfg) for cfg in cfgs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(run, cfgs, timeout=60))
    for got, want in zip(together, alone):
        assert_same_report(got, want)


def test_analysis_never_builds_the_byte_table():
    # the 512 KB table is built on first use, by a simulation only
    code = (
        "from specagg import analyze, optimize_sensed_bands, simulate\n"
        "from conftest import reference_scenario\n"
        "sc = reference_scenario(lambda_s=0.3)\n"
        "analyze(sc.channel, sc.sensing, sc.traffic)\n"
        "optimize_sensed_bands(sc.channel, sc.sensing, sc.traffic)\n"
        "print(simulate._byte_paths.cache_info().currsize)\n"
    )
    src = Path(simulate.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


@pytest.mark.parametrize("m", [1, 8, 63, 64, 65, 130])
def test_pack_slot_masks_matches_a_per_slot_fold(m):
    rng = np.random.default_rng(m)
    bits = rng.random((m, 200)) < 0.5
    bits[:, 0] = True
    bits[:, 1] = False
    expected = [
        sum(1 << band for band in range(m) if bits[band, t]) for t in range(bits.shape[1])
    ]
    masks = simulate._pack_slot_masks(bits)
    assert masks == expected
    assert masks[0] == (1 << m) - 1 and masks[1] == 0
    assert all(type(mask) is int for mask in masks)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 63, 64])
def test_band_words_match_a_per_slot_fold(m):
    # bands are packed a byte at a time, so the edges sit at multiples of 8
    rng = np.random.default_rng(m)
    bits = rng.random((3, m, 150)) < 0.5
    bits[:, :, 0] = True
    bits[:, :, 1] = False
    bits[1, :, 2:20] = np.eye(m, 18, dtype=bool)  # one band at a time
    expected = [
        [sum(1 << band for band in range(m) if mask[band, t]) for t in range(mask.shape[1])]
        for mask in bits
    ]
    words = simulate._band_words(bits)
    assert words.dtype == np.uint64 and words.shape == (3, 150)
    assert words.tolist() == expected
    assert words[0, 0] == (1 << m) - 1 and words[0, 1] == 0
    assert simulate._band_words(bits[2]).tolist() == expected[2]


@pytest.mark.parametrize("width, top", [(4, 9_999), (8, 10**8 - 1), (12, 10**12 - 1),
                                        (16, 10**16 - 1), (20, 2**64 - 1)])  # fmt: skip
def test_decimal_text_matches_str(width, top):
    values = [0, 9, 10, 9_999, 10_000, top] + [10**k + d for k in range(20) for d in (-1, 1)]
    values = [v for v in values if v <= top]
    text = simulate._decimal_text(np.array(values, dtype=np.uint64), top)
    assert text.shape == (len(values), width)
    assert [row.tobytes().replace(b"\0", b"").decode() for row in text] == [
        str(v) for v in values
    ]
    # right-aligned: every NUL comes before the first digit
    assert all(row.tobytes().lstrip(b"\0").isdigit() for row in text)


def test_draw_block_and_next_slot_share_one_layout():
    sc = small_scenario(m_bands=37)
    blocks = ProtocolStreams(sc, 71)
    slots = ProtocolStreams(sc, 71)
    for n in (1, 300, 33_000):
        draws = blocks.draw_block(n)
        masks = [simulate._pack_slot_masks(x) for x in (draws[0], draws[1], draws[2], draws[4])]
        expected = [slots.next_slot() for _ in range(n)]
        assert [e[0] for e in expected] == masks[0]
        assert [e[1] for e in expected] == masks[1]
        assert [e[2] for e in expected] == masks[2]
        assert [e[3] for e in expected] == draws.su_uniform.tolist()
        assert [e[4] for e in expected] == masks[3]
        assert [e[5] for e in expected] == draws.secondary_arrival.tolist()
    assert blocks.consumed == slots.consumed == 33_301
    with pytest.raises(RuntimeError, match="buffered"):
        slots.draw_block(1)


@pytest.mark.parametrize("mode", list(Mode))
def test_run_memory_does_not_grow_with_the_horizon(mode):
    sc = reference_scenario(lambda_s=0.3)

    def peak(slots):
        tracemalloc.start()
        try:
            run(SimConfig(scenario=sc, mode=mode, slots=slots, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(100_000), peak(1_000_000)
    # 9 B per measured slot would add 8 MB here, and one bit per ORIGINAL
    # transmission opportunity 113 KB
    assert long - short < 32 * 1024, (short, long)

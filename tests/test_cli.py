import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specagg.cli import main
from specagg.config import SWEEP_AXES

TINY = {
    "m_bands": 2,
    "k_antennas": 1,
    "tau_b_frac": 0.1,
    "spectral_eff_r": 1.0,
    "snr_s": 2.0,
    "p_bar_p": 0.8,
    "p_fa": 0.1,
    "p_md": 0.2,
    "lambda_p": 0.32,
    "lambda_s": 0.1,
}

ANALYZE_GOLDEN = (
    "mu_p,pi,mu_s,primary_stable,secondary_stable\n"
    "0.6400000000000001,0.5000000000000001,0.35771299967146414,true,true\n"
)

SWEEP_GOLDEN = (
    "axis_value,status,mu_p,pi,mu_s_analytical,mu_s_simulated,std_err,m_opt\n"
    "0.0,ok,0.6400000000000001,1.0,0.7080095554555206,,,2\n"
    "0.32,ok,0.6400000000000001,0.5000000000000001,0.35771299967146414,,,2\n"
    "0.7,skipped,,,,,,\n"
)

COMPARE_GOLDEN = (
    "axis_value,status,mu_s_psd,mu_s_limited,mu_s_single_band\n"
    "0.0,ok,0.7080095554555206,0.5613389752889318,0.4969541797208559\n"
    "0.32,ok,0.35771299967146414,0.3210453546298169,0.304949155737798\n"
    "0.7,skipped,,,\n"
)

ANALYZE_JSON_GOLDEN = """\
{
  "label": null,
  "mu_p": 0.6400000000000001,
  "pi": 0.5000000000000001,
  "mu_s": 0.35771299967146414,
  "primary_stable": true,
  "secondary_stable": true
}
"""

OPTIMIZE_JSON_GOLDEN = """\
{
  "label": null,
  "m_opt": 2,
  "mu_s_opt": 0.35771299967146414,
  "mu_p_sensed_bands": 0.6400000000000001,
  "mu_p_unsensed_bands": 0.8,
  "profile": [
    [
      1,
      0.2519392139353009
    ],
    [
      2,
      0.35771299967146414
    ]
  ]
}
"""

SWEEP_JSON_GOLDEN = """\
[
  {
    "axis_value": 0.0,
    "status": "ok",
    "mu_p": 0.6400000000000001,
    "pi": 1.0,
    "mu_s_analytical": 0.7080095554555206,
    "mu_s_simulated": null,
    "std_err": null,
    "m_opt": 2
  },
  {
    "axis_value": 0.32,
    "status": "ok",
    "mu_p": 0.6400000000000001,
    "pi": 0.5000000000000001,
    "mu_s_analytical": 0.35771299967146414,
    "mu_s_simulated": null,
    "std_err": null,
    "m_opt": 2
  },
  {
    "axis_value": 0.7,
    "status": "skipped",
    "mu_p": null,
    "pi": null,
    "mu_s_analytical": null,
    "mu_s_simulated": null,
    "std_err": null,
    "m_opt": null
  }
]
"""

COMPARE_JSON_GOLDEN = """\
[
  {
    "axis_value": 0.0,
    "status": "ok",
    "mu_s_psd": 0.7080095554555206,
    "mu_s_limited": 0.5613389752889318,
    "mu_s_single_band": 0.4969541797208559
  },
  {
    "axis_value": 0.32,
    "status": "ok",
    "mu_s_psd": 0.35771299967146414,
    "mu_s_limited": 0.3210453546298169,
    "mu_s_single_band": 0.304949155737798
  },
  {
    "axis_value": 0.7,
    "status": "skipped",
    "mu_s_psd": null,
    "mu_s_limited": null,
    "mu_s_single_band": null
  }
]
"""

# sha256 of `simulate --slots 2000 --format json` at TINY (seed 1)
SIMULATE_JSON_SHA256 = "baeaa95f67bb2bd673d7ebfde5ea7cbfb22701e09976a2204d192f131dc3e8e4"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    return write_config(tmp_path, TINY)


@pytest.fixture
def tiny_sweep(tmp_path):
    return write_config(
        tmp_path,
        {**TINY, "axis": "lambda_p", "values": [0.0, 0.32, 0.7]},
        name="sweep.json",
    )


def test_analyze_golden_csv(tiny_config, capsys):
    assert main(["analyze", "--config", tiny_config]) == 0
    assert capsys.readouterr().out == ANALYZE_GOLDEN


def test_analyze_json(tiny_config, capsys):
    assert main(["analyze", "--config", tiny_config, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu_p"] == 0.6400000000000001
    assert data["primary_stable"] is True
    assert data["label"] is None


@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("analyze", "tiny_config", ANALYZE_JSON_GOLDEN),
        ("optimize", "tiny_config", OPTIMIZE_JSON_GOLDEN),
        ("sweep", "tiny_sweep", SWEEP_JSON_GOLDEN),
        ("compare", "tiny_sweep", COMPARE_JSON_GOLDEN),
    ],
    ids=["analyze", "optimize", "sweep", "compare"],
)
def test_json_golden(command, config, golden, request, capsys):
    path = request.getfixturevalue(config)
    assert main([command, "--config", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == golden


def test_simulate_json_bytes_are_pinned(tiny_config, capsys):
    argv = ["simulate", "--config", tiny_config, "--slots", "2000", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_JSON_SHA256


def test_simulate_prints_null_for_a_rate_with_nothing_to_count(tmp_path, capsys):
    # no primary traffic: no band is ever nonempty, so no primary is ever served
    config = write_config(tmp_path, {**TINY, "lambda_p": 0.0})
    argv = ["simulate", "--config", config, "--slots", "2000", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical_mu_p"] is None
    assert data["mu_p_analytical"] == 0.6400000000000001
    assert 0.0 <= data["empirical_mu_s"] <= 1.0  # DOMINANT: every slot is an opportunity
    # nor any secondary traffic: ORIGINAL mode never has a transmission opportunity
    config = write_config(tmp_path, {**TINY, "lambda_p": 0.0, "lambda_s": 0.0}, name="idle.json")
    argv = ["simulate", "--config", config, "--slots", "2000", "--mode", "original"]
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical_mu_p"] is data["empirical_mu_s"] is data["std_err_mu_s"] is None
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["empirical_mu_p"] == values["empirical_mu_s"] == "nan"


def test_csv_floats_round_trip(tiny_config, capsys):
    main(["analyze", "--config", tiny_config])
    header, row = capsys.readouterr().out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["mu_s"]) == 0.35771299967146414
    assert float(values["pi"]) == 0.5000000000000001


def test_analyze_writes_output_file(tiny_config, tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert main(["analyze", "--config", tiny_config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == ANALYZE_GOLDEN


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--out"], ["simulate", "--slots", "50", "--trace"]],
    ids=["out", "trace"],
)
def test_unwritable_output_is_a_runtime_error(argv, tiny_config, tmp_path, capsys):
    path = tmp_path / "missing" / "result.csv"
    assert main(argv + [str(path), "--config", tiny_config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("specagg: ")
    assert not path.exists()


def test_analyze_rejects_sweep_config(tiny_sweep, capsys):
    assert main(["analyze", "--config", tiny_sweep]) == 1
    assert "expected a scenario config" in capsys.readouterr().err


def test_analyze_unstable_primary_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, {**TINY, "lambda_p": 0.7})
    assert main(["analyze", "--config", config]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_config_error_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, {**TINY, "p_fa": 1.5})
    assert main(["analyze", "--config", config]) == 1
    assert "p_fa" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["analyze"]) == 1  # --config is required
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_optimize_csv_profile(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "m,mu_s"
    assert len(lines) == 3
    assert lines[2].startswith("2,")


def test_optimize_json_reports_both_primary_rates(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m_opt"] == 2
    assert data["mu_p_sensed_bands"] == pytest.approx(0.64)
    assert data["mu_p_unsensed_bands"] == pytest.approx(0.8)
    assert len(data["profile"]) == 2


def test_no_primary_traffic_is_analyzed_and_optimized_when_mu_p_is_zero(tmp_path, capsys):
    # p_md = 1 makes mu_p = 0; lambda_p = 0 still leaves every band idle
    config = write_config(tmp_path, {**TINY, "p_md": 1.0, "lambda_p": 0.0})
    assert main(["analyze", "--config", config, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu_p"] == 0.0 and data["pi"] == 1.0 and data["primary_stable"] is True
    assert main(["optimize", "--config", config, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu_s_opt"] == max(rate for _, rate in data["profile"]) > 0.0


def test_optimize_overloaded_primary_message(tmp_path, capsys):
    config = write_config(tmp_path, {**TINY, "lambda_p": 0.7})
    assert main(["optimize", "--config", config]) == 2
    assert capsys.readouterr().err == "specagg: lambda_p = 0.7 exceeds mu_p = 0.6400000000000001\n"


def test_sweep_keeps_lambda_p_zero_when_mu_p_is_zero(tmp_path, capsys):
    config = write_config(
        tmp_path, {**TINY, "p_md": 1.0, "axis": "lambda_p", "values": [0.0, 0.1]}
    )
    assert main(["sweep", "--config", config, "--format", "json"]) == 0
    free, busy = json.loads(capsys.readouterr().out)
    assert free["status"] == "ok" and free["pi"] == 1.0 and free["m_opt"] == 2
    assert busy["status"] == "skipped"


def test_sweep_golden_csv(tiny_sweep, capsys):
    assert main(["sweep", "--config", tiny_sweep]) == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN


def test_sweep_json_rows(tiny_sweep, capsys):
    assert main(["sweep", "--config", tiny_sweep, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert rows[2]["status"] == "skipped"
    assert rows[2]["mu_s_analytical"] is None
    assert rows[0]["m_opt"] == 2


def test_sweep_with_simulation_fills_simulated_columns(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            **TINY,
            "axis": "lambda_p",
            "values": [0.0, 0.32],
            "with_simulation": True,
            "sim_slots": 4000,
            "sim_seed": 3,
        },
    )
    assert main(["sweep", "--config", config, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        assert row["mu_s_simulated"] is not None
        assert abs(row["mu_s_simulated"] - row["mu_s_analytical"]) < 0.05


def test_sweep_with_simulation_is_byte_identical(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            **TINY,
            "axis": "lambda_p",
            "values": [0.0, 0.32],
            "with_simulation": True,
            "sim_slots": 2000,
            "sim_seed": 13,
        },
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", config, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", config, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags, needle",
    [
        ("simulate", ["--slots", "0"], "slots: must be >= 1, got 0"),
        ("simulate", ["--seed", "-1"], "seed: must be >= 0, got -1"),
        ("simulate", ["--slots", "100", "--warmup", "100"], "warmup: must be"),
        ("simulate", ["--warmup", "-1"], "warmup: must be"),
        ("sweep", ["--slots", "0"], "slots: must be >= 1, got 0"),
        ("sweep", ["--seed", "-1"], "seed: must be >= 0, got -1"),
    ],
)
def test_out_of_range_run_flag_is_a_usage_error(tmp_path, capsys, command, flags, needle):
    sweep = {"axis": "lambda_p", "values": [0.32], "with_simulation": True,
             "sim_slots": 2000, "sim_seed": 3}  # fmt: skip
    config = write_config(tmp_path, {**TINY, **sweep} if command == "sweep" else TINY)
    assert main([command, "--config", config, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"specagg: usage error: {needle}" in captured.err


@pytest.mark.parametrize(
    "sweep",
    [
        # no row is simulated
        {"axis": "lambda_p", "values": [0.0, 0.32]},
        # the one simulated row is skipped: lambda_p = 0.7 > mu_p
        {"axis": "lambda_p", "values": [0.7], "with_simulation": True,
         "sim_slots": 2000, "sim_seed": 3},  # fmt: skip
    ],
)
@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--slots", "0"], "slots: must be >= 1, got 0"),
        (["--seed", "-1"], "seed: must be >= 0, got -1"),
    ],
)
def test_out_of_range_run_flag_is_refused_when_no_row_runs(
    tmp_path, capsys, sweep, flags, needle
):
    config = write_config(tmp_path, {**TINY, **sweep})
    assert main(["sweep", "--config", config, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"specagg: usage error: {needle}" in captured.err


@pytest.mark.parametrize(
    "settings, needle",
    [
        ({"sim_slots": 0, "sim_seed": 3}, "sim_slots: must be >= 1, got 0"),
        ({"sim_slots": 2000, "sim_seed": -1}, "sim_seed: must be >= 0, got -1"),
    ],
    ids=["sim_slots", "sim_seed"],
)
def test_out_of_range_sweep_setting_is_a_config_error(tmp_path, capsys, settings, needle):
    # SimConfig checks the file's settings as it checks --slots and --seed
    sweep = {"axis": "lambda_p", "values": [0.32], "with_simulation": True, **settings}
    config = write_config(tmp_path, {**TINY, **sweep})
    assert main(["sweep", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"specagg: config error: {needle}" in captured.err


def test_sweep_over_band_counts_omits_m_opt(tmp_path, capsys):
    config = write_config(
        tmp_path, {**TINY, "axis": "m_bands", "values": [1, 2]}, name="bands.json"
    )
    assert main(["sweep", "--config", config, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["axis_value"] for row in rows] == [1, 2]
    assert all(row["m_opt"] is None for row in rows)


def test_sweep_keeps_the_row_where_lambda_p_equals_mu_p(tmp_path, capsys):
    # p_md = 0 makes mu_p = p_bar_p = 0.8 exactly: pi = 0, and the optimizer
    # refuses the point, so m_opt is left empty.
    config = write_config(
        tmp_path, {**TINY, "p_md": 0.0, "axis": "lambda_p", "values": [0.5, 0.8]}
    )
    assert main(["sweep", "--config", config]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("0.5,ok,") and not rows[1].endswith(",")
    assert rows[2] == "0.8,ok,0.8,0.0,0.0,,,"


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize(
    "axis,values,needle",
    [
        ("lambda_p", [0.1, 1.5], "values[1]: lambda_p: must be in [0, 1], got 1.5"),
        ("m_bands", [2, 0], "values[1]: m_bands: must be >= 1, got 0"),
    ],
)
def test_out_of_range_sweep_value_exits_one(tmp_path, capsys, command, axis, values, needle):
    config = write_config(tmp_path, {**TINY, "axis": axis, "values": values})
    assert main([command, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


def test_compare_golden_csv(tiny_sweep, capsys):
    assert main(["compare", "--config", tiny_sweep]) == 0
    assert capsys.readouterr().out == COMPARE_GOLDEN


def test_compare_requires_sweep(tiny_config, capsys):
    assert main(["compare", "--config", tiny_config]) == 1
    assert "sweep config" in capsys.readouterr().err


def test_simulate_csv_includes_analytical_columns(tiny_config, capsys):
    assert main(
        ["simulate", "--config", tiny_config, "--slots", "3000", "--seed", "5"]
    ) == 0
    header, row = capsys.readouterr().out.splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["mode"] == "DOMINANT"
    assert columns["slots"] == "3000"
    assert float(columns["mu_s_analytical"]) == 0.35771299967146414
    assert abs(float(columns["empirical_mu_s"]) - 0.3577) < 0.05


def test_simulate_original_mode_flag(tiny_config, capsys):
    assert main(
        [
            "simulate",
            "--config",
            tiny_config,
            "--slots",
            "2000",
            "--mode",
            "original",
            "--format",
            "json",
        ]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "ORIGINAL"
    assert data["arrivals_s"] == data["departures_s"] + data["final_queue_s"]


def test_simulate_repeated_invocations_are_byte_identical(tiny_config, tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--config", tiny_config, "--slots", "3000", "--seed", "11"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_simulate_trace_stream(tiny_config, tmp_path, capsys):
    trace = tmp_path / "trace.ndjson"
    assert main(
        [
            "simulate",
            "--config",
            tiny_config,
            "--slots",
            "200",
            "--trace",
            str(trace),
        ]
    ) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert len(lines) == 200
    assert json.loads(lines[0])["slot"] == 0


def test_simulate_unstable_primary_still_reports(tmp_path, capsys):
    # the run itself is fine; analytical columns are simply empty
    config = write_config(tmp_path, {**TINY, "lambda_p": 0.7})
    assert main(
        ["simulate", "--config", config, "--slots", "2000", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu_s_analytical"] is None
    assert data["mu_p_analytical"] is None


REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"

# configs/reference.json when the trace hashes below were recorded
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

# sha256 of --trace files as written by the per-slot loop that run() used
# before its block kernel; the m=5 run spans two blocks of slots, m=40 three
TRACE_SHA256 = {
    (5, "dominant"): "dbbe43bfb18f33bfe8d08c73ba58c8e86be61e767705c354c53eb95fe505a931",
    (5, "original"): "89092915239fd52a5344a994a820adbd341ed597600706afef9bd6538c0f3c34",
    (40, "dominant"): "3c4b472095a5881a1fdd50ef7cce6bec0e04742695debcc1abf9e4a6c22e32f9",
    (40, "original"): "704c7f8e71d9774bddf6bf78214a75eeefaee02aebb1ea74b3d65bf778cb83ba",
}


@pytest.mark.parametrize("m_bands, mode", sorted(TRACE_SHA256))
def test_simulate_trace_bytes_are_pinned(m_bands, mode, tmp_path, capsys):
    k_antennas, slots = {5: (4, 14_000), 40: (8, 4_000)}[m_bands]
    config = write_config(tmp_path, {**REFERENCE, "m_bands": m_bands, "k_antennas": k_antennas})
    trace = tmp_path / "trace.ndjson"
    argv = ["simulate", "--config", config, "--mode", mode, "--slots", str(slots),
            "--seed", "7", "--trace", str(trace), "--out", str(tmp_path / "out.csv")]  # fmt: skip
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256[m_bands, mode]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_simulate_json_is_strict_when_std_err_is_undefined(capsys):
    # 50 slots give fewer than 100 measured slots: no batch means
    argv = ["simulate", "--config", str(REFERENCE_CONFIG), "--mode", "original",
            "--slots", "50", "--format", "json"]  # fmt: skip
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["std_err_mu_s"] is None
    assert isinstance(data["mu_s_analytical"], float)


CONFIGS = sorted(REFERENCE_CONFIG.parent.glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_runs_through_every_command(config, capsys):
    is_sweep = "axis" in json.loads(config.read_text())
    for command in ("analyze", "optimize", "simulate", "sweep", "compare"):
        wants_sweep = command in ("sweep", "compare")
        expected = 0 if wants_sweep == is_sweep else 1  # 1: scenario/sweep mismatch
        slots = ["--slots", "2000"] if command in ("simulate", "sweep") else []
        out = {}
        for fmt in ("csv", "json"):
            argv = [command, "--config", str(config), "--format", fmt, *slots]
            assert main(argv) == expected, argv
            out[fmt] = capsys.readouterr().out
        if expected:
            continue
        header, *rows = [line.split(",") for line in out["csv"].splitlines()]
        record = json.loads(out["json"])
        if command == "optimize":
            assert header == ["m", "mu_s"]
            assert [[str(m), repr(rate)] for m, rate in record["profile"]] == rows
        elif wants_sweep:
            assert len(record) == len(rows)
            assert all(list(row) == header for row in record)
        else:
            assert [key for key in record if key != "label"] == header


def test_rate_past_two_to_the_1024_is_an_unstable_primary_not_a_traceback(tmp_path, capsys):
    # 2**1024 overflows a float; the primary link's success is exactly 0.0
    raw = json.loads(REFERENCE_CONFIG.read_text())
    del raw["p_bar_p"]
    raw |= {"spectral_eff_r": 1024, "snr_p": 4.0}
    loaded = write_config(tmp_path, raw)
    for command in ("analyze", "optimize"):
        assert main([command, "--config", loaded]) == 2
        assert capsys.readouterr().err == "specagg: lambda_p = 0.5 exceeds mu_p = 0.0\n"
    idle = write_config(tmp_path, raw | {"lambda_p": 0})
    assert main(["analyze", "--config", idle, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mu_p"] == 0.0


UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
# two draws in three near 2**r's overflow at r = 1024
RATE = st.sampled_from([1023.9, 1024.0, 1024.5, 1100.0, 1e6]) | st.floats(1020.0, 1030.0)
RATE |= st.floats(1e-3, 20.0)
SNR = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308])
SNR |= st.floats(1e-3, 1e3)
BANDS = st.sampled_from([1, 64, 65, 300]) | st.integers(1, 300)
AXIS_VALUES = {"m_bands": BANDS, "k_antennas": st.integers(1, 400), "spectral_eff_r": RATE}


@st.composite
def config_files(draw):
    """A scenario or sweep file that load_config accepts, with values at the edges."""
    raw = {
        "m_bands": draw(BANDS),
        "k_antennas": draw(st.integers(1, 400)),
        "tau_b_frac": draw(UNIT),
        "spectral_eff_r": draw(RATE),
        "snr_s": draw(SNR),
        "p_fa": draw(UNIT),
        "p_md": draw(UNIT),
        "lambda_p": draw(UNIT),
        "lambda_s": draw(UNIT),
        "power_mode": draw(st.sampled_from(["PSD", "LIMITED"])),
    }
    raw |= {"snr_p": draw(SNR)} if draw(st.booleans()) else {"p_bar_p": draw(UNIT)}
    if draw(st.booleans()):
        axis = draw(st.sampled_from(SWEEP_AXES))
        values = st.lists(AXIS_VALUES.get(axis, UNIT), min_size=1, max_size=3)
        raw |= {"axis": axis, "values": draw(values)}
        if draw(st.booleans()):
            raw |= {"with_simulation": True, "sim_slots": 30, "sim_seed": 0}
    return raw


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=config_files(), mode=st.sampled_from(["dominant", "original"]))
def test_every_command_exits_cleanly_on_any_loadable_config(tmp_path, capsys, raw, mode):
    config = write_config(tmp_path, raw)
    run_flags = ["--slots", "40", "--mode", mode, "--trace", str(tmp_path / "trace.ndjson")]
    for command in ("analyze", "optimize", "simulate", "sweep", "compare"):
        for fmt in ("csv", "json"):
            argv = [command, "--config", config, "--format", fmt]
            argv += run_flags if command == "simulate" else []
            code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and "Traceback" not in out + err, (argv, err)
            if code == 0 and fmt == "json":
                json.loads(out, parse_constant=_reject_constant)

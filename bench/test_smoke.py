"""Smoke test of the benchmark at tiny N; no assertion depends on wall time.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from worker import Tracer  # noqa: E402

TINY_ECHO = {"mode": "le-sweep", "N": 256, "k": 0.0002, "sigma_over_hbar": [0.5, 1.0],
             "t_max": 40, "n_states": 2, "transient_skip": 2}
TINY_LDM = {"mode": "purity-sweep", "N": 64, "k": 0.01, "model": "ldm",
            "epsilon": [0.002, 0.004], "t_max": 6, "transient_skip": 0}


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_units().items())


def test_every_workload_config_parses():
    sys.path.insert(0, str(run.SRC))
    from torus_echo.cli import parse_config

    for spec in run.WORKLOADS.values():
        config = parse_config(run.config_text(spec, 3))
        assert config.seed == 3
        assert config.t_max == spec["t_max"]


def test_end_to_end_run_at_tiny_n():
    result, record = run.run("tiny-echo", 1, 0.0, 0, spec=TINY_ECHO, reference={})
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_SWEEPS
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # End-to-end times are medians of each sample over the host probe that followed it.
    samples = record["samples"]
    assert len(samples["probe_s"]) == len(samples["sweep_s"]) == len(samples["setup_s"])
    for name in ("sweep_s", "setup_s"):
        ratios = [t / p for t, p in zip(samples[name], samples["probe_s"])]
        assert result["metrics"][name]["value"] == pytest.approx(
            run.PROBE_REF_S * statistics.median(ratios))


def test_traced_run_at_tiny_n_counts_layers():
    result, record = run.run("tiny-ldm", 1, 0.0, 1, spec=TINY_LDM, reference={})
    assert result["correct"], record["failures"]
    assert record["dc_oracle_max_rel_err"] <= run.ORACLE_RTOL
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(run.per_layer_units())
    steps = len(TINY_LDM["epsilon"]) * TINY_LDM["t_max"]
    assert metrics["dynamics.apply_to_density_calls"] == steps
    assert metrics["hilbert.rho_to_chord_calls"] == steps
    assert metrics["hilbert.purity_calls"] == steps + len(TINY_LDM["epsilon"])
    assert metrics["decoherence.lorentz_kernel_calls"] == len(TINY_LDM["epsilon"])
    assert metrics["dynamics.apply_propagator_calls"] == 0
    assert metrics["dynamics.propagator_build_redundancy"] == 1.0
    assert metrics["cli.bytes_written"] > 0
    assert metrics["trace.spans"] > steps


def test_reference_mismatch_and_broken_invariants_fail_rows():
    spec = dict(TINY_LDM, epsilon=[0.002])
    row = {"control": "0.002", "gamma": "0.5", "window_t1": "0", "window_t2": "5",
           "n_points": "6"}
    good = {"exit_code": 0, "rows": [row], "curves": [[1.0, 0.5, 0.3, 0.2, 0.1, 0.08, 0.05]]}
    reference = {"1": [{"control": 0.002, "gamma": 0.5, "window_t1": 0, "window_t2": 5,
                        "n_points": 6}]}
    assert run.check_sweep(good, spec, 1, reference) == (1, 0, [])
    assert run.check_sweep(good, spec, 1, {"1": [dict(reference["1"][0], gamma=0.5 + 1e-6)]})[1] == 1
    assert run.check_sweep(good, spec, 1, {"1": [dict(reference["1"][0], n_points=5)]})[1] == 1
    rising = dict(good, curves=[[1.0, 0.5, 0.6, 0.2, 0.1, 0.08, 0.05]])
    assert run.check_sweep(rising, spec, 1, {})[1] == 1
    no_fit = dict(good, rows=[dict(row, gamma="")])
    assert run.check_sweep(no_fit, spec, 1, {})[1] == 1
    assert run.check_sweep(dict(good, exit_code=2), spec, 1, {})[1] == 1
    echo_spec = dict(TINY_ECHO, sigma_over_hbar=[0.5])
    assert run.check_sweep(dict(good, curves=[[1.0, 1.1, 0.5, 0.4]]), echo_spec, 1, {})[1] == 1


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.001)

    traced_inner = tracer.wrap("hilbert.purity", inner)
    outer = tracer.wrap("cli.run", lambda: [traced_inner() for _ in range(3)])
    outer()
    layers = tracer.summary()["layers"]
    assert layers["hilbert.purity"]["calls"] == 3
    assert layers["cli.run"]["calls"] == 1
    assert layers["cli.run"]["self_s"] == pytest.approx(
        layers["cli.run"]["total_s"] - layers["hilbert.purity"]["total_s"])
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "echo-fgr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

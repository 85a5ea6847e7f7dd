#!/usr/bin/env python3
"""Benchmark of torus-echo: every workload is one real ``torus-echo`` sweep.

    python3 bench/run.py --workload purity-gdm --seed 1 --seconds 40 --trace 0

The package is imported from ``src`` next to this directory; nothing is
installed.  Each sample is a fresh ``worker.py`` process, so every sweep
pays the imports and lazy caches a CLI invocation pays.  Sweeps, and
a host probe after each, repeat while the next pair is expected to end
within ``--seconds`` (at least MIN_SWEEPS sweeps).  On a shared host a
single sample moves by 10-20%, and whole runs by as much when the host stays
slow for a minute.  So a probe process times fixed work of the sweeps'
kinds that uses no ``torus_echo`` code right after every sweep, and each
end-to-end time is PROBE_REF_S times the median over the run of the
sample's time over its probe's: it reads as seconds at the reference host
speed.  The unscaled medians are kept as ``wall``.  After the sweeps, untimed, every row is
checked (invariants, a finite positive rate, and the values in
reference.json), and the purity workloads also run the depolarizing
closed-form oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` pairs each
untraced sweep with a traced one and prints the per-layer metrics, the
tracing overhead among them.  The last line of standard output is the
result; the line before it and ``.bench_out/<run>/result.json`` hold the
environment, the samples and the check messages.  See README.md for why
each workload exists.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))
from worker import SPAN_NAMES  # noqa: E402

DEFAULT_SEED = 1
MIN_SWEEPS = 3
PROBE_REF_S = 1.2     # the host probe's time at the reference speed (see README)
RUN_DEADLINE_S = 170.0
GAMMA_RTOL = 1e-9
CURVE_TOL = 1e-12
ORACLE_RTOL = 1e-12
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

TWO_PI = 2.0 * math.pi
WORKLOADS = {
    "purity-gdm": {"mode": "purity-sweep", "N": 800, "k": 0.01, "model": "gdm",
                   "epsilon": [0.5 * TWO_PI / 800],
                   "t_max": 20, "transient_skip": 0},
    "purity-ldm": {"mode": "purity-sweep", "N": 800, "k": 0.01, "model": "ldm",
                   "epsilon": [0.0005],
                   "t_max": 6, "transient_skip": 0},
    "echo-fgr": {"mode": "le-sweep", "N": 4096, "k": 0.0002,
                 "sigma_over_hbar": [0.05, 0.1077, 0.2321, 0.5],
                 "t_max": 100, "n_states": 16, "transient_skip": 2},
}

END_TO_END = (("sweep_s", "s"), ("points_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("row_ok_frac", "ratio"))


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}_calls"] = "count"
        units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
    units.update({
        "decoherence.purity_step_ms": "ms",
        "decoherence.kernel_build_share": "ratio",
        "dynamics.state_steps": "count",
        "dynamics.apply_propagator_us_per_state_step": "us",
        "dynamics.propagator_build_redundancy": "ratio",
        "cli.bytes_written": "bytes",
        "calib.fft2_pair_ms": "ms",
        "calib.fft_pair_us": "us",
        "trace.sweep_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "calib.probe_s": "s",
    })
    return units


def controls(spec):
    return spec["epsilon"] if "epsilon" in spec else spec["sigma_over_hbar"]


def curve_points(spec):
    """Curve samples the config asks for: controls x t_max x n_states."""
    return len(controls(spec)) * spec["t_max"] * spec.get("n_states", 1)


def config_text(spec, seed):
    lines = [f"seed = {seed}", "a = 2", "b = 2"]
    for key, value in spec.items():
        if isinstance(value, list):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def computed_counts(N):
    """FLOP and byte counts computed from array sizes (not measured).

    FFT of length n: 5 n log2 n flop; complex multiply: 6 flop.  Bytes count
    one read and one write of each N x N complex128 array per pass and
    ignore cache misses.
    """
    fft_rows = 5 * N * N * math.log2(N)
    return {
        "note": "computed from N, not measured",
        "N": N,
        "apply_to_density_flop": 4 * fft_rows + 4 * 6 * N * N,
        "apply_to_density_bytes": 10 * 2 * 16 * N * N,
        "rho_to_chord_flop": fft_rows + 6 * N * N,
        "rho_to_chord_bytes": (16 + 8 + 16) * N * N + 2 * 16 * N * N + 3 * 16 * N * N,
    }


class Runner:
    """Starts workers for one benchmark run and enforces its deadline."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        for var in BLAS_THREAD_VARS:
            self.env.setdefault(var, str(nproc))
        self.count = 0

    def call(self, request):
        request = {"src": str(SRC), **request}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
                              env=self.env, cwd=self.run_dir, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {request['task']} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def sweep(self, config, trace):
        self.count += 1
        out = self.run_dir / f"sweep{self.count:03d}"
        request = {"task": "sweep", "config": str(config), "out": str(out), "trace": trace,
                   "spans": str(self.run_dir / f"spans{self.count:03d}.csv")}
        result = self.call(request)
        result["rows"] = read_sweep_csv(out / "sweep.csv")
        result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return result


def read_sweep_csv(path):
    if not path.is_file():
        return []
    with open(path) as fh:
        return list(csv.DictReader(fh))


def check_sweep(sample, spec, seed, reference):
    """Check one sweep's rows; returns (rows attempted, rows failed, messages)."""
    n_rows = len(controls(spec))
    if sample["exit_code"] != 0:
        return n_rows, n_rows, [f"cli exit code {sample['exit_code']}"]
    rows, curves = sample["rows"], sample["curves"]
    if len(rows) != n_rows or len(curves) != n_rows:
        return n_rows, n_rows, [f"{len(rows)} csv rows and {len(curves)} curves, "
                                f"expected {n_rows}"]
    expected = reference.get(str(seed))
    failed, messages = 0, []
    for i, (row, values) in enumerate(zip(rows, curves)):
        problems = check_curve(values, spec)
        if row["gamma"] == "":
            problems.append("fit failed")
        else:
            gamma = float(row["gamma"])
            if not (math.isfinite(gamma) and gamma > 0):
                problems.append(f"gamma {gamma} not finite and positive")
            if expected is not None:
                ref = expected[i]
                if float(row["control"]) != ref["control"]:
                    problems.append(f"control {row['control']} != reference {ref['control']}")
                if abs(gamma - ref["gamma"]) > GAMMA_RTOL * abs(ref["gamma"]):
                    problems.append(f"gamma {gamma!r} != reference {ref['gamma']!r}")
                window = [int(row["window_t1"]), int(row["window_t2"]), int(row["n_points"])]
                if window != [ref["window_t1"], ref["window_t2"], ref["n_points"]]:
                    problems.append(f"window and n_points {window} != reference")
        failed += bool(problems)
        messages += [f"row {i} (control {row['control']}): {p}" for p in problems]
    return n_rows, failed, messages


def check_curve(values, spec):
    """Invariants: 0 < M <= 1, M(0) = 1; purity non-increasing in [1/N, 1]."""
    problems = []
    if spec["mode"] == "le-sweep":
        if abs(values[0] - 1.0) > CURVE_TOL:
            problems.append(f"M(0) = {values[0]!r}")
        if not all(0.0 < v <= 1.0 + CURVE_TOL for v in values):
            problems.append("M(t) outside (0, 1]")
    else:
        lo = 1.0 / spec["N"] - CURVE_TOL
        if not all(lo <= v <= 1.0 + CURVE_TOL for v in values):
            problems.append("purity outside [1/N, 1]")
        if any(b > a + CURVE_TOL for a, b in zip(values, values[1:])):
            problems.append("purity increased")
    return problems


def sweep_layer_metrics(sample):
    """Per-layer metrics of one traced sweep."""
    trace, layers = sample["trace"], sample["trace"]["layers"]
    metrics = {}
    for span, entry in layers.items():
        metrics[f"{span}_calls"] = entry["calls"]
        metrics[f"{span}_s"] = entry["total_s"]
        metrics[f"{span}_self_s"] = entry["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    step_s = sum(layers[name]["total_s"] for name in
                 ("dynamics.apply_to_density", "decoherence.apply_decoherence", "hilbert.purity"))
    kernel_s = layers["decoherence.build_kernel"]["total_s"] + layers["decoherence.chord_multiplier"]["total_s"]
    metrics.update({
        "decoherence.purity_step_ms": 1e3 * ratio(step_s, layers["dynamics.apply_to_density"]["calls"]),
        "decoherence.kernel_build_share": ratio(kernel_s, sample["sweep_s"]),
        "dynamics.state_steps": trace["state_steps"],
        "dynamics.apply_propagator_us_per_state_step":
            1e6 * ratio(layers["dynamics.apply_propagator"]["total_s"], trace["state_steps"]),
        "dynamics.propagator_build_redundancy":
            ratio(trace["propagator_builds"], trace["distinct_propagators"]),
        "cli.bytes_written": sample["bytes_written"],
        "calib.fft2_pair_ms": sample["calib"]["fft2_pair_ms"],
        "calib.fft_pair_us": sample["calib"]["fft_pair_us"],
        "trace.spans": trace["spans"],
    })
    return metrics


def layer_metrics(traced, untraced):
    """Medians over the traced sweeps, in wall-clock seconds.

    The tracing overhead is the median, over the pairs of an untraced sweep
    and the traced sweep run right after it, of traced minus untraced time:
    the two sweeps of a pair are the likeliest to see the same CPU level.
    """
    per_sweep = [sweep_layer_metrics(s) for s in traced]
    metrics = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
    metrics["trace.sweep_s"] = statistics.median(s["sweep_s"] for s in traced)
    metrics["trace.overhead_s"] = statistics.median(
        t["sweep_s"] - u["sweep_s"] for t, u in zip(traced, untraced))
    return metrics


def run(workload, seed, seconds, trace, spec=None, reference=None):
    """One benchmark run; returns the result line and the full record."""
    spec = WORKLOADS[workload] if spec is None else spec
    if reference is None:
        with open(BENCH / "reference.json") as fh:
            reference = json.load(fh).get(workload, {})
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-trace{int(trace)}-", dir=OUT))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "loadavg_at_start": os.getloadavg(), "nproc": len(os.sched_getaffinity(0)),
              "computed": computed_counts(spec["N"])}
    config = run_dir / "config.ini"
    config.write_text(config_text(spec, seed))
    runner = Runner(run_dir, time.monotonic() + RUN_DEADLINE_S)
    record["blas_threads"] = {v: runner.env[v] for v in BLAS_THREAD_VARS}

    warm = runner.call({"task": "setup", "config": str(config)})  # byte-compiles, warms caches
    record["env"] = warm["env"]
    untraced, traced, probes = [], [], []
    start = time.monotonic()
    elapsed = 0.0
    # Stop before an iteration that would overrun --seconds, once the minimum is in.
    while (elapsed * (len(untraced) + 1) / max(len(untraced), 1) <= seconds
           or len(untraced) < (1 if trace else MIN_SWEEPS)):
        untraced.append(runner.sweep(config, trace=False))
        if trace:
            traced.append(runner.sweep(config, trace=True))
        # Right after the sweep, so that both see the host at nearly the same speed.
        probes.append(runner.call({"task": "probe"})["probe_s"])
        elapsed = time.monotonic() - start

    attempted = failed_rows = 0
    failures = []
    for sample in untraced + traced:
        n, n_failed, messages = check_sweep(sample, spec, seed, reference)
        attempted += n
        failed_rows += n_failed
        failures += messages
    if spec["mode"] == "purity-sweep":
        err = runner.call({"task": "oracle", "seed": seed})["dc_oracle_max_rel_err"]
        record["dc_oracle_max_rel_err"] = err
        if not err <= ORACLE_RTOL:
            failures.append(f"dc oracle relative error {err:.3e} > {ORACLE_RTOL:g}")

    sweeps = [s["sweep_s"] for s in untraced]
    setups = [s["setup_s"] for s in untraced]
    wall = {"sweep_s": statistics.median(sweeps), "setup_s": statistics.median(setups),
            "probe_s": statistics.median(probes)}
    sweep_s = PROBE_REF_S * statistics.median(t / p for t, p in zip(sweeps, probes))
    end_to_end = {
        "sweep_s": sweep_s,
        "points_per_s": curve_points(spec) / sweep_s,
        "setup_s": PROBE_REF_S * statistics.median(t / p for t, p in zip(setups, probes)),
        "peak_rss_mib": statistics.median([s["peak_rss_mib"] for s in untraced]),
        "row_ok_frac": (attempted - failed_rows) / attempted,
    }
    record.update(samples={"sweep_s": sweeps, "setup_s": setups, "probe_s": probes,
                           "peak_rss_mib": [s["peak_rss_mib"] for s in untraced]},
                  wall=wall, end_to_end=end_to_end, failures=failures, run_dir=str(run_dir))
    if trace:
        record["per_layer"] = layer_metrics(traced, untraced)
        record["per_layer"]["calib.probe_s"] = wall["probe_s"]
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": attempted, "failed": failed_rows,
              "metrics": metrics}
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torus_echo" / "__init__.py").is_file():
        print(f"error: no torus_echo package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "env", "nproc", "blas_threads",
                       "loadavg_at_start", "computed", "wall", "samples", "run_dir")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

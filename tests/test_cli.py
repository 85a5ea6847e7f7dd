import itertools
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

import torus_echo.analysis
from torus_echo.analysis import gdm_rate_prediction
from torus_echo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_RUNTIME,
    ConfigError,
    ResourceRefusal,
    RunConfig,
    _check_memory,
    _write_curve_csv,
    main,
    parse_config,
    run,
)
from torus_echo.dynamics import MapParams
from torus_echo.hilbert import make_space

MINIMAL_LE = """
mode = le-curve
N = 4096
a = 2
b = 2
k = 0.0002
sigma_over_hbar = 0.5
t_max = 20
n_states = 8
seed = 1
"""

PAPER_PURITY = """
mode = purity-sweep
N = 800
a = 2
b = 2
k = 0.01
model = gdm
epsilon = 0.05, 0.08
t_max = 10
seed = 7
"""

# Every RunConfig field: a --set text, the value it parses to, and a text of
# the wrong type (None for string keys, which take any text).
SET_VALUES = {
    "mode": ("purity-curve", "purity-curve", None),
    "N": ("64", 64, "6.5"),
    "a": ("4", 4, "two"),
    "b": ("4", 4, "4.0"),
    "k": ("0.02", 0.02, "small"),
    "sigma_over_hbar": ("0.5, 2", [0.5, 2.0], "0.5, big"),
    "epsilon": ("0.1,0.2", [0.1, 0.2], "x"),
    "model": ("dc", "dc", None),
    "mixture_weight": ("0.25", 0.25, "half"),
    "image_cutoff": ("20", 20, "1e2"),
    "t_max": ("7", 7, "7.5"),
    "n_states": ("3", 3, "three"),
    "seed": ("3", 3, "0x3"),
    "transient_skip": ("1", 1, "1.0"),
    "floor_factor": ("2.5", 2.5, "2,5"),
    "out_dir": ("runs/x", "runs/x", None),
    "memory_cap_gib": ("2.5", 2.5, "lots"),
}


class TestParseConfig:
    def test_set_values_cover_every_field(self):
        assert set(SET_VALUES) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("key", sorted(SET_VALUES))
    def test_every_field_settable(self, key):
        text, value, _ = SET_VALUES[key]
        got = getattr(parse_config(PAPER_PURITY, overrides=[f"{key}={text}"]), key)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("key", sorted(k for k, v in SET_VALUES.items() if v[2] is not None))
    def test_wrong_type_names_key(self, key):
        with pytest.raises(ConfigError, match=f"key '{key}' expects"):
            parse_config(PAPER_PURITY, overrides=[f"{key}={SET_VALUES[key][2]}"])

    @pytest.mark.parametrize("key, text", [("epsilon", "nan"), ("epsilon", "0.1, inf"),
                                           ("sigma_over_hbar", "-inf"), ("k", "1e400"),
                                           ("mixture_weight", "nan"), ("floor_factor", "inf"),
                                           ("memory_cap_gib", "nan")])
    def test_non_finite_number_names_key(self, key, text):
        # nan compares false with every bound, so the range checks cannot catch it
        with pytest.raises(ConfigError, match=f"key '{key}' expects a.* finite number"):
            parse_config(PAPER_PURITY, overrides=[f"{key}={text}"])

    def test_minimal_le_curve(self):
        cfg = parse_config(MINIMAL_LE)
        assert cfg.mode == "le-curve"
        assert cfg.N == 4096
        assert cfg.sigma_over_hbar == [0.5]
        assert cfg.n_states == 8

    def test_paper_purity_config(self):
        cfg = parse_config(PAPER_PURITY)
        assert cfg.N == 800 and cfg.k == 0.01 and cfg.model == "gdm"

    def test_purity_default_n_and_k(self):
        cfg = parse_config("mode = purity-curve\nmodel = gdm\nepsilon = 0.1\nt_max = 5")
        assert cfg.N == 800
        assert cfg.k == 0.01

    def test_echo_default_k(self):
        cfg = parse_config("mode = le-curve\nN = 64\nsigma_over_hbar = 1.0\nt_max = 5")
        assert cfg.k == 0.0002

    def test_odd_a_rejected(self):
        with pytest.raises(ConfigError, match="'a'"):
            parse_config(MINIMAL_LE + "\na = 3")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            parse_config(MINIMAL_LE + "\nbogus = 1")

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config("N = 64")

    def test_missing_n_for_echo(self):
        with pytest.raises(ConfigError, match="'N'"):
            parse_config("mode = le-curve\nsigma_over_hbar = 1.0")

    def test_empty_sweep_list(self):
        with pytest.raises(ConfigError, match="sigma_over_hbar"):
            parse_config("mode = le-sweep\nN = 64\nsigma_over_hbar =\nt_max = 5")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'N'"):
            parse_config("mode = le-curve\nN = lots\nsigma_over_hbar = 1.0")

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError, match="'k'"):
            parse_config(MINIMAL_LE + "\nk = -0.1")

    def test_nonpositive_n(self):
        with pytest.raises(ConfigError, match="'N'"):
            parse_config("mode = le-curve\nN = -4\nsigma_over_hbar = 1.0")

    def test_missing_model_for_purity(self):
        with pytest.raises(ConfigError, match="'model'"):
            parse_config("mode = purity-sweep\nepsilon = 0.1")

    def test_bad_model(self):
        with pytest.raises(ConfigError, match="'model'"):
            parse_config("mode = purity-sweep\nepsilon = 0.1\nmodel = foo")

    def test_overrides_applied_last(self):
        cfg = parse_config(MINIMAL_LE, overrides=["N=128", "seed=9"])
        assert cfg.N == 128 and cfg.seed == 9

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_LE, overrides=["N"])

    def test_default_t_max_formula(self):
        cfg = parse_config("mode = le-curve\nN = 4096\nsigma_over_hbar = 1.0")
        lam = np.log(3 + 2 * np.sqrt(2))
        assert cfg.t_max == int(np.ceil((np.log(4096) + 2) / lam))

    def test_predict_requires_analytic_model(self):
        with pytest.raises(ConfigError, match="predict"):
            parse_config("mode = predict\nN = 800\nmodel = ldm\nepsilon = 0.1")


class TestRun:
    def test_le_curve_outputs(self, tmp_path):
        cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={tmp_path}", "N=128", "t_max=10"])
        assert run(cfg) == EXIT_OK
        body = (tmp_path / "curve_le_000.csv").read_text()
        lines = body.strip().split("\n")
        assert lines[0] == "t,value,minus_ln_value"
        assert len(lines) == 12  # header + t = 0..10
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == pytest.approx(1.0, abs=1e-12)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["curve_le_000.csv"]
        assert all((tmp_path / name).exists() for name in manifest["outputs"])

    def test_le_sweep_three_rows(self, tmp_path):
        text = ("mode = le-sweep\nN = 256\nk = 0.001\nsigma_over_hbar = 0.4, 0.7, 1.0\n"
                f"t_max = 40\nn_states = 4\nseed = 2\ntransient_skip = 1\nout_dir = {tmp_path}")
        assert run(parse_config(text)) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "control,gamma,stderr,window_t1,window_t2,n_points,prediction"
        assert len(lines) == 4

    def test_purity_sweep_with_predictions(self, tmp_path):
        cfg = parse_config(PAPER_PURITY, overrides=[f"out_dir={tmp_path}", "N=64",
                                                    "transient_skip=0"])
        code = run(cfg)
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.split(",")[6] != ""  # gdm prediction always present
        assert code in (EXIT_OK, EXIT_RUNTIME)

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={out}", "N=128", "t_max=8"])
            assert run(cfg) == EXIT_OK
        assert (out1 / "curve_le_000.csv").read_bytes() == (out2 / "curve_le_000.csv").read_bytes()

    def test_memory_refusal(self, tmp_path):
        text = ("mode = purity-sweep\nN = 65536\nmodel = gdm\nepsilon = 0.1\n"
                f"t_max = 5\nout_dir = {tmp_path}")
        code = main(["purity-sweep", "--config", str(_write(tmp_path, text))])
        assert code == EXIT_RESOURCE

    def test_predict_is_charged_nothing(self):
        # closed-form rates allocate no state, so the largest space is admitted
        _check_memory(RunConfig(mode="predict", N=2**26))

    def test_echo_working_set_admits_n2_24_at_default_cap(self):
        # 4 + 9w complex vectors on w <= 2 threads: 5.5 GiB at N = 2^24
        _check_memory(RunConfig(mode="le-sweep", N=2**24))
        with pytest.raises(ResourceRefusal):
            _check_memory(RunConfig(mode="le-sweep", N=2**26))

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("N, workers", [(2**24, 2), (2**25, 1)])
    def test_echo_threads_lowered_to_fit_the_default_cap(self, monkeypatch, cpus, N, workers):
        # at N = 2^25 two threads need 11 GiB, one 6.5 GiB: the run is
        # admitted on one thread, however many CPUs the host has
        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: cpus)
        assert _check_memory(RunConfig(mode="le-sweep", N=N)) == min(cpus, workers)

    def test_echo_working_set_scales_with_threads(self, monkeypatch):
        # 4 shared vectors, 9 per thread and a fixed 4 MiB: at N = 2^20 a
        # vector is 16 MiB, so a cap of v / 64 GiB admits exactly v vectors,
        # and the fixed term is a quarter of one
        def workers(n_states, vectors):
            return _check_memory(RunConfig(mode="le-sweep", N=2**20, n_states=n_states,
                                           memory_cap_gib=vectors / 64))

        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: 64)
        below = 2**-24  # a byte under the cap, in vectors
        assert workers(16, 40) == 2  # at most MAX_WORKERS threads
        assert workers(16, 22.25) == 2 and workers(16, 22.25 - below) == 1
        assert workers(16, 13.25) == 1 and workers(2, 22.25) == 2 and workers(1, 22.25) == 1
        with pytest.raises(ResourceRefusal):
            workers(16, 13.25 - below)

    @pytest.mark.parametrize("N, workers, vectors", [
        (2**20, 1, 9.9), (2**20, 2, 16.4), (2**20 + 2, 1, 15.9), (2**20 + 2, 2, 29.0),
        (2**20 - 3, 1, 23.6), (2**20 - 3, 2, 44.2), (2**19 - 1, 1, 23.7), (2**19 - 1, 2, 45.3)])
    def test_echo_charge_covers_measured_peaks(self, monkeypatch, N, workers, vectors):
        # peak RSS above import of an le-sweep with n_states = w, in complex
        # N-vectors (docs/DECISIONS.md, "Echo modes"): a cap of exactly that
        # peak does not admit w threads.  2^20 + 2 and the primes 2^20 - 3
        # and 2^19 - 1 run the step's DFT by Bluestein's method
        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: 64)
        config = RunConfig(mode="le-sweep", N=N, n_states=workers,
                           memory_cap_gib=16 * N * vectors / 2**30)
        try:
            assert _check_memory(config) < workers
        except ResourceRefusal:
            pass

    @pytest.mark.parametrize("workers", [1, 2])
    def test_echo_charge_bounds_the_peak_at_n4096(self, tmp_path, monkeypatch, workers):
        # the peak RSS (VmHWM; a child's ru_maxrss keeps the forked test
        # runner's) above import of an le-sweep at N = 4096 with 16 states on
        # w threads, in a fresh process: 3.4-4.2 MiB measured, against
        # 0.8-1.4 MiB in 4 + 9w vectors.  A cap of exactly that peak does not
        # admit w threads
        probe = ("import re, sys\n"
                 "import torus_echo.cli as cli, torus_echo.dynamics as dynamics\n"
                 "def hwm():\n"
                 "    with open('/proc/self/status') as status:\n"
                 "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1])\n"
                 f"dynamics.usable_cpus = lambda: {workers}\n"
                 "before = hwm()\n"
                 "assert cli.main(['le-sweep', '--config', sys.argv[1]]) == 0\n"
                 "print(1024 * (hwm() - before))\n")
        config = _write(tmp_path, "N = 4096\nk = 0.0002\nsigma_over_hbar = 0.5\nt_max = 20\n"
                                  f"n_states = 16\nout_dir = {tmp_path}")
        src = os.path.dirname(os.path.dirname(torus_echo.cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        peak = int(subprocess.run([sys.executable, "-c", probe, str(config)], env=env,
                                  capture_output=True, text=True, check=True).stdout)
        assert peak > 16 * 4096 * (4 + 9 * workers)  # the vectors alone fall short
        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: workers)
        try:
            assert _check_memory(RunConfig(mode="le-sweep", N=4096, n_states=16,
                                           memory_cap_gib=peak / 2**30)) < workers
        except ResourceRefusal:
            pass

    def test_lorentz_temporaries_charged(self):
        # float (2x + 1, N//2 + 1) arrays, 6.0 GiB each at x = 10^6, N = 800
        with pytest.raises(ResourceRefusal):
            _check_memory(RunConfig(mode="purity-sweep", N=800, model="ldm", image_cutoff=10**6))

    def test_lorentz_cutoff_admitted_at_default_cap(self):
        # three arrays at x = 3e5, N = 800: 5.4 GiB with the fused step; the
        # limit on two threads is x ~ 445k
        _check_memory(RunConfig(mode="purity-sweep", N=800, model="ldm", image_cutoff=300_000))

    @pytest.mark.parametrize("cpus, arrays", [(1, 2), (2, 3), (64, 3)])
    def test_lorentz_charge_is_distances_and_a_buffer_per_thread(self, monkeypatch, cpus, arrays):
        # 1 + w float (2x + 1, N//2 + 1) arrays on w threads, beside the
        # step's 4 complex N x N units: a cap of exactly that many bytes
        # admits the run, and a byte less refuses it
        def check(cap_bytes):
            return _check_memory(RunConfig(mode="purity-sweep", N=800, model="ldm",
                                           image_cutoff=10**5, memory_cap_gib=cap_bytes / 2**30))

        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: cpus)
        charge = 4 * 16 * 800**2 + arrays * 8 * (2 * 10**5 + 1) * 401
        assert check(charge) == min(cpus, 2)
        with pytest.raises(ResourceRefusal):
            check(charge - 1)

    def test_purity_working_set_admits_n8000_at_default_cap(self):
        # 4 complex N x N arrays, above the measured 3.5-3.8: N = 8000 needs
        # 3.8 GiB, N = 11000 7.2 GiB and N = 12000 8.6 GiB
        _check_memory(RunConfig(mode="purity-sweep", N=8000))
        _check_memory(RunConfig(mode="purity-sweep", N=11_000))
        with pytest.raises(ResourceRefusal):
            _check_memory(RunConfig(mode="purity-sweep", N=12_000))

    def test_manifest_written_when_run_fails(self, tmp_path, monkeypatch):
        def failing_curve(*args, **kwargs):
            raise RuntimeError("purity step failed")

        monkeypatch.setattr(torus_echo.analysis, "purity_curve", failing_curve)
        dest = tmp_path / "out"
        code = main(["purity-sweep", "--config", str(_write(tmp_path, PAPER_PURITY)),
                     "--out", str(dest), "--set", "N=64"])
        assert code == EXIT_RUNTIME
        manifest = json.loads((dest / "manifest.json").read_text())
        assert manifest["error"] == "RuntimeError: purity step failed"
        assert manifest["outputs"] == [] and manifest["config"]["N"] == 64

    def test_echo_chunk_fault_named_in_manifest(self, tmp_path, monkeypatch):
        def failing_in_threads(phi, tables, t_max):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("second chunk failed")
            return echo_values(phi, tables, t_max)

        echo_values = torus_echo.echo._echo_values
        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: 2)
        monkeypatch.setattr(torus_echo.echo, "_echo_values", failing_in_threads)
        dest = tmp_path / "out"
        text = "mode = le-sweep\nN = 64\nsigma_over_hbar = 1.0\nt_max = 6\nn_states = 4"
        assert main(["le-sweep", "--config", str(_write(tmp_path, text)),
                     "--out", str(dest)]) == EXIT_RUNTIME
        manifest = json.loads((dest / "manifest.json").read_text())
        assert manifest["error"] == "RuntimeError: second chunk failed"
        assert manifest["outputs"] == []

    def test_gdm_prediction_above_lyapunov_flagged(self, tmp_path):
        # s = eps N / 2 pi = 0.51 and 1.02 at N = 64: the law gives 0.89 and
        # 2.08 against lambda = 1.76; the CSV is written as before
        cfg = parse_config("mode = purity-sweep\nN = 64\nmodel = gdm\nepsilon = 0.05, 0.1\n"
                           f"t_max = 6\nout_dir = {tmp_path}")
        run(cfg)
        rows = json.loads((tmp_path / "manifest.json").read_text())["rows"]
        assert [row.get("prediction_out_of_range") for row in rows] == [None, True]
        body = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        assert [float(line.split(",")[6]) for line in body] == [
            gdm_rate_prediction(0.05, 64), gdm_rate_prediction(0.1, 64)]

    def test_manifest_rows_carry_fit_diagnostics(self, tmp_path):
        # each row's window, n_points, stderr and floor_estimate, as sweep.csv
        # and the fit have them, null where the fit failed or a value is NaN
        # (the first row's window runs to t_max, so it has no floor samples)
        text = ("mode = purity-sweep\nN = 64\nmodel = gdm\nepsilon = 0.02, 0.05, 3\nt_max = 16\n"
                f"transient_skip = 0\nout_dir = {tmp_path}")
        assert run(parse_config(text)) == EXIT_RUNTIME
        manifest = (tmp_path / "manifest.json").read_text()
        rows = json.loads(manifest, parse_constant=lambda name: pytest.fail(f"{name} in manifest"))["rows"]
        fits = [row.fit for row in torus_echo.analysis.sweep_purity(
            make_space(64), MapParams(2, 2, 0.01), "gdm", [0.02, 0.05, 3.0], 16, 1, transient_skip=0)]
        assert fits[2] is None and np.isnan(fits[0].floor_estimate)
        assert [row["floor_estimate"] for row in rows] == [None, fits[1].floor_estimate, None]
        body = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().split("\n")[1:-1]]
        for row, cells in zip(rows, body):
            window = [int(cells[3]), int(cells[4])] if cells[3] else None
            assert row["window"] == window
            assert row["n_points"] == (int(cells[5]) if cells[5] else None)
            assert row["stderr"] == (float(cells[2]) if cells[2] else None)
        assert rows[1]["window"] == [0, 4] and rows[1]["n_points"] == 5

    @pytest.mark.parametrize("model, flags", [("gdm", [False, False, True]),
                                              ("dc", [False, False, False])])
    def test_predict_flags_only_gdm_above_lyapunov(self, tmp_path, model, flags):
        # at N = 800, s = 0.38, 0.64 and 1.27; no other family is flagged
        text = (f"mode = predict\nN = 800\nmodel = {model}\nepsilon = 0.003, 0.005, 0.01\n"
                f"out_dir = {tmp_path}")
        assert run(parse_config(text)) == EXIT_OK
        rows = json.loads((tmp_path / "manifest.json").read_text())["rows"]
        assert [row.get("prediction_out_of_range", False) for row in rows] == flags

    def test_manifest_nproc_is_the_usable_cpu_count(self, tmp_path, monkeypatch):
        assert torus_echo.cli.usable_cpus is torus_echo.dynamics.usable_cpus
        monkeypatch.setattr(torus_echo.cli, "usable_cpus", lambda: 3)
        cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={tmp_path}", "N=32", "t_max=2"])
        assert run(cfg) == EXIT_OK
        assert json.loads((tmp_path / "manifest.json").read_text())["environment"]["nproc"] == 3

    def test_manifest_records_environment(self, tmp_path):
        cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={tmp_path}", "N=32", "t_max=2"])
        assert run(cfg) == EXIT_OK
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        nproc = len(os.sched_getaffinity(0))
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "nproc": nproc, "threads": min(nproc, 2)}

    def test_duration_from_a_monotonic_clock(self, tmp_path, monkeypatch):
        # the wall clock stepped back an hour at each reading, as NTP may step it
        readings = itertools.count(1e9, -3600.0)
        monkeypatch.setattr(time, "time", lambda: next(readings))
        cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={tmp_path}", "N=32", "t_max=2"])
        assert run(cfg) == EXIT_OK
        assert json.loads((tmp_path / "manifest.json").read_text())["duration_seconds"] >= 0

    @pytest.mark.parametrize("cpus, text, threads", [
        (1, "mode = le-sweep\nN = 32\nsigma_over_hbar = 1\nn_states = 4", 1),
        (3, "mode = le-sweep\nN = 32\nsigma_over_hbar = 1\nn_states = 4", 2),
        (3, "mode = le-sweep\nN = 32\nsigma_over_hbar = 1\nn_states = 1", 1),
        (1, "mode = purity-sweep\nN = 32\nmodel = gdm\nepsilon = 0.1", 1),
        (3, "mode = purity-sweep\nN = 32\nmodel = gdm\nepsilon = 0.1", 2),
        (3, "mode = purity-curve\nN = 1\nmodel = gdm\nepsilon = 0.1", 1),
        (3, "mode = predict\nN = 32\nmodel = dc\nepsilon = 0.1", 1)])
    def test_manifest_threads_is_the_run_thread_count(self, tmp_path, monkeypatch, cpus, text,
                                                      threads):
        # the echo ensemble's chunks, the purity step's row ranges (H = 1 at
        # N = 1), or the calling thread alone for predict
        def recording(phases, d, t_max, workers):
            used.append(workers)
            return advance(phases, d, t_max, workers)

        used, advance = [], torus_echo.decoherence._advance_diagonals
        monkeypatch.setattr(torus_echo.decoherence, "_advance_diagonals", recording)
        monkeypatch.setattr(torus_echo.dynamics, "usable_cpus", lambda: cpus)
        cfg = parse_config(text + "\nt_max = 3", overrides=[f"out_dir={tmp_path}"])
        run(cfg)
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["threads"] == threads
        assert used in ([], [threads])

    def test_predict_mode(self, tmp_path):
        text = f"mode = predict\nN = 800\nmodel = dc\nepsilon = 0.01, 0.3\nout_dir = {tmp_path}"
        assert run(parse_config(text)) == EXIT_OK
        lines = (tmp_path / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "control,prediction"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.02, abs=1e-15)


def _write(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


class TestMain:
    def test_selftest_mode(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_reads_no_config(self, capsys):
        # a missing file or a bad key is not an error, since neither is read
        assert main(["selftest", "--config", "/nonexistent/conf", "--set", "N=bogus"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_selftest_is_no_config_mode(self):
        with pytest.raises(ConfigError, match="key 'mode' must be one of"):
            parse_config("mode = selftest")

    def test_lorentz_refusal_fails_before_output(self, tmp_path, capsys):
        dest = tmp_path / "out"
        text = ("mode = purity-sweep\nN = 800\nmodel = ldm\nimage_cutoff = 1000000\n"
                f"epsilon = 0.1\nt_max = 5\nout_dir = {dest}")
        assert main(["purity-sweep", "--config", str(_write(tmp_path, text))]) == EXIT_RESOURCE
        assert "refused: estimated working set" in capsys.readouterr().err
        assert not dest.exists()

    def test_config_error_exit_code(self, tmp_path):
        path = _write(tmp_path, "mode = le-curve\nN = 64\nsigma_over_hbar = 1.0\na = 3")
        assert main(["le-curve", "--config", str(path)]) == EXIT_CONFIG

    def test_n_beyond_space_limit_fails_before_output(self, tmp_path):
        dest = tmp_path / "out"
        text = ("mode = purity-sweep\nN = 67108866\nmodel = gdm\nepsilon = 0.1\n"
                f"t_max = 5\nmemory_cap_gib = 1e30\nout_dir = {dest}")
        assert main(["purity-sweep", "--config", str(_write(tmp_path, text))]) == EXIT_CONFIG
        assert not dest.exists()

    @pytest.mark.parametrize("mode", ["purity-sweep", "predict"])
    def test_dc_epsilon_above_one_fails_before_output(self, tmp_path, mode, capsys):
        dest = tmp_path / "out"
        text = f"mode = {mode}\nN = 32\nmodel = dc\nepsilon = 0.5, 1.5\nt_max = 5\nout_dir = {dest}"
        assert main([mode, "--config", str(_write(tmp_path, text))]) == EXIT_CONFIG
        assert "'epsilon'" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("mode, line", [("purity-sweep", "epsilon = nan"),
                                            ("le-sweep", "sigma_over_hbar = inf"),
                                            ("purity-sweep", "memory_cap_gib = nan"),
                                            ("le-sweep", "memory_cap_gib = -1"),
                                            ("purity-sweep", "memory_cap_gib = 0")])
    def test_bad_number_fails_before_output(self, tmp_path, mode, line, capsys):
        dest = tmp_path / "out"
        text = (f"mode = {mode}\nN = 32\nmodel = gdm\nepsilon = 0.1\nsigma_over_hbar = 1\n"
                f"t_max = 5\nout_dir = {dest}\n{line}")
        assert main([mode, "--config", str(_write(tmp_path, text))]) == EXIT_CONFIG
        assert f"'{line.split()[0]}'" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("argv, message", [(["bogus"], "invalid choice: 'bogus'"),
                                               (["le-curve"], "mode 'le-curve' requires --config"),
                                               (["le-sweep", "--config"], "expected one argument")])
    def test_usage_error_exit_code(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: torus-echo") and "torus-echo: error: " in err and message in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: torus-echo" in capsys.readouterr().out

    def test_missing_config_file(self):
        assert main(["le-curve", "--config", "/nonexistent/conf"]) == EXIT_CONFIG

    def test_out_flag_overrides(self, tmp_path):
        path = _write(tmp_path, MINIMAL_LE + "\nt_max = 6\nN = 64")
        dest = tmp_path / "dest"
        assert main(["le-curve", "--config", str(path), "--out", str(dest)]) == EXIT_OK
        assert (dest / "manifest.json").exists()

    def test_set_flag(self, tmp_path):
        path = _write(tmp_path, MINIMAL_LE)
        dest = tmp_path / "o"
        code = main(["le-curve", "--config", str(path), "--out", str(dest),
                     "--set", "N=64", "--set", "t_max=5"])
        assert code == EXIT_OK
        manifest = json.loads((dest / "manifest.json").read_text())
        assert manifest["config"]["N"] == 64
        assert manifest["config"]["t_max"] == 5

    def test_mode_argument_wins(self, tmp_path):
        # positional mode overrides the file's mode key
        path = _write(tmp_path, PAPER_PURITY.replace("purity-sweep", "purity-curve"))
        dest = tmp_path / "p"
        code = main(["purity-curve", "--config", str(path), "--out", str(dest),
                     "--set", "N=64", "--set", "t_max=5"])
        assert code == EXIT_OK
        assert (dest / "curve_purity_000.csv").exists()
        assert (dest / "curve_purity_001.csv").exists()

    def test_pure_start_reads_zero_not_minus_zero(self, tmp_path):
        # -ln P(t) >= 0 since P(t) <= 1, so no minus_ln_value cell starts with
        # a minus sign; -ln 1 is written 0, not -0
        path = _write(tmp_path, "mode = purity-curve\nN = 96\nmodel = gdm\nepsilon = 0.1\n"
                                "k = 0.01\nt_max = 10\nseed = 7")
        dest = tmp_path / "out"
        assert main(["purity-curve", "--config", str(path), "--out", str(dest)]) == EXIT_OK
        lines = (dest / "curve_purity_000.csv").read_text().splitlines()
        assert lines[1].startswith("0,") and len(lines) == 12
        assert not any(line.split(",")[2].startswith("-") for line in lines[1:])
        _write_curve_csv(tmp_path / "c.csv", np.array([1.0, 0.5, 0.0]))
        assert (tmp_path / "c.csv").read_text().splitlines()[1:] == [
            "0,1,0", "1,0.5,0.69314718055994529", "2,0,inf"]

    @pytest.mark.parametrize("mode, sets", [
        ("purity-sweep", ["epsilon=0.004,0.008"]), ("purity-curve", ["epsilon=0.004,0.008"]),
        ("purity-sweep", ["model=ldm", "epsilon=0.0005,0.0011"]),
        ("purity-sweep", ["model=mixture", "epsilon=0.0005,0.0011"]),
        ("le-sweep", ["N=16384", "a=4", "b=4", "sigma_over_hbar=3.511,10", "t_max=16"])],
        ids=["purity-sweep", "purity-curve", "purity-sweep-ldm", "purity-sweep-mixture", "le-sweep"])
    def test_csvs_do_not_depend_on_blas_threads(self, tmp_path, mode, sets):
        # fresh interpreters, since OpenBLAS reads its thread count when it
        # loads, at one and two BLAS threads and with the count unset, the
        # default: at N = 800 a BLAS reduction over the diagonals or a BLAS
        # product in the Lorentz kernel, and at N = 2^14 a BLAS overlap or
        # norm in the echo, would split across its threads
        path = _write(tmp_path, PAPER_PURITY if mode.startswith("purity") else MINIMAL_LE)
        src = os.path.dirname(os.path.dirname(torus_echo.__file__))
        bodies = []
        for threads in ("1", "2", None):
            env = {name: value for name, value in os.environ.items()
                   if name != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            dest = tmp_path / (threads or "unset")
            subprocess.run([sys.executable, "-m", "torus_echo.cli", mode, "--config", str(path),
                            "--out", str(dest), "--set", "transient_skip=0",
                            *(arg for text in sets for arg in ("--set", text))],
                           env=env, capture_output=True, check=True)
            bodies.append({p.name: p.read_bytes() for p in dest.glob("*.csv")})
        assert bodies[0] and bodies[0] == bodies[1] == bodies[2]

    def test_runs_import_no_scipy(self, tmp_path):
        # a fresh interpreter, since this process may have imported scipy: a
        # run's FFTs are numpy.fft's, and importing scipy triples its start-up
        echo = _write(tmp_path, MINIMAL_LE.replace("le-curve", "le-sweep"))
        purity = tmp_path / "purity.txt"
        purity.write_text(PAPER_PURITY)
        probe = ("import sys\n"
                 "from torus_echo.cli import main\n"
                 f"codes = [main(['le-sweep', '--config', {str(echo)!r}, '--out', {str(tmp_path / 'e')!r},"
                 " '--set', 'N=32', '--set', 't_max=6', '--set', 'n_states=2']),\n"
                 f"         main(['purity-sweep', '--config', {str(purity)!r}, '--out', {str(tmp_path / 'p')!r},"
                 " '--set', 'N=32', '--set', 't_max=5']),\n"
                 "         main(['selftest'])]\n"
                 "print(codes, sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(torus_echo.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout.split("\n")
        assert (tmp_path / "e" / "sweep.csv").exists() and (tmp_path / "p" / "sweep.csv").exists()
        assert out[-2:] == ["[0, 0, 0] []", ""]

import json
import os
import platform
from dataclasses import fields

import numpy as np
import pytest
import scipy

import torus_echo.analysis
from torus_echo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_RUNTIME,
    ConfigError,
    ResourceRefusal,
    RunConfig,
    _check_memory,
    main,
    parse_config,
    run,
)

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
        # 16 complex vectors, 4 GiB at N = 2^24
        _check_memory(RunConfig(mode="le-sweep", N=2**24))
        with pytest.raises(ResourceRefusal):
            _check_memory(RunConfig(mode="le-sweep", N=2**26))

    def test_lorentz_temporaries_charged(self):
        # two float (2x + 1, N) arrays, 11.9 GiB each at x = 10^6, N = 800
        with pytest.raises(ResourceRefusal):
            _check_memory(RunConfig(mode="purity-sweep", N=800, model="ldm", image_cutoff=10**6))

    def test_lorentz_cutoff_admitted_at_default_cap(self):
        # two arrays at x = 3e5, N = 800: 7.2 GiB with the fused step; the
        # limit is x ~ 333k, and three arrays would refuse from x ~ 222k
        _check_memory(RunConfig(mode="purity-sweep", N=800, model="ldm", image_cutoff=300_000))

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

    def test_manifest_records_environment(self, tmp_path):
        cfg = parse_config(MINIMAL_LE, overrides=[f"out_dir={tmp_path}", "N=32", "t_max=2"])
        assert run(cfg) == EXIT_OK
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["nproc"] == len(os.sched_getaffinity(0))
        assert env["fft_workers"] == {"purity": os.cpu_count(), "echo": 1}

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
                                            ("purity-sweep", "memory_cap_gib = nan")])
    def test_non_finite_number_fails_before_output(self, tmp_path, mode, line, capsys):
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

"""Configuration-driven experiment runner.

Usage:
    torus-echo <mode> --config <path> [--out <dir>] [--set key=value ...]
    torus-echo selftest

Modes: le-curve, le-sweep, purity-curve, purity-sweep, predict.  selftest
runs the oracle suite and reads no config.

Config files are flat key = value text: one assignment per line, '#' starts
a comment, lists are comma separated.  Example:

    mode = purity-sweep
    N = 800
    a = 2
    b = 2
    k = 0.01
    model = gdm
    epsilon = 0.05, 0.08, 0.12, 0.2
    t_max = 12
    seed = 7

Any key can be overridden from the command line with --set key=value.
Outputs: one CSV per curve or sweep plus manifest.json in the output
directory.  Exit codes: 0 success, 1 config or usage error, 2 runtime/fit
error, 3 resource refusal.
"""

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args

import numpy as np

from . import __version__
from .analysis import (DEFAULT_FLOOR_FACTOR, DEFAULT_TRANSIENT_SKIP, RATE_MODELS, SweepRow,
                       _prediction_for, sweep_echo, sweep_purity)
from .decoherence import LORENTZ_DEFAULT_IMAGE_CUTOFF, MODELS
from .dynamics import MapParams, lyapunov_closed_form, thread_count, usable_cpus
from .echo import _BLOCK_VALUES, default_echo_t_max
from .hilbert import make_space

MODES = ("le-curve", "le-sweep", "purity-curve", "purity-sweep", "predict")
ECHO_MODES = ("le-curve", "le-sweep")
PURITY_MODES = ("purity-curve", "purity-sweep")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_RESOURCE = 3


class ConfigError(ValueError):
    pass


class ResourceRefusal(RuntimeError):
    pass


@dataclass
class RunConfig:
    mode: str
    N: Optional[int] = None  # mode-dependent default, see _validate
    a: int = 2
    b: int = 2
    k: Optional[float] = None  # mode-dependent default, see _validate
    sigma_over_hbar: list = field(default_factory=list)
    epsilon: list = field(default_factory=list)
    model: Optional[str] = None
    mixture_weight: float = 0.5
    image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF
    t_max: Optional[int] = None
    n_states: int = 16
    seed: int = 1
    transient_skip: int = DEFAULT_TRANSIENT_SKIP
    floor_factor: float = DEFAULT_FLOOR_FACTOR
    out_dir: str = "torus-echo-out"
    memory_cap_gib: float = 8.0


def _finite(text: str) -> float:
    """float(text) refusing nan and +-inf (1e400 too), which range checks let through."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


# Each key parses as its RunConfig field's type; Optional[T] parses as T.
_KEY_TYPES = {f.name: (get_args(f.type) or (f.type,))[0] for f in fields(RunConfig)}
_PARSERS = {str: str, int: int, float: _finite,
            list: lambda text: [_finite(p) for p in text.split(",") if p.strip()]}
_EXPECTED = {int: "an integer", float: "a finite number", list: "a comma-separated list of finite numbers"}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate a flat key = value document, applying overrides."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    entries = [(f"line {lineno}", line) for lineno, line in enumerate(lines, start=1) if line]
    entries += [("--set", item) for item in overrides]
    raw = {}
    for where, entry in entries:
        key, eq, value = entry.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value', got {entry!r}")
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key '{key}' ({where})")
        kind, value = _KEY_TYPES[key], value.strip()
        try:
            raw[key] = _PARSERS[kind](value)
        except ValueError:
            raise ConfigError(f"key '{key}' expects {_EXPECTED[kind]}, got {value!r}") from None
    if "mode" not in raw:
        raise ConfigError("missing required key 'mode'")
    return _validate(RunConfig(**raw))


def _validate(config: RunConfig) -> RunConfig:
    """Check a parsed config and fill its mode-dependent N, k and t_max."""
    mode = config.mode
    if mode not in MODES:
        raise ConfigError(f"key 'mode' must be one of {', '.join(MODES)}; got {mode!r}")
    needs_purity = mode in PURITY_MODES
    if config.N is None:
        if not needs_purity:
            raise ConfigError("missing required key 'N'")
        config.N = 800
    try:
        space = make_space(config.N)
    except ValueError as err:
        raise ConfigError(f"key 'N': {err}") from None
    if config.k is None:
        config.k = 0.01 if (needs_purity or mode == "predict") else 0.0002
    try:
        params = MapParams(config.a, config.b, config.k)
    except ValueError as err:
        raise ConfigError(f"keys 'a'/'b'/'k': {err}") from None

    controls_key = "sigma_over_hbar" if mode in ECHO_MODES else "epsilon"
    controls = getattr(config, controls_key)
    if not controls:
        raise ConfigError(f"mode '{mode}' requires a non-empty '{controls_key}' list")
    if any(c <= 0 for c in controls):
        raise ConfigError(f"key '{controls_key}' entries must be > 0")
    if mode in ECHO_MODES:
        if config.n_states < 1:
            raise ConfigError(f"key 'n_states' must be >= 1, got {config.n_states}")
    else:
        if config.model is None:
            raise ConfigError(f"mode '{mode}' requires key 'model'")
        if config.model not in MODELS:
            raise ConfigError(f"key 'model' must be one of {', '.join(MODELS)}; got {config.model!r}")
        if mode == "predict" and config.model not in RATE_MODELS:
            raise ConfigError("mode 'predict' supports only models with analytic rates: "
                              + ", ".join(RATE_MODELS))
        if config.model == "dc" and max(controls) > 1.0:
            raise ConfigError(f"key 'epsilon' entries must be <= 1 for model 'dc', got {max(controls)}")
        if not 0.0 <= config.mixture_weight <= 1.0:
            raise ConfigError(f"key 'mixture_weight' must be in [0, 1], got {config.mixture_weight}")
    if config.t_max is None:
        config.t_max = default_echo_t_max(space, params)
    if config.t_max < 1:
        raise ConfigError(f"key 't_max' must be >= 1, got {config.t_max}")
    if config.seed < 0:
        raise ConfigError(f"key 'seed' must be a nonnegative integer, got {config.seed}")
    if config.transient_skip < 0:
        raise ConfigError(f"key 'transient_skip' must be >= 0, got {config.transient_skip}")
    if config.floor_factor <= 0:
        raise ConfigError(f"key 'floor_factor' must be > 0, got {config.floor_factor}")
    if config.image_cutoff < 10:
        raise ConfigError(f"key 'image_cutoff' must be >= 10, got {config.image_cutoff}")
    if config.memory_cap_gib <= 0:
        raise ConfigError(f"key 'memory_cap_gib' must be > 0, got {config.memory_cap_gib}")
    return config


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _check_memory(config: RunConfig) -> int:
    """Refuses a run whose estimated working set exceeds the memory cap, and
    returns the run's thread count: an echo run's thread_count(n_states),
    lowered until the working set fits; the purity step's
    thread_count(N//2 + 1); 1 for predict.  The peak RSS behind each charge
    is in docs/DECISIONS.md."""
    N = config.N
    cap = config.memory_cap_gib * 2**30
    workers, working_set = 1, 0.0  # predict evaluates closed forms only
    if config.mode in PURITY_MODES:
        # 4 complex N x N units: the step's live arrays and the kernel take 2.28,
        # and peak RSS grew by at most 2.41 per unit (BENCH_purity-onecopy.json);
        # a lower charge would admit more runs, a separate decision
        workers, working_set = thread_count(N // 2 + 1), 4 * 16 * N ** 2
        if config.model in ("ldm", "mixture"):
            # lorentz_kernel's float (2x + 1, N//2 + 1) arrays, x = image_cutoff:
            # the squared distances and one band buffer per thread
            # (BENCH_lorentz-fold.json)
            working_set += (1 + workers) * 8 * (2 * config.image_cutoff + 1) * (N // 2 + 1)
    elif config.mode in ECHO_MODES:
        # 4 + 9w complex vectors on w threads (BENCH_echo-threads.json); 16 M/N
        # more per thread where the DFT length M = N/gcd(b, N) has a prime factor
        # above sqrt(M), for numpy's Bluestein FFT; 4 MiB for the blocks' buffers,
        # their table, FFT plans and thread arenas (docs/DECISIONS.md, "Echo
        # modes").  A thread fewer costs speed, not bits, so w drops to fit first
        rest = M = N // math.gcd(config.b, N)
        for p in range(2, math.isqrt(M) + 1):
            while rest % p == 0:
                rest //= p
        per_thread = 9 + (16 * M / N if rest > 1 else 0)
        workers = thread_count(config.n_states)
        while workers > 1 and 16 * (N * (4 + per_thread * workers) + 8 * _BLOCK_VALUES) > cap:
            workers -= 1
        working_set = 16 * (N * (4 + per_thread * workers) + 8 * _BLOCK_VALUES)
    if working_set > cap:
        raise ResourceRefusal(
            f"estimated working set {working_set / 2**30:.1f} GiB exceeds cap "
            f"{config.memory_cap_gib} GiB (N={N}, mode={config.mode}); "
            "raise memory_cap_gib to force the run"
        )
    return workers


def _write_curve_csv(path: Path, values: np.ndarray):
    lines = ["t,value,minus_ln_value"]
    for t, v in enumerate(values):
        mlv = _fmt(0.0 - np.log(v)) if v > 0 else "inf"  # -ln 1 is 0, not -0
        lines.append(f"{t},{_fmt(v)},{mlv}")
    path.write_text("\n".join(lines) + "\n")


def _write_sweep_csv(path: Path, rows):
    lines = ["control,gamma,stderr,window_t1,window_t2,n_points,prediction"]
    for row in rows:
        pred = _fmt(row.prediction)
        if row.fit is None:
            lines.append(f"{_fmt(row.control)},,,,,,{pred}")
        else:
            f = row.fit
            lines.append(
                f"{_fmt(row.control)},{_fmt(f.gamma)},{_fmt(f.stderr)},"
                f"{f.window[0]},{f.window[1]},{f.n_points},{pred}"
            )
    path.write_text("\n".join(lines) + "\n")


def _sweep(config: RunConfig, workers: int) -> list:
    """The rows, curves included, of the configured echo or purity sweep;
    workers is the echo ensemble's thread count."""
    space = make_space(config.N)
    params = MapParams(config.a, config.b, config.k)
    if config.mode in ECHO_MODES:
        return sweep_echo(space, params, config.sigma_over_hbar, config.t_max,
                          config.n_states, config.seed,
                          transient_skip=config.transient_skip,
                          floor_factor=config.floor_factor, workers=workers)
    return sweep_purity(space, params, config.model, config.epsilon,
                        config.t_max, config.seed,
                        mixture_weight=config.mixture_weight,
                        image_cutoff=config.image_cutoff,
                        transient_skip=config.transient_skip,
                        floor_factor=config.floor_factor)


def _environment(workers: int) -> dict:
    """The numeric environment a run's timings depend on; threads is the
    run's thread count, from _check_memory."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": usable_cpus(), "threads": workers}


def _prediction_flag(config: RunConfig, prediction) -> dict:
    """Marks a GDM prediction above the map's Lyapunov exponent, a rate no
    kernel-only law reaches: the per-step purity rate saturates near lambda
    there (docs/DECISIONS.md).  Empty for every other row."""
    if (config.model == "gdm" and prediction is not None
            and prediction > lyapunov_closed_form(config.a, config.b)):
        return {"prediction_out_of_range": True}
    return {}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code.

    manifest.json is written also when the run raises, and then names the
    exception under 'error'.
    """
    workers = _check_memory(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()  # a monotonic clock: NTP steps the wall clock
    row_status = []
    outputs = []
    manifest = {"version": __version__, "config": asdict(config),
                "environment": _environment(workers), "duration_seconds": None,
                "rows": row_status, "outputs": outputs}
    try:
        if config.mode == "predict":
            rows = [SweepRow(eps, None, None, _prediction_for(config.model, eps, config.N))
                    for eps in config.epsilon]
            lines = ["control,prediction"] + [f"{_fmt(r.control)},{_fmt(r.prediction)}" for r in rows]
            (out_dir / "predictions.csv").write_text("\n".join(lines) + "\n")
            outputs.append("predictions.csv")
            names = ["predictions.csv"] * len(rows)
        elif config.mode.endswith("-curve"):
            # a curve mode writes every row's curve, whether or not its fit failed
            rows = _sweep(config, workers)
            prefix = "le" if config.mode in ECHO_MODES else "purity"
            names = [f"curve_{prefix}_{i:03d}.csv" for i in range(len(rows))]
            for row, name in zip(rows, names):
                _write_curve_csv(out_dir / name, row.curve)
                outputs.append(name)
        else:
            rows = _sweep(config, workers)
            _write_sweep_csv(out_dir / "sweep.csv", rows)
            outputs.append("sweep.csv")
            names = ["sweep.csv"] * len(rows)
        for row, name in zip(rows, names):
            failed = row.error is not None and config.mode.endswith("-sweep")
            fit = {key: getattr(row.fit, key, None)
                   for key in ("window", "n_points", "stderr", "floor_estimate")}
            row_status.append({"control": row.control,
                               "status": f"error: {row.error}" if failed else "ok",
                               "output": name, **_prediction_flag(config, row.prediction),
                               **{k: None if v != v else v for k, v in fit.items()}})  # NaN: null
    except BaseException as err:
        manifest["error"] = f"{type(err).__name__}: {err}"
        raise
    finally:
        manifest["duration_seconds"] = time.perf_counter() - started
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    failed = [r for r in row_status if r["status"] != "ok"]
    if failed:
        print(f"{len(failed)} row(s) failed:", file=sys.stderr)
        for r in failed:
            print(f"  control={r['control']}: {r['status']}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors (an unknown mode, a missing --config) exiting
    EXIT_CONFIG instead of 2, which is the runtime-error code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="torus-echo",
        description="Loschmidt echo / purity decay experiments on quantized torus maps",
    )
    parser.add_argument("mode", choices=MODES + ("selftest",))
    parser.add_argument("--config", help="path to a key = value config file (not read by selftest)")
    parser.add_argument("--out", help="output directory (overrides out_dir)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)
    if args.mode == "selftest":
        from .selftest import run_selftest  # the oracles load only here
        return EXIT_OK if run_selftest(verbose=True) else EXIT_RUNTIME

    if not args.config:
        parser.error(f"mode '{args.mode}' requires --config")
    try:
        text = Path(args.config).read_text()
        overrides = [f"mode={args.mode}"] + list(args.overrides)
        if args.out:
            overrides.append(f"out_dir={args.out}")
        config = parse_config(text, overrides=overrides)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config)
    except ResourceRefusal as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as err:  # runtime failures map to exit 2
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

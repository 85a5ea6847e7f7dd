"""One torus-echo invocation in a fresh process, measured from outside.

run.py starts this file once per sample:

    python3 worker.py '<request json>'

The request names a task:

* ``setup``  - import ``torus_echo`` and parse the config; time both.
* ``sweep``  - the same, then ``torus_echo.cli.main`` on the config, timed,
  with the curves each row produced kept for the output checks.  With
  ``"trace": true`` the public functions of every layer are wrapped first
  and the spans are written to ``request["spans"]``.
* ``oracle`` - the depolarizing-channel closed form against ``purity_curve``.
* ``probe``  - fixed work that uses no ``torus_echo`` code (see host_probe);
  its time measures how fast the host runs at that moment.

The last line of standard output is one JSON object with the measurements.
The library is never edited: tracing rebinds module attributes in this
process only.
"""

import json
import os
import resource
import sys
import time

# (module, function, span name).  sweep_echo and sweep_purity share a span
# name so that one "analysis.sweep" layer covers both modes.
TRACED = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "_write_sweep_csv", "cli.write_sweep_csv"),
    ("analysis", "sweep_echo", "analysis.sweep"),
    ("analysis", "sweep_purity", "analysis.sweep"),
    ("analysis", "fit_decay_rate", "analysis.fit_decay_rate"),
    ("echo", "averaged_le", "echo.averaged_le"),
    ("echo", "le_curve", "echo.le_curve"),
    ("dynamics", "build_propagator", "dynamics.build_propagator"),
    ("dynamics", "apply_propagator", "dynamics.apply_propagator"),
    ("dynamics", "apply_to_density", "dynamics.apply_to_density"),
    ("decoherence", "build_kernel", "decoherence.build_kernel"),
    ("decoherence", "gaussian_kernel", "decoherence.gaussian_kernel"),
    ("decoherence", "lorentz_kernel", "decoherence.lorentz_kernel"),
    ("decoherence", "chord_multiplier", "decoherence.chord_multiplier"),
    ("decoherence", "apply_decoherence", "decoherence.apply_decoherence"),
    ("decoherence", "purity_curve", "decoherence.purity_curve"),
    ("hilbert", "coherent_state", "hilbert.coherent_state"),
    ("hilbert", "rho_to_chord", "hilbert.rho_to_chord"),
    ("hilbert", "chord_to_rho", "hilbert.chord_to_rho"),
    ("hilbert", "purity", "hilbert.purity"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` around wrapped calls.

    Calls are synchronous in one thread, so spans nest and a span's children
    never overlap: its self time is its duration minus theirs.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.state_steps = 0        # rows of every state passed to apply_propagator
        self.propagator_keys = []   # (N, a, b, k) of every build_propagator call

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _note_propagate(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        prop = args[1] if len(args) > 1 else kwargs["prop"]
        self.state_steps += state.size // prop.space.N

    def _note_build(self, args, kwargs):
        space = args[0] if args else kwargs["space"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        self.propagator_keys.append((space.N, params.a, params.b, params.k))

    def install(self, package):
        """Rebind each traced function in every package module that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        notes = {"apply_propagator": self._note_propagate,
                 "build_propagator": self._note_build}
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], func_name)
            wrapped = self.wrap(span_name, original, notes.get(func_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def summary(self):
        """Calls, total and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = layers[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return {"layers": layers, "state_steps": self.state_steps,
                "propagator_builds": len(self.propagator_keys),
                "distinct_propagators": len(set(self.propagator_keys)),
                "spans": len(self.spans)}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def calibrate():
    """Raw FFT pairs the dynamics and hilbert layers are read against."""
    import numpy as np
    import scipy.fft as sfft

    rng = np.random.default_rng(0)
    square = rng.standard_normal((800, 800)) + 1j * rng.standard_normal((800, 800))
    vector = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)

    def median_time(fn, reps, inner):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - t0) / inner)
        times.sort()
        return times[len(times) // 2]

    # Same workers settings as the library: -1 for N x N arrays, default for vectors.
    fft2_pair = median_time(lambda: sfft.ifft2(sfft.fft2(square, workers=-1), workers=-1), 9, 1)
    fft_pair = median_time(lambda: sfft.ifft(sfft.fft(vector)), 9, 200)
    return {"fft2_pair_ms": fft2_pair * 1e3, "fft_pair_us": fft_pair * 1e6}


def capture_curves(analysis):
    """Keep the values of every curve the sweep fits, in row order."""
    curves = []
    for name in ("averaged_le", "purity_curve"):
        def capture(*args, _inner=getattr(analysis, name), **kwargs):
            curve = _inner(*args, **kwargs)
            curves.append(curve.values)
            return curve
        setattr(analysis, name, capture)
    return curves


def dc_oracle(seed, N=800, epsilon=0.05, t_max=4):
    """purity_curve against P' = (1-w)^2 P + (1 - (1-w)^2)/N, w = eps N^2/(N^2-1).

    The depolarizing channel is affine, so the recursion holds whatever the
    unitary; the propagator and initial state are the purity workloads' own.
    """
    from torus_echo import (MapParams, build_propagator, coherent_state,
                            depolarizing_kernel, make_space, purity_curve)
    from torus_echo.rng import substream

    space = make_space(N)
    q0, p0 = substream(seed, 0).random(2)
    curve = purity_curve(coherent_state(space, q0, p0),
                         build_propagator(space, MapParams(2, 2, 0.01)),
                         depolarizing_kernel(space, epsilon), t_max)
    w = epsilon * N * N / (N * N - 1)
    shrink = (1.0 - w) ** 2
    expected = [float(curve.values[0])]
    for _ in range(t_max):
        expected.append(shrink * expected[-1] + (1.0 - shrink) / N)
    return max(abs(v - e) / e for v, e in zip(curve.values.tolist(), expected))


def host_probe():
    """Time fixed work of the kinds the sweeps do, with no torus_echo code.

    Importing numpy and scipy (as every sweep process does), two-thread FFTs
    along both axes of an 800 x 800 complex array with phase multiplies and a
    cyclic-diagonal gather and scatter (as a purity step does), and an
    ``np.outer`` accumulation over 800 x 800 (as the Lorentz kernel build
    does).  The inputs are fixed, so only the host's speed moves the time.
    """
    t0 = time.perf_counter()
    import numpy as np
    import scipy.fft as sfft

    n = 800
    rng = np.random.default_rng(0)
    phase = np.exp(2j * np.pi * rng.random(n))[:, None]
    j = np.arange(n)
    cyclic = (j[:, None] + j[None, :]) % n
    rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for _ in range(4):
        rho = sfft.ifft(phase * sfft.fft(phase * rho, axis=0, workers=-1), axis=0, workers=-1)
        diagonals = sfft.fft(rho[cyclic, j[None, :]], axis=1, workers=-1)
        rho[cyclic, j[None, :]] = sfft.ifft(phase * diagonals, axis=1, workers=-1)
        rho = rho.T
    dist_sq = (j[None, :] - n * np.arange(-10, 11)[:, None]) ** 2.0
    raw = np.zeros((n, n))
    with np.errstate(under="ignore"):
        for t in np.geomspace(1e-6, 1e-1, 100):
            theta = np.exp(-t * dist_sq).sum(axis=0)
            raw += t * np.outer(theta, theta)
    return time.perf_counter() - t0


def main(request):
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        # scipy.fft resolves workers=-1 from os.cpu_count() when it is imported.
        os.cpu_count = lambda: nproc
    sys.path.insert(0, request["src"])
    result = {}
    if request["task"] == "oracle":
        result["dc_oracle_max_rel_err"] = dc_oracle(request["seed"])
        print(json.dumps(result))
        return 0
    if request["task"] == "probe":
        print(json.dumps({"probe_s": host_probe()}))
        return 0

    with open(request["config"]) as fh:
        text = fh.read()
    t0 = time.perf_counter()
    import torus_echo
    from torus_echo import analysis, cli
    config = cli.parse_config(text)
    result["setup_s"] = time.perf_counter() - t0

    import numpy
    import scipy
    # scipy.fft resolves the library's workers=-1 to os.cpu_count().
    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "fft_workers": os.cpu_count(),
                     "package": os.path.dirname(torus_echo.__file__)}
    if request["task"] == "sweep":
        tracer = None
        if request["trace"]:
            tracer = Tracer()
            tracer.install(torus_echo)
        curves = capture_curves(analysis)
        t1 = time.perf_counter()
        result["exit_code"] = cli.main([config.mode, "--config", request["config"],
                                        "--out", request["out"]])
        result["sweep_s"] = time.perf_counter() - t1
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["curves"] = [c.tolist() for c in curves]
        if tracer is not None:
            # After the sweep, so that the traced sweep starts as cold as an untraced one.
            result["calib"] = calibrate()
            result["trace"] = tracer.summary()
            tracer.write(request["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))

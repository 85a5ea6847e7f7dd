"""The names bench/worker.py reads from the library.

The benchmark traces every (module, name) pair of its TRACED table and
captures the curves by rebinding analysis.averaged_le and
analysis.purity_curve, so moving or renaming one of those breaks every
benchmark run.  bench/worker.py imports only the standard library at module
level, so it loads here without running anything.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from torus_echo import analysis
from torus_echo.dynamics import MapParams
from torus_echo.hilbert import make_space

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(worker):
    missing = [f"{module}.{name}" for module, name, _ in worker.TRACED
               if not callable(getattr(importlib.import_module(f"torus_echo.{module}"), name, None))]
    assert missing == []


def test_captured_curves_are_one_per_row(worker, monkeypatch):
    for name in ("averaged_le", "purity_curve"):
        monkeypatch.setattr(analysis, name, getattr(analysis, name))  # restored after the test
    curves = worker.capture_curves(analysis)
    space, params = make_space(32), MapParams(2, 2, 0.01)
    rows = (analysis.sweep_echo(space, params, [0.5, 2.0], 6, n_states=2, seed=1)
            + analysis.sweep_purity(space, params, "gdm", [0.1, 0.2, 0.4], 6, seed=1))
    assert len(curves) == len(rows)
    for values, row in zip(curves, rows):
        assert np.array_equal(values, row.curve)

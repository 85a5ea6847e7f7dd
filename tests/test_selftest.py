import inspect
import os
import subprocess
import sys

import pytest

import torus_echo
from torus_echo import selftest
from torus_echo.selftest import ALL_CHECKS, run_selftest

# every function defined in selftest, the oracles and the checks alike
ORACLE_NAMES = sorted(name for name, obj in vars(selftest).items()
                      if inspect.isfunction(obj) and obj.__module__ == selftest.__name__)


@pytest.mark.parametrize("name, fn", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS])
def test_every_check_passes(name, fn):
    err, tol = fn()
    assert err < tol, f"selftest check {name}: err={err:.3e} >= tol={tol:.0e}"


def test_runner_reports_each_check(monkeypatch, capsys):
    # one check within its tolerance and one at it; test_every_check_passes
    # runs the real ones
    monkeypatch.setattr(selftest, "ALL_CHECKS", [("passing", lambda: (0.5, 1.0)),
                                                 ("failing", lambda: (1.0, 1.0))])
    assert run_selftest() is False
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["[PASS]", "passing"], ["[FAIL]", "failing"]]


def test_oracles_stay_out_of_the_runtime_modules():
    assert {"lorentz_kernel_all_nodes", "lorentz_kernel_full_band", "lorentz_kernel_direct",
            "check_lorentz_moments"} <= set(ORACLE_NAMES)
    # a fresh interpreter: this process has imported selftest already; the
    # CLI imports it only to run the selftest mode
    probe = ("import sys, torus_echo\n"
             "from torus_echo import analysis, cli, decoherence, dynamics, echo, hilbert\n"
             "print('torus_echo.selftest' in sys.modules)\n"
             f"print(sorted(n for n in {ORACLE_NAMES!r} for m in "
             "(torus_echo, analysis, decoherence, dynamics, echo, hilbert) if hasattr(m, n)))\n")
    src = os.path.dirname(os.path.dirname(torus_echo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["False", "[]"]


def test_package_exports_no_single_step_path():
    # each stays defined in dynamics / echo / hilbert / decoherence, where the
    # benchmark traces it
    names = ("apply_propagator", "le_curve", "purity", "chord_multiplier")
    assert [n for n in names if hasattr(torus_echo, n) or n in torus_echo.__all__] == []

import pytest

from torus_echo.selftest import ALL_CHECKS, run_selftest


@pytest.mark.parametrize("name, fn", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS])
def test_every_check_passes(name, fn):
    err, tol = fn()
    assert err < tol, f"selftest check {name}: err={err:.3e} >= tol={tol:.0e}"


def test_runner_reports_success(capsys):
    assert run_selftest(verbose=True) is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(ALL_CHECKS)

import numpy as np
import pytest

from torus_echo.analysis import (
    FitError,
    RateFit,
    dc_rate_prediction,
    fit_decay_rate,
    gdm_rate_prediction,
    sweep_echo,
    sweep_purity,
)
from torus_echo.decoherence import gaussian_kernel
from torus_echo.dynamics import MapParams
from torus_echo.hilbert import make_space

from conftest import loglog_slope


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.arange(50)
        fit = fit_decay_rate(np.exp(-0.5 * t), floor_hint=0.0, transient_skip=0)
        assert fit.gamma == pytest.approx(0.5, abs=1e-9)
        assert fit.stderr < 1e-12
        assert fit.window == (0, 49)
        assert fit.n_points == 50

    def test_clipped_curve_excludes_floor(self):
        # exp(-0.5 t) clipped at 1/N for N=100: window stops before the clip
        N = 100
        t = np.arange(60)
        values = np.maximum(np.exp(-0.5 * t), 1.0 / N)
        fit = fit_decay_rate(values, floor_hint=1.0 / N, transient_skip=0)
        assert fit.gamma == pytest.approx(0.5, abs=1e-6)
        # last index with exp(-0.5 t) > 3/100 is t = 7
        assert fit.window[1] == 7
        assert fit.floor_estimate == pytest.approx(1.0 / N, rel=0.2)

    def test_transient_skip_applies(self):
        t = np.arange(40, dtype=float)
        values = np.exp(-0.8 * t)
        values[:3] = [1.0, 0.9, 0.5]  # polluted transient
        fit = fit_decay_rate(values, floor_hint=0.0, transient_skip=3)
        assert fit.window[0] == 3
        assert fit.gamma == pytest.approx(0.8, abs=1e-9)

    def test_noise_recovery_within_stderr(self):
        # Monte-Carlo calibration: gamma recovered within 3 stderr in >= 95
        # of 100 seeded trials for multiplicative 5% noise
        gamma_true = 0.3
        t = np.arange(80)
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            values = np.exp(-gamma_true * t) * (1.0 + 0.05 * rng.standard_normal(80))
            values = np.abs(values) + 1e-300
            fit = fit_decay_rate(values, floor_hint=0.0, transient_skip=0)
            if abs(fit.gamma - gamma_true) <= 3.0 * fit.stderr:
                hits += 1
        assert hits >= 95

    def test_scale_invariance(self):
        # constant offset in log space: same gamma for c * curve
        t = np.arange(30)
        base = np.exp(-0.42 * t)
        ref = fit_decay_rate(base, floor_hint=0.0, transient_skip=2).gamma
        for c in (1.0, 0.5, 0.013):
            got = fit_decay_rate(c * base, floor_hint=0.0, transient_skip=2).gamma
            assert got == pytest.approx(ref, abs=1e-9)

    def test_scaled_floor_hint_keeps_window(self):
        t = np.arange(40)
        base = np.maximum(np.exp(-0.42 * t), 1e-4)
        ref = fit_decay_rate(base, floor_hint=1e-4, transient_skip=0)
        scaled = fit_decay_rate(0.2 * base, floor_hint=0.2e-4, transient_skip=0)
        assert scaled.window == ref.window
        assert scaled.gamma == pytest.approx(ref.gamma, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_decay_rate([1.0, 0.1, 0.01, 0.001], floor_hint=0.01, transient_skip=0)
        with pytest.raises(FitError):
            fit_decay_rate(np.exp(-0.1 * np.arange(5)), floor_hint=0.0, transient_skip=3)

    def test_all_below_threshold(self):
        with pytest.raises(FitError):
            fit_decay_rate([1e-6] * 10, floor_hint=1.0, transient_skip=0)

    def test_accepts_curve_objects(self):
        from torus_echo import Curve
        curve = Curve(values=np.exp(-0.25 * np.arange(20)))
        fit = fit_decay_rate(curve, floor_hint=0.0, transient_skip=0)
        assert fit.gamma == pytest.approx(0.25, abs=1e-9)


class TestPredictions:
    def test_gdm_unit_scaled_width(self):
        # eps*N/(2*pi) = 1, i.e. E = exp(-1/2):
        # -2*ln[(1 + 2/e) / (1 + 2/sqrt(e))^2] = 2.07461764980647054...
        N = 800
        eps = 2.0 * np.pi / N
        assert gdm_rate_prediction(eps, N) == pytest.approx(2.074617649806471, abs=1e-12)

    def test_gdm_vanishes_at_zero(self):
        assert gdm_rate_prediction(1e-9, 800) == pytest.approx(0.0, abs=1e-12)

    def test_gdm_strong_noise_limit(self):
        # E -> 1: -2*ln(3/9) = 2*ln(3)
        assert gdm_rate_prediction(1e9, 800) == pytest.approx(2.0 * np.log(3.0), abs=1e-9)

    @pytest.mark.parametrize("s", [0.2, 0.25, 0.3])
    def test_gdm_matches_kernel_purity_loss(self, s):
        # the law is -ln(sum c^2) of the Gaussian kernel, up to O(E^4)
        space = make_space(64)
        eps = s * 2.0 * np.pi / space.N
        oracle = -np.log(np.sum(gaussian_kernel(space, eps).weights ** 2))
        assert gdm_rate_prediction(eps, space.N) == pytest.approx(oracle, rel=1e-6)

    def test_gdm_domain(self):
        with pytest.raises(ValueError):
            gdm_rate_prediction(0.0, 800)

    def test_dc_values(self):
        assert dc_rate_prediction(0.01) == pytest.approx(0.02, abs=1e-15)
        assert dc_rate_prediction(0.0) == 0.0
        assert dc_rate_prediction(0.3) == pytest.approx(0.6, abs=1e-15)

    def test_dc_domain(self):
        with pytest.raises(ValueError):
            dc_rate_prediction(1.5)


class TestSweepEcho:
    def test_rows_in_input_order_and_deterministic(self):
        space = make_space(256)
        params = MapParams(2, 2, 0.001)
        controls = [0.5, 1.0, 0.5]
        rows1 = sweep_echo(space, params, controls, t_max=40, n_states=4, seed=3,
                           transient_skip=1)
        rows2 = sweep_echo(space, params, controls, t_max=40, n_states=4, seed=3,
                           transient_skip=1)
        assert [r.control for r in rows1] == controls
        for r1, r2 in zip(rows1, rows2):
            assert (r1.fit is None) == (r2.fit is None)
            if r1.fit is not None:
                assert r1.fit.gamma == r2.fit.gamma  # bitwise
        # duplicate control values give identical rows
        assert rows1[0].fit.gamma == rows1[2].fit.gamma
        # rows compare without their curves, which each row keeps in full
        assert rows1 == rows2
        assert np.array_equal(rows1[0].curve, rows2[0].curve)
        assert rows1[0].curve.shape == (41,)

    def test_zero_control_rejected(self):
        space = make_space(64)
        with pytest.raises(ValueError):
            sweep_echo(space, MapParams(2, 2, 0.0), [0.0, 1.0], 10, 2, 0)

    def test_fit_failure_recorded_not_raised(self):
        # huge perturbation at small N: curve dives under the floor instantly
        space = make_space(32)
        params = MapParams(2, 2, 0.0)
        rows = sweep_echo(space, params, [60.0], t_max=8, n_states=2, seed=0,
                          transient_skip=2)
        assert rows[0].fit is None
        assert rows[0].error is not None
        assert rows[0].curve.shape == (9,) and rows[0].curve[0] == pytest.approx(1.0)


class TestSweepPurity:
    def test_prediction_column(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.01)
        rows = sweep_purity(space, params, "gdm", [0.1], t_max=8, seed=1,
                            transient_skip=0)
        assert rows[0].prediction == pytest.approx(gdm_rate_prediction(0.1, 64), abs=1e-14)
        rows_dc = sweep_purity(space, params, "dc", [0.1], t_max=8, seed=1,
                               transient_skip=0)
        assert rows_dc[0].prediction == pytest.approx(0.2, abs=1e-14)
        rows_ldm = sweep_purity(space, params, "ldm", [0.1], t_max=8, seed=1,
                                image_cutoff=20, transient_skip=0)
        assert rows_ldm[0].prediction is None

    def test_deterministic(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.01)
        a = sweep_purity(space, params, "gdm", [0.15, 0.3], t_max=8, seed=5,
                         transient_skip=0)
        b = sweep_purity(space, params, "gdm", [0.15, 0.3], t_max=8, seed=5,
                         transient_skip=0)
        for r1, r2 in zip(a, b):
            if r1.fit is not None:
                assert r1.fit.gamma == r2.fit.gamma

    def test_unknown_model(self):
        space = make_space(32)
        with pytest.raises(ValueError):
            sweep_purity(space, MapParams(2, 2, 0.0), "bogus", [0.1], 5, 0)

    def test_nonpositive_epsilon_rejected(self):
        space = make_space(32)
        with pytest.raises(ValueError):
            sweep_purity(space, MapParams(2, 2, 0.0), "gdm", [-0.1], 5, 0)


def test_loglog_slope_exact_power_law():
    x = np.array([0.1, 0.2, 0.4, 0.8])
    assert loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.slow
class TestGdmPlateauProperties:
    """Fitted GDM rates over the window-fittable strong-coupling range:
    eps-independent to < 1.25 max/min and within 10% of the Lyapunov rate."""

    def test_rate_independent_of_eps_and_near_lyapunov(self):
        from torus_echo.dynamics import lyapunov_closed_form
        space = make_space(800)
        params = MapParams(2, 2, 0.01)
        eps_grid = [0.05, 0.065, 0.08, 0.1, 0.12]
        rows = sweep_purity(space, params, "gdm", eps_grid, t_max=12, seed=7,
                            transient_skip=0, floor_factor=1.5)
        gammas = [r.fit.gamma for r in rows if r.fit]
        assert len(gammas) == len(eps_grid)
        assert max(gammas) / min(gammas) < 1.25
        lam = lyapunov_closed_form(2, 2)
        assert gammas[1] == pytest.approx(lam, rel=0.10)

import numpy as np
import pytest

from torus_echo.dynamics import MapParams
from torus_echo.echo import (
    _propagator_pair,
    averaged_le,
    default_echo_t_max,
    ensemble_centers,
    le_curve,
)
from torus_echo.hilbert import coherent_state, make_space


class TestPerturbation:
    def test_paper_configuration_mapping(self):
        # Sigma/hbar = 0.65884 at N = 2^20 corresponds to sigma = 1.0e-7
        space = make_space(2**20)
        prop, prop_pert = _propagator_pair(space, MapParams(2, 2, 0.0002), 0.65884, 1)
        sigma = prop_pert.params.k - prop.params.k
        assert sigma == pytest.approx(1.0e-7, rel=1e-4)
        assert sigma / space.hbar == pytest.approx(0.65884, rel=1e-12)


class TestLeCurve:
    def test_starts_at_one(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        psi = coherent_state(space, 0.3, 0.4)
        curve = le_curve(psi, space, params, 1.0, 10)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma_stays_at_one(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        psi = coherent_state(space, 0.3, 0.4)
        curve = le_curve(psi, space, params, 0.0, 20)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-10

    def test_values_in_unit_interval(self):
        space = make_space(128)
        params = MapParams(2, 2, 0.001)
        psi = coherent_state(space, 0.1, 0.9)
        curve = le_curve(psi, space, params, 3.0, 40)
        assert np.all(curve.values >= 0.0)
        assert np.all(curve.values <= 1.0 + 1e-12)

    def test_swap_symmetry(self):
        # swapping k and k' conjugates the overlap, leaving M(t) unchanged
        space = make_space(128)
        k, kp = 0.001, 0.0015
        psi = coherent_state(space, 0.6, 0.25)
        fwd = le_curve(psi, space, MapParams(2, 2, k), (kp - k) / space.hbar, 15)
        rev = le_curve(psi, space, MapParams(2, 2, kp), (k - kp) / space.hbar, 15)
        assert np.max(np.abs(fwd.values - rev.values)) < 1e-10

    def test_long_time_saturation_order_one_over_n(self):
        # strong perturbation randomizes the pair; tail mean is O(1/N)
        N = 128
        space = make_space(N)
        params = MapParams(2, 2, 0.0)
        curve = averaged_le(space, params, 4.0, 120, n_states=8, seed=3)
        tail = curve.values[40:].mean()
        assert 0.2 / N < tail < 5.0 / N

    def test_t_max_validation(self):
        space = make_space(32)
        psi = coherent_state(space, 0.2, 0.2)
        with pytest.raises(ValueError):
            le_curve(psi, space, MapParams(2, 2, 0.0), 1.0, 0)


class TestAveragedLe:
    def test_single_state_equals_le_curve(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        avg = averaged_le(space, params, 2.0, 12, n_states=1, seed=9)
        q0, p0 = ensemble_centers(9, 1)[0]
        single = le_curve(coherent_state(space, q0, p0), space, params, 2.0, 12)
        assert np.array_equal(avg.values, single.values)

    def test_same_seed_bitwise_identical(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        a = averaged_le(space, params, 1.5, 10, n_states=6, seed=42)
        b = averaged_le(space, params, 1.5, 10, n_states=6, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        a = averaged_le(space, params, 1.5, 10, n_states=4, seed=1)
        b = averaged_le(space, params, 1.5, 10, n_states=4, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_mean_of_individual_curves(self):
        # fixed summation order: averaged curve is the exact mean
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        n = 5
        avg = averaged_le(space, params, 2.5, 8, n_states=n, seed=7)
        acc = np.zeros(9)
        for q0, p0 in ensemble_centers(7, n):
            acc += le_curve(coherent_state(space, q0, p0), space, params, 2.5, 8).values
        assert np.max(np.abs(avg.values - acc / n)) < 1e-12

    def test_propagator_pair_built_once(self, monkeypatch):
        import torus_echo.echo as echo
        keys = []

        def counting_build(space, params):
            keys.append(params.k)
            return build(space, params)

        build = echo.build_propagator
        monkeypatch.setattr(echo, "build_propagator", counting_build)
        space = make_space(64)
        averaged_le(space, MapParams(2, 2, 0.0002), 2.0, 6, n_states=5, seed=3)
        assert keys == [0.0002, 0.0002 + 2.0 * space.hbar]

    def test_centers_prefix_stable(self):
        # substreams are per-state: first centers unchanged by ensemble growth
        assert np.array_equal(ensemble_centers(11, 3), ensemble_centers(11, 5)[:3])


def test_default_t_max_reaches_saturation():
    space = make_space(2**12)
    t = default_echo_t_max(space, MapParams(2, 2, 0.0002))
    assert t == int(np.ceil((np.log(2**12) + 2.0) / np.log(3 + 2 * np.sqrt(2))))

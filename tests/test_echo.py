import sys
import threading
import tracemalloc

import numpy as np
import pytest

import torus_echo.dynamics as dynamics
import torus_echo.echo as echo
from torus_echo.dynamics import MapParams, build_propagator
from torus_echo.echo import (
    _echo_values,
    _stacked_phases,
    averaged_le,
    default_echo_t_max,
    ensemble_centers,
    le_curve,
)
from torus_echo.hilbert import coherent_state, make_space
from torus_echo.selftest import direct_averaged_le, echo_values_direct, one_state_averaged_le


def assert_one_state_step_and_oracle(got, space, params, sigma_over_hbar, t_max, n_states, seed):
    # bitwise the same step run one state at a time, summed in state order,
    # so every block, chunk and thread split is exact; and within rounding of
    # the two-FFT oracle, whose operations the one-DFT step does not run
    args = (space, params, sigma_over_hbar, t_max, n_states, seed)
    assert np.array_equal(got.values, one_state_averaged_le(*args))
    assert np.max(np.abs(got.values - direct_averaged_le(*args))) <= 1e-13


class TestPerturbation:
    def test_paper_configuration_mapping(self):
        # Sigma/hbar = 0.65884 at N = 2^20 corresponds to sigma = 1.0e-7
        space = make_space(2**20)
        prop = build_propagator(space, MapParams(2, 2, 0.0002))
        prop_pert = build_propagator(space, MapParams(2, 2, 0.0002 + 0.65884 * space.hbar))
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
        # fixed summation order: averaged curve is the exact mean of the
        # one-state oracle's curves
        space = make_space(64)
        params = MapParams(2, 2, 0.0002)
        n = 5
        avg = averaged_le(space, params, 2.5, 8, n_states=n, seed=7)
        assert np.max(np.abs(avg.values - direct_averaged_le(space, params, 2.5, 8, n, 7))) < 1e-12

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


class TestBlockKernel:
    """The blocked in-place step: bitwise the same step one state at a time,
    and within rounding of the one-state, two-application oracle."""

    @pytest.mark.parametrize("N", [64, 1000])
    def test_le_curve_equals_oracle_bitwise(self, N):
        # bitwise the first row of a two-state block; within rounding of the oracle
        space, params = make_space(N), MapParams(2, 4, 0.001)
        psi = coherent_state(space, 0.6, 0.25)
        got = le_curve(psi, space, params, 3.0, 15).values
        phi = np.empty((2, 2, N), dtype=complex)
        phi[0] = psi, coherent_state(space, 0.1, 0.8)
        assert np.array_equal(got, _echo_values(phi, _stacked_phases(space, params, 3.0, 15, 2),
                                                15)[0])
        prop = build_propagator(space, params)
        prop_pert = build_propagator(space, MapParams(2, 4, 0.001 + 3.0 * space.hbar))
        assert np.max(np.abs(got - echo_values_direct(psi, prop, prop_pert, 15))) <= 1e-13

    def test_zero_sigma_stays_at_one_across_blocks(self):
        curve = averaged_le(make_space(4096), MapParams(2, 2, 0.0002), 0.0, 10, n_states=9, seed=2)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-12

    def test_state_dimension_checked(self):
        space = make_space(64)
        with pytest.raises(ValueError, match="space dimension"):
            le_curve(coherent_state(make_space(32), 0.2, 0.2), space, MapParams(2, 2), 1.0, 5)


class TestThreads:
    """averaged_le with its thread count named, whatever the host, or the
    host's default (None): every split of the ensemble into chunks gives the
    bits of the step run one state at a time, within rounding of the serial
    oracle."""

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    @pytest.mark.parametrize("n_states", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("N", [64, 256, 4096, 1000])
    def test_averaged_le_equals_oracle_bitwise(self, N, n_states, workers):
        # 8 states per block at N = 4096 on one thread, 2^15 // 1000 = 32 at N = 1000
        space, params = make_space(N), MapParams(2, 2, 0.0002)
        got = averaged_le(space, params, 1.3, 10, n_states=n_states, seed=3, workers=workers)
        assert_one_state_step_and_oracle(got, space, params, 1.3, 10, n_states, 3)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_state_per_block_from_n_2_15(self, workers):
        space, params = make_space(2**15), MapParams(2, 2, 0.0002)
        got = averaged_le(space, params, 1.3, 6, n_states=4, seed=8, workers=workers)
        assert_one_state_step_and_oracle(got, space, params, 1.3, 6, 4, 8)

    @pytest.mark.parametrize("cpus, n_states, workers", [(1, 9, 1), (2, 9, 2), (3, 9, 2),
                                                         (64, 9, 2), (64, 1, 1)])
    def test_default_thread_count(self, monkeypatch, cpus, n_states, workers):
        # one thread per usable CPU, at most MAX_WORKERS and n_states
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: cpus)
        assert dynamics.thread_count(n_states) == workers
        space, params = make_space(256), MapParams(2, 2, 0.0002)
        got = averaged_le(space, params, 1.3, 10, n_states=n_states, seed=3)
        assert_one_state_step_and_oracle(got, space, params, 1.3, 10, n_states, 3)

    def test_fewer_states_than_workers(self, monkeypatch):
        # w = thread_count(n_states, workers): two chunks of one state, no empty third
        def counting(space, centers, *rest):
            sizes.append(len(centers))
            return chunk_values(space, centers, *rest)

        sizes, chunk_values = [], echo._chunk_values
        monkeypatch.setattr(echo, "_chunk_values", counting)
        space, params = make_space(256), MapParams(2, 2, 0.0002)
        got = averaged_le(space, params, 1.3, 10, n_states=2, seed=4, workers=3)
        assert sizes == [1, 1]
        assert_one_state_step_and_oracle(got, space, params, 1.3, 10, 2, 4)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            averaged_le(make_space(64), MapParams(2, 2, 0.0002), 1.0, 5, n_states=4, seed=1,
                        workers=0)

    def test_concurrent_fft_plans(self):
        # 20 lengths no other test uses, each first transformed by three
        # threads at once with the switch interval shortened, against the
        # serial result computed afterwards
        params = MapParams(2, 2, 0.0002)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for N in range(3001, 3041, 2):
                space = make_space(N)
                threaded = averaged_le(space, params, 0.7, 4, n_states=6, seed=6, workers=3)
                serial = averaged_le(space, params, 0.7, 4, n_states=6, seed=6, workers=1)
                assert np.array_equal(threaded.values, serial.values), N
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_fault_reaches_the_caller(self, monkeypatch):
        def failing_in_threads(phi, tables, t_max):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("second chunk failed")
            return echo_values(phi, tables, t_max)

        echo_values = echo._echo_values
        monkeypatch.setattr(echo, "_echo_values", failing_in_threads)
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match="second chunk failed"):
            averaged_le(make_space(64), MapParams(2, 2, 0.0002), 1.0, 5, n_states=4, seed=1,
                        workers=2)
        assert threading.active_count() == alive

    def test_interrupt_stops_the_other_chunks(self, monkeypatch):
        # the calling thread's chunk is interrupted while the second chunk's
        # thread is inside its first of four one-state blocks: that thread
        # sees the aborted barrier, still finishes the block, and then runs
        # none of the other three, stopped by the check before each block;
        # the interrupt reaches the caller
        def recording(space, centers, tables, t_max, block, sync):
            syncs.append(sync)
            return chunk_values(space, centers, tables, t_max, block, sync)

        def interrupted(phi, tables, t_max):
            if threading.current_thread() is threading.main_thread():
                assert entered.wait(10)
                raise KeyboardInterrupt
            blocks.append(len(phi[0]))
            entered.set()
            with pytest.raises(threading.BrokenBarrierError):
                syncs[0].wait(10)
            return echo_values(phi, tables, t_max)

        syncs, blocks, entered = [], [], threading.Event()
        chunk_values, echo_values = echo._chunk_values, echo._echo_values
        monkeypatch.setattr(echo, "_chunk_values", recording)
        monkeypatch.setattr(echo, "_echo_values", interrupted)
        alive = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            averaged_le(make_space(2**15), MapParams(2, 2, 0.0002), 1.0, 3, n_states=8, seed=1,
                        workers=2)
        assert blocks == [1]
        assert threading.active_count() == alive

    def test_thread_start_failure_joins_the_started_ones(self, monkeypatch):
        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            averaged_le(make_space(64), MapParams(2, 2, 0.0002), 1.0, 5, n_states=6, seed=1,
                        workers=3)
        assert len(started) == 1 and not started[0].is_alive()


class TestMemory:
    """The tracemalloc peak of one averaged_le call (numpy traces its arrays'
    data), after a first call has planned the FFTs."""

    @staticmethod
    def peak_bytes(N, n_states, workers):
        space, params = make_space(N), MapParams(2, 2, 0.0002)
        averaged_le(space, params, 1.3, 3, n_states, seed=1, workers=workers)
        tracemalloc.start()
        try:
            averaged_le(space, params, 1.3, 3, n_states, seed=1, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("N", [2**15, 2**16])
    def test_one_state_blocks_within_the_cli_charge(self, N, workers):
        # one state per block, so one (2, 1, N) weights table: within
        # echo.working_set's 4 + 9w complex vectors
        assert self.peak_bytes(N, workers, workers) <= 16 * N * (4 + 9 * workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_shared_table_of_the_block_shape(self, workers):
        # the w (2, m, N) block buffers, one (2, m, N) weights table shared by
        # the chunks, the w (m, N) buffers of the overlaps' terms (a block's
        # conj(phi[1]) * phi[0], summed along rows), and 0.375 MiB per thread
        # for the rest (a coherent state's temporaries, the entry chirp, the
        # values); a table copied per thread or per block would add m / 8 MiB
        # per copy, m = 8 / w
        N = 4096
        block = 2**15 // (workers * N)
        budget = 16 * block * N * (2 * (workers + 1) + workers) + workers * 0.375 * 2**20
        assert self.peak_bytes(N, 16, workers) <= budget


def test_default_t_max_reaches_saturation():
    space = make_space(2**12)
    t = default_echo_t_max(space, MapParams(2, 2, 0.0002))
    assert t == int(np.ceil((np.log(2**12) + 2.0) / np.log(3 + 2 * np.sqrt(2))))

import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import torus_echo.decoherence as decoherence
import torus_echo.dynamics as dynamics
from torus_echo.decoherence import (
    _EXP_UNDERFLOW,
    apply_decoherence,
    build_kernel,
    chord_multiplier,
    depolarizing_kernel,
    gaussian_kernel,
    lorentz_kernel,
    mixture_kernel,
    purity_curve,
)
from torus_echo.dynamics import MapParams, build_propagator
from torus_echo.hilbert import coherent_state, make_space, purity
from torus_echo.selftest import (apply_decoherence_direct, check_multiplier_against_double_sum,
                                 chord_orbit_purity, identity_kernel, lorentz_kernel_all_nodes,
                                 lorentz_kernel_direct, lorentz_kernel_full_band, random_density,
                                 random_symmetric_kernel)

from composition_oracle import assert_matches_composition


def kernel_symmetry_error(weights):
    flipped = np.roll(np.roll(weights[::-1, ::-1], 1, axis=0), 1, axis=1)
    return float(np.max(np.abs(weights - flipped)))


class TestGaussianKernel:
    def test_unit_sum(self):
        k = gaussian_kernel(make_space(64), 0.2)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        k = gaussian_kernel(make_space(33), 0.37)
        assert kernel_symmetry_error(k) < 1e-14

    def test_nonnegative(self):
        k = gaussian_kernel(make_space(64), 0.05)
        assert np.all(k >= 0.0)

    def test_huge_width_near_uniform(self):
        # eps*N/(2*pi) = 50*N: periodized Gaussian is flat to machine precision
        N = 32
        k = gaussian_kernel(make_space(N), 2.0 * np.pi * 50.0)
        assert k.max() - k.min() < 1e-6

    def test_width_parameter(self):
        # ratio c(1,0)/c(0,0) = exp(-1/(2 s^2)) for narrow kernels
        N = 128
        eps = 0.1
        s = eps * N / (2 * np.pi)
        k = gaussian_kernel(make_space(N), eps)
        assert k[1, 0] / k[0, 0] == pytest.approx(np.exp(-1 / (2 * s * s)), rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_kernel(make_space(16), 0.0)


class TestDepolarizingKernel:
    def test_origin_weight(self):
        k = depolarizing_kernel(make_space(16), 0.3)
        assert k[0, 0] == pytest.approx(0.7, abs=1e-14)

    def test_off_origin_uniform(self):
        N = 16
        k = depolarizing_kernel(make_space(N), 0.3)
        off = k.copy()
        off[0, 0] = np.nan
        vals = off[~np.isnan(off)]
        assert np.allclose(vals, 0.3 / (N * N - 1), atol=1e-16)

    def test_closed_form_action(self, rng):
        # sum over all translations of T rho T^dag = N tr(rho) I, hence
        # D(rho) = (1-w) rho + w I/N with w = eps N^2/(N^2-1); verified by
        # the explicit Kraus sum at N=8
        N = 8
        space = make_space(N)
        eps = 0.4
        rho = random_density(N, rng)
        direct = apply_decoherence_direct(rho, depolarizing_kernel(space, eps))
        w = eps * N * N / (N * N - 1.0)
        expected = (1.0 - w) * rho + w * np.eye(N) / N
        assert np.max(np.abs(direct - expected)) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            depolarizing_kernel(make_space(16), 1.2)
        with pytest.raises(ValueError):
            depolarizing_kernel(make_space(16), -0.1)


class TestLorentzKernel:
    def test_unit_sum(self):
        k = lorentz_kernel(make_space(64), 0.3, image_cutoff=30)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        k = lorentz_kernel(make_space(33), 0.4, image_cutoff=20)
        assert kernel_symmetry_error(k) < 1e-14

    def test_matches_direct_image_sum(self):
        # quadrature evaluation against the literal truncated double sum
        space = make_space(16)
        fast = lorentz_kernel(space, 0.6, image_cutoff=25)
        direct = lorentz_kernel_direct(space, 0.6, image_cutoff=25)
        assert np.max(np.abs(fast - direct) / direct) < 1e-9

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("s", [0.02, 0.2, 2.0])
    def test_matches_direct_image_sum_small_width(self, N, s):
        # s = eps N / 2pi from far below one grid cell (nearly all weight at the origin) to two
        space = make_space(N)
        eps = 2 * np.pi * s / N
        fast = lorentz_kernel(space, eps, image_cutoff=30)
        direct = lorentz_kernel_direct(space, eps, image_cutoff=30)
        assert np.max(np.abs(fast - direct) / direct) < 1e-12

    def test_skipped_image_rows_underflow_to_zero(self):
        # rows past the live band hold exp(-t * d) with t * d >= the bound
        assert np.exp(-_EXP_UNDERFLOW) == 0.0

    @pytest.mark.parametrize("cutoff", [10, 100])
    @pytest.mark.parametrize("eps", [0.0005, 0.0011])
    @pytest.mark.parametrize("N", [800, 801])
    def test_live_band_equals_full_band(self, N, eps, cutoff):
        # the benchmark's epsilon and the top of criterion 9's grid
        space = make_space(N)
        assert np.array_equal(lorentz_kernel(space, eps, cutoff),
                              lorentz_kernel_full_band(space, eps, cutoff))

    @pytest.mark.slow
    def test_live_band_equals_full_band_at_cutoff_1000(self):
        space = make_space(800)
        assert np.array_equal(lorentz_kernel(space, 0.0005, 1000),
                              lorentz_kernel_full_band(space, 0.0005, 1000))

    @pytest.mark.parametrize("cutoff", [10, 100, pytest.param(1000, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("eps", [0.0005, 0.0011])
    @pytest.mark.parametrize("N", [800, 801])
    def test_moment_rows_equal_all_nodes_to_rounding(self, N, eps, cutoff):
        # the small-t tail as moment rows against every node's exp sum: at
        # most 8.9e-16 relative was seen; a moment row's sign flipped, or
        # A[p, q] read from t^(p + q + 1), fails by far more
        space = make_space(N)
        fast = lorentz_kernel(space, eps, cutoff)
        exact = lorentz_kernel_all_nodes(space, eps, cutoff)
        assert np.max(np.abs(fast - exact) / exact) < 2e-15
        assert np.array_equal(fast, fast.T)

    @pytest.mark.slow
    def test_inverse_square_tail(self):
        # mid-range ratio c(r,0)/c(2r,0) ~ 4 at N=800, s=1, r=20
        space = make_space(800)
        c = lorentz_kernel(space, 2 * np.pi / 800)
        assert c[20, 0] / c[40, 0] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.slow
    def test_image_cutoff_dependence(self):
        # The truncated lattice sum of a 1/r^2 kernel grows like ln(x), so
        # normalized weights shift by ~1/ln(x) with the cutoff: measured
        # ~6.4% from x=50 to x=100 at N=800, s=1.  Frozen as an upper bound;
        # the shape (tail ratios) is far more stable.
        space = make_space(800)
        eps = 2 * np.pi / 800
        c50 = lorentz_kernel(space, eps, image_cutoff=50)
        c100 = lorentz_kernel(space, eps, image_cutoff=100)
        assert np.max(np.abs(c50 - c100) / c100) < 0.07
        ratio50 = c50[20, 0] / c50[40, 0]
        ratio100 = c100[20, 0] / c100[40, 0]
        assert ratio50 == pytest.approx(ratio100, rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            lorentz_kernel(make_space(16), -0.2)
        with pytest.raises(ValueError):
            lorentz_kernel(make_space(16), 0.3, image_cutoff=5)


class TestLorentzThreads:
    """lorentz_kernel's node loop, split by band rows over the default
    thread count, and its folded product."""

    @staticmethod
    def recording_parts(monkeypatch, fail_part=None, fault=None):
        """Record each part's node range; raise fault in the part whose
        nodes start at 0 (fail_part 0, the calling thread's) or above it."""
        def recording(dist_sq, t_nodes, bands, theta, nodes, stop):
            with lock:
                parts.append(nodes)
            if fail_part is not None and (nodes.start > 0) == bool(fail_part):
                raise fault
            return theta_rows(dist_sq, t_nodes, bands, theta, nodes, stop)

        parts, lock, theta_rows = [], threading.Lock(), decoherence._theta_rows
        monkeypatch.setattr(decoherence, "_theta_rows", recording)
        return parts

    @pytest.mark.parametrize("N, eps, cutoff", [(64, 0.3, 20), (96, 0.0005, 100),
                                                (800, 0.0005, 100), (801, 0.0011, 10)])
    def test_two_threads_equal_one_bitwise(self, monkeypatch, N, eps, cutoff):
        space = make_space(N)
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
        one = lorentz_kernel(space, eps, cutoff)
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: 2)
        parts = self.recording_parts(monkeypatch)
        assert np.array_equal(lorentz_kernel(space, eps, cutoff), one)
        # the split is by band rows: the wide bands of the small-t nodes
        # leave the first part fewer nodes than the second
        first, second = sorted(parts, key=lambda nodes: nodes.start)
        assert first.start == 0 and first.stop == second.start
        assert len(first) < len(second)

    @pytest.mark.parametrize("fail_part", [0, 1], ids=["caller", "worker"])
    @pytest.mark.parametrize("fault", [RuntimeError("nodes failed"), KeyboardInterrupt()])
    def test_fault_in_either_part_reaches_the_caller(self, monkeypatch, fail_part, fault):
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: 2)
        self.recording_parts(monkeypatch, fail_part, fault)
        alive = threading.active_count()
        with pytest.raises(type(fault)):
            lorentz_kernel(make_space(64), 0.3, image_cutoff=20)
        assert threading.active_count() == alive

    def test_fault_in_the_worker_stops_the_caller_at_its_next_node(self, monkeypatch):
        # the calling thread's part waits for the other part's fault, then
        # fills none of its nodes: each node checks the aborted barrier first
        def waiting(dist_sq, t_nodes, bands, theta, nodes, sync):
            if nodes.start > 0:
                raise RuntimeError("nodes failed")
            with pytest.raises(threading.BrokenBarrierError):
                sync.wait(10)
            theta[nodes] = -1.0
            theta_rows(dist_sq, t_nodes, bands, theta, nodes, sync)
            untouched.append(bool(np.all(theta[nodes] == -1.0)))

        untouched, theta_rows = [], decoherence._theta_rows
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: 2)
        monkeypatch.setattr(decoherence, "_theta_rows", waiting)
        with pytest.raises(RuntimeError, match="nodes failed"):
            lorentz_kernel(make_space(64), 0.3, image_cutoff=20)
        assert untouched == [True]

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_product_equal_over_any_row_ranges(self, monkeypatch, workers):
        # an entry adds its node terms in order, the same bits in any block and range
        rng = np.random.default_rng(5)
        theta, w = rng.random((40, 7)), rng.random(40)
        weighted = theta * w[:, None]
        one = decoherence._lorentz_product(theta, weighted, 13, 1)
        for block in (1, 3, 32):
            monkeypatch.setattr(decoherence, "_BLOCK_ROWS", block)
            assert np.array_equal(decoherence._lorentz_product(theta, weighted, 13, workers), one)
        direct = np.einsum("ia,ib,i->ab", theta, theta, w)
        assert np.max(np.abs(one[:7, :7] - direct) / direct) < 1e-14
        # the upper triangle mirrored, then unfolded from the (7, 7) quadrant
        # by j -> min(j, N - j), at odd and even N
        even = decoherence._lorentz_product(theta, weighted, 12, workers)
        for N, raw in ((13, one), (12, even)):
            fold = np.minimum(np.arange(N), N - np.arange(N))
            assert np.array_equal(raw, one[:7, :7][fold][:, fold])
            assert np.array_equal(raw, raw.T)


class TestCompletePositivitySurrogate:
    """Kraus form guarantees CP when weights are a probability vector;
    test nonnegativity and unit sum for every kernel family."""

    @pytest.mark.parametrize("tag", ["gdm", "dc", "ldm", "mixture", "identity"])
    def test_weights_are_probabilities(self, tag):
        space = make_space(48)
        kernel = build_kernel(space, tag, 0.3, image_cutoff=20) \
            if tag != "identity" else identity_kernel(space)
        assert np.all(kernel >= 0.0)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
        assert kernel_symmetry_error(kernel) < 1e-12


class TestPointSymmetry:
    @pytest.mark.parametrize("N", [64, 65, 800, 801])
    @pytest.mark.parametrize("tag, eps", [("gdm", 0.004), ("gdm", 2.0), ("dc", 0.3),
                                          ("ldm", 0.0005), ("ldm", 0.3), ("mixture", 0.3)])
    def test_exact_under_truncation(self, N, tag, eps):
        # c[-q, -p] == c[q, p] bitwise: offsets j and N - j sum the same
        # image terms, and a kernel reads both from its folded half; a GDM
        # width of 2 sums several images per offset
        c = build_kernel(make_space(N), tag, eps)
        minus = -np.arange(N) % N
        assert np.array_equal(c[minus][:, minus], c)
        # and c[p, q] == c[q, p]: every family sums the same terms both ways
        assert np.array_equal(c.T, c)


class TestMixtureKernel:
    def test_endpoint_weights(self):
        space = make_space(32)
        g = gaussian_kernel(space, 0.3)
        l = lorentz_kernel(space, 0.3, image_cutoff=20)
        for w, expected in ((1.0, g), (0.0, l)):
            m = mixture_kernel(g, l, w)
            assert np.array_equal(m, expected) and not m.flags.writeable

    def test_convexity(self):
        space = make_space(32)
        g = gaussian_kernel(space, 0.3)
        l = lorentz_kernel(space, 0.3, image_cutoff=20)
        m = mixture_kernel(g, l, 0.5)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m >= 0.0)

    def test_space_mismatch(self):
        g = gaussian_kernel(make_space(16), 0.3)
        l = lorentz_kernel(make_space(32), 0.3, image_cutoff=20)
        with pytest.raises(ValueError):
            mixture_kernel(g, l, 0.5)


class TestChordMultiplier:
    def test_unit_at_origin(self):
        for tag in ("gdm", "dc", "ldm"):
            k = build_kernel(make_space(16), tag, 0.3, image_cutoff=20)
            m = chord_multiplier(k)
            assert m[0, 0] == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(m)) <= 1.0 + 1e-10

    def test_identity_kernel_all_ones(self):
        m = chord_multiplier(identity_kernel(make_space(16)))
        assert np.max(np.abs(m - 1.0)) < 1e-12

    def test_random_symmetric_against_double_sum(self):
        N = 8
        kernel = random_symmetric_kernel(N, seed=13)
        chat = chord_multiplier(kernel)
        j = np.arange(N)
        for Q in range(N):
            for P in range(N):
                phases = np.exp(2j * np.pi * (j[None, :] * Q - j[:, None] * P) / N)
                direct = np.sum(kernel * phases)
                assert abs(chat[Q, P] - direct) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 16, 17])
    def test_against_double_sum_at_odd_and_even_n(self, N):
        # the rows Q <= N//2 and the rest come from different halves of rfft2
        err, tol = check_multiplier_against_double_sum(N, seed=N)
        assert err < tol

    def test_asymmetric_kernel_rejected(self):
        N = 8
        rng = np.random.default_rng(0)
        raw = rng.random((N, N))
        with pytest.raises(ValueError):
            chord_multiplier(raw / raw.sum())
        with pytest.raises(ValueError, match="not square"):
            chord_multiplier(np.full((N, 6), 1.0 / (6 * N)))


class TestApplyDecoherence:
    def test_identity_kernel_noop(self, rng):
        N = 16
        rho = random_density(N, rng)
        out = apply_decoherence(rho, chord_multiplier(identity_kernel(make_space(N))))
        assert np.max(np.abs(out - rho)) < 1e-12

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_matches_kraus_sum_all_models(self, N, rng):
        space = make_space(N)
        rho = random_density(N, rng)
        for kernel in (gaussian_kernel(space, 0.5),
                       depolarizing_kernel(space, 0.3),
                       lorentz_kernel(space, 0.5, image_cutoff=25)):
            fast = apply_decoherence(rho, chord_multiplier(kernel))
            direct = apply_decoherence_direct(rho, kernel)
            assert np.max(np.abs(fast - direct)) < 1e-10

    @pytest.mark.parametrize("N", [5, 7, 9, 16])
    def test_matches_kraus_sum_random_kernel(self, N, rng):
        kernel = random_symmetric_kernel(N, seed=N)
        rho = random_density(N, rng)
        fast = apply_decoherence(rho, chord_multiplier(kernel))
        assert np.max(np.abs(fast - apply_decoherence_direct(rho, kernel))) < 1e-12

    def test_trace_preserved(self, rng):
        N = 32
        rho = random_density(N, rng)
        out = apply_decoherence(rho, chord_multiplier(gaussian_kernel(make_space(N), 0.4)))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(out).imag) < 1e-12

    def test_hermiticity_preserved(self, rng):
        N = 32
        rho = random_density(N, rng)
        out = apply_decoherence(rho, chord_multiplier(gaussian_kernel(make_space(N), 0.4)))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_unital(self):
        N = 32
        eye = np.eye(N, dtype=complex) / N
        for tag in ("gdm", "dc", "ldm"):
            mult = chord_multiplier(build_kernel(make_space(N), tag, 0.4, image_cutoff=20))
            assert np.max(np.abs(apply_decoherence(eye, mult) - eye)) < 1e-12

    def test_shape_mismatch(self, rng):
        mult = chord_multiplier(gaussian_kernel(make_space(16), 0.3))
        with pytest.raises(ValueError):
            apply_decoherence(random_density(8, rng), mult)

    def test_never_increases_purity(self, rng):
        N = 24
        mult = chord_multiplier(gaussian_kernel(make_space(N), 0.3))
        for _ in range(5):
            rho = random_density(N, rng)
            assert purity(apply_decoherence(rho, mult)) <= purity(rho) + 1e-12


class TestPurityCurve:
    def setup_method(self):
        self.space = make_space(64)
        self.params = MapParams(2, 2, 0.01)
        self.prop = build_propagator(self.space, self.params)
        self.psi = coherent_state(self.space, 0.31, 0.47)

    def test_starts_pure(self):
        curve = purity_curve(self.psi, self.prop, gaussian_kernel(self.space, 0.3), 6)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_kernel_stays_pure(self):
        curve = purity_curve(self.psi, self.prop, identity_kernel(self.space), 10)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-10

    def test_monotone_nonincreasing(self):
        for tag in ("gdm", "dc", "ldm"):
            kernel = build_kernel(self.space, tag, 0.2, image_cutoff=20)
            curve = purity_curve(self.psi, self.prop, kernel, 12)
            assert np.all(np.diff(curve.values) <= 1e-10)

    def test_bounded_below_by_mixed_state(self):
        curve = purity_curve(self.psi, self.prop, gaussian_kernel(self.space, 0.5), 20)
        assert np.all(curve.values >= 1.0 / self.space.N - 1e-12)

    def test_saturates_near_one_over_n(self):
        # long-time floor c/N with c in [0.5, 3]
        curve = purity_curve(self.psi, self.prop, gaussian_kernel(self.space, 0.5), 40)
        c = curve.values[-5:].mean() * self.space.N
        assert 0.5 < c < 3.0

    def test_maximally_mixed_fixed_point(self):
        # D(U (I/N) U^dag) = I/N for every kernel
        N = self.space.N
        eye = np.eye(N, dtype=complex) / N
        from torus_echo.dynamics import apply_to_density
        for tag in ("gdm", "dc", "ldm"):
            mult = chord_multiplier(build_kernel(self.space, tag, 0.3, image_cutoff=20))
            out = apply_decoherence(apply_to_density(eye, self.prop), mult)
            assert np.max(np.abs(out - eye)) < 1e-12
        assert purity(eye) == pytest.approx(1.0 / N, abs=1e-14)

    def test_depolarizing_closed_form_at_n800(self):
        # D(rho) = (1-w) rho + w I/N is affine, so whatever U does,
        # P' = (1-w)^2 P + (1 - (1-w)^2)/N with w = eps N^2/(N^2-1)
        N, eps = 800, 0.05
        space = make_space(N)
        prop = build_propagator(space, self.params)
        curve = purity_curve(coherent_state(space, 0.31, 0.47), prop,
                             depolarizing_kernel(space, eps), 6)
        shrink = (1.0 - eps * N * N / (N * N - 1.0)) ** 2
        expected = [curve.values[0]]
        for _ in range(6):
            expected.append(shrink * expected[-1] + (1.0 - shrink) / N)
        assert np.max(np.abs(curve.values - expected) / expected) < 1e-12

    def test_dimension_checks(self):
        other = coherent_state(make_space(32), 0.1, 0.1)
        with pytest.raises(ValueError):
            purity_curve(other, self.prop, gaussian_kernel(self.space, 0.3), 5)
        with pytest.raises(ValueError):
            purity_curve(self.psi, self.prop, gaussian_kernel(make_space(32), 0.3), 5)
        with pytest.raises(ValueError, match="state shape"):
            purity_curve(self.psi[:, None], self.prop, gaussian_kernel(self.space, 0.3), 5)


def use_threads(monkeypatch, workers):
    """Make dynamics.thread_count's default workers threads, whatever the host."""
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: workers)
    monkeypatch.setattr(dynamics, "MAX_WORKERS", workers)


class TestPurityMemory:
    """The traced peak of one purity_curve call, the kernel built beforehand,
    in units of 16 N^2 bytes.  The step's live arrays take about 1.78: the
    half spectrum, the diagonals and the weights 0.5 each, the gather index
    0.25 and its conjugation mask 1/32.  The rest is the threads' temporaries,
    blocks of 32 rows, which add about half a unit at N = 256; so the bound
    is checked from N = 512 up.  tracemalloc counts numpy's data allocations,
    so the peak does not depend on the allocator's reuse of freed pages, as
    RSS does."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("N", [512, 801])
    def test_traced_peak_within_2_2_units(self, monkeypatch, N, workers):
        space = make_space(N)
        prop = build_propagator(space, MapParams(2, 2, 0.01))
        psi, kernel = coherent_state(space, 0.31, 0.47), gaussian_kernel(space, 0.1)
        use_threads(monkeypatch, workers)
        tracemalloc.start()
        try:
            purity_curve(psi, prop, kernel, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * 16 * N * N


FAMILIES_AT_N800 = [("gdm", 0.5 * 2 * np.pi / 800), ("dc", 0.05), ("ldm", 0.0005), ("mixture", 0.02)]


class TestDiagonalStep:
    @pytest.mark.parametrize("tag, eps", FAMILIES_AT_N800)
    def test_matches_composition_at_n800(self, tag, eps):
        space = make_space(800)
        prop = build_propagator(space, MapParams(2, 2, 0.01))
        assert_matches_composition(coherent_state(space, 0.31, 0.47), prop,
                                   build_kernel(space, tag, eps), 6)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("a, b", [(2, 2), (2, 4), (4, 2)])
    def test_matches_composition_at_smallest_n(self, N, a, b):
        # H = N//2 + 1 rows: at N = 1 and 2 every row is its own partner, and
        # no shear source row lies above N//2 for N <= 2
        space = make_space(N)
        assert_matches_composition(coherent_state(space, 0.31, 0.47),
                                   build_propagator(space, MapParams(a, b, 0.03)),
                                   random_symmetric_kernel(N, seed=N), 5)

    @pytest.mark.slow
    @pytest.mark.parametrize("N, a, b", [(800, 2, 2), (800, 4, 2), (800, 2, 4), (801, 2, 2)])
    def test_matches_chord_orbit_at_production_n(self, N, a, b):
        # at k = 0 the chord orbit is exact: it checks the kick and shear
        # permutations of every step, for each (a, b) and at odd N; it is
        # phase-blind, so the composition test above keeps the phases
        space = make_space(N)
        prop = build_propagator(space, MapParams(a, b, 0.0))
        psi = coherent_state(space, 0.31, 0.47)
        for tag, eps in FAMILIES_AT_N800:
            kernel = build_kernel(space, tag, eps)
            expected = chord_orbit_purity(psi, a, b, chord_multiplier(kernel), 12)
            values = purity_curve(psi, prop, kernel, 12).values
            assert np.max(np.abs(values - expected) / expected) < 1e-12, tag


def small_gdm_curve(N):
    space = make_space(N)
    return purity_curve(coherent_state(space, 0.31, 0.47),
                        build_propagator(space, MapParams(2, 2)), gaussian_kernel(space, 0.3), 6)


class TestPurityThreads:
    """purity_curve with its thread count set, whatever the host: every
    split of the rows into ranges gives the one-thread curve's bits."""

    @pytest.mark.parametrize("N", [7, 8, 800, 801])
    @pytest.mark.parametrize("tag, eps", FAMILIES_AT_N800)
    def test_two_threads_equal_one_bitwise(self, monkeypatch, N, tag, eps):
        space = make_space(N)
        prop = build_propagator(space, MapParams(2, 2, 0.01))
        psi, kernel = coherent_state(space, 0.31, 0.47), build_kernel(space, tag, eps)
        use_threads(monkeypatch, 1)
        one = purity_curve(psi, prop, kernel, 6).values
        use_threads(monkeypatch, 2)
        assert np.array_equal(purity_curve(psi, prop, kernel, 6).values, one)

    @staticmethod
    def recording_phases(monkeypatch):
        """Record (phase, lo, hi, thread) for each call of the step's phases:
        spectrum and tables, which build it, then forward and backward."""
        def step(prop, kernel):
            phases = list(diagonal_step(prop, kernel))
            for i, name in enumerate(("spectrum", "tables", "forward", "backward")):
                def recording(*args, inner=phases[i], name=name, setup=i < 2):
                    lo, hi = args[:2] if setup else args[1:3]
                    with lock:
                        calls.append((name, lo, hi, threading.current_thread()))
                    return inner(*args)
                phases[i] = recording
            return phases

        calls, lock, diagonal_step = [], threading.Lock(), decoherence._diagonal_step
        monkeypatch.setattr(decoherence, "_diagonal_step", step)
        return calls

    @staticmethod
    def ranges(n, workers):
        return {(n * i // workers, n * (i + 1) // workers) for i in range(workers)}

    def test_more_threads_than_cores_and_rows(self, monkeypatch):
        # up to 5 ranges of H = 5 rows, with the switch interval shortened: a
        # row read across a missed barrier, in the set-up or a step, would
        # change the bits
        space = make_space(9)
        prop = build_propagator(space, MapParams(2, 4, 0.03))
        psi, kernel = coherent_state(space, 0.31, 0.47), random_symmetric_kernel(9, seed=4)
        use_threads(monkeypatch, 1)
        one = purity_curve(psi, prop, kernel, 12).values
        calls = self.recording_phases(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3, 5, 8):
                calls.clear()
                use_threads(monkeypatch, workers)
                got = purity_curve(psi, prop, kernel, 12).values
                assert np.array_equal(got, one), workers
                # each range built its own share of the step, in a thread of its own
                parts = min(workers, 5)
                for name in ("spectrum", "tables"):
                    mine = [call for call in calls if call[0] == name]
                    assert {(lo, hi) for _, lo, hi, _ in mine} == self.ranges(5, parts)
                    assert len({thread for *_, thread in mine}) == parts
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, N, workers", [(1, 64, 1), (2, 64, 2), (64, 64, 2),
                                                  (64, 2, 2), (64, 1, 1)])
    def test_default_thread_count(self, monkeypatch, cpus, N, workers):
        # one thread per usable CPU, at most MAX_WORKERS and H = N//2 + 1
        # rows, for the steps and for building them; one thread starts none
        def recording(phases, d, t_max, w):
            counts.append(w)
            return advance(phases, d, t_max, w)

        counts, advance = [], decoherence._advance_diagonals
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(decoherence, "_advance_diagonals", recording)
        calls = self.recording_phases(monkeypatch)
        small_gdm_curve(N)
        assert counts == [workers]
        threads = {thread for *_, thread in calls}
        assert len(threads) == workers and threading.main_thread() in threads
        assert {(lo, hi) for _, lo, hi, _ in calls} == self.ranges(N // 2 + 1, workers)

    @staticmethod
    def failing_phases(monkeypatch, phase, caller_rows, fault):
        """Make a phase of the calling thread's rows (lo = 0) or of the other
        thread's rows raise fault: spectrum or tables (phase 0, 1) at their
        one call, forward or backward (phase 2, 3) at step 3."""
        def step(prop, kernel):
            phases = list(diagonal_step(prop, kernel))
            inner = phases[phase]

            def failing(*args):
                lo = args[0] if phase < 2 else args[1]
                assert (lo == 0) == (threading.current_thread() is threading.main_thread())
                if (lo == 0) == caller_rows:
                    calls.append(lo)
                    if len(calls) == (1 if phase < 2 else 3):
                        raise fault
                return inner(*args)

            phases[phase] = failing
            return phases

        calls, diagonal_step = [], decoherence._diagonal_step
        monkeypatch.setattr(decoherence, "_diagonal_step", step)

    @pytest.mark.parametrize("phase", [0, 1, 2, 3],
                             ids=["spectrum", "tables", "forward", "backward"])
    @pytest.mark.parametrize("caller_rows", [True, False], ids=["caller", "worker"])
    def test_fault_in_either_thread_reaches_the_caller(self, monkeypatch, phase, caller_rows):
        self.failing_phases(monkeypatch, phase, caller_rows, RuntimeError("rows failed"))
        use_threads(monkeypatch, 2)
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match="rows failed"):
            small_gdm_curve(64)
        assert threading.active_count() == alive

    def test_interrupt_ends_the_other_thread(self, monkeypatch):
        self.failing_phases(monkeypatch, 3, True, KeyboardInterrupt())
        use_threads(monkeypatch, 2)
        alive = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            small_gdm_curve(64)
        assert threading.active_count() == alive

    @pytest.mark.parametrize("phase", [0, 1], ids=["spectrum", "tables"])
    @pytest.mark.parametrize("caller_rows", [True, False], ids=["caller", "worker"])
    def test_interrupt_in_the_setup_reaches_the_caller(self, monkeypatch, phase, caller_rows):
        self.failing_phases(monkeypatch, phase, caller_rows, KeyboardInterrupt())
        use_threads(monkeypatch, 2)
        alive = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            small_gdm_curve(64)
        assert threading.active_count() == alive

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("small, large", [(3, 30), (30, 3)],
                             ids=["larger-in-worker-rows", "larger-in-caller-rows"])
    def test_asymmetric_kernel_rejected_before_any_step(self, monkeypatch, workers, small, large):
        # imaginary residues in two rows of the half spectrum, H = 33, one in
        # each range on two threads: the message gives the larger, whichever
        # range holds it and whichever thread checks first
        N = 64
        space = make_space(N)
        q, p = np.ogrid[:N, :N]
        kernel = (random_symmetric_kernel(N, seed=3)
                  + 1e-6 * np.sin(2 * np.pi * (5 * q + small * p) / N)
                  + 1e-5 * np.sin(2 * np.pi * (7 * q + large * p) / N))
        residues = np.max(np.abs(np.fft.rfft2(kernel).imag), axis=0)
        assert np.argmax(residues) == large and residues[small] > decoherence._SYMMETRY_TOL
        calls = self.recording_phases(monkeypatch)
        use_threads(monkeypatch, workers)
        alive = threading.active_count()
        with pytest.raises(ValueError, match=re.escape(f"imaginary residue {residues.max():.3e}")):
            purity_curve(coherent_state(space, 0.31, 0.47), build_propagator(space, MapParams(2, 2)),
                         kernel, 6)
        assert {(lo, hi) for name, lo, hi, _ in calls if name == "tables"} == self.ranges(33, workers)
        assert {name for name, *_ in calls} == {"spectrum", "tables"}
        assert threading.active_count() == alive

import numpy as np
import pytest

from torus_echo import dynamics
from torus_echo.analysis import fit_decay_rate
from torus_echo.decoherence import build_kernel, gaussian_kernel, lorentz_kernel, purity_curve
from torus_echo.dynamics import MapParams, build_propagator
from torus_echo.echo import averaged_le, le_curve
from torus_echo.hilbert import (
    chord_to_rho,
    coherent_state,
    make_space,
    purity,
    rho_to_chord,
)
from torus_echo.rng import substream
from torus_echo.selftest import (coherent_state_all_images, random_density, translate,
                                  translation_matrix)

from conftest import random_state


class TestMakeSpace:
    def test_hbar_paper_dimension(self):
        space = make_space(800)
        assert space.hbar == pytest.approx(1.98944e-4, rel=1e-5)

    def test_hbar_n1(self):
        assert make_space(1).hbar == pytest.approx(1.0 / (2.0 * np.pi), abs=0)

    def test_hbar_large_n(self):
        space = make_space(2**20)
        assert space.hbar == pytest.approx(1.0 / (2.0 * np.pi * 2**20), abs=0)
        assert space.hbar == pytest.approx(1.518e-7, rel=1e-3)

    def test_identity_2pi_n_hbar(self):
        for N in (1, 3, 64, 800, 2**20):
            assert make_space(N).hbar * 2.0 * np.pi * N == pytest.approx(1.0, abs=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            make_space(0)
        with pytest.raises(ValueError):
            make_space(-4)
        with pytest.raises(ValueError):
            make_space(2**40)


_SPACE = make_space(32)
_PROP = build_propagator(_SPACE, MapParams(2, 2, 0.01))
_PSI = coherent_state(_SPACE, 0.3, 0.6)
_DECAY = np.exp(-0.5 * np.arange(12))


def _echo(**changed):
    kwargs = dict(sigma_over_hbar=1.0, t_max=4, n_states=2, seed=1) | changed
    return averaged_le(_SPACE, MapParams(2, 2, 0.01), **kwargs)


@pytest.mark.parametrize("call, name", [
    (lambda: purity_curve(_PSI, _PROP, build_kernel(_SPACE, "gdm", 0.1), 3.0), "t_max"),
    (lambda: purity_curve(_PSI, _PROP, build_kernel(_SPACE, "gdm", 0.1), True), "t_max"),
    (lambda: _echo(t_max=4.0), "t_max"),
    (lambda: _echo(n_states=2.0), "n_states"),
    (lambda: le_curve(_PSI, _SPACE, MapParams(2, 2, 0.01), 1.0, np.float64(4)), "t_max"),
    (lambda: dynamics.thread_count(4, 1.5), "workers"),
    (lambda: lorentz_kernel(_SPACE, 0.1, 10.5), "image_cutoff"),
    (lambda: fit_decay_rate(_DECAY, 1e-3, transient_skip=1.5), "transient_skip"),
    (lambda: substream(1.5), "seed"),
    (lambda: gaussian_kernel(_SPACE, np.inf), "epsilon"),
    (lambda: gaussian_kernel(_SPACE, np.nan), "epsilon"),
    (lambda: lorentz_kernel(_SPACE, np.inf), "epsilon"),
    (lambda: lorentz_kernel(_SPACE, np.nan), "epsilon"),
    (lambda: _echo(sigma_over_hbar=np.nan), "sigma_over_hbar"),
], ids=["purity t_max float", "purity t_max bool", "echo t_max float", "echo n_states float",
        "le_curve t_max np.float64", "workers float", "image_cutoff float",
        "transient_skip float", "seed float", "gaussian inf", "gaussian nan", "lorentz inf",
        "lorentz nan", "sigma nan"])
def test_counts_must_be_integers_and_widths_finite(call, name):
    # every count is an int or a numpy integer, not a bool or a float, and
    # every width finite; a bad value raises ValueError naming its argument
    with pytest.raises(ValueError, match=name):
        call()


class TestCoherentState:
    def test_normalized(self):
        space = make_space(64)
        for q0, p0 in [(0.0, 0.0), (0.31, 0.77), (0.999, 0.001)]:
            psi = coherent_state(space, q0, p0)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_self_overlap(self):
        space = make_space(64)
        psi = coherent_state(space, 0.42, 0.13)
        assert abs(np.vdot(psi, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_distant_centers_orthogonal(self):
        # oracle: periodized-Gaussian overlap at separation 1/2 is ~exp(-pi*N/4)
        space = make_space(64)
        a = coherent_state(space, 0.25, 0.5)
        b = coherent_state(space, 0.75, 0.5)
        assert abs(np.vdot(a, b)) ** 2 < 1e-10

    def test_peak_at_nearest_grid_point(self):
        space = make_space(128)
        q0 = 0.37  # nearest grid point is j = 47 (47/128 = 0.3672)
        psi = coherent_state(space, q0, 0.2)
        assert np.argmax(np.abs(psi)) == int(round(q0 * 128)) % 128

    def test_position_variance_half_hbar(self):
        for N in (256, 512, 1024):
            space = make_space(N)
            q0 = 0.5
            psi = coherent_state(space, q0, 0.3)
            prob = np.abs(psi) ** 2
            x = np.arange(N) / N - q0
            x -= np.round(x)  # minimal image distance from the center
            var = float(np.sum(prob * x * x))
            assert var == pytest.approx(space.hbar / 2.0, rel=0.2)

    @pytest.mark.parametrize("N", [1, 16, 64, 800, 801, 4096, 2**14, 2**16])
    def test_live_images_equal_all_images_bitwise(self, N):
        # 64 random centres and the edges of the square, compared as bits so
        # that a signed zero counts too
        space = make_space(N)
        centers = np.concatenate([np.random.default_rng(N).random((64, 2)),
                                  [(0.0, 0.0), (0.0, 0.5), (1 - 2**-53, 0.7), (0.5, 1 - 2**-53)]])
        for q0, p0 in centers:
            got, expected = coherent_state(space, q0, p0), coherent_state_all_images(space, q0, p0)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (q0, p0)

    def test_domain_check(self):
        space = make_space(32)
        with pytest.raises(ValueError):
            coherent_state(space, 1.0, 0.5)
        with pytest.raises(ValueError):
            coherent_state(space, 0.5, -0.1)


class TestDFT:
    def test_delta_has_flat_momentum(self):
        space = make_space(16)
        delta = np.zeros(16, complex)
        delta[0] = 1.0
        mom = np.fft.fft(delta, norm="ortho")
        assert np.allclose(np.abs(mom), 0.25, atol=1e-12)

    def test_round_trip(self, rng):
        psi = random_state(64, rng)
        back = np.fft.ifft(np.fft.fft(psi, norm="ortho"), norm="ortho")
        assert np.max(np.abs(back - psi)) < 1e-12

    def test_norm_preserved(self, rng):
        psi = random_state(128, rng)
        assert np.linalg.norm(np.fft.fft(psi, norm="ortho")) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        # momentum amplitude_k = (1/sqrt N) sum_j exp(-2 pi i j k / N) psi_j
        N = 8
        psi = np.exp(2j * np.pi * 3 * np.arange(N) / N) / np.sqrt(N)
        mom = np.fft.fft(psi, norm="ortho")
        expected = np.zeros(N)
        expected[3] = 1.0
        assert np.allclose(np.abs(mom) ** 2, expected, atol=1e-12)


class TestTranslate:
    def test_identity(self, rng):
        psi = random_state(16, rng)
        assert np.allclose(translate(psi, 0, 0), psi, atol=1e-14)

    def test_norm_preserved(self, rng):
        psi = random_state(32, rng)
        for q, p in [(1, 0), (0, 1), (5, 9), (-3, 40), (31, 31)]:
            assert np.linalg.norm(translate(psi, q, p)) == pytest.approx(1.0, abs=1e-12)

    def test_mod_reduction(self, rng):
        psi = random_state(12, rng)
        assert np.allclose(translate(psi, 5, 7), translate(psi, 5 + 12, 7 - 12 * 3), atol=1e-12)

    def test_n4_weyl_phase_example(self):
        # T(1,0) T(0,1) = exp(-2 pi i / 4) T(0,1) T(1,0) on all basis states
        N = 4
        eye = np.eye(N, dtype=complex)
        for i in range(N):
            lhs = translate(translate(eye[:, i], 0, 1), 1, 0)
            rhs = np.exp(-2j * np.pi / N) * translate(translate(eye[:, i], 1, 0), 0, 1)
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_commutation_phase_all_quadruples(self, N):
        space = make_space(N)
        mats = [[translation_matrix(space, q, p) for p in range(N)] for q in range(N)]
        eye = np.eye(N)
        for q in range(N):
            for p in range(N):
                A = mats[q][p]
                for Q in range(N):
                    for P in range(N):
                        B = mats[Q][P]
                        commut = A @ B @ A.conj().T @ B.conj().T
                        phase = np.exp(2j * np.pi * (p * Q - q * P) / N)
                        assert np.max(np.abs(commut - phase * eye)) < 1e-10


class TestChord:
    def test_maximally_mixed(self):
        N = 8
        chi = rho_to_chord(np.eye(N, dtype=complex) / N)
        assert chi[0, 0] == pytest.approx(1.0, abs=1e-12)
        off = chi.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_round_trip(self, rng):
        rho = random_density(16, rng)
        assert np.max(np.abs(chord_to_rho(rho_to_chord(rho)) - rho)) < 1e-12

    def test_against_trace_oracle(self, rng):
        # chi(Q,P) = trace(T(Q,P)^dag rho) entry by entry with explicit matrices
        N = 8
        space = make_space(N)
        rho = random_density(N, rng)
        chi = rho_to_chord(rho)
        for Q in range(N):
            for P in range(N):
                direct = np.trace(translation_matrix(space, Q, P).conj().T @ rho)
                assert abs(chi[Q, P] - direct) < 1e-10

    def test_transposed_view_input(self, rng):
        rho = random_density(9, rng)
        assert np.array_equal(rho_to_chord(rho.T), rho_to_chord(np.ascontiguousarray(rho.T)))

    @pytest.mark.parametrize("N", [7, 16])
    def test_round_trip_fortran_order(self, N, rng):
        rho = np.asfortranarray(random_density(N, rng))
        assert np.max(np.abs(chord_to_rho(rho_to_chord(rho)) - rho)) < 1e-12

    @pytest.mark.parametrize("shape", [(8, 6), (6, 8), (8,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            rho_to_chord(np.zeros(shape, complex))
        with pytest.raises(ValueError, match="square"):
            chord_to_rho(np.zeros(shape, complex))

    def test_chi00_is_trace(self, rng):
        rho = random_density(12, rng)
        assert rho_to_chord(rho)[0, 0] == pytest.approx(np.trace(rho), abs=1e-12)


class TestPurity:
    def test_pure_projector(self, rng):
        psi = random_state(32, rng)
        assert purity(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        N = 64
        assert purity(np.eye(N, dtype=complex) / N) == pytest.approx(1.0 / N, abs=1e-14)

    def test_two_state_mixture(self):
        N = 16
        rho = np.zeros((N, N), complex)
        rho[0, 0] = 0.5
        rho[5, 5] = 0.5
        assert purity(rho) == pytest.approx(0.5, abs=1e-14)

    def test_strided_and_real_input(self, rng):
        rho = random_density(12, rng)
        assert purity(rho.T) == pytest.approx(purity(rho), rel=1e-14)
        assert purity(rho[::2, ::3]) == pytest.approx(np.sum(np.abs(rho[::2, ::3]) ** 2), rel=1e-14)
        assert purity(np.eye(4) / 4) == 0.25

    def test_parseval_identity(self, rng):
        for N in (8, 17, 32):
            rho = random_density(N, rng)
            chi = rho_to_chord(rho)
            assert abs(purity(rho) - np.sum(np.abs(chi) ** 2) / N) < 1e-10

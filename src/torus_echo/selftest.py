"""Small-N oracle suite: every fast path checked against a brute-force
construction.  Used by the CLI selftest mode and mirrored in the test suite.

The brute-force oracles live here and nowhere in the runtime modules: dense
Weyl translations (translate, translation_matrix), the dense propagator
(propagator_matrix), the O(N^4) Kraus sum (apply_decoherence_direct), the
literal Lorentz image sum (lorentz_kernel_direct), the Lorentz build over
every image row (lorentz_kernel_full_band) and over every quadrature node,
its small-t tail included (lorentz_kernel_all_nodes), the coherent state
summed over every lattice image (coherent_state_all_images), the one-state,
two-FFT echo loop (echo_values_direct), the identity channel
(identity_kernel), and the classical map (classical_step) with the Benettin
estimate of its Lyapunov exponent (lyapunov_numeric).  The echo step's
one-DFT kinetic half, read back as a state (kinetic_half_factorized), is
checked against ifft(K * fft(f)), and its closed-form chirps against
ifft(K).  At k = 0 the chord orbit (chord_orbit_purity) gives purity_curve's
values at production N.  The step's two-pass kernel spectrum is checked
through decoherence.chord_multiplier, one rfft2 call, which the double sum
checks in turn.
"""

import numpy as np

from .analysis import fit_decay_rate
from .decoherence import (
    LORENTZ_DEFAULT_IMAGE_CUTOFF,
    _MOMENTS,
    _advance_diagonals,
    _diagonal_step,
    _finalize,
    _lorentz_product,
    _lorentz_quadrature,
    _small_t_tail,
    _theta_rows,
    apply_decoherence,
    chord_multiplier,
    depolarizing_kernel,
    gaussian_kernel,
    lorentz_kernel,
)
from .dynamics import (
    MapParams,
    Propagator,
    apply_propagator,
    apply_to_density,
    build_propagator,
    lyapunov_closed_form,
    run_parts,
)
from .echo import (_echo_values, _kinetic_cosets, _propagator_pair, _step_tables, averaged_le,
                   ensemble_centers, le_curve)
from .hilbert import (COHERENT_IMAGE_RANGE, SpaceDescriptor, chord_to_rho, coherent_state,
                      cyclic_diagonals, make_space, purity, rho_to_chord, squared_row_norms)
from .rng import substream


def translate(state: np.ndarray, q: int, p: int) -> np.ndarray:
    """Apply the phase-space translation T(q, p); q and p reduce mod N."""
    N = state.shape[0]
    q = int(q) % N
    p = int(p) % N
    out = np.roll(state, q)  # U^q: position shift by q grid cells
    if p:
        out = out * np.exp(2j * np.pi * p * np.arange(N) / N)
    return out * np.exp(-1j * np.pi * q * p / N)


def translation_matrix(space: SpaceDescriptor, q: int, p: int) -> np.ndarray:
    """Dense N x N matrix of T(q, p); oracle-sized helper for small N."""
    N = space.N
    eye = np.eye(N, dtype=np.complex128)
    cols = [translate(eye[:, i], q, p) for i in range(N)]
    return np.column_stack(cols)


def propagator_matrix(prop: Propagator) -> np.ndarray:
    """Dense N x N matrix of the propagator; test oracle for small N.  The
    unitary DFT matrix F[k, j] = exp(-2*pi*i*((j*k) % N)/N)/sqrt(N) is built
    in closed form, with the product reduced in integers, so it shares no FFT
    code with apply_propagator."""
    N = prop.space.N
    if N > 4096:
        raise ValueError(f"dense propagator matrix limited to N <= 4096, got {N}")
    j = np.arange(N, dtype=np.int64)
    F = np.exp(-2j * np.pi * (np.outer(j, j) % N) / N) / np.sqrt(N)
    return F.conj().T @ (prop.kinetic_phases[:, None] * F) @ np.diag(prop.kick_phases)


def _centered_offsets(N: int) -> np.ndarray:
    """Minimal-image representative of each grid label: 0..N/2, then negative."""
    q = np.arange(N, dtype=float)
    return np.where(q <= N // 2, q, q - N)


def lorentz_kernel_direct(space: SpaceDescriptor, epsilon: float,
                          image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
    """Literal truncated double image sum; oracle for lorentz_kernel (small N)."""
    N = space.N
    if N > 64:
        raise ValueError(f"direct Lorentz sum limited to N <= 64, got {N}")
    s = epsilon * N / (2.0 * np.pi)
    offs = _centered_offsets(N)
    x = int(image_cutoff)
    images = N * np.arange(-x, x + 1, dtype=float)
    u_sq = (offs[None, :] - images[:, None]) ** 2   # (2x+1, N)
    raw = np.zeros((N, N))
    for uj in u_sq:
        for vk in u_sq:
            raw += s / (s * s + uj[:, None] + vk[None, :])
    return _finalize(raw)


def _lorentz_setup(space: SpaceDescriptor, epsilon: float, image_cutoff: int):
    """lorentz_kernel's squared image distances and quadrature nodes and weights."""
    N, x = space.N, int(image_cutoff)
    s = epsilon * N / (2.0 * np.pi)
    images = N * np.arange(-x, x + 1, dtype=float)
    dist_sq = (np.arange(N // 2 + 1.0)[None, :] - images[:, None]) ** 2  # (2x+1, H)
    return (dist_sq,) + _lorentz_quadrature(s, dist_sq.max())


def lorentz_kernel_full_band(space: SpaceDescriptor, epsilon: float,
                             image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
    """lorentz_kernel with every image row evaluated at every node past the
    small-t tail, in fresh temporaries, on one thread; the oracle, bitwise, of
    its live-band loop.  It shares the tail's moment rows (_theta_rows) and the
    folded product _lorentz_product."""
    dist_sq, t_all, w_all = _lorentz_setup(space, epsilon, image_cutoff)
    t_nodes, w, moments = _small_t_tail(t_all, w_all, dist_sq.max())
    n = t_nodes.size
    theta = np.empty((n + _MOMENTS, dist_sq.shape[1]))
    with np.errstate(under="ignore"):
        for i, t in enumerate(t_nodes):
            theta[i] = np.exp(-t * dist_sq).sum(axis=0)   # truncated 1D theta
    bands = np.array([(0, dist_sq.shape[0])] * theta.shape[0])

    def moment_rows(part, lo, hi, sync):
        _theta_rows(dist_sq, t_nodes, bands, theta, range(n + lo, n + hi), sync)

    run_parts(moment_rows, _MOMENTS, 1)  # one part, on this thread
    weighted = np.concatenate((theta[:n] * w[:, None],
                               np.einsum("pq,qa->pa", moments, theta[n:])))
    return _finalize(_lorentz_product(theta, weighted, space.N, workers=1))


def lorentz_kernel_all_nodes(space: SpaceDescriptor, epsilon: float,
                             image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
    """The Lorentz kernel from every quadrature node over every image row,
    the small-t tail included, on one thread; the oracle of lorentz_kernel's
    moment rows, which it matches to rounding."""
    dist_sq, t_nodes, w = _lorentz_setup(space, epsilon, image_cutoff)
    theta = np.empty((t_nodes.size, dist_sq.shape[1]))
    with np.errstate(under="ignore"):
        for i, t in enumerate(t_nodes):
            theta[i] = np.exp(-t * dist_sq).sum(axis=0)   # truncated 1D theta
    return _finalize(_lorentz_product(theta, theta * w[:, None], space.N, workers=1))


def coherent_state_all_images(space: SpaceDescriptor, q0: float, p0: float) -> np.ndarray:
    """coherent_state summed over all 2 * COHERENT_IMAGE_RANGE + 1 lattice
    images, the ones that underflow to 0.0 included; its oracle, bitwise."""
    N = space.N
    j = np.arange(N, dtype=float)
    psi = np.zeros(N, dtype=np.complex128)
    for m in range(-COHERENT_IMAGE_RANGE, COHERENT_IMAGE_RANGE + 1):
        x = j / N - q0 - m
        psi += np.exp(-np.pi * N * x * x + 2j * np.pi * N * p0 * x)
    return psi / np.sqrt(squared_row_norms(psi[None])[0])


def apply_decoherence_direct(rho: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """O(N^4) Kraus sum, sum c(q,p) T rho T^dag; test oracle for N <= 16."""
    N = kernel.shape[0]
    if N > 16:
        raise ValueError(f"direct Kraus sum limited to N <= 16, got {N}")
    space = make_space(N)
    out = np.zeros_like(rho, dtype=np.complex128)
    for q in range(N):
        for p in range(N):
            w = kernel[q, p]
            if w == 0.0:
                continue
            T = translation_matrix(space, q, p)
            out += w * (T @ rho @ T.conj().T)
    return out


def echo_values_direct(psi0: np.ndarray, prop: Propagator, prop_pert: Propagator,
                       t_max: int) -> np.ndarray:
    """M(t) for t = 0..t_max of one state, each branch advanced by its own
    apply_propagator call per step; oracle for echo._echo_values."""
    values = np.empty(t_max + 1)
    values[0] = abs(np.vdot(psi0, psi0)) ** 2
    phi = phi_pert = psi0
    for t in range(1, t_max + 1):
        phi = apply_propagator(phi, prop)
        phi_pert = apply_propagator(phi_pert, prop_pert)
        values[t] = abs(np.vdot(phi_pert, phi)) ** 2
    return values


def direct_averaged_le(space, params, sigma_over_hbar, t_max, n_states, seed):
    """averaged_le's mean, one echo_values_direct curve per state, summed in
    state order."""
    prop, prop_pert = _propagator_pair(space, params, sigma_over_hbar, t_max)
    acc = np.zeros(t_max + 1)
    for q0, p0 in ensemble_centers(seed, n_states):
        acc += echo_values_direct(coherent_state(space, q0, p0), prop, prop_pert, t_max)
    return acc / n_states


def one_state_averaged_le(space, params, sigma_over_hbar, t_max, n_states, seed):
    """averaged_le's mean, one le_curve per state, summed in state order: the
    same step one state at a time, so equal to averaged_le bitwise."""
    acc = np.zeros(t_max + 1)
    for q0, p0 in ensemble_centers(seed, n_states):
        acc += le_curve(coherent_state(space, q0, p0), space, params, sigma_over_hbar,
                        t_max).values
    return acc / n_states


def kinetic_half_factorized(f: np.ndarray, b: int) -> np.ndarray:
    """f -> ifft(K * fft(f)) through the echo step: the tables of a unit kick,
    one step of echo._echo_values, and its stored DFT output read back as
    the state, the out-chirp times Y[..., perm] in class layout."""
    N = len(f)
    tables = _step_tables(np.ones((2, N), dtype=complex), b)
    entry, perm = tables[1:]
    phi = np.empty((2, 1, N), dtype=complex)
    phi[0, 0] = f
    _echo_values(phi, tables, 1)
    y = phi[0, 0] if perm is None else phi[0, 0, perm]
    return (entry.conj() * y.reshape(entry.shape)).T.reshape(N)


def classical_step(point, params: MapParams):
    """One iteration of the classical map; point is (q, p) in [0,1)^2."""
    q, p = point
    a, b, k = params.a, params.b, params.k
    p1 = (p + a * q + 2.0 * np.pi * k * (np.cos(2 * np.pi * q) - np.cos(4 * np.pi * q))) % 1.0
    q1 = (q + b * p1) % 1.0
    return (q1, p1)


def _tangent_jacobian(q: float, params: MapParams):
    """Jacobian of the map at q (independent of p); acts on (dq, dp)."""
    g = params.a - 4.0 * np.pi**2 * params.k * (
        np.sin(2 * np.pi * q) - 2.0 * np.sin(4 * np.pi * q)
    )
    b = params.b
    return np.array([[1.0 + b * g, b], [g, 1.0]])


def lyapunov_numeric(params: MapParams, n_iter: int = 100_000, seed: int = 0) -> float:
    """Benettin estimate: average log growth of a tangent vector along a
    trajectory from a seeded random start, renormalized each step."""
    if n_iter < 10_000:
        raise ValueError(f"n_iter must be >= 10^4 for a stable estimate, got {n_iter}")
    rng = substream(seed, 11)  # fixed path reserved for lyapunov starts
    q, p = rng.random(2)
    v = np.array([1.0, 0.618])
    v /= np.linalg.norm(v)
    total = 0.0
    for _ in range(n_iter):
        v = _tangent_jacobian(q, params) @ v
        growth = np.linalg.norm(v)
        total += np.log(growth)
        v /= growth
        q, p = classical_step((q, p), params)
    return total / n_iter


def identity_kernel(space: SpaceDescriptor) -> np.ndarray:
    """Point mass on the identity translation; D = id."""
    raw = np.zeros((space.N, space.N))
    raw[0, 0] = 1.0
    return _finalize(raw)


def random_density(N, rng):
    """Random full-rank density matrix."""
    m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def check_translation_algebra(N=6):
    """T(q,p) T(Q,P) T(q,p)^dag = exp(2 pi i (pQ - qP)/N) T(Q,P), all quadruples."""
    space = make_space(N)
    mats = [[translation_matrix(space, q, p) for p in range(N)] for q in range(N)]
    worst = 0.0
    for q in range(N):
        for p in range(N):
            A = mats[q][p]
            for Q in range(N):
                for P in range(N):
                    lhs = A @ mats[Q][P] @ A.conj().T
                    rhs = np.exp(2j * np.pi * (p * Q - q * P) / N) * mats[Q][P]
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, 1e-10


def check_chord_roundtrip(N=8, seed=3):
    rng = np.random.default_rng(seed)
    rho = random_density(N, rng)
    back = chord_to_rho(rho_to_chord(rho))
    return float(np.max(np.abs(back - rho))), 1e-12


def check_chord_against_traces(N=8, seed=4):
    rng = np.random.default_rng(seed)
    space = make_space(N)
    rho = random_density(N, rng)
    chi = rho_to_chord(rho)
    worst = 0.0
    for Q in range(N):
        for P in range(N):
            direct = np.trace(translation_matrix(space, Q, P).conj().T @ rho)
            worst = max(worst, abs(chi[Q, P] - direct))
    return float(worst), 1e-10


def check_parseval_purity(N=8, seed=5):
    rng = np.random.default_rng(seed)
    rho = random_density(N, rng)
    chi = rho_to_chord(rho)
    return float(abs(purity(rho) - np.sum(np.abs(chi) ** 2) / N)), 1e-10


def check_propagator_matrix(N=8):
    space = make_space(N)
    prop = build_propagator(space, MapParams(2, 2, 0.13))
    U = propagator_matrix(prop)
    worst_unitary = float(np.max(np.abs(U @ U.conj().T - np.eye(N))))
    eye = np.eye(N, dtype=complex)
    cols = np.column_stack([apply_propagator(eye[:, i], prop) for i in range(N)])
    worst = max(float(np.max(np.abs(cols - U))), worst_unitary)
    return worst, 1e-10


def check_density_conjugation(seed=10):
    """apply_to_density against dense U rho U^dag at odd and even N, a != b,
    k > 0 and non-Hermitian rho."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N in (7, 8):
        prop = build_propagator(make_space(N), MapParams(2, 4, 0.13))
        U, rho = propagator_matrix(prop), rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        worst = max(worst, float(np.max(np.abs(apply_to_density(rho, prop) - U @ rho @ U.conj().T))))
    return worst, 1e-12


def random_symmetric_kernel(N, seed):
    """Random nonnegative weights with c(q,p) = c(-q,-p) and unit sum."""
    rng = np.random.default_rng(seed)
    raw = rng.random((N, N))
    sym = 0.5 * (raw + np.roll(np.roll(raw[::-1, ::-1], 1, axis=0), 1, axis=1))
    return sym / sym.sum()


def random_hermitian(N, rng):
    """A random Hermitian N x N matrix, not necessarily positive."""
    m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return m + m.conj().T


def check_purity_step(seed=11):
    """One purity_curve step against apply_decoherence(apply_to_density(rho))
    at odd and even N, a != b, k > 0, a random symmetric kernel and a random
    Hermitian rho, on the rows Q = 0..N//2 the step holds, on one thread and
    on two whatever the host.  Compares matrices: a wrong shear direction or
    phase can leave purities unchanged."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N in (7, 8):
        H = N // 2 + 1
        prop = build_propagator(make_space(N), MapParams(2, 4, 0.13))
        kernel = random_symmetric_kernel(N, seed)
        rho = random_hermitian(N, rng)
        expected = cyclic_diagonals(apply_decoherence(apply_to_density(rho, prop),
                                                      chord_multiplier(kernel)))[:H]
        for workers in (1, 2):
            fused = cyclic_diagonals(rho)[:H]
            _advance_diagonals(_diagonal_step(prop, kernel), fused, 1, workers)
            worst = max(worst, float(np.max(np.abs(fused - expected))))
    return worst, 1e-12


def chord_orbit_purity(psi: np.ndarray, a: int, b: int, chat: np.ndarray,
                       t_max: int) -> np.ndarray:
    """Purity P(0..t_max) under rho' = D(U rho U^dag) at k = 0, even a and b.

    Both halves of U are then linear shears, which permute the chord
    coefficients up to a phase, and D multiplies them by chat.  So the
    weights w = |chi|^2 / N move along the orbit of the cat map on chords,
    w -> w[Q, (P - a*Q) % N], then w[(Q - b*P) % N, P], then times chat^2,
    and P(t) = sum w: the exact finite-N form of chord stretching (Zurek &
    Paz, PRL 72, 2508 (1994)).  No FFT, so it checks purity_curve's
    permutation at any N; being phase-blind, it leaves phases to
    check_purity_step.
    """
    N = psi.shape[0]
    w = np.abs(rho_to_chord(np.outer(psi, psi.conj()))) ** 2 / N
    Q, P = np.ogrid[:N, :N]
    decay = chat ** 2
    values = [w.sum()]
    for _ in range(t_max):
        w = w[Q, (P - a * Q) % N]
        w = w[(Q - b * P) % N, P] * decay
        values.append(w.sum())
    return np.array(values)


def check_chord_orbit(N=24, t_max=6):
    """purity_curve's step at k = 0 against chord_orbit_purity, random
    symmetric kernel, on one thread and on two whatever the host."""
    space, kernel = make_space(N), random_symmetric_kernel(N, seed=12)
    psi = coherent_state(space, 0.31, 0.47)
    rows = cyclic_diagonals(np.outer(psi, psi.conj()))[:N // 2 + 1]
    worst = 0.0
    for a, b in ((2, 2), (2, 4), (4, 2)):
        expected = chord_orbit_purity(psi, a, b, chord_multiplier(kernel), t_max)
        prop = build_propagator(space, MapParams(a, b, 0.0))
        for workers in (1, 2):
            got = _advance_diagonals(_diagonal_step(prop, kernel), rows.copy(), t_max, workers)
            worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
    return worst, 1e-12


def check_echo_blocks(t_max=12):
    """averaged_le, whose states advance in blocks, on one thread and on two
    whatever the host: bitwise the same step run one state at a time, or
    fail, and within rounding of the one-state, two-FFT oracle.  The 9
    states cross a block edge at N = 4096; the step's output permutation is
    not the identity at N = 802 (r0 = 1) and at b = 4, N = 801 (gamma != 1)."""
    worst = 0.0
    for workers in (1, 2):
        for N, b in ((64, 2), (4096, 2), (802, 2), (801, 4)):
            space, params = make_space(N), MapParams(2, b, 0.0002)
            got = averaged_le(space, params, 2.5, t_max, n_states=9, seed=5, workers=workers)
            if not np.array_equal(got.values,
                                  one_state_averaged_le(space, params, 2.5, t_max, 9, 5)):
                return np.inf, 1e-13
            expected = direct_averaged_le(space, params, 2.5, t_max, 9, 5)
            worst = max(worst, float(np.max(np.abs(got.values - expected))))
    return worst, 1e-13


def check_echo_kinetic(seed=14):
    """The echo step's kinetic half (kinetic_half_factorized) against
    ifft(K * fft(f)) at 1e-14 relative, and its closed-form chirps against
    c = ifft(K), on the coset and as zeros off it, at 1e-15; err is the
    larger share of its tolerance.  The N include N < b, M = 1 and every
    r0 / gamma case."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for b in (2, 4, 6):
        for N in (1, 2, 3, 16, 17, 18, 30, 64, 801, 802, 4096):
            f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            K = build_propagator(make_space(N), MapParams(2, b)).kinetic_phases
            direct = np.fft.ifft(K * np.fft.fft(f, norm="ortho"), norm="ortho")
            err = np.max(np.abs(kinetic_half_factorized(f, b) - direct)) / np.max(np.abs(direct))
            g, r0, _, chirp, h0 = _kinetic_cosets(N, b)
            c, coset = np.fft.ifft(K), (r0 + g * np.arange(N // g)) % N
            closed = np.zeros(N, dtype=complex)
            closed[coset] = h0 * chirp
            worst = max(worst, err / 1e-14, float(np.max(np.abs(c - closed))) / 1e-15)
    return worst, 1.0


def check_coherent_images(seed=13):
    """coherent_state, which skips the images that underflow, against the sum
    over every image, at 16 random centres per N; compared as bits, so a
    signed zero counts too."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for N in (64, 800, 801, 4096, 2**14, 2**16):
        space = make_space(N)
        for q0, p0 in rng.random((16, 2)):
            got, expected = coherent_state(space, q0, p0), coherent_state_all_images(space, q0, p0)
            mismatches += not np.array_equal(got.view(np.int64), expected.view(np.int64))
    return float(mismatches), 1.0  # no mismatch, or fail


def check_multiplier_against_double_sum(N=8, seed=6):
    kernel = random_symmetric_kernel(N, seed)
    chat = chord_multiplier(kernel)
    worst = 0.0
    for Q in range(N):
        for P in range(N):
            phases = np.exp(2j * np.pi * (np.arange(N)[None, :] * Q - np.arange(N)[:, None] * P) / N)
            direct = np.sum(kernel * phases)
            worst = max(worst, abs(chat[Q, P] - direct))
    return float(worst), 1e-12


def check_kraus_equivalence(N=8, seed=7):
    rng = np.random.default_rng(seed)
    space = make_space(N)
    rho = random_density(N, rng)
    worst = 0.0
    for kernel in (gaussian_kernel(space, 0.5), depolarizing_kernel(space, 0.3),
                   lorentz_kernel(space, 0.5, image_cutoff=30)):
        fast = apply_decoherence(rho, chord_multiplier(kernel))
        direct = apply_decoherence_direct(rho, kernel)
        worst = max(worst, float(np.max(np.abs(fast - direct))))
    return worst, 1e-10


def check_depolarizing_closed_form(N=8, seed=8):
    """D(rho) = (1-w) rho + w I/N with w = eps N^2/(N^2-1)."""
    rng = np.random.default_rng(seed)
    space = make_space(N)
    rho = random_density(N, rng)
    eps = 0.37
    out = apply_decoherence(rho, chord_multiplier(depolarizing_kernel(space, eps)))
    w = eps * N * N / (N * N - 1.0)
    expected = (1.0 - w) * rho + w * np.eye(N) / N
    return float(np.max(np.abs(out - expected))), 1e-10


def check_lorentz_quadrature(N=16):
    space = make_space(N)
    fast = lorentz_kernel(space, 0.7, image_cutoff=40)
    direct = lorentz_kernel_direct(space, 0.7, image_cutoff=40)
    return float(np.max(np.abs(fast - direct) / direct)), 1e-9


def check_lorentz_band(N=64, s=0.02):
    """lorentz_kernel against lorentz_kernel_full_band at a width far below
    one grid cell, where most nodes skip all but a few image rows."""
    space, eps = make_space(N), 2 * np.pi * s / N
    fast, full = lorentz_kernel(space, eps), lorentz_kernel_full_band(space, eps)
    return float(np.max(np.abs(fast - full))), 5e-324  # the smallest double: equal bitwise or fail


def check_lorentz_moments(N=800, eps=0.0005, image_cutoff=100):
    """lorentz_kernel, its small-t tail summed as moment rows, against every
    node's exp sum, at the benchmark's N and epsilon."""
    space = make_space(N)
    fast = lorentz_kernel(space, eps, image_cutoff)
    exact = lorentz_kernel_all_nodes(space, eps, image_cutoff)
    return float(np.max(np.abs(fast - exact) / exact)), 2e-15


def check_unitality(N=8):
    space = make_space(N)
    eye = np.eye(N, dtype=complex) / N
    out = apply_decoherence(eye, chord_multiplier(gaussian_kernel(space, 0.5)))
    return float(np.max(np.abs(out - eye))), 1e-12


def check_identity_kernel(N=8, seed=9):
    rng = np.random.default_rng(seed)
    space = make_space(N)
    rho = random_density(N, rng)
    out = apply_decoherence(rho, chord_multiplier(identity_kernel(space)))
    return float(np.max(np.abs(out - rho))), 1e-12


def check_lyapunov(n_iter=20000):
    num = lyapunov_numeric(MapParams(2, 2, 0.0), n_iter=n_iter, seed=1)
    return float(abs(num - lyapunov_closed_form(2, 2))), 1e-3


def check_rate_fit():
    t = np.arange(60)
    fit = fit_decay_rate(np.exp(-0.5 * t), floor_hint=0.0, transient_skip=0)
    return float(abs(fit.gamma - 0.5)), 1e-9


ALL_CHECKS = [
    ("translation-algebra", check_translation_algebra),
    ("chord-roundtrip", check_chord_roundtrip),
    ("chord-vs-traces", check_chord_against_traces),
    ("parseval-purity", check_parseval_purity),
    ("propagator-vs-matrix", check_propagator_matrix),
    ("density-conjugation", check_density_conjugation),
    ("echo-blocks-vs-one-state", check_echo_blocks),
    ("echo-kinetic-vs-two-fft", check_echo_kinetic),
    ("coherent-live-vs-all-images", check_coherent_images),
    ("multiplier-vs-double-sum", check_multiplier_against_double_sum),
    ("purity-step-vs-composition", check_purity_step),
    ("purity-vs-chord-orbit", check_chord_orbit),
    ("chord-vs-kraus-sum", check_kraus_equivalence),
    ("depolarizing-closed-form", check_depolarizing_closed_form),
    ("lorentz-quadrature", check_lorentz_quadrature),
    ("lorentz-band-vs-full-band", check_lorentz_band),
    ("lorentz-moments-vs-all-nodes", check_lorentz_moments),
    ("unitality", check_unitality),
    ("identity-kernel", check_identity_kernel),
    ("lyapunov-numeric-vs-closed", check_lyapunov),
    ("rate-fit-exact-exponential", check_rate_fit),
]


def run_selftest(verbose=True):
    """Run every oracle check; returns True iff all pass."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        err, tol = fn()
        ok = err < tol
        all_ok = all_ok and ok
        if verbose:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name:<28} err={err:.3e}  tol={tol:.0e}")
    return all_ok

"""Loschmidt echo M(t) = |<psi| U_{k'}^{-t} U_k^t |psi>|^2 and ensemble
averages over uniformly drawn coherent states.  The perturbation is its
rescaled strength sigma_over_hbar = (k' - k) / hbar, hbar = 1/(2*pi*N).

averaged_le advances one contiguous chunk of states per thread of
dynamics.run_parts, in parallel, as numpy's FFTs and ufuncs release the GIL.
The chunks' curves are summed in state order afterwards, so the mean is
bitwise the serial one's, and the mean of le_curve run one state at a time.

One step of both branches is a kick and the kinetic half, the latter as one
DFT of length N/g on each of the g = gcd(b, N) classes of positions
(_kinetic_cosets), not an FFT pair of length N.  The values agree with the
two-FFT oracle, selftest.echo_values_direct, to rounding."""

import math
from typing import Optional

import numpy as np

from .dynamics import (Curve, MapParams, build_propagator, lyapunov_closed_form, run_parts,
                       thread_count)
from .hilbert import SpaceDescriptor, _check_integer, coherent_state
from .rng import substream


def default_echo_t_max(space: SpaceDescriptor, params: MapParams) -> int:
    """Steps for a Lyapunov-rate curve to reach saturation: ceil((ln N + 2)/lambda)."""
    lam = lyapunov_closed_form(params.a, params.b)
    return int(np.ceil((np.log(space.N) + 2.0) / lam))


# States per block of averaged_le: the blocks' (2, m, N) buffers hold 2^16
# complex values (1 MiB) together, shared out over the chunks' threads, so 8
# states at N = 4096 on one CPU, 4 per thread on two, and one state per thread
# from N = 2^15 up.
_BLOCK_VALUES = 2**15


def _propagator_pair(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                     t_max: int):
    """Validated (k, k') propagators of one echo run, k' = k + sigma_over_hbar * hbar."""
    _check_integer("t_max", t_max, 1)
    if not np.isfinite(sigma_over_hbar):
        raise ValueError(f"sigma_over_hbar must be finite, got {sigma_over_hbar}")
    k_prime = params.k + sigma_over_hbar * space.hbar
    return (build_propagator(space, params),
            build_propagator(space, MapParams(params.a, params.b, k_prime)))


def _kinetic_cosets(N: int, b: int):
    """The kinetic half f -> ifft(K * fft(f)), K(j) = exp(-i pi b j^2 / N), as
    one DFT of length M = N/g on each of the g = gcd(b, N) classes of
    positions (Hannay & Berry, Physica D 1, 267 (1980)).

    The half is a circular convolution with c = ifft(K).  With b' = b/g,
    K(j + M) = (-1)^(b' M) K(j), so c is nonzero on the one coset r0 + g Z_N
    alone, r0 = g/2 when b' M is odd and 0 otherwise.  There h(e) = c(r0 + g e)
    is a chirp of modulus 1/sqrt(M):

        h(e) = h(0) exp(-i pi (b' s^2 - (eps + 2 e) s) / M),  s = gamma e mod M,

    with gamma = b'^-1 mod M and eps = b' M mod 2.  So h(u - v) =
    h(u) h(-v) / h(0) exp(-2 pi i gamma u v / M), and on each class rho

        (C f)(g u + rho + r0) = h(u)/h(0) fft_M[sqrt(M) h(-v) f(g v + rho)](gamma u mod M),

    fft_M the orthonormal DFT over v.  Returns g, r0, gamma, the chirp
    h(e)/h(0) for e = 0..M-1, its angles reduced mod 2 pi in integers as in
    dynamics._reduced_quadratic_angle (each product stays below 4 M^2 <= 2^54
    for N <= 2^26, so int64 cannot wrap), and sqrt(M) h(0), a unit-modulus
    sum.
    """
    g = math.gcd(b, N)
    M, b1 = N // g, b // g
    eps, mod = b1 * M % 2, 2 * M
    gamma = pow(b1, -1, M)
    e = np.arange(M, dtype=np.int64)
    s = gamma * e % M
    angle = ((b1 % mod) * (s * s % mod) - (eps + 2 * e) * s % mod) % mod
    chirp = np.exp(-1j * np.pi * angle / M)
    angle = ((b1 % mod) * (e * e % mod) - eps * e) % mod
    h0 = np.mean(np.exp(-1j * np.pi * angle / M))
    return g, g // 2 * eps, gamma, chirp, np.sqrt(M) * h0


def _step_tables(kick: np.ndarray, b: int):
    """The echo step's tables for the (2, N) kick rows of a pair.

    The step holds each state in class layout, S[rho, v] = psi(g v + rho)
    (_kinetic_cosets), and stores the DFT's output Y before the out-chirp
    and the output permutation: psi's layout is out_chirp * Y[..., perm].
    One step is then Y <- fft_M(weights * Y[..., perm]).  Returns
      - weights, (2, 1, N): each row's kick in class layout, times the
        in-chirp sqrt(M) h(-v), times the out-chirp h(u)/h(0) permuted into
        place;
      - entry, (g, M): the conjugate out-chirp in class layout, which maps an
        initial state's layout to the stored Y once perm is undone;
      - perm, (N,) or None: the flat index into Y of each layout position,
        None where it is the identity (r0 = 0 and gamma = 1: b = 2 at
        N = 0 mod 4, b = 4 at N = 0 mod 8).
    """
    N = kick.shape[-1]
    g, r0, gamma, chirp, scale = _kinetic_cosets(N, b)
    M = N // g
    rho, v = np.arange(g)[:, None], np.arange(M)
    u = (v - (rho < r0)) % M  # g u + (rho - r0) % g + r0 = g v + rho (mod N)
    perm = (((rho - r0) % g) * M + gamma * u % M).reshape(N)
    out_chirp = chirp[u]
    layout_kick = kick.reshape(2, M, g).transpose(0, 2, 1)
    weights = layout_kick * (scale * chirp[-v % M])
    weights *= out_chirp
    if np.array_equal(perm, np.arange(N)):
        perm = None
    return weights.reshape(2, 1, N), out_chirp.conj(), perm


def _stacked_phases(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                    t_max: int):
    """The echo step's tables (_step_tables) for the pair's kick phases, row
    0 k and row 1 k'; the kinetic half depends on b alone.  The Propagators
    are dropped once their kicks are stacked."""
    kick = np.stack([prop.kick_phases
                     for prop in _propagator_pair(space, params, sigma_over_hbar, t_max)])
    return _step_tables(kick, params.b)


def _echo_values(phi: np.ndarray, tables, t_max: int) -> np.ndarray:
    """M(t) for t = 0..t_max of each state of a block, as an (m, t_max + 1)
    array.  phi is a (2, m, N) buffer whose row 0 holds the block's initial
    states on entry; it is overwritten.  tables are _stacked_phases'.

    Both branches of every state advance together in place, k in row 0 and
    k' in row 1: per step, the output permutation (a take into a scratch
    block, unless it is the identity), one multiply by the weights and one
    DFT of length N/g on each class.  The out-chirp and the permutation are
    the same unitary map on both branches, so each overlap is read from the
    stored DFT outputs.  The values agree with the one-state, two-FFT oracle
    (selftest.echo_values_direct) to rounding.
    """
    weights, entry, perm = tables
    m, (g, M) = phi.shape[1], entry.shape
    values = np.empty((m, t_max + 1))
    values[:, 0] = [abs(np.vdot(row, row)) ** 2 for row in phi[0]]
    layout = phi.reshape(2, m, g, M)
    # the states' class layout times the conjugate out-chirp, in row 1, then
    # with the permutation undone: both branches' stored Y
    np.multiply(phi[0].reshape(m, M, g).transpose(0, 2, 1), entry, out=layout[1])
    if perm is None:
        phi[0] = phi[1]
    else:
        phi[0][:, perm] = phi[1]
    phi[1] = phi[0]
    source = phi if perm is None else np.empty_like(phi)
    for t in range(1, t_max + 1):
        if perm is not None:
            np.take(phi, perm, axis=-1, out=source, mode="clip")
        np.multiply(weights, source, out=phi)
        np.fft.fft(layout, norm="ortho", out=layout)
        for i in range(m):
            values[i, t] = abs(np.vdot(phi[1, i], phi[0, i])) ** 2
    return values


def le_curve(psi0: np.ndarray, space: SpaceDescriptor, params: MapParams,
             sigma_over_hbar: float, t_max: int) -> Curve:
    """Echo of a single initial state under the (k, k') propagator pair.

    Both branches advance one application per step; cost O(t_max * N log N).
    """
    if psi0.shape != (space.N,):
        raise ValueError(f"state shape {psi0.shape} != ({space.N},), the space dimension")
    tables = _stacked_phases(space, params, sigma_over_hbar, t_max)
    phi = np.empty((2, 1, space.N), dtype=np.complex128)
    phi[0, 0] = psi0
    return Curve(_echo_values(phi, tables, t_max)[0])


def ensemble_centers(seed: int, n_states: int) -> np.ndarray:
    """Coherent-state centers drawn uniformly on [0,1)^2, one substream per
    state index so the draw is independent of evaluation order."""
    return np.array([substream(seed, i).random(2) for i in range(n_states)])


def _chunk_values(space: SpaceDescriptor, centers: np.ndarray, tables, t_max: int, block: int,
                  sync):
    """M(t) of the coherent states at centers, one row each, advanced block
    states at a time through one reused (2, block, N) buffer; None once
    run_parts' barrier sync is broken, which is checked before each block."""
    phi = np.empty((2, min(block, len(centers)), space.N), dtype=np.complex128)
    values = np.empty((len(centers), t_max + 1))
    for start in range(0, len(centers), block):
        if sync.broken:
            return None
        rows = centers[start:start + block]
        states = phi[:, :len(rows)]
        for i, (q0, p0) in enumerate(rows):
            states[0, i] = coherent_state(space, q0, p0)
        values[start:start + len(rows)] = _echo_values(states, tables, t_max)
    return values


def averaged_le(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                t_max: int, n_states: int, seed: int, workers: Optional[int] = None) -> Curve:
    """Mean echo over n_states coherent states; summation in state-index
    order, so results are bitwise reproducible for fixed (seed, n_states)
    whatever the thread count.

    The propagator pair is built once for all states.  The states split into
    w = dynamics.thread_count(n_states, workers) contiguous chunks, advanced
    in parallel by dynamics.run_parts, in blocks of
    max(1, _BLOCK_VALUES // (w * N)).  The CLI lowers workers to fit its
    memory cap.  An exception raised in any chunk stops the others at
    their next block and is re-raised here once every thread has ended.
    """
    _check_integer("n_states", n_states, 1)
    workers = thread_count(n_states, workers)
    tables = _stacked_phases(space, params, sigma_over_hbar, t_max)
    centers = ensemble_centers(seed, n_states)
    block = max(1, _BLOCK_VALUES // (workers * space.N))

    def advance(part, lo, hi, sync):
        return _chunk_values(space, centers[lo:hi], tables, t_max, block, sync)

    acc = np.zeros(t_max + 1)
    for values in run_parts(advance, n_states, workers):
        for row in values:
            acc += row
    return Curve(acc / n_states)

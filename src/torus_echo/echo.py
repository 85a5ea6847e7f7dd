"""Loschmidt echo M(t) = |<psi| U_{k'}^{-t} U_k^t |psi>|^2 and ensemble
averages over uniformly drawn coherent states.  The perturbation is its
rescaled strength sigma_over_hbar = (k' - k) / hbar, hbar = 1/(2*pi*N).

averaged_le splits the ensemble into one contiguous chunk of states per
thread, dynamics.thread_count(n_states) threads.  The calling thread
advances the first chunk and a plain thread each other one
(dynamics.run_parts); numpy's FFTs and ufuncs release the GIL, so the chunks
run in parallel.  The chunks' curves are summed in state order afterwards,
so the mean is bitwise the serial one's."""

import threading
from typing import Optional

import numpy as np

from .dynamics import (Curve, MapParams, build_propagator, lyapunov_closed_form, run_parts,
                       thread_count)
from .hilbert import SpaceDescriptor, coherent_state
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
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    k_prime = params.k + sigma_over_hbar * space.hbar
    return (build_propagator(space, params),
            build_propagator(space, MapParams(params.a, params.b, k_prime)))


def _stacked_phases(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                    t_max: int):
    """The pair's kick phases as one (2, 1, N) array, row 0 k and row 1 k',
    and their common (N,) kinetic phases: T(p) does not depend on k.  The
    Propagators are dropped once copied."""
    pair = _propagator_pair(space, params, sigma_over_hbar, t_max)
    kick = np.stack([prop.kick_phases for prop in pair])[:, None, :]
    return kick, pair[0].kinetic_phases


def _echo_values(phi: np.ndarray, kick: np.ndarray, kinetic: np.ndarray,
                 t_max: int) -> np.ndarray:
    """M(t) for t = 0..t_max of each state of a block, as an (m, t_max + 1)
    array.  phi is a (2, m, N) buffer whose row 0 holds the block's initial
    states on entry; it is overwritten.

    Both branches of every state advance together in place, k in row 0 and
    k' in row 1: a kick, one forward FFT, the kinetic phases and one inverse
    FFT per step.  The operations and their operand order are
    apply_propagator's, so each value is bitwise the one-state,
    two-application oracle's (selftest.echo_values_direct).
    """
    m = phi.shape[1]
    values = np.empty((m, t_max + 1))
    values[:, 0] = [abs(np.vdot(row, row)) ** 2 for row in phi[0]]
    phi[1] = phi[0]
    for t in range(1, t_max + 1):
        np.multiply(kick, phi, out=phi)
        np.fft.fft(phi, norm="ortho", out=phi)
        np.multiply(kinetic, phi, out=phi)
        np.fft.ifft(phi, norm="ortho", out=phi)
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
    kick, kinetic = _stacked_phases(space, params, sigma_over_hbar, t_max)
    phi = np.empty((2, 1, space.N), dtype=np.complex128)
    phi[0, 0] = psi0
    return Curve(_echo_values(phi, kick, kinetic, t_max)[0])


def ensemble_centers(seed: int, n_states: int) -> np.ndarray:
    """Coherent-state centers drawn uniformly on [0,1)^2, one substream per
    state index so the draw is independent of evaluation order."""
    return np.array([substream(seed, i).random(2) for i in range(n_states)])


def _chunk_values(space: SpaceDescriptor, centers: np.ndarray, kick: np.ndarray,
                  kinetic: np.ndarray, t_max: int, block: int, stop: threading.Event):
    """M(t) of the coherent states at centers, one row each, advanced block
    states at a time through one reused (2, block, N) buffer; None once stop
    is set, which is checked before each block."""
    phi = np.empty((2, min(block, len(centers)), space.N), dtype=np.complex128)
    values = np.empty((len(centers), t_max + 1))
    for start in range(0, len(centers), block):
        if stop.is_set():
            return None
        rows = centers[start:start + block]
        states = phi[:, :len(rows)]
        for i, (q0, p0) in enumerate(rows):
            states[0, i] = coherent_state(space, q0, p0)
        values[start:start + len(rows)] = _echo_values(states, kick, kinetic, t_max)
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
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    workers = thread_count(n_states, workers)
    kick, kinetic = _stacked_phases(space, params, sigma_over_hbar, t_max)
    centers = ensemble_centers(seed, n_states)
    block = max(1, _BLOCK_VALUES // (workers * space.N))
    results = [None] * workers
    stop = threading.Event()

    def advance(part, lo, hi):
        results[part] = _chunk_values(space, centers[lo:hi], kick, kinetic, t_max, block, stop)

    run_parts(advance, n_states, workers, stop.set)
    acc = np.zeros(t_max + 1)
    for values in results:
        for row in values:
            acc += row
    return Curve(acc / n_states)

"""Hilbert space of the discretized torus.

An N-dimensional space with effective Planck constant hbar = 1/(2*pi*N).
Position eigenstates live on the grid q_j = j/N; the momentum basis is the
discrete Fourier transform of the position basis.  States are plain complex
numpy vectors of length N (unit norm), density matrices are N x N complex
arrays (Hermitian, unit trace).

Phase-space translations are realized as cyclic shifts plus momentum phases
with the symmetric (Weyl) phase convention

    T(q, p) = exp(-i*pi*q*p/N) * V^p * U^q,

where U shifts position by one grid cell and V multiplies by the momentum
phase.  This convention gives the commutation rule

    T(q,p) T(Q,P) T(q,p)^dag = exp(2*pi*i*(p*Q - q*P)/N) T(Q,P),

which is what makes translation-weighted channels diagonal in the chord
(translation-operator) representation.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from numpy.lib.stride_tricks import as_strided

COHERENT_IMAGE_RANGE = 3  # lattice images; enough for double precision at N >= 16


@dataclass(frozen=True)
class SpaceDescriptor:
    """Torus Hilbert space: dimension N and hbar = 1/(2*pi*N)."""

    N: int
    hbar: float


def make_space(N: int) -> SpaceDescriptor:
    """Build the space descriptor for Hilbert dimension N >= 1."""
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise ValueError(f"dimension N must be an integer, got {N!r}")
    if N < 1:
        raise ValueError(f"dimension N must be >= 1, got {N}")
    if N > 2**26:
        raise ValueError(f"dimension N={N} is beyond supported range (max 2^26)")
    return SpaceDescriptor(N=int(N), hbar=1.0 / (2.0 * np.pi * N))


def coherent_state(space: SpaceDescriptor, q0: float, p0: float) -> np.ndarray:
    """Normalized coherent state centered at (q0, p0) in [0,1)^2.

    Periodized Gaussian with symmetric widths (position variance hbar/2):
    psi_j ~ sum_m exp(-pi*N*(j/N - q0 - m)^2 + 2*pi*i*N*p0*(j/N - q0 - m)).
    """
    if not (0.0 <= q0 < 1.0 and 0.0 <= p0 < 1.0):
        raise ValueError(f"center ({q0}, {p0}) must lie in [0,1)^2")
    N = space.N
    j = np.arange(N, dtype=float)
    psi = np.zeros(N, dtype=np.complex128)
    for m in range(-COHERENT_IMAGE_RANGE, COHERENT_IMAGE_RANGE + 1):
        x = j / N - q0 - m
        psi += np.exp(-np.pi * N * x * x + 2j * np.pi * N * p0 * x)
    return psi / np.linalg.norm(psi)


def dft_position_to_momentum(state: np.ndarray) -> np.ndarray:
    """Unitary DFT: amplitude_k = (1/sqrt(N)) sum_j exp(-2*pi*i*j*k/N) psi_j."""
    return sfft.fft(state, norm="ortho")


def dft_momentum_to_position(state: np.ndarray) -> np.ndarray:
    """Inverse of dft_position_to_momentum."""
    return sfft.ifft(state, norm="ortho")


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


@lru_cache(maxsize=8)
def _chord_phase(N: int) -> np.ndarray:
    """Cached half phases exp(-i*pi*Q*P/N) of the chord transform."""
    half_phase = np.exp(-1j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)
    half_phase.setflags(write=False)
    return half_phase


def rho_to_chord(rho: np.ndarray) -> np.ndarray:
    """Chord coefficients chi(Q, P) = trace(T(Q,P)^dag rho).

    Computed with one length-N DFT per cyclic off-diagonal, O(N^2 log N);
    d[Q, j] = rho[(Q + j) % N, j] is a strided view of rho doubled by rows.
    """
    N = rho.shape[0]
    if rho.shape != (N, N):  # the strided view would read past the buffer
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    doubled = np.concatenate((rho, rho))
    s0, s1 = doubled.strides
    chi = sfft.fft(as_strided(doubled, (N, N), (s0, s0 + s1)), axis=1, workers=-1)
    chi *= _chord_phase(N)
    return chi


def chord_to_rho(chi: np.ndarray) -> np.ndarray:
    """Inverse of rho_to_chord: rho = (1/N) sum chi(Q,P) T(Q,P), where
    rho[r, j] = d[(r - j) % N, j] is a strided view of the diagonals d doubled
    by rows."""
    N = chi.shape[0]
    if chi.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {chi.shape}")
    doubled = np.empty((2 * N, N), dtype=np.complex128)  # filled in place: lower peak RSS
    np.conjugate(_chord_phase(N), out=doubled[:N])
    doubled[:N] *= chi
    doubled[N:] = sfft.ifft(doubled[:N], axis=1, workers=-1, overwrite_x=True)
    doubled[:N] = doubled[N:]
    s0, s1 = doubled.strides
    return as_strided(doubled[N:], (N, N), (s0, s1 - s0)).copy()


def purity(rho: np.ndarray) -> float:
    """trace(rho^2) for Hermitian rho; equals squared Frobenius norm."""
    return float(np.vdot(rho.ravel(), rho.ravel()).real)

"""Hilbert space of the discretized torus.

An N-dimensional space with effective Planck constant hbar = 1/(2*pi*N).
Position eigenstates live on the grid q_j = j/N; the momentum basis is the
discrete Fourier transform of the position basis.  States are plain complex
numpy vectors of length N (unit norm), density matrices are N x N complex
arrays (Hermitian, unit trace).

The chord coefficients of rho are its components on the phase-space
translations with the symmetric (Weyl) phase convention

    T(q, p) = exp(-i*pi*q*p/N) * V^p * U^q,

where U shifts position by one grid cell and V multiplies by the momentum
phase.  This convention gives the commutation rule

    T(q,p) T(Q,P) T(q,p)^dag = exp(2*pi*i*(p*Q - q*P)/N) T(Q,P),

which is what makes translation-weighted channels diagonal in the chord
(translation-operator) representation.  The dense T(q, p) is a selftest
oracle.
"""

from dataclasses import dataclass

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


def _chord_phase(N: int) -> np.ndarray:
    """Half phases exp(-i*pi*Q*P/N) of the chord transform."""
    return np.exp(-1j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)


def _cyclic_diagonals(x: np.ndarray) -> np.ndarray:
    """Read-only N x N view d[Q, j] = x[(Q + j) % N] over the vector x doubled."""
    doubled = np.concatenate((x, x))
    return as_strided(doubled, (x.size, x.size), doubled.strides * 2, writeable=False)


def rho_to_chord(rho: np.ndarray) -> np.ndarray:
    """Chord coefficients chi(Q, P) = trace(T(Q,P)^dag rho).

    Computed with one length-N DFT per cyclic off-diagonal
    d[Q, j] = rho[(Q + j) % N, j], O(N^2 log N).
    """
    N = rho.shape[0]
    if rho.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    j = np.arange(N)
    chi = sfft.fft(rho[(j[:, None] + j) % N, j], axis=1, workers=-1)
    chi *= _chord_phase(N)
    return chi


def chord_to_rho(chi: np.ndarray) -> np.ndarray:
    """Inverse of rho_to_chord: rho = (1/N) sum chi(Q,P) T(Q,P), read back
    from the diagonals d = ifft(conj(half phase) * chi) as
    rho[(Q + j) % N, j] = d[Q, j]."""
    N = chi.shape[0]
    if chi.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {chi.shape}")
    j = np.arange(N)
    rho = np.empty((N, N), dtype=np.complex128)
    rho[(j[:, None] + j) % N, j] = sfft.ifft(chi * _chord_phase(N).conj(), axis=1)
    return rho


def purity(rho: np.ndarray) -> float:
    """trace(rho^2) for Hermitian rho; equals squared Frobenius norm."""
    return float(np.vdot(rho.ravel(), rho.ravel()).real)

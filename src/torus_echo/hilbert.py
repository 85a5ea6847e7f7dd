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

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

COHERENT_IMAGE_RANGE = 3  # lattice images; enough for double precision at N >= 16
_EXP_UNDERFLOW = 746.0  # exp(-t) is exactly 0.0 in double precision from t ~ 745.2 up


@dataclass(frozen=True)
class SpaceDescriptor:
    """Torus Hilbert space: dimension N and hbar = 1/(2*pi*N)."""

    N: int
    hbar: float


def _check_integer(name: str, value, low: int) -> None:
    """The one test of every count the package takes: ValueError naming the
    argument unless value is an int or numpy integer, not a bool, >= low."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def make_space(N: int) -> SpaceDescriptor:
    """Build the space descriptor for Hilbert dimension N >= 1."""
    _check_integer("dimension N", N, 1)
    if N > 2**26:
        raise ValueError(f"dimension N={N} is beyond supported range (max 2^26)")
    return SpaceDescriptor(N=int(N), hbar=1.0 / (2.0 * np.pi * N))


def coherent_state(space: SpaceDescriptor, q0: float, p0: float) -> np.ndarray:
    """Normalized coherent state centered at (q0, p0) in [0,1)^2.

    Periodized Gaussian with symmetric widths (position variance hbar/2):
    psi_j ~ sum_m exp(-pi*N*(j/N - q0 - m)^2 + 2*pi*i*N*p0*(j/N - q0 - m)).

    Each image is summed on its live band alone, the j with pi*N*x^2 < 746,
    that is |j - N (q0 + m)| < sqrt(746 N / pi), and one grid point more on
    each side: every other term underflows to exactly +-0.0 (exp(-745.2)
    already does), and adding it would change no bit.  Summing all
    2 * COHERENT_IMAGE_RANGE + 1 images on the whole grid is the oracle
    (selftest.coherent_state_all_images).
    """
    if not (0.0 <= q0 < 1.0 and 0.0 <= p0 < 1.0):
        raise ValueError(f"center ({q0}, {p0}) must lie in [0,1)^2")
    N = space.N
    half = math.sqrt(_EXP_UNDERFLOW * N / math.pi)
    psi = np.zeros(N, dtype=np.complex128)
    for m in range(-COHERENT_IMAGE_RANGE, COHERENT_IMAGE_RANGE + 1):
        lo, hi = (min(N, max(0, math.floor(N * (q0 + m) + d))) for d in (-half, half + 2))
        x = np.arange(lo, hi, dtype=float) / N - q0 - m
        psi[lo:hi] += np.exp(-np.pi * N * x * x + 2j * np.pi * N * p0 * x)
    return psi / np.linalg.norm(psi)


def _chord_phase(N: int) -> np.ndarray:
    """Half phases exp(-i*pi*Q*P/N) of the chord transform."""
    return np.exp(-1j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)


def _cyclic_diagonals(x: np.ndarray) -> np.ndarray:
    """Read-only N x N view d[Q, j] = x[(Q + j) % N] over the vector x doubled."""
    doubled = np.concatenate((x, x))
    return as_strided(doubled, (x.size, x.size), doubled.strides * 2, writeable=False)


def cyclic_diagonals(rho: np.ndarray) -> np.ndarray:
    """Copy of the cyclic diagonals d[Q, j] = rho[(Q + j) % N, j], purity_curve's layout."""
    j = np.arange(rho.shape[0])
    return rho[(j[:, None] + j) % j.size, j]


def rho_to_chord(rho: np.ndarray) -> np.ndarray:
    """Chord coefficients chi(Q, P) = trace(T(Q,P)^dag rho), one length-N DFT
    per row of cyclic_diagonals(rho), O(N^2 log N)."""
    N = rho.shape[0]
    if rho.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    chi = np.fft.fft(cyclic_diagonals(rho), axis=1)
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
    rho[(j[:, None] + j) % N, j] = np.fft.ifft(chi * _chord_phase(N).conj(), axis=1)
    return rho


def squared_row_norms(x: np.ndarray, out=None) -> np.ndarray:
    """sum_j |x[i, j]|^2 for each row i of a complex128 2-D array whose rows
    are contiguous, as one einsum over its float64 view.  einsum runs its own
    loop, not BLAS, so the sums do not depend on BLAS's thread count, and a
    row's sum is the same whichever rows are passed with it."""
    v = x.view(np.float64)
    return np.einsum("ij,ij->i", v, v, out=out)


def purity(rho: np.ndarray) -> float:
    """trace(rho^2) for Hermitian rho; equals squared Frobenius norm, summed
    from squared_row_norms."""
    return float(squared_row_norms(np.ascontiguousarray(rho, dtype=np.complex128)).sum())

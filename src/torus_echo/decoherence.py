"""Decoherence channels as translation-weighted Kraus superoperators.

A channel is D(rho) = sum_{q,p} c(q,p) T(q,p) rho T(q,p)^dag with c >= 0 and
unit sum, so D is completely positive, trace preserving and unital.  Because
the translations form a projective Weyl pair, D acts diagonally on the chord
coefficients:

    chi'(Q,P) = chat(Q,P) * chi(Q,P),
    chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N),

which reduces one channel application to length-N DFTs along the cyclic
diagonals of rho, a multiply and the inverse DFTs, O(N^2 log N).  The O(N^4)
Kraus sum is kept as a small-N test oracle (apply_decoherence_direct).

Kernel families:
  * gaussian_kernel     - diffusive, weights ~ exp(-r^2 / (2 s^2)), s = N*eps/(2*pi)
  * depolarizing_kernel - uniform over all nonzero translations
  * lorentz_kernel      - heavy-tailed, weights ~ s / (s^2 + r^2), truncated
                          image sum over (2x+1)^2 lattice copies
  * mixture_kernel      - convex combination of two kernels

All kernels are periodized with the minimal-image representative of each
grid point, which keeps c(q,p) = c(-q,-p) exact under truncation.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .dynamics import Propagator, apply_to_density
from .hilbert import (
    SpaceDescriptor,
    chord_to_rho,
    purity,
    rho_to_chord,
    translation_matrix,
)

LORENTZ_DEFAULT_IMAGE_CUTOFF = 100
_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class DecoherenceKernel:
    """Probability weights c(q,p) over the N^2 phase-space translations."""

    space: SpaceDescriptor
    weights: np.ndarray
    epsilon: float
    model_tag: str


@dataclass(frozen=True)
class ChordMultiplier:
    """Diagonal action of a kernel in the chord representation (real by
    kernel symmetry; chat(0,0) = 1, |chat| <= 1)."""

    space: SpaceDescriptor
    values: np.ndarray


@dataclass(frozen=True)
class PurityCurve:
    """P(t) = trace(rho_t^2) for t = 0..t_max, plus run metadata."""

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


def _centered_offsets(N: int) -> np.ndarray:
    """Minimal-image representative of each grid label: 0..N/2, then negative."""
    q = np.arange(N, dtype=float)
    return np.where(q <= N // 2, q, q - N)


def _finalize(space, raw, epsilon, model_tag) -> DecoherenceKernel:
    weights = raw / raw.sum()
    weights.setflags(write=False)
    return DecoherenceKernel(space=space, weights=weights, epsilon=float(epsilon),
                             model_tag=model_tag)


def identity_kernel(space: SpaceDescriptor) -> DecoherenceKernel:
    """Point mass on the identity translation; D = id."""
    raw = np.zeros((space.N, space.N))
    raw[0, 0] = 1.0
    return _finalize(space, raw, 0.0, "identity")


def gaussian_kernel(space: SpaceDescriptor, epsilon: float) -> DecoherenceKernel:
    """Gaussian diffusion kernel with width s = N*eps/(2*pi) grid cells,
    periodized until the image tail is below 1e-14."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    N = space.N
    s = epsilon * N / (2.0 * np.pi)
    offs = _centered_offsets(N)
    m_max = int(np.ceil(8.5 * s / N)) + 1  # exp(-(8.5)^2/2) ~ 2e-16 tail
    axis = np.zeros(N)
    for m in range(-m_max, m_max + 1):
        axis += np.exp(-((offs - N * m) ** 2) / (2.0 * s * s))
    return _finalize(space, np.outer(axis, axis), epsilon, "gdm")


def depolarizing_kernel(space: SpaceDescriptor, epsilon: float) -> DecoherenceKernel:
    """Depolarizing channel: weight 1-eps on the identity, the rest spread
    evenly.  Off-origin weights are eps/(N^2-1), a renormalization of the
    textbook eps/N^2 that makes the channel exactly trace preserving."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    N = space.N
    if N == 1:
        raise ValueError("depolarizing kernel needs N >= 2")
    raw = np.full((N, N), epsilon / (N * N - 1))
    raw[0, 0] = 1.0 - epsilon
    return _finalize(space, raw, epsilon, "dc")


def _lorentz_quadrature(s: float, lam_max: float):
    """Log-spaced trapezoid nodes for 1/lam = int_0^inf exp(-t*lam) dt.

    The integrand in y = ln(t) is a smooth bump per lam value; trapezoid
    error decays like exp(-pi^2/h).  Range covers lam in [s^2, lam_max] with
    relative tails below 1e-15.
    """
    y_lo = np.log(1e-16 / lam_max)
    y_hi = np.log(40.0 / (s * s))
    h = 0.2
    n = int(np.ceil((y_hi - y_lo) / h)) + 1
    y = y_lo + h * np.arange(n)
    t = np.exp(y)
    w = h * t  # dt = t dy
    return t, w


def lorentz_kernel(space: SpaceDescriptor, epsilon: float,
                   image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> DecoherenceKernel:
    """Lorentz (heavy-tailed) kernel, c ~ sum_images s/(s^2 + r^2).

    The truncated image sum over (2x+1)^2 lattice copies is evaluated exactly
    (to ~1e-12 relative) through the exponential integral representation
    1/lam = int exp(-t*lam) dt, which factorizes the (j,k) double sum into
    products of one-dimensional truncated theta sums per quadrature node t_i:
    raw = theta^T diag(w) theta, one GEMM over the (n_nodes, N) theta sums,
    w_i = t_weight_i * s * exp(-t_i s^2).  theta is filled node by node; all
    nodes at once would need an (n_nodes, 2x+1, N) temporary, 450 MB at N=800.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if image_cutoff < 10:
        raise ValueError(f"image_cutoff must be >= 10, got {image_cutoff}")
    N = space.N
    x = int(image_cutoff)
    s = epsilon * N / (2.0 * np.pi)
    offs = _centered_offsets(N)
    images = N * np.arange(-x, x + 1, dtype=float)
    dist_sq = (offs[None, :] - images[:, None]) ** 2      # (2x+1, N)
    lam_max = s * s + 2.0 * dist_sq.max()
    t_nodes, t_weights = _lorentz_quadrature(s, lam_max)
    theta = np.empty((t_nodes.size, N))
    with np.errstate(under="ignore"):
        for i, t in enumerate(t_nodes):
            theta[i] = np.exp(-t * dist_sq).sum(axis=0)   # truncated 1D theta
        w = t_weights * s * np.exp(-t_nodes * s * s)
    return _finalize(space, theta.T @ (w[:, None] * theta), epsilon, "ldm")


def lorentz_kernel_direct(space: SpaceDescriptor, epsilon: float,
                          image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> DecoherenceKernel:
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
    return _finalize(space, raw, epsilon, "ldm")


def build_kernel(space: SpaceDescriptor, model_tag: str, epsilon: float,
                 mixture_weight: float = 0.5,
                 image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> DecoherenceKernel:
    """Kernel factory keyed by model tag; mixture combines GDM with LDM."""
    if model_tag == "gdm":
        return gaussian_kernel(space, epsilon)
    if model_tag == "dc":
        return depolarizing_kernel(space, epsilon)
    if model_tag == "ldm":
        return lorentz_kernel(space, epsilon, image_cutoff)
    if model_tag == "mixture":
        return mixture_kernel(gaussian_kernel(space, epsilon),
                              lorentz_kernel(space, epsilon, image_cutoff),
                              mixture_weight)
    if model_tag == "identity":
        return identity_kernel(space)
    raise ValueError(f"unknown decoherence model {model_tag!r}")


def mixture_kernel(k1: DecoherenceKernel, k2: DecoherenceKernel, w: float) -> DecoherenceKernel:
    """Convex combination w*k1 + (1-w)*k2 of two kernels on the same space."""
    if k1.space.N != k2.space.N:
        raise ValueError(f"space mismatch: N={k1.space.N} vs N={k2.space.N}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixture weight must be in [0, 1], got {w}")
    if w == 1.0:
        return k1
    if w == 0.0:
        return k2
    weights = w * k1.weights + (1.0 - w) * k2.weights
    weights.setflags(write=False)
    return DecoherenceKernel(space=k1.space, weights=weights,
                             epsilon=k1.epsilon, model_tag="mixture")


def chord_multiplier(kernel: DecoherenceKernel) -> ChordMultiplier:
    """chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N) via 2D DFT."""
    c = kernel.weights
    N = c.shape[0]
    inner = N * sfft.ifft(c, axis=1)          # sum_p c[q,p] e^{+2 pi i p Q / N}
    full = sfft.fft(inner, axis=0)            # sum_q ...  e^{-2 pi i q P / N}
    values = full.T                            # index as [Q, P]
    resid = np.max(np.abs(values.imag))
    if resid > _SYMMETRY_TOL:
        raise ValueError(
            f"kernel is not symmetric under (q,p) -> (-q,-p): imaginary "
            f"residue {resid:.3e} in the chord multiplier"
        )
    out = np.ascontiguousarray(values.real)
    out.setflags(write=False)
    return ChordMultiplier(space=kernel.space, values=out)


def apply_decoherence(rho: np.ndarray, mult: ChordMultiplier) -> np.ndarray:
    """Channel application as a diagonal multiply in chord space."""
    N = mult.space.N
    if rho.shape != (N, N):
        raise ValueError(f"density shape {rho.shape} != ({N}, {N})")
    chi = rho_to_chord(rho)
    chi *= mult.values
    return chord_to_rho(chi)


def apply_decoherence_direct(rho: np.ndarray, kernel: DecoherenceKernel) -> np.ndarray:
    """O(N^4) Kraus sum, sum c(q,p) T rho T^dag; test oracle for N <= 16."""
    N = kernel.space.N
    if N > 16:
        raise ValueError(f"direct Kraus sum limited to N <= 16, got {N}")
    out = np.zeros_like(rho, dtype=np.complex128)
    for q in range(N):
        for p in range(N):
            w = kernel.weights[q, p]
            if w == 0.0:
                continue
            T = translation_matrix(kernel.space, q, p)
            out += w * (T @ rho @ T.conj().T)
    return out


def purity_curve(psi0: np.ndarray, prop: Propagator, kernel: DecoherenceKernel,
                 t_max: int) -> PurityCurve:
    """Purity of rho_t under rho' = D(U rho U^dag) from a pure initial state."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    N = prop.space.N
    if psi0.shape[0] != N:
        raise ValueError(f"state dimension {psi0.shape[0]} != space dimension {N}")
    if kernel.space.N != N:
        raise ValueError(f"kernel dimension {kernel.space.N} != space dimension {N}")
    mult = chord_multiplier(kernel)
    rho = np.outer(psi0, psi0.conj())
    values = np.empty(t_max + 1)
    values[0] = purity(rho)
    for t in range(1, t_max + 1):
        rho = apply_to_density(rho, prop)
        rho = apply_decoherence(rho, mult)
        values[t] = purity(rho)
    meta = {"N": N, "a": prop.params.a, "b": prop.params.b, "k": prop.params.k,
            "epsilon": kernel.epsilon, "model_tag": kernel.model_tag}
    return PurityCurve(times=np.arange(t_max + 1), values=values, meta=meta)

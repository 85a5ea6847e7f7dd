"""Decoherence channels as translation-weighted Kraus superoperators, and
the purity evolution rho' = D(U rho U^dag) under them.

A channel is D(rho) = sum_{q,p} c(q,p) T(q,p) rho T(q,p)^dag with c >= 0 and
unit sum, so D is completely positive, trace preserving and unital.  Because
the translations form a projective Weyl pair, D acts diagonally on the chord
coefficients:

    chi'(Q,P) = chat(Q,P) * chi(Q,P),
    chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N).

A kernel is its read-only, unit-sum (N, N) weight array c[q, p], and the
channel's action its read-only real (N, N) multiplier array chat[Q, P].

The chord coefficients are length-N DFTs along the cyclic diagonals
d[Q, j] = rho[(Q + j) % N, j] of rho (hilbert.rho_to_chord).  The channel
is applied by one fused step, in purity_curve, which keeps rho in that
layout for the whole run.  The kick half of U is an elementwise phase there,
and the kinetic half, a quantized linear shear, permutes the chord
coefficients, (Q, P) -> (Q + b*P, P) up to a phase (Hannay & Berry,
Physica D 1, 267 (1980)).  So one step D(U rho U^dag) is one forward and one
inverse FFT pass over the diagonals, O(N^2 log N), for every kernel family.

The step's oracle is apply_decoherence(apply_to_density(rho)), the same
step one plain operation at a time; the selftest module holds the O(N^4)
Kraus sum that checks apply_decoherence at small N.

Kernel families:
  * gaussian_kernel     - diffusive, weights ~ exp(-r^2 / (2 s^2)), s = N*eps/(2*pi)
  * depolarizing_kernel - uniform over all nonzero translations
  * lorentz_kernel      - heavy-tailed, weights ~ s / (s^2 + r^2), truncated
                          image sum over (2x+1)^2 lattice copies
  * mixture_kernel      - convex combination of two kernels

All kernels are periodized with the minimal-image representative of each
grid point, which keeps c(q,p) = c(-q,-p) exact under truncation.
"""

import numpy as np
import scipy.fft as sfft

from .dynamics import Curve, Propagator
from .hilbert import SpaceDescriptor, _cyclic_diagonals, chord_to_rho, purity, rho_to_chord

LORENTZ_DEFAULT_IMAGE_CUTOFF = 100
_SYMMETRY_TOL = 1e-8


def _centered_offsets(N: int) -> np.ndarray:
    """Minimal-image representative of each grid label: 0..N/2, then negative."""
    q = np.arange(N, dtype=float)
    return np.where(q <= N // 2, q, q - N)


def _finalize(raw: np.ndarray) -> np.ndarray:
    weights = raw / raw.sum()
    weights.setflags(write=False)
    return weights


def identity_kernel(space: SpaceDescriptor) -> np.ndarray:
    """Point mass on the identity translation; D = id."""
    raw = np.zeros((space.N, space.N))
    raw[0, 0] = 1.0
    return _finalize(raw)


def gaussian_kernel(space: SpaceDescriptor, epsilon: float) -> np.ndarray:
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
    return _finalize(np.outer(axis, axis))


def depolarizing_kernel(space: SpaceDescriptor, epsilon: float) -> np.ndarray:
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
    return _finalize(raw)


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
                   image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
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
    return _finalize(theta.T @ (w[:, None] * theta))


def build_kernel(space: SpaceDescriptor, model_tag: str, epsilon: float,
                 mixture_weight: float = 0.5,
                 image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
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
    raise ValueError(f"unknown decoherence model {model_tag!r}")


def mixture_kernel(k1: np.ndarray, k2: np.ndarray, w: float) -> np.ndarray:
    """Convex combination w*k1 + (1-w)*k2 of two kernels on the same space."""
    if k1.shape != k2.shape:
        raise ValueError(f"kernel shape mismatch: {k1.shape} vs {k2.shape}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixture weight must be in [0, 1], got {w}")
    if w == 1.0:
        return k1
    if w == 0.0:
        return k2
    weights = w * k1 + (1.0 - w) * k2
    weights.setflags(write=False)
    return weights


def chord_multiplier(c: np.ndarray) -> np.ndarray:
    """chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N) via 2D DFT, a read-only
    real (N, N) array (real by kernel symmetry; chat(0,0) = 1, |chat| <= 1)."""
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
    return out


def apply_decoherence(rho: np.ndarray, chat: np.ndarray) -> np.ndarray:
    """The channel on one density matrix, as a diagonal multiply by the chord
    multiplier chat; the oracle of purity_curve's fused step."""
    if rho.shape != chat.shape:
        raise ValueError(f"density shape {rho.shape} != multiplier shape {chat.shape}")
    chi = rho_to_chord(rho)
    chi *= chat
    return chord_to_rho(chi)


def _diagonal_step(prop: Propagator, chat: np.ndarray):
    """step(d) -> d' for one rho' = D(U rho U^dag) on the cyclic diagonals
    d[Q, j] = rho[(Q + j) % N, j]; see purity_curve.  step overwrites d."""
    N, b = prop.space.N, prop.params.b
    Q, P = np.ogrid[:N, :N]
    gather = (Q - b * P) % N * N + P   # flat index of c[(Q - b*P) % N, P]
    weights = chat * prop.kinetic_phases.conj()
    kick_rows, kick_cols = _cyclic_diagonals(prop.kick_phases), prop.kick_phases.conj()

    def step(d):
        d *= kick_rows
        d *= kick_cols
        c = sfft.fft(d, axis=1, workers=-1, overwrite_x=True).take(gather)
        c *= weights
        return sfft.ifft(c, axis=1, workers=-1, overwrite_x=True)

    return step


def purity_curve(psi0: np.ndarray, prop: Propagator, kernel: np.ndarray,
                 t_max: int) -> Curve:
    """Purity of rho_t under rho' = D(U rho U^dag) from a pure initial state.

    rho is held as its cyclic diagonals d[Q, j] = rho[(Q + j) % N, j], which
    start as psi0[(Q + j) % N] * conj(psi0[j]).  d permutes the entries of
    rho, so purity(d) = trace(rho^2).  One step, with K the kinetic phases,
    chat the chord multiplier and c[Q, P] = exp(i*pi*Q*P/N) * chi(Q, P):

      1. d[Q, j] *= kick[(Q + j) % N] * conj(kick[j])        (D rho D^dag)
      2. c = fft(d, axis=1)
      3. c'[Q, P] = chat[Q, P] * conj(K[P]) * c[(Q - b*P) % N, P]
      4. d = ifft(c', axis=1)

    Step 3 is the kinetic conjugation followed by the channel.  With F the
    unitary DFT (momentum = F position), rhot = F rho F^dag has entries
    rhot[k, k - P] = (1/N) sum_Q exp(-2*pi*i*k*Q/N) c[Q, P], and the kinetic
    conjugation multiplies them by K[k] conj(K[k - P]), where
    K[k] = exp(-i*pi*b*k^2/N).  That product is
    exp(-2*pi*i*k*(b*P)/N) conj(K[P]): the first factor shifts the sum over
    Q by b*P and the second does not depend on k, so the kinetic step maps c
    to conj(K[P]) c[(Q - b*P) % N, P], and the channel then multiplies by
    chat (the half phase relating c and chi cancels).  Reading k - P mod N
    needs K to be N-periodic, K(k + N) = K(k) exp(-i*pi*b*(2k + N)); that
    holds for even b at every N, odd N included.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    N = prop.space.N
    if psi0.shape[0] != N:
        raise ValueError(f"state dimension {psi0.shape[0]} != space dimension {N}")
    if kernel.shape != (N, N):
        raise ValueError(f"kernel shape {kernel.shape} != ({N}, {N})")
    step = _diagonal_step(prop, chord_multiplier(kernel))
    psi = np.asarray(psi0, dtype=np.complex128)
    d = _cyclic_diagonals(psi) * psi.conj()
    values = np.empty(t_max + 1)
    values[0] = purity(d)
    for t in range(1, t_max + 1):
        d = step(d)
        values[t] = purity(d)
    return Curve(values)

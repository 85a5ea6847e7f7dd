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

rho is Hermitian and the step maps Hermitian matrices to Hermitian matrices;
for the chord function that is chi(-Q, -P) = conj(chi(Q, P)) (the Weyl
symmetry; Ozorio de Almeida, Phys. Rep. 295, 265 (1998)).  So the step
evolves only the rows Q = 0..N//2 of the diagonals.  A source row R > N//2
of the shear is read as the conjugate of row N - R at column -P, times the
phase exp(-2*pi*i*(N - R)*P/N), and the purity weighs each held row by the
number of rows it stands for: 1 for rows 0 and N/2, 2 for the others.

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
_EXP_UNDERFLOW = 746.0  # exp(-746.0) == 0.0 in double precision


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
    w_i = t_weight_i * s * exp(-t_i s^2).

    theta is filled node by node in one reused (2x+1, N) buffer, beside the
    squared image distances dist_sq: all nodes at once would need an
    (n_nodes, 2x+1, N) temporary, 450 MB at N=800, and two fresh temporaries
    per node cost ~210k page faults in a fresh process at N=800.  At node t
    only the band of image rows with t * min(dist_sq[row]) < 746 is
    evaluated.  That band is contiguous, since an image row's nearest grid
    point gets farther on both sides of the m = 0 row.  Every row outside it
    is exp(-746) or less, which is exactly 0.0 in double precision.  The
    axis-0 sum adds rows one after another, and adding 0.0 to a positive sum
    changes no bit.  So the kernel is bitwise the full-band sum
    (selftest.lorentz_kernel_full_band), with a third fewer exp calls at
    N=800 and the default cutoff; those are the underflowing ones, which
    take numpy's slow path.
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
    row_min = dist_sq.min(axis=1)
    lam_max = s * s + 2.0 * dist_sq.max()
    t_nodes, t_weights = _lorentz_quadrature(s, lam_max)
    theta = np.empty((t_nodes.size, N))
    buf = np.empty_like(dist_sq)
    with np.errstate(under="ignore"):
        for i, t in enumerate(t_nodes):
            live = np.flatnonzero(t * row_min < _EXP_UNDERFLOW)
            lo, hi = live[0], live[-1] + 1
            band = buf[:hi - lo]
            np.multiply(dist_sq[lo:hi], -t, out=band)
            np.exp(band, out=band)
            band.sum(axis=0, out=theta[i])                # truncated 1D theta
        w = t_weights * s * np.exp(-t_nodes * s * s)
    del dist_sq, buf, band  # free the (2x+1, N) arrays before the (N, N) GEMM and _finalize
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
    """chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N), a read-only real
    (N, N) array (real by kernel symmetry; chat(0,0) = 1, |chat| <= 1).

    One real 2-D FFT gives it.  F = rfft2(c) holds the columns v = 0..N//2 of
    F[u, v] = sum_{q,p} c(q,p) exp(-2*pi*i*(q*u + p*v)/N), so chat[Q, P] is
    F[-P, -Q] (indices mod N): the real part of F[-P, Q] for Q <= N//2, and of
    F[P, N - Q] above, since F[u, v] = conj(F[-u, -v]) for a real c.  That
    symmetry also makes the imaginary residue of the stored half the residue
    of the whole spectrum.
    """
    N = c.shape[0]
    H = N // 2 + 1
    F = sfft.rfft2(c, workers=-1)             # (N, H)
    resid = np.max(np.abs(F.imag))
    if resid > _SYMMETRY_TOL:
        raise ValueError(
            f"kernel is not symmetric under (q,p) -> (-q,-p): imaginary "
            f"residue {resid:.3e} in the chord multiplier"
        )
    out = np.empty((N, N))
    out[:H] = F.real[-np.arange(N)].T         # Q = 0..N//2: F[-P, Q]
    out[H:] = F.real[:, N - H:0:-1].T         # Q = N//2 + 1..N - 1: F[P, N - Q]
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


def _diagonal_step(prop: Propagator, kernel: np.ndarray):
    """step(d) -> d' for one rho' = D(U rho U^dag), D the channel of kernel, on
    the rows Q = 0..N//2 of the cyclic diagonals d[Q, j] = rho[(Q + j) % N, j]
    of a Hermitian rho; see purity_curve.  d is a C-contiguous complex
    (N//2 + 1, N) array, and step overwrites it."""
    N, b = prop.space.N, prop.params.b
    H = N // 2 + 1
    weights = chord_multiplier(kernel)[:H] * prop.kinetic_phases.conj()
    Q, P = np.ogrid[:H, :N]
    R = (Q - b * P) % N                # the source row of c'[Q, P]
    mq, mp = np.nonzero(R >= H)        # source rows held as their conjugate rows
    mirror = N - R[mq, mp]
    weights[mq, mp] *= np.exp(-2j * np.pi * np.arange(N) / N)[mirror * mp % N]
    gather = R * N + P                 # flat index into stacked = [c; conj(c[1:])]
    gather[mq, mp] = (H - 1 + mirror) * N + (-mp) % N
    del R, mq, mp, mirror              # before the stacked buffer is allocated
    kick_rows, kick_cols = _cyclic_diagonals(prop.kick_phases)[:H], prop.kick_phases.conj()
    stacked = np.empty((2 * H - 1, N), dtype=np.complex128)
    c, c_conj = stacked[:H], stacked[H:]

    def step(d):
        np.multiply(d, kick_rows, out=c)
        np.multiply(c, kick_cols, out=c)
        spectrum = sfft.fft(c, axis=1, workers=-1, overwrite_x=True)
        if not np.may_share_memory(spectrum, c):  # scipy.fft copied, not in place
            c[...] = spectrum
        np.conjugate(c[1:], out=c_conj)
        stacked.take(gather, out=d, mode="wrap")  # every index is in range
        np.multiply(d, weights, out=d)
        return sfft.ifft(d, axis=1, workers=-1, overwrite_x=True)

    return step


def purity_curve(psi0: np.ndarray, prop: Propagator, kernel: np.ndarray,
                 t_max: int) -> Curve:
    """Purity of rho_t under rho' = D(U rho U^dag) from a pure initial state.

    rho is held as the H = N//2 + 1 rows Q = 0..N//2 of its cyclic diagonals
    d[Q, j] = rho[(Q + j) % N, j], which start as psi0[(Q + j) % N] *
    conj(psi0[j]).  rho is Hermitian, and the step keeps it so, which on the
    diagonals reads d[N - Q, j] = conj(d[Q, (j - Q) % N]): row N - Q is row Q
    conjugated and shifted, so the H rows determine rho.  Rows 0 and, at even
    N, N/2 are their own partners; every other row also stands for row N - Q.
    So purity = sum_j |d[Q, j]|^2 with weight 1 on rows 0 and N/2 and weight
    2 on rows 1..ceil(N/2) - 1.  One step, with K the kinetic phases, chat the
    chord multiplier and c[Q, P] = exp(i*pi*Q*P/N) * chi(Q, P):

      1. d[Q, j] *= kick[(Q + j) % N] * conj(kick[j])        (D rho D^dag)
      2. c = fft(d, axis=1)                                   (rows 0..N//2)
      3. c'[Q, P] = chat[Q, P] * conj(K[P]) * c[R, P],  R = (Q - b*P) % N
      4. d = ifft(c', axis=1)

    In step 3 a source row R > N//2 is not held.  The diagonal symmetry gives
    c[R, P] = exp(-2*pi*i*(N - R)*P/N) * conj(c[N - R, -P]), so the gather
    reads it from conj(c[1:]), stacked under c, at column -P, and the phase
    is folded into the step weights chat * conj(K).

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
    step = _diagonal_step(prop, kernel)
    psi = np.asarray(psi0, dtype=np.complex128)
    d = _cyclic_diagonals(psi)[:N // 2 + 1] * psi.conj()
    paired = slice(1, (N + 1) // 2)  # the rows that also stand for row N - Q
    values = np.empty(t_max + 1)
    values[0] = purity(d) + purity(d[paired])
    for t in range(1, t_max + 1):
        d = step(d)
        values[t] = purity(d) + purity(d[paired])
    return Curve(values)

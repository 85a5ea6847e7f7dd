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
d[Q, j] = rho[(Q + j) % N, j] of rho (hilbert.rho_to_chord).  purity_curve
keeps rho in that layout for the whole run, from
d[Q, j] = psi0[(Q + j) % N] * conj(psi0[j]), and applies U and the channel
in one fused step (_diagonal_step).  With K the kinetic phases, chat the
chord multiplier and c[Q, P] = exp(i*pi*Q*P/N) * chi(Q, P), one step
rho' = D(U rho U^dag) is

  1. d[Q, j] *= kick[(Q + j) % N] * conj(kick[j])        (D rho D^dag)
  2. c = fft(d, axis=1)
  3. c'[Q, P] = chat[Q, P] * conj(K[P]) * c[R, P],  R = (Q - b*P) % N
  4. d = ifft(c', axis=1)

one forward and one inverse FFT pass, O(N^2 log N), for every kernel family.
The kick half of U is the elementwise phase of step 1.  The kinetic half, a
quantized linear shear, permutes the chord coefficients, (Q, P) ->
(Q + b*P, P) up to a phase (Hannay & Berry, Physica D 1, 267 (1980)), and
step 3 is that shear followed by the channel.  With F the unitary DFT
(momentum = F position), rhot = F rho F^dag has entries
rhot[k, k - P] = (1/N) sum_Q exp(-2*pi*i*k*Q/N) c[Q, P], and the kinetic
conjugation multiplies them by K[k] conj(K[k - P]), where
K[k] = exp(-i*pi*b*k^2/N).  That product is
exp(-2*pi*i*k*(b*P)/N) conj(K[P]): the first factor shifts the sum over Q by
b*P and the second does not depend on k, so the kinetic step maps c to
conj(K[P]) c[(Q - b*P) % N, P], and the channel then multiplies by chat (the
half phase relating c and chi cancels).  Reading k - P mod N needs K to be
N-periodic, K(k + N) = K(k) exp(-i*pi*b*(2k + N)); that holds for even b at
every N, odd N included.

rho is Hermitian and the step maps Hermitian matrices to Hermitian matrices;
for the chord function that is chi(-Q, -P) = conj(chi(Q, P)) (the Weyl
symmetry; Ozorio de Almeida, Phys. Rep. 295, 265 (1998)), and on the
diagonals d[N - Q, j] = conj(d[Q, (j - Q) % N]): row N - Q is row Q
conjugated and shifted.  So the step evolves only the H = N//2 + 1 rows
Q = 0..N//2.  A source row R > N//2 of step 3 is not held; the symmetry gives
c[R, P] = exp(-2*pi*i*(N - R)*P/N) * conj(c[N - R, -P]), so the gather reads
it from row N - R of c, at column -P, and conjugates what it read: the half
spectrum is held once.  The phase is folded into the step weights
chat * conj(K).  Those weights are read row by row from the kernel's half
spectrum, taken in two FFT passes in the step's own threads, so no (N, N)
multiplier is built; chord_multiplier, one rfft2 call, is their oracle.
Rows 0 and, at even N, N/2 are their own partners; every other held row
also stands for row N - Q.  So the purity is sum_j |d[Q, j]|^2 with weight 1
on rows 0 and N/2 and weight 2 on rows 1..ceil(N/2) - 1.

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
grid point.  Offsets j and N - j sum the same image terms, so the Gaussian
and Lorentz sums run over offsets 0..N//2 and are mirrored, which keeps
c(q,p) = c(-q,-p) exact, bitwise, under truncation.
"""

import math

import numpy as np

from .dynamics import Curve, Propagator, run_parts, thread_count
from .hilbert import (_EXP_UNDERFLOW, SpaceDescriptor, _check_integer, _cyclic_diagonals,
                      chord_to_rho, rho_to_chord, squared_row_norms)

MODELS = ("gdm", "dc", "ldm", "mixture")  # the model tags build_kernel accepts
LORENTZ_DEFAULT_IMAGE_CUTOFF = 100
# lorentz_kernel's small-t tail, t * max(dist_sq) <= _TAIL_BOUND, as _MOMENTS moment rows:
# exp(-t d) is its Taylor sum there to within _TAIL_BOUND^_MOMENTS / _MOMENTS! ~ 7e-18
_TAIL_BOUND = 2.0 ** -10
_MOMENTS = 5
# Rows per block of the Lorentz product and of the step tables: a block's
# temporaries stay in cache.  At N=800, 16 to 64 rows time the same, and the
# step tables over whole ranges take twice as long.
_BLOCK_ROWS = 32
_SYMMETRY_TOL = 1e-8


def _finalize(raw: np.ndarray) -> np.ndarray:
    """raw, a fresh array, divided in place by its sum and made read-only."""
    raw /= raw.sum()
    raw.setflags(write=False)
    return raw


def gaussian_kernel(space: SpaceDescriptor, epsilon: float) -> np.ndarray:
    """Gaussian diffusion kernel with width s = N*eps/(2*pi) grid cells,
    periodized until the image tail is below 1e-14."""
    if not 0 < epsilon < np.inf:  # nan fails both comparisons
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    N = space.N
    s = epsilon * N / (2.0 * np.pi)
    offs = np.arange(N // 2 + 1.0)  # the folded half; offset N - j sums the same terms
    m_max = int(np.ceil(8.5 * s / N)) + 1  # exp(-(8.5)^2/2) ~ 2e-16 tail
    half = np.zeros(offs.size)
    for m in range(-m_max, m_max + 1):
        half += np.exp(-((offs - N * m) ** 2) / (2.0 * s * s))
    axis = np.concatenate((half, half[N - offs.size:0:-1]))
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


def _lorentz_quadrature(s: float, d_max: float):
    """Log-spaced trapezoid nodes t and weights w for s/lam = int_0^inf s exp(-t*lam) dt.

    The integrand in y = ln(t) is a smooth bump per lam value; trapezoid
    error decays like exp(-pi^2/h).  Range covers lam in [s^2, lam_max] with
    relative tails below 1e-15.
    """
    lam_max = s * s + 2.0 * d_max
    y_lo = np.log(1e-16 / lam_max)
    y_hi = np.log(40.0 / (s * s))
    h = 0.2
    n = int(np.ceil((y_hi - y_lo) / h)) + 1
    t = np.exp(y_lo + h * np.arange(n))
    return t, h * t * s * np.exp(-t * s * s)  # dt = t dy


def _small_t_tail(t: np.ndarray, w: np.ndarray, d_max: float):
    """The nodes and weights past the small-t tail, and A[p, q] = sum_tail w_i t_i^(p + q)."""
    tail = np.count_nonzero(t * d_max <= _TAIL_BOUND)  # a prefix: t ascends
    powers = t[:tail] ** np.arange(_MOMENTS)[:, None]
    return t[tail:], w[tail:], np.einsum("pi,qi,i->pq", powers, powers, w[:tail])


def _theta_rows(dist_sq: np.ndarray, t_nodes: np.ndarray, bands: np.ndarray,
                theta: np.ndarray, items: range, sync) -> None:
    """theta[i] = sum over the image rows bands[i] = (lo, hi) of
    exp(-t_nodes[i] * dist_sq[row]) for the nodes i in items, and of
    ((-1)^p / p!) dist_sq[row]^p for the moment rows i = t_nodes.size + p,
    through one reused band buffer; returns early once the barrier sync of
    dynamics.run_parts is broken, which is checked before each item."""
    buf = np.empty_like(dist_sq)
    with np.errstate(under="ignore"):
        for i in items:
            if sync.broken:
                return
            lo, hi = bands[i]
            band = buf[:hi - lo]
            if (p := i - t_nodes.size) < 0:
                np.multiply(dist_sq[lo:hi], -t_nodes[i], out=band)
                np.exp(band, out=band)
            else:  # the moment row p
                np.multiply(np.power(dist_sq, p, out=band), (-1) ** p / math.factorial(p), out=band)
            band.sum(axis=0, out=theta[i])                # truncated 1D theta


def _lorentz_product(theta: np.ndarray, weighted: np.ndarray, N: int, workers: int) -> np.ndarray:
    """raw[j, k] = sum_i theta[i, f(j)] weighted[i, f(k)], f(j) = min(j, N - j),
    from the (rows, N//2 + 1) folded theta sums and their weighted rows.

    Only the upper triangle b >= a of the (H, H) quadrant q[a, b] is
    computed, in blocks of _BLOCK_ROWS rows, each one einsum over the
    columns from the block's first row on.  The rows split into workers
    ranges of about equal triangle area, run in parallel
    (dynamics.run_parts).  einsum runs its own loop, not BLAS, and adds an
    entry's terms in row order whatever its block, so an entry is the same
    bits whatever its range, the thread count or BLAS's.  The lower triangle
    is the upper one mirrored, and slicing unfolds the quadrant to (N, N),
    which makes raw[k, j] = raw[j, k] = raw[-j, -k] exact."""
    H = theta.shape[1]
    raw = np.empty((N, N))
    q = raw[:H, :H]

    def product(part, lo, hi, sync):
        for a in range(lo, hi, _BLOCK_ROWS):
            end = min(a + _BLOCK_ROWS, hi)
            np.einsum("ia,ib->ab", theta[:, a:end], weighted[:, a:], out=q[a:end, a:])

    run_parts(product, np.arange(H, 0, -1), workers)  # the entries b >= a of row a
    np.copyto(q, q.T.copy(), where=np.tri(H, k=-1, dtype=bool))
    raw[:H, H:] = raw[:H, N - H:0:-1]
    raw[H:] = raw[N - H:0:-1]
    return raw


def lorentz_kernel(space: SpaceDescriptor, epsilon: float,
                   image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF) -> np.ndarray:
    """Lorentz (heavy-tailed) kernel, c ~ sum_images s/(s^2 + r^2).

    The image sum truncated to (2x+1)^2 lattice copies, x = image_cutoff, is
    evaluated through the exponential integral 1/lam = int exp(-t*lam) dt,
    which factorizes the (j,k) double sum into products of one-dimensional
    truncated theta sums per quadrature node t_i: raw = theta^T diag(w) theta,
    w_i = h t_i s exp(-t_i s^2), about 1e-14 relative from the literal sum
    (selftest.lorentz_kernel_direct).  On the small-t tail,
    t_i * max(dist_sq) <= _TAIL_BOUND, exp(-t d) is its Taylor sum to
    P = _MOMENTS terms, so the tail adds sum_{p,q<P} S_p(j) A[p,q] S_q(k):
    P moment rows S_p = ((-1)^p / p!) sum_m dist_sq[m]^p follow the other
    nodes' rows in theta, weighted by A[p,q] = sum_tail w_i t_i^(p+q).  That
    moved the kernel by 8.9e-16 relative at most (selftest.lorentz_kernel_all_nodes).

    Columns j and N - j of theta sum the same image terms, so theta is
    computed on the folded half j = 0..N//2 only, from the squared image
    distances dist_sq, a (2x+1, N//2 + 1) array, and _lorentz_product
    unfolds raw from it.  theta is filled row by row in one reused band
    buffer per thread (_theta_rows).  At node t only the band of image
    rows with t * min(dist_sq[row]) < 746 is evaluated.  That band is
    contiguous, since an image row's nearest grid point gets farther on
    both sides of the m = 0 row.  Every row outside it is exp(-746) or less,
    which is exactly 0.0 in double precision, and adding 0.0 to a positive
    sum changes no bit: the kernel is bitwise the full-band sum
    (selftest.lorentz_kernel_full_band).

    The rows split into w = dynamics.thread_count(rows) contiguous ranges of
    about equal band rows (a moment row has 2x + 1), filled in parallel
    threads (dynamics.run_parts); each row's sum is the same whatever its
    range, so the kernel is the same bits on any number of threads.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    _check_integer("image_cutoff", image_cutoff, 10)
    N = space.N
    s = epsilon * N / (2.0 * np.pi)
    images = N * np.arange(-image_cutoff, image_cutoff + 1, dtype=float)
    dist_sq = (np.arange(N // 2 + 1.0)[None, :] - images[:, None]) ** 2  # (2x+1, H)
    row_min, d_max = dist_sq.min(axis=1), dist_sq.max()
    t_nodes, w, moments = _small_t_tail(*_lorentz_quadrature(s, d_max), d_max)
    bands = np.array([(live[0], live[-1] + 1) for live in
                      (np.flatnonzero(t * row_min < _EXP_UNDERFLOW) for t in t_nodes)]
                     + [(0, images.size)] * _MOMENTS)  # a moment row reads every image row
    theta = np.empty((len(bands), dist_sq.shape[1]))
    workers = thread_count(len(bands))

    def fill(part, lo, hi, sync):
        _theta_rows(dist_sq, t_nodes, bands, theta, range(lo, hi), sync)

    run_parts(fill, bands[:, 1] - bands[:, 0], workers)
    del dist_sq  # free the (2x+1, H) array before the (N, N) product and _finalize
    weighted = np.concatenate((theta[:-_MOMENTS] * w[:, None],
                               np.einsum("pq,qa->pa", moments, theta[-_MOMENTS:])))
    return _finalize(_lorentz_product(theta, weighted, N, workers))


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
    weights = w * k1 + (1.0 - w) * k2
    weights.setflags(write=False)
    return weights


def _check_symmetric(residue: float) -> None:
    """Rejects a kernel whose half spectrum has an imaginary residue above
    _SYMMETRY_TOL: the multiplier of a kernel with c(q,p) = c(-q,-p) is real."""
    if residue > _SYMMETRY_TOL:
        raise ValueError(
            f"kernel is not symmetric under (q,p) -> (-q,-p): imaginary "
            f"residue {residue:.3e} in the chord multiplier"
        )


def chord_multiplier(c: np.ndarray) -> np.ndarray:
    """chat(Q,P) = sum_{q,p} c(q,p) exp(2*pi*i*(p*Q - q*P)/N), a read-only real
    (N, N) array (real by kernel symmetry; chat(0,0) = 1, |chat| <= 1); the
    oracle of the step weights that purity_curve builds in its own threads.

    One real 2-D FFT gives it: F = rfft2(c), the half spectrum F[u, v] =
    sum_{q,p} c(q,p) exp(-2*pi*i*(q*u + p*v)/N), v = 0..N//2.  chat[Q, P] is
    F[-P, -Q] (indices mod N): the real part of F[-P, Q] for Q <= N//2, and
    of F[P, N - Q] above, since F[u, v] = conj(F[-u, -v]) for a real c.
    That symmetry also makes the imaginary residue of the stored half the
    residue of the whole spectrum.
    """
    N = c.shape[0]
    if c.shape != (N, N):
        raise ValueError(f"kernel shape {c.shape} is not square")
    H = N // 2 + 1
    F = np.fft.rfft2(c)                       # (N, H)
    _check_symmetric(float(np.max(np.abs(F.imag))))
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
    """The phases of purity_curve's run of rho' = D(U rho U^dag), D the
    channel of kernel, on the rows Q = 0..N//2 of the cyclic diagonals
    d[Q, j] = rho[(Q + j) % N, j] of a Hermitian rho, as the module docstring
    derives it.  d is a C-contiguous complex (N//2 + 1, N) array, and the
    steps overwrite it.  Every phase takes a range lo..hi - 1 of those rows.

    Two phases build the step, once per run:
      spectrum(lo, hi) takes the first pass of the kernel's real 2-D FFT,
        the row rfft of the kernel rows lo*N//H..hi*N//H - 1, into the
        half spectrum's buffer, which the first forward overwrites;
      tables(lo, hi) takes the second pass, the fft of the columns lo..hi - 1
        of the first, as the rows lo..hi - 1 of the half spectrum
        G = rfft2(kernel).T, into the step weights, then builds those rows
        of the weights, the gather index and its conjugation mask in place,
        and returns their imaginary residue.
    Two phases make one step:
      forward(d, lo, hi) kicks and transforms the rows into the half spectrum;
      backward(d, lo, hi, norms) gathers the rows of the next step from the
        whole half spectrum, conjugates the entries read from mirrored rows,
        weights and inverts them, and leaves sum_j |d[Q, j]|^2 in norms[Q].
    So every range's spectrum ends before any tables start, its tables
    before any forward starts, every forward before any backward, and every
    backward before the next forward.  Each row's values are the same
    whatever its range."""
    N, b = prop.space.N, prop.params.b
    H = N // 2 + 1
    c = np.empty((H, N), dtype=np.complex128)
    spectrum_rows = c.reshape(N, H)
    weights = np.empty((H, N), dtype=np.complex128)
    gather = np.empty((H, N), dtype=np.int64)  # flat index into c
    conjugated = np.empty((H, N), dtype=bool)  # the gathered entries read conjugated
    P = np.arange(N)
    shear = (-b * P) % N                       # R = (Q + shear) % N, the source row of c'[Q, P]
    phase = np.exp(-2j * np.pi * P / N)
    kinetic = prop.kinetic_phases.conj()
    kick_rows, kick_cols = _cyclic_diagonals(prop.kick_phases)[:H], prop.kick_phases.conj()

    def spectrum(lo, hi):
        first, last = lo * N // H, hi * N // H
        np.fft.rfft(kernel[first:last], axis=1, out=spectrum_rows[first:last])

    def tables(lo, hi):
        residue = 0.0
        for start in range(lo, hi, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, hi)
            rows = weights[start:stop]
            rows[...] = spectrum_rows[:, start:stop].T
            np.fft.fft(rows, axis=1, out=rows)            # rows start..stop - 1 of G
            residue = max(residue, float(np.max(np.abs(rows.imag))))
            chat = np.roll(rows.real[:, ::-1], 1, axis=1)  # chat[Q, P] = Re G[Q, -P]
            np.multiply(chat, kinetic, out=rows)
            R = np.arange(start, stop)[:, None] + shear
            np.subtract(R, N, out=R, where=R >= N)
            mirrored = np.greater_equal(R, H, out=conjugated[start:stop])  # source rows above N//2
            np.multiply(rows, phase.take((N - R) * P % N), out=rows, where=mirrored)
            np.add(R * N, P, out=gather[start:stop])
            np.copyto(gather[start:stop], (N - R) * N + (-P) % N, where=mirrored)
        return residue

    def forward(d, lo, hi):
        rows = c[lo:hi]
        np.multiply(d[lo:hi], kick_rows[lo:hi], out=rows)
        np.multiply(rows, kick_cols, out=rows)
        np.fft.fft(rows, axis=1, out=rows)

    def backward(d, lo, hi, norms):
        rows = d[lo:hi]
        c.take(gather[lo:hi], out=rows, mode="wrap")  # every index is in range
        np.conjugate(rows, out=rows, where=conjugated[lo:hi])
        np.multiply(rows, weights[lo:hi], out=rows)
        np.fft.ifft(rows, axis=1, out=rows)
        squared_row_norms(rows, out=norms[lo:hi])

    return spectrum, tables, forward, backward


def _advance_diagonals(phases, d: np.ndarray, t_max: int, workers: int) -> np.ndarray:
    """Purity P(0..t_max) of the held diagonals d, which advance in place
    through t_max steps of phases = _diagonal_step(...), over workers
    contiguous ranges of rows.

    The ranges run in parallel (dynamics.run_parts): each builds its share
    of the step, then advances its rows, with sync.wait() after each phase.
    A kernel whose half spectrum has an imaginary residue above
    _SYMMETRY_TOL, the largest over all ranges, is rejected before the first
    step.  The purity is summed from the rows' squared norms by the calling
    thread, so it is the same bits on any number of threads.
    """
    spectrum, tables, forward, backward = phases
    H, N = d.shape
    paired = slice(1, (N + 1) // 2)  # the rows that also stand for row N - Q
    norms = np.empty(H)
    values = np.empty(t_max + 1)
    squared_row_norms(d, out=norms)
    values[0] = norms.sum() + norms[paired].sum()
    residues = np.zeros(workers)

    def steps(part, lo, hi, sync):
        spectrum(lo, hi)
        sync.wait()  # a row of the half spectrum reads every kernel row
        residues[part] = tables(lo, hi)
        sync.wait()  # the first forward overwrites the kernel's spectrum
        _check_symmetric(residues.max())
        for t in range(1, t_max + 1):
            forward(d, lo, hi)
            sync.wait()  # the gather reads every row of the half spectrum
            backward(d, lo, hi, norms)
            sync.wait()  # the next forward overwrites the half spectrum
            if part == 0:
                values[t] = norms.sum() + norms[paired].sum()

    run_parts(steps, H, workers)
    return values


def purity_curve(psi0: np.ndarray, prop: Propagator, kernel: np.ndarray, t_max: int) -> Curve:
    """Purity P(t), t = 0..t_max, of rho_t under rho' = D(U rho U^dag) from a
    pure initial state, by the fused step on the held rows of the cyclic
    diagonals that the module docstring derives.

    The H = N//2 + 1 rows split into w = dynamics.thread_count(H) contiguous
    ranges (the manifest's threads) that build the step from the kernel (its
    FFT, weights and gather index) and then advance, in parallel threads
    (_advance_diagonals); w = 1 starts no thread.  numpy's FFTs, ufuncs,
    take and einsum release the GIL.  Each row's values, and so the curve,
    are the same bits whatever w.  A kernel not symmetric under
    (q,p) -> (-q,-p) raises ValueError before the first step.
    """
    _check_integer("t_max", t_max, 1)
    N = prop.space.N
    if psi0.shape != (N,):
        raise ValueError(f"state shape {psi0.shape} != ({N},), the space dimension")
    if kernel.shape != (N, N):
        raise ValueError(f"kernel shape {kernel.shape} != ({N}, {N})")
    H = N // 2 + 1
    phases = _diagonal_step(prop, kernel)
    psi = np.asarray(psi0, dtype=np.complex128)
    d = _cyclic_diagonals(psi)[:H] * psi.conj()
    return Curve(_advance_diagonals(phases, d, t_max, thread_count(H)))

"""Perturbed cat map: classical dynamics, Lyapunov exponents, and the
quantized split-operator propagator.

The classical map on the unit torus is

    p' = p + a*q + 2*pi*k*(cos(2*pi*q) - cos(4*pi*q))   (mod 1)
    q' = q + b*p'                                       (mod 1)

with a, b even positive integers and shear amplitude k >= 0.  One quantum
iteration is U = exp(i*2*pi*N*T(p)) * exp(-i*2*pi*N*V(q)), diagonal in the
momentum and position bases respectively, with generating functions

    V(q) = -a*q^2/2 - k*sin(2*pi*q) + (k/2)*sin(4*pi*q)
    T(p) = -b*p^2/2

so that p' = p - dV/dq, q' = q - dT/dp' reproduces the classical map.
Applying U costs two FFTs per step.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .hilbert import SpaceDescriptor
from .rng import substream


@dataclass(frozen=True)
class MapParams:
    """Cat-map integers a, b (even, positive) and shear amplitude k.

    The closed-form Lyapunov exponent is trusted only for k << 1
    (k <= 0.05 in practice); larger k is accepted but unvalidated.
    """

    a: int
    b: int
    k: float = 0.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"map integers must be positive, got a={self.a}, b={self.b}")
        if self.a % 2 or self.b % 2:
            raise ValueError(
                f"unsupported parameters: a={self.a}, b={self.b} must be even "
                "(odd values break periodicity of the quadratic phases)"
            )
        if self.k < 0:
            raise ValueError(f"shear amplitude k must be >= 0, got {self.k}")


@dataclass(frozen=True)
class Propagator:
    """One-iteration evolution operator as two diagonal phase vectors."""

    space: SpaceDescriptor
    params: MapParams
    kick_phases: np.ndarray     # exp(-2*pi*i*N*V(q_j)), position basis
    kinetic_phases: np.ndarray  # exp(+2*pi*i*N*T(p_j)), momentum basis


@dataclass(frozen=True)
class Curve:
    """An observable along the map's iterates, values[t] for t = 0..t_max:
    the echo M(t) or the purity P(t)."""

    values: np.ndarray


def classical_step(point, params: MapParams):
    """One iteration of the classical map; point is (q, p) in [0,1)^2."""
    q, p = point
    a, b, k = params.a, params.b, params.k
    p1 = (p + a * q + 2.0 * np.pi * k * (np.cos(2 * np.pi * q) - np.cos(4 * np.pi * q))) % 1.0
    q1 = (q + b * p1) % 1.0
    return (q1, p1)


def lyapunov_closed_form(a: int, b: int) -> float:
    """Largest Lyapunov exponent of the unperturbed map: the log of the
    leading eigenvalue of [[1, a], [b, 1 + a*b]]."""
    ab = a * b
    if ab <= 0:
        raise ValueError(f"a*b must be positive, got a={a}, b={b}")
    return float(np.log((2.0 + ab + np.sqrt(ab * (4.0 + ab))) / 2.0))


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


def _reduced_quadratic_angle(N: int, c: int) -> np.ndarray:
    """pi*c*j^2/N mod 2*pi for integer c, as pi*((c*j^2) mod 2N)/N with the
    reduction done in integers: exact to rounding at every N, where the
    unreduced float argument (~pi*c*N rad) would carry ~N*1e-16 of error.
    (c mod 2N) * (j^2 mod 2N) < 2^54 for N <= 2^26, so int64 cannot wrap."""
    j = np.arange(N, dtype=np.int64)
    return np.pi * ((c % (2 * N)) * (j * j % (2 * N)) % (2 * N)) / N


def build_propagator(space: SpaceDescriptor, params: MapParams) -> Propagator:
    """Diagonal phases of one quantum iteration on the N-point grid.  The
    quadratic parts of 2*pi*N*V and 2*pi*N*T are reduced mod 2*pi exactly,
    so K(j) = K(N - j) holds bitwise."""
    N = space.N
    grid = np.arange(N, dtype=float) / N
    shear = 2.0 * np.pi * N * params.k * (np.sin(2 * np.pi * grid)
                                          - 0.5 * np.sin(4 * np.pi * grid))
    kick = np.exp(1j * (_reduced_quadratic_angle(N, params.a) + shear))
    kinetic = np.exp(-1j * _reduced_quadratic_angle(N, params.b))
    kick.setflags(write=False)
    kinetic.setflags(write=False)
    return Propagator(space=space, params=params, kick_phases=kick, kinetic_phases=kinetic)


def apply_propagator(state: np.ndarray, prop: Propagator) -> np.ndarray:
    """One map iteration on a state vector, or on each row of a 2-D array of
    states, O(N log N) per state."""
    if state.shape[-1] != prop.space.N:
        raise ValueError(f"state dimension {state.shape[-1]} != space dimension {prop.space.N}")
    out = sfft.fft(prop.kick_phases * state, norm="ortho")
    return sfft.ifft(prop.kinetic_phases * out, norm="ortho")


def apply_to_density(rho: np.ndarray, prop: Propagator) -> np.ndarray:
    """U rho U^dag, one apply_propagator per side: U acts on the columns of
    rho (the rows of rho^T), then on the rows of conj(U rho), which gives
    conj(U rho) U^T = conj(U rho U^dag)."""
    if rho.shape != (prop.space.N, prop.space.N):
        raise ValueError(f"density shape {rho.shape} != ({prop.space.N}, {prop.space.N})")
    return apply_propagator(apply_propagator(rho.T, prop).T.conj(), prop).conj()

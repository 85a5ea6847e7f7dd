"""Perturbed cat map: the closed-form Lyapunov exponent and the quantized
split-operator propagator.

The classical map on the unit torus is

    p' = p + a*q + 2*pi*k*(cos(2*pi*q) - cos(4*pi*q))   (mod 1)
    q' = q + b*p'                                       (mod 1)

with a, b even positive integers and shear amplitude k >= 0.  One quantum
iteration is U = exp(i*2*pi*N*T(p)) * exp(-i*2*pi*N*V(q)), diagonal in the
momentum and position bases respectively, with generating functions

    V(q) = -a*q^2/2 - k*sin(2*pi*q) + (k/2)*sin(4*pi*q)
    T(p) = -b*p^2/2

so that p' = p - dV/dq, q' = q - dT/dp' reproduces the classical map.
Applying U costs two FFTs per step.  The classical map is a selftest oracle.

thread_count and run_parts are the one thread rule of averaged_le's chunks
of states and purity_curve's ranges of rows.
"""

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import SpaceDescriptor

# Threads of echo.averaged_le and of decoherence.purity_curve at most: their
# speed and peak RSS were measured on two CPUs (BENCH_echo-threads.json,
# BENCH_purity-threads.json); more threads are unmeasured.
MAX_WORKERS = 2


@dataclass(frozen=True)
class MapParams:
    """Cat-map integers a, b (even, positive) and shear amplitude k.

    The closed-form Lyapunov exponent is trusted only for k << 1 (k <= 0.05
    in practice); a larger k is checked with selftest.lyapunov_numeric.
    """

    a: int
    b: int
    k: float = 0.0

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):  # hilbert.make_space's integer test
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"map integer {name} must be a positive integer, got {value!r}")
        if self.a % 2 or self.b % 2:
            raise ValueError(
                f"unsupported parameters: a={self.a}, b={self.b} must be even "
                "(odd values break periodicity of the quadratic phases)"
            )
        if not 0 <= self.k < np.inf:  # nan fails both comparisons
            raise ValueError(f"shear amplitude k must be finite and >= 0, got {self.k}")


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


def usable_cpus() -> int:
    """The CPUs this process may run on: the manifest's nproc."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count(parts: int, workers: Optional[int] = None) -> int:
    """Threads for work that splits into parts independent pieces: workers,
    by default one per usable CPU up to MAX_WORKERS, and at most parts."""
    if workers is None:
        workers = min(usable_cpus(), MAX_WORKERS)
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, parts)


def run_parts(body, n: int, workers: int, on_fault) -> None:
    """Splits range(n) into workers contiguous ranges, part i the range
    [n*i//workers, n*(i+1)//workers), and runs body(i, lo, hi) for every
    part at once: part 0 on the calling thread, each other one on a plain
    thread of its own.  A fault or interrupt in any part, or a thread that
    cannot start, calls on_fault() so that the other parts can stop early,
    and is re-raised here once every thread has ended: the calling thread's
    own, else the first one of another part."""
    bounds = [n * i // workers for i in range(workers + 1)]
    faults = []

    def part(i):
        try:
            body(i, bounds[i], bounds[i + 1])
        except BaseException as err:  # handed to the calling thread
            faults.append(err)
            on_fault()

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=part, args=(i,))
            thread.start()
            threads.append(thread)
        body(0, bounds[0], bounds[1])
    except BaseException:
        on_fault()
        raise
    finally:
        for thread in threads:
            thread.join()
    if faults:
        raise faults[0]


def lyapunov_closed_form(a: int, b: int) -> float:
    """Largest Lyapunov exponent of the unperturbed map: the log of the
    leading eigenvalue of [[1, a], [b, 1 + a*b]]."""
    ab = a * b
    if ab <= 0:
        raise ValueError(f"a*b must be positive, got a={a}, b={b}")
    return float(np.log((2.0 + ab + np.sqrt(ab * (4.0 + ab))) / 2.0))


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
    out = np.fft.fft(prop.kick_phases * state, norm="ortho")
    return np.fft.ifft(prop.kinetic_phases * out, norm="ortho")


def apply_to_density(rho: np.ndarray, prop: Propagator) -> np.ndarray:
    """U rho U^dag, one apply_propagator per side: U acts on the columns of
    rho (the rows of rho^T), then on the rows of conj(U rho), which gives
    conj(U rho) U^T = conj(U rho U^dag)."""
    if rho.shape != (prop.space.N, prop.space.N):
        raise ValueError(f"density shape {rho.shape} != ({prop.space.N}, {prop.space.N})")
    return apply_propagator(apply_propagator(rho.T, prop).T.conj(), prop).conj()

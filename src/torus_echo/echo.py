"""Loschmidt echo M(t) = |<psi| U_{k'}^{-t} U_k^t |psi>|^2 and ensemble
averages over uniformly drawn coherent states.  The perturbation is its
rescaled strength sigma_over_hbar = (k' - k) / hbar, hbar = 1/(2*pi*N)."""

import numpy as np

from .dynamics import (Curve, MapParams, Propagator, apply_propagator, build_propagator,
                       lyapunov_closed_form)
from .hilbert import SpaceDescriptor, coherent_state
from .rng import substream


def default_echo_t_max(space: SpaceDescriptor, params: MapParams) -> int:
    """Steps for a Lyapunov-rate curve to reach saturation: ceil((ln N + 2)/lambda)."""
    lam = lyapunov_closed_form(params.a, params.b)
    return int(np.ceil((np.log(space.N) + 2.0) / lam))


def _propagator_pair(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                     t_max: int):
    """Validated (k, k') propagators of one echo run, k' = k + sigma_over_hbar * hbar."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    k_prime = params.k + sigma_over_hbar * space.hbar
    return (build_propagator(space, params),
            build_propagator(space, MapParams(params.a, params.b, k_prime)))


def _echo_values(psi0: np.ndarray, prop: Propagator, prop_pert: Propagator,
                 t_max: int) -> np.ndarray:
    """M(t) for t = 0..t_max; both branches advance one application per step."""
    if psi0.shape[0] != prop.space.N:
        raise ValueError(f"state dimension {psi0.shape[0]} != space dimension {prop.space.N}")
    values = np.empty(t_max + 1)
    values[0] = abs(np.vdot(psi0, psi0)) ** 2
    phi = psi0
    phi_pert = psi0
    for t in range(1, t_max + 1):
        phi = apply_propagator(phi, prop)
        phi_pert = apply_propagator(phi_pert, prop_pert)
        values[t] = abs(np.vdot(phi_pert, phi)) ** 2
    return values


def le_curve(psi0: np.ndarray, space: SpaceDescriptor, params: MapParams,
             sigma_over_hbar: float, t_max: int) -> Curve:
    """Echo of a single initial state under the (k, k') propagator pair.

    Both branches advance one application per step; cost O(t_max * N log N).
    """
    prop, prop_pert = _propagator_pair(space, params, sigma_over_hbar, t_max)
    return Curve(_echo_values(psi0, prop, prop_pert, t_max))


def ensemble_centers(seed: int, n_states: int) -> np.ndarray:
    """Coherent-state centers drawn uniformly on [0,1)^2, one substream per
    state index so the draw is independent of evaluation order."""
    return np.array([substream(seed, i).random(2) for i in range(n_states)])


def averaged_le(space: SpaceDescriptor, params: MapParams, sigma_over_hbar: float,
                t_max: int, n_states: int, seed: int) -> Curve:
    """Mean echo over n_states coherent states; summation in state-index
    order, so results are bitwise reproducible for fixed (seed, n_states).
    The propagator pair is built once for all states."""
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    prop, prop_pert = _propagator_pair(space, params, sigma_over_hbar, t_max)
    acc = np.zeros(t_max + 1)
    for q0, p0 in ensemble_centers(seed, n_states):
        acc += _echo_values(coherent_state(space, q0, p0), prop, prop_pert, t_max)
    return Curve(acc / n_states)

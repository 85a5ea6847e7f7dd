"""The per-step oracle of purity_curve's fused step: the composition of the
public single-step operations, shared by the decoherence tests."""

import numpy as np

from torus_echo.decoherence import (
    _diagonal_step,
    apply_decoherence,
    chord_multiplier,
    purity_curve,
)
from torus_echo.dynamics import apply_to_density
from torus_echo.hilbert import purity
from torus_echo.selftest import cyclic_diagonals


def composed_steps(psi, prop, kernel, t_max):
    """Densities rho_1..rho_t_max of rho' = D(U rho U^dag), one public
    operation at a time: the loop purity_curve replaced, kept as its oracle."""
    mult = chord_multiplier(kernel)
    rho = np.outer(psi, psi.conj())
    out = []
    for _ in range(t_max):
        rho = apply_decoherence(apply_to_density(rho, prop), mult)
        out.append(rho)
    return out


def assert_matches_composition(psi, prop, kernel, t_max, rtol=1e-12):
    """Fused densities and purity_curve against composed_steps, step by step."""
    rhos = composed_steps(psi, prop, kernel, t_max)
    step = _diagonal_step(prop, chord_multiplier(kernel))
    d = cyclic_diagonals(np.outer(psi, psi.conj()))
    for rho in rhos:
        d = step(d)
        expected = cyclic_diagonals(rho)
        assert np.linalg.norm(d - expected) <= rtol * np.linalg.norm(expected)
    old = np.array([purity(np.outer(psi, psi.conj()))] + [purity(rho) for rho in rhos])
    values = purity_curve(psi, prop, kernel, t_max).values
    assert np.max(np.abs(values - old) / old) <= rtol

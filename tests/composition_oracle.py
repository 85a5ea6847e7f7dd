"""The per-step oracle of purity_curve's fused step: the composition of the
public single-step operations, shared by the decoherence tests."""

import numpy as np

from torus_echo.decoherence import (
    _advance_diagonals,
    _diagonal_step,
    apply_decoherence,
    chord_multiplier,
    purity_curve,
)
from torus_echo.dynamics import apply_to_density
from torus_echo.hilbert import cyclic_diagonals, purity
from torus_echo.selftest import random_hermitian


def composed_steps(rho, prop, kernel, t_max):
    """Densities rho_1..rho_t_max of rho' = D(U rho U^dag) from rho, one public
    operation at a time: the loop purity_curve replaced, kept as its oracle."""
    mult = chord_multiplier(kernel)
    out = []
    for _ in range(t_max):
        rho = apply_decoherence(apply_to_density(rho, prop), mult)
        out.append(rho)
    return out


def assert_matches_composition(psi, prop, kernel, t_max, rtol=1e-12):
    """The step's rows Q = 0..N//2 of the diagonals, from a random Hermitian
    matrix, and purity_curve from psi, against composed_steps, step by step."""
    N = psi.shape[0]
    H = N // 2 + 1
    rho = random_hermitian(N, np.random.default_rng(N))
    phases = _diagonal_step(prop, kernel)
    d = cyclic_diagonals(rho)[:H]
    for expected in composed_steps(rho, prop, kernel, t_max):
        _advance_diagonals(phases, d, 1, workers=1)
        expected = cyclic_diagonals(expected)[:H]
        assert np.linalg.norm(d - expected) <= rtol * np.linalg.norm(expected)
    rho = np.outer(psi, psi.conj())
    old = np.array([purity(rho)] + [purity(r) for r in composed_steps(rho, prop, kernel, t_max)])
    values = purity_curve(psi, prop, kernel, t_max).values
    assert np.max(np.abs(values - old) / old) <= rtol

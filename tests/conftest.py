from typing import Sequence

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def loglog_slope(controls: Sequence[float], gammas: Sequence[float]) -> float:
    """Least-squares slope of log(gamma) against log(control)."""
    x = np.log(np.asarray(controls, dtype=float))
    y = np.log(np.asarray(gammas, dtype=float))
    x_c = x - x.mean()
    return float(np.dot(x_c, y - y.mean()) / np.dot(x_c, x_c))


def random_state(N, rng):
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    return psi / np.linalg.norm(psi)

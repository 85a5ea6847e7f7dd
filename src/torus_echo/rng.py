"""Deterministic per-task random substreams.

Every stochastic choice in the library draws from a generator keyed by the
master seed plus an integer path, so results are bitwise reproducible and
independent of execution order (ensemble members can be computed in any
order, or in parallel, without changing the numbers).
"""

import numpy as np

from .hilbert import _check_integer


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path).

    The same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    _check_integer("seed", seed, 0)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))

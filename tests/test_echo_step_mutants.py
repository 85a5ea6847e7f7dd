"""Source mutants of the echo step (echo._kinetic_cosets, _step_tables and
_echo_values): each one must fail selftest.check_echo_blocks or
selftest.check_echo_kinetic, and the unmutated source must pass both.

No workload and no acceptance criterion runs a case whose output
permutation is not the identity (b = 2 at N = 0 mod 4, b = 4 at N = 0 mod 8),
so these checks are that path's only cover."""

import inspect
import textwrap

import numpy as np
import pytest

from torus_echo import echo, selftest
from torus_echo.dynamics import MapParams
from torus_echo.hilbert import make_space

MUTANTS = {
    "gamma forced to 1": ("_kinetic_cosets", "gamma = pow(b1, -1, M)", "gamma = 1"),
    "r0 dropped": ("_kinetic_cosets", "return g, g // 2 * eps,", "return g, 0,"),
    "out-chirp left out of the weights": (
        "_step_tables", "weights[:, 0] *= out_chirp", "pass"),
    "permutation skipped": ("_echo_values", 'np.take(phi, perm, axis=-1, out=source, mode="clip")',
                            "source[...] = phi"),
    "DFT left orthonormal": ("_echo_values", "np.fft.fft(layout, out=layout)",
                             'np.fft.fft(layout, norm="ortho", out=layout)'),
}


def patch_recompiled(monkeypatch, name, old="", new=""):
    """echo's function name compiled from its source with old replaced by
    new, set in echo and in selftest, which imports it."""
    source = textwrap.dedent(inspect.getsource(getattr(echo, name)))
    if old:
        assert source.count(old) == 1, f"mutation site {old!r} not found once"
        source = source.replace(old, new)
    namespace = dict(vars(echo))
    exec(compile(source, echo.__file__, "exec"), namespace)
    monkeypatch.setattr(echo, name, namespace[name])
    if hasattr(selftest, name):
        monkeypatch.setattr(selftest, name, namespace[name])


def failed_checks():
    return [check.__name__ for check in (selftest.check_echo_blocks, selftest.check_echo_kinetic)
            if not np.less(*check())]


@pytest.mark.parametrize("name", ["_kinetic_cosets", "_step_tables", "_echo_values"])
def test_unmutated_source_passes(monkeypatch, name):
    patch_recompiled(monkeypatch, name)
    assert failed_checks() == []


@pytest.mark.parametrize("name, old, new", MUTANTS.values(), ids=MUTANTS.keys())
def test_mutant_fails_a_check(monkeypatch, name, old, new):
    patch_recompiled(monkeypatch, name, old, new)
    assert failed_checks() != []


def test_skipped_permutation_shows_only_off_the_identity(monkeypatch):
    # the same bits where the permutation is the identity (b = 2, N = 4096),
    # far from the oracle where it is not (b = 2, N = 802: r0 = 1)
    args = (1.3, 8, 3, 5)
    expected = {N: echo.averaged_le(make_space(N), MapParams(2, 2, 0.0002), *args).values
                for N in (4096, 802)}
    patch_recompiled(monkeypatch, *MUTANTS["permutation skipped"])
    got = {N: echo.averaged_le(make_space(N), MapParams(2, 2, 0.0002), *args).values
           for N in (4096, 802)}
    assert np.array_equal(got[4096], expected[4096])
    assert np.max(np.abs(got[802] - expected[802])) > 1e-3

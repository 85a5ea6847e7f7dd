"""Source mutants of the purity step, decoherence._diagonal_step: each one
must fail selftest.check_purity_step, and the unmutated source must pass it."""

import inspect
import textwrap

import pytest

from torus_echo import decoherence, selftest

MUTANTS = {
    "shear Q + b*P": ("shear = (-b * P) % N", "shear = (b * P) % N"),
    "swapped kicks": ("_cyclic_diagonals(prop.kick_phases)[:H], prop.kick_phases.conj()",
                      "_cyclic_diagonals(prop.kick_phases.conj())[:H], prop.kick_phases"),
    "K for conj(K)": ("prop.kinetic_phases.conj()", "prop.kinetic_phases"),
    "no conjugation phase": ("out=rows, where=mirrored)", "out=rows, where=False)"),
    "mirrored entries not conjugated": ("where=conjugated[lo:hi])", "where=False)"),
    "conjugated conjugation phase": ("np.exp(-2j * np.pi * P / N)", "np.exp(2j * np.pi * P / N)"),
    # right on one thread, where every range starts at row 0; wrong on two
    "tables as if the range started at row 0": ("R = np.arange(start, stop)",
                                                "R = np.arange(start - lo, stop - lo)"),
    # the fft after the transposed copy: forward makes the same call
    "half spectrum by ifft": (".T\n            np.fft.fft(", ".T\n            np.fft.ifft("),
    # right on one thread, like the mutant above
    "half spectrum as if the range started at column 0": (
        "spectrum_rows[:, start:stop]", "spectrum_rows[:, start - lo:stop - lo]"),
}


def recompiled_step(old="", new=""):
    """_diagonal_step compiled from its source with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(decoherence._diagonal_step))
    if old:
        assert source.count(old) == 1, f"mutation site {old!r} not found once"
        source = source.replace(old, new)
    namespace = dict(vars(decoherence))
    exec(compile(source, decoherence.__file__, "exec"), namespace)
    return namespace["_diagonal_step"]


def test_unmutated_source_passes(monkeypatch):
    monkeypatch.setattr(selftest, "_diagonal_step", recompiled_step())
    err, tol = selftest.check_purity_step()
    assert err < tol


@pytest.mark.parametrize("old, new", MUTANTS.values(), ids=MUTANTS.keys())
def test_mutant_fails_the_check(monkeypatch, old, new):
    monkeypatch.setattr(selftest, "_diagonal_step", recompiled_step(old, new))
    err, tol = selftest.check_purity_step()
    assert err >= tol

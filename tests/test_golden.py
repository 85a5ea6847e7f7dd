"""Every CLI mode at tiny N against committed golden CSVs (tests/data/golden).

The CSV bodies are the library's output contract.  Header, integer and empty
cells must match exactly; float cells to 1e-12 relative with a 1e-15
absolute floor, since the last bits can move with the numpy build.  The
floor governs every cell below 1e-3: -ln P(0) and the stderr of near-exact
fits.  No run calls BLAS, neither the curves, kernels included, nor the rate
fit (test_dynamics.py checks the source), and test_cli.py checks both modes'
CSVs byte for byte at one and two BLAS threads and with the count unset.

Regenerate the golden files only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

from torus_echo.cli import parse_config, run

GOLDEN = Path(__file__).parent / "data" / "golden"
INT_COLUMNS = {"t", "window_t1", "window_t2", "n_points"}
EXACT_TEXT = {"", "inf"}

ECHO = "N = 64\nk = 0.001\nt_max = 12\nn_states = 3\nseed = 1\n"
PURITY = "N = 96\nk = 0.01\nt_max = 10\nseed = 7\ntransient_skip = 1\n"

# case name -> config text; each sweep includes a control whose fit fails,
# so some rows have empty cells.
CASES = {
    "le-curve": "mode = le-curve\nsigma_over_hbar = 0.5, 2\n" + ECHO,
    "le-sweep": "mode = le-sweep\nsigma_over_hbar = 0.3, 1, 4\n" + ECHO,
    "purity-curve-gdm": "mode = purity-curve\nmodel = gdm\nepsilon = 0.02, 0.1\n" + PURITY,
    "purity-sweep-gdm": "mode = purity-sweep\nmodel = gdm\nepsilon = 0.02, 0.03, 0.05\n" + PURITY,
    "purity-sweep-dc": "mode = purity-sweep\nmodel = dc\nepsilon = 0.01, 0.1, 0.6\n" + PURITY,
    "purity-sweep-ldm": "mode = purity-sweep\nmodel = ldm\nepsilon = 0.002, 0.005, 0.02\n" + PURITY,
    "purity-sweep-mixture": ("mode = purity-sweep\nmodel = mixture\nmixture_weight = 0.3\n"
                             "image_cutoff = 20\nepsilon = 0.002, 0.01, 0.05\n" + PURITY),
    "predict-gdm": "mode = predict\nN = 800\nmodel = gdm\nepsilon = 0.01, 0.05, 0.3\n",
    "predict-dc": "mode = predict\nN = 800\nmodel = dc\nepsilon = 0.01, 0.5, 1\n",
}


def _run_case(name, out_dir):
    run(parse_config(CASES[name], overrides=[f"out_dir={out_dir}"]))
    return sorted(p.name for p in Path(out_dir).glob("*.csv"))


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cells_match(column, expected, got):
    if column in INT_COLUMNS or expected in EXACT_TEXT or got in EXACT_TEXT:
        return expected == got
    return math.isclose(float(expected), float(got), rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path):
    written = _run_case(name, tmp_path)
    golden_dir = GOLDEN / name
    assert written == sorted(p.name for p in golden_dir.glob("*.csv"))
    for fname in written:
        expected, got = _read(golden_dir / fname), _read(tmp_path / fname)
        assert got[0] == expected[0], f"{name}/{fname}: header"
        assert len(got) == len(expected), f"{name}/{fname}: row count"
        for i, (erow, grow) in enumerate(zip(expected[1:], got[1:]), start=1):
            assert len(grow) == len(erow), f"{name}/{fname} row {i}: cell count"
            for column, e, g in zip(expected[0], erow, grow):
                assert _cells_match(column, e, g), f"{name}/{fname} row {i} {column}: {g!r} != {e!r}"


if __name__ == "__main__":
    for case in sorted(CASES):
        dest = GOLDEN / case
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        _run_case(case, dest)
        (dest / "manifest.json").unlink()
        print(case, file=sys.stderr)

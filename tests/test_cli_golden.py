"""Byte-for-byte stdout of every CLI command, pinned to stored reports.

The reports in tests/golden fix every byte, config block included, so
the symbol and tuple files are passed by relative paths from a fresh
working directory.
"""

import shutil
from pathlib import Path

import pytest

from symtoep.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv,code", [
    ("brown_halmos",
     ["verify", "--suite", "brown-halmos", "--symbol", "phi.json"], 0),
    ("dual_brown_halmos",
     ["verify", "--suite", "dual-brown-halmos", "--symbol", "phi.json"], 0),
    ("brown_halmos_shiftY1",
     ["verify", "--suite", "brown-halmos", "--operator", "shiftY1", "--d", "2"], 1),
    ("analytic", ["verify", "--suite", "analytic", "--symbol", "phi.json"], 0),
    ("defect", ["verify", "--suite", "defect", "--symbol", "phi.json"], 0),
    ("block", ["verify", "--suite", "block", "--symbol", "phi.json"], 0),
    ("eta", ["verify", "--suite", "eta", "--symbol", "phi.json"], 1),
    ("decay", ["verify", "--suite", "decay", "--symbol", "phi.json"], 0),
    ("lift", ["verify", "--suite", "lift", "--symbol", "phi.json"], 0),
    ("gamma_check_unitary", ["gamma", "check-unitary", "--tuple", "tuple.json"], 0),
    ("lift_d3", ["verify", "--suite", "lift", "--symbol", "phi3.json"], 0),
    ("gamma_check_isometry", ["gamma", "check-isometry", "--tuple", "tuple.json"], 0),
    ("lift_d4", ["verify", "--suite", "lift", "--symbol", "phi4.json"], 0),
])
def test_verify_stdout_matches_golden(name, argv, code, tmp_path, monkeypatch, capsys):
    _check_golden(f"{name}.json", argv, code, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("stored,argv,code", [
    ("matrix_dual.json", ["matrix", "--kind", "dual", "--symbol", "phi.json", "--d", "2",
                          "--maxtop", "2", "--format", "json"], 0),
    ("matrix_hankel.csv", ["matrix", "--kind", "hankel", "--symbol", "phi.json", "--d", "2",
                           "--maxtop", "3", "--minbottom", "-2"], 0),
    ("gamma_member.json", ["gamma", "member", "--point", "0.5,0"], 0),
    ("gamma_member_boundary.json", ["gamma", "member", "--point", "0,-1", "--boundary"], 0),
    ("gamma_solve_toeplitz.json", ["gamma", "solve-toeplitz", "--tuple", "tuple.json"], 0),
])
def test_matrix_and_gamma_stdout_matches_golden(stored, argv, code, tmp_path, monkeypatch,
                                                 capsys):
    _check_golden(stored, argv, code, tmp_path, monkeypatch, capsys)


def _check_golden(stored, argv, code, tmp_path, monkeypatch, capsys):
    for source in ("phi.json", "phi3.json", "phi4.json", "tuple.json"):
        shutil.copy(GOLDEN / source, tmp_path / source)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    expected = (GOLDEN / stored).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

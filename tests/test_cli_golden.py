"""Byte-for-byte stdout of the verify suites and two gamma checks, pinned to stored reports.

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
    for source in ("phi.json", "phi3.json", "phi4.json", "tuple.json"):
        shutil.copy(GOLDEN / source, tmp_path / source)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

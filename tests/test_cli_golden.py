"""Byte-for-byte stdout of the verify suites, pinned to stored reports.

The reports in tests/golden fix every byte, config block included, so
the symbol is passed by a relative path from a fresh working directory.
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
])
def test_verify_stdout_matches_golden(name, argv, code, tmp_path, monkeypatch, capsys):
    shutil.copy(GOLDEN / "phi.json", tmp_path / "phi.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

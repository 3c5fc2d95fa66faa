"""Stored JSON of the library check that no CLI command prints.

The report of asymptotic_classify reaches users only through the
library, so its JSON is pinned here, text for text, on the golden
phi.json symbol, with no perturbation and with a rank-one one.
"""

import json
from pathlib import Path

import pytest

from symtoep import (
    ComplexRational,
    FiniteRank,
    Partition,
    Symbol,
    analytic_window,
    asymptotic_classify,
)

GOLDEN = Path(__file__).parent / "golden"


def _phi() -> Symbol:
    return Symbol.from_json_dict(json.loads((GOLDEN / "phi.json").read_text(encoding="utf-8")))


def _rank_one(d: int) -> FiniteRank:
    p = Partition((2, 1))
    return FiniteRank(d, [(p, p, ComplexRational(1))])


def _report(name: str):
    phi = _phi()
    window = analytic_window(phi.d, phi.height() + 6)
    if name == "asymptotic_toeplitz":
        return asymptotic_classify(phi, None, 2, window)
    return asymptotic_classify(phi, _rank_one(phi.d), 2, window)


def _text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["asymptotic_toeplitz", "asymptotic_finite_rank"])
def test_library_report_matches_stored_json(name):
    stored = json.loads((GOLDEN / "library_checks.json").read_text(encoding="utf-8"))
    assert _text(_report(name).details) == _text(stored[name])

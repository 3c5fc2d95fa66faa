"""The library surface that the benchmark harness under bench/ relies on.

The harness is kept fixed between benchmark changes, so every name it
reads from ``symtoep`` must keep resolving, and its tracer must still be
able to wrap and restore every span it names.
"""

import re
import sys
from pathlib import Path

import pytest

import symtoep
import symtoep.cli  # noqa: F401  (the tracer wraps cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _referenced_names(path: Path) -> set:
    """Names read as st.<name>, or looked up by name through _call(..., "<name>")."""
    text = path.read_text(encoding="utf-8")
    return set(re.findall(r"\bst\.(\w+)", text)) | set(re.findall(r"_call,\s*\"(\w+)\"", text))


@pytest.mark.parametrize("script", ["workloads.py", "inputs.py"])
def test_bench_names_resolve_on_symtoep(script):
    names = _referenced_names(BENCH / script)
    assert names
    assert sorted(n for n in names if not hasattr(symtoep, n)) == []


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    def current(module, attr, cls):
        target = sys.modules[module] if cls is None else next(
            c for c in cls.__mro__ if attr in c.__dict__)
        return vars(target)[attr]

    before = {name: current(*where) for name, *where in tracing.SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [name for name, *where in tracing.SPANS if current(*where) is not before[name]]
        window = symtoep.analytic_window(2, 3)
        op = symtoep.Toeplitz(symtoep.elementary(2, 1))
        residuals = tracer.run_check(lambda: symtoep.bh_residuals(op, window))
    finally:
        tracer.uninstall()
    assert wrapped == list(tracing.SPAN_NAMES)
    assert all(m.is_zero() for m in residuals)
    assert tracer.spans["operators.bh_residuals"][0] == 1
    assert tracer.spans["operators.bh_residual_column"][0] == 2 * len(window)
    assert {name: current(*where) for name, *where in tracing.SPANS} == before

"""The library surface that the benchmark harness under bench/ relies on.

The harness is kept fixed between benchmark changes, so every name it
reads from ``symtoep`` must keep resolving, and its tracer must still be
able to wrap and restore every span it names.
"""

import re
import sys
from fractions import Fraction
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


def test_tracer_counts_each_scalar_op_once(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    cls = symtoep.ComplexRational
    assert [name for name in tracing._SCALAR_OPS if name not in cls.__dict__] == []
    before = {name: cls.__dict__[name] for name in tracing._SCALAR_OPS}
    z, w = cls(Fraction(1, 2), 3), cls(Fraction(-2, 3), Fraction(1, 4))
    # one public op each, with every operand kind it accepts; none may
    # reach another counted op, or scalars.ops would count it twice
    ops = [lambda: z + w, lambda: z + 1, lambda: 1 + z, lambda: Fraction(1, 3) + z,
           lambda: z - w, lambda: z - 1, lambda: 1 - z, lambda: Fraction(1, 3) - z,
           lambda: z * w, lambda: z * 2, lambda: 2 * z, lambda: Fraction(1, 3) * z,
           lambda: -z]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[name] is not before[name] for name in tracing._SCALAR_OPS)
        counts = []
        for op in ops:
            start = tracer.counts["scalars.ops"]
            tracer.run_check(op)
            counts.append(tracer.counts["scalars.ops"] - start)
        start = tracer.counts["scalars.ops"]
        window = symtoep.analytic_window(2, 3)
        tracer.run_check(lambda: symtoep.bh_residuals(
            symtoep.Toeplitz(symtoep.elementary(2, 1)), window))
        traced_check = tracer.counts["scalars.ops"] - start
    finally:
        tracer.uninstall()
    assert counts == [1] * len(ops)
    assert traced_check > 0
    assert {name: cls.__dict__[name] for name in tracing._SCALAR_OPS} == before


@pytest.mark.parametrize("workload,prefix", [
    ("defect_rational", "defect "),
    ("defect_rational", "block "),
    ("defect_rational", "classify "),
    ("bh_battery", "dual-bh "),
])
def test_harness_oracles_accept_library_results(workload, prefix, tmp_path, monkeypatch):
    """The harness's own oracle accepts the first check of each kind that
    returns a library object, so every attribute it reads still resolves."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    checks = getattr(workloads, workload)(1, str(tmp_path))
    check = next(c for c in checks if c.name.startswith(prefix))
    assert check.verify(check.call()) is None


def test_star_import_and_unique_exports():
    namespace = {}
    exec("from symtoep import *", namespace)
    assert set(symtoep.__all__) <= set(namespace)
    assert len(symtoep.__all__) == len(set(symtoep.__all__))

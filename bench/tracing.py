"""Spans and work counters for the traced run.

The tracer wraps public entry points of symtoep from outside the
library: module-level functions are replaced in every symtoep module
that holds them (``from .operators import assemble`` makes a second
reference), and methods are replaced on the class that defines them.
``uninstall`` puts the originals back.  Spans and counts are kept in
memory; ``metrics`` and ``dump`` read them out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Each check runs under a root span named ``check``; the share of
check time covered by the spans directly below it is the trace coverage.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

import symtoep as st

# (span name, module, attribute, class or None).  A class entry wraps the
# method on the class in its MRO that defines it: the closed-form kernels
# of all four symbol operator kinds live on one shared base.
SPANS = (
    ("operators.apply", "symtoep.operators", "apply", st.Toeplitz),
    ("operators.bh_residual_column", "symtoep.operators", "bh_residual_column", None),
    ("operators.bh_residuals", "symtoep.operators", "bh_residuals", None),
    ("operators.entry", "symtoep.operators", "entry", st.Toeplitz),
    ("operators.bh_residual_entry", "symtoep.operators", "bh_residual_entry", None),
    ("operators.recover_symbol", "symtoep.operators", "recover_symbol", None),
    ("operators.assemble", "symtoep.operators", "assemble", None),
    ("operators.product_defect", "symtoep.operators", "product_defect", None),
    ("operators.classify_analytic", "symtoep.operators", "classify_analytic", None),
    ("operators.lift_verify", "symtoep.operators", "lift_verify", None),
    ("operators.norm_estimate", "symtoep.operators", "norm_estimate", None),
    ("symbols.multiply", "symtoep.symbols", "multiply", None),
    ("symbols.sup_norm_sampled", "symtoep.symbols", "sup_norm_sampled", st.Symbol),
    ("dual.dual_bh_residual_column", "symtoep.dual", "dual_bh_residual_column", None),
    ("dual.dual_bh_residuals", "symtoep.dual", "dual_bh_residuals", None),
    ("dual.block_decomposition_check", "symtoep.dual", "block_decomposition_check", None),
    ("compactness.eta", "symtoep.compactness", "eta", None),
    ("compactness.commutator_decay", "symtoep.compactness", "commutator_decay", None),
    ("gamma.point_in_gamma", "symtoep.gamma", "point_in_gamma", None),
    ("gamma.check_gamma_unitary", "symtoep.gamma", "check_gamma_unitary", None),
    ("gamma.s_toeplitz_solve", "symtoep.gamma", "s_toeplitz_solve", None),
    ("cli.main", "symtoep.cli", "main", None),
)

SPAN_NAMES = tuple(name for name, _, _, _ in SPANS)

COUNTS = (
    "scalars.ops",
    "partitions.antisymmetrize.calls",
    "partitions.antisymmetrize.useful",
    "operators.column.calls",
    "operators.column.misses",
    "operators.column.max_support",
    "operators.assemble.nonzeros",
    "symbols.sup_norm_sampled.points",
)

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "symtoep" or name.startswith("symtoep.")]


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES + ("check",)}
        self.edges: dict = {}  # (parent, child) -> [calls, seconds]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.active = False
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, edges, stack = self.spans, self.edges, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                record = spans[name]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += duration
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _antisymmetrize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(t):
            result = fn(t)
            if self.active:
                counts["partitions.antisymmetrize.calls"] += 1
                if result.sign:
                    counts["partitions.antisymmetrize.useful"] += 1
            return result

        return wrapper

    def _column(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(op, p):
            if not self.active:
                return fn(op, p)
            before = len(op.__dict__.get("_col_cache") or ())
            col = fn(op, p)
            counts["operators.column.calls"] += 1
            if len(op.__dict__.get("_col_cache") or ()) > before:
                counts["operators.column.misses"] += 1
            if len(col) > counts["operators.column.max_support"]:
                counts["operators.column.max_support"] = len(col)
            return col

        return wrapper

    def _after_assemble(self, matrix, args):
        if self.active:
            self.counts["operators.assemble.nonzeros"] += len(matrix.entries)

    def _after_sampling(self, value, args):
        if self.active:
            symbol, grid_size = args[0], args[1]
            self.counts["symbols.sup_norm_sampled.points"] += grid_size ** symbol.d

    # -- patching ------------------------------------------------------------

    def _replace_function(self, original, replacement):
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, make):
        owner = next(c for c in cls.__mro__ if attr in c.__dict__)
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        after = {"operators.assemble": self._after_assemble,
                 "symbols.sup_norm_sampled": self._after_sampling}
        for name, module, attr, cls in SPANS:
            make = functools.partial(self._span, name, after=after.get(name))
            if cls is None:
                original = getattr(sys.modules[module], attr)
                self._replace_function(original, make(original))
            else:
                self._replace_method(cls, attr, make)
        for attr in _SCALAR_OPS:
            self._replace_method(st.ComplexRational, attr,
                                 functools.partial(self._counting, "scalars.ops"))
        self._replace_method(st.Toeplitz, "column", self._column)
        original = sys.modules["symtoep.partitions"].antisymmetrize
        self._replace_function(original, self._antisymmetrize(original))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def run_check(self, call):
        """Run one check under the root span, with tracing on only inside it."""
        root = self._span("check", call)
        self.active = True
        try:
            return root()
        finally:
            self.active = False

    # -- results -------------------------------------------------------------

    def coverage(self) -> float:
        """Share of check time covered by the spans directly below the root."""
        total = self.spans["check"][1]
        covered = sum(sec for (parent, _), (_, sec) in self.edges.items()
                      if parent == "check")
        return covered / total if total else 0.0

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            calls, seconds, self_seconds = self.spans[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (seconds, "s")
            out[f"{name}.self_s"] = (self_seconds, "s")
        c = self.counts
        out["scalars.ops"] = (c["scalars.ops"], "count")
        calls = c["partitions.antisymmetrize.calls"]
        out["partitions.antisymmetrize.calls"] = (calls, "count")
        out["partitions.antisymmetrize.useful_ratio"] = (
            c["partitions.antisymmetrize.useful"] / calls if calls else 0.0, "ratio")
        calls = c["operators.column.calls"]
        out["operators.column.calls"] = (calls, "count")
        out["operators.column.hit_ratio"] = (
            (calls - c["operators.column.misses"]) / calls if calls else 0.0, "ratio")
        out["operators.column.max_support"] = (c["operators.column.max_support"], "count")
        out["operators.assemble.nonzeros"] = (c["operators.assemble.nonzeros"], "count")
        out["symbols.sup_norm_sampled.points"] = (c["symbols.sup_norm_sampled.points"], "count")
        out["trace.span_coverage"] = (self.coverage(), "ratio")
        return out

    def dump(self) -> dict:
        """Every span aggregate and caller -> callee edge, for the run's log."""
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": x}
                      for name, (c, s, x) in self.spans.items() if c},
            "edges": [{"parent": parent, "child": child, "calls": c, "s": s}
                      for (parent, child), (c, s) in sorted(
                          self.edges.items(), key=lambda item: -item[1][1])],
            "counts": dict(self.counts),
        }

"""Dual Toeplitz operators on the non-analytic complement.

The dual operator compresses multiplication to the span of basis vectors
with negative last entry.  Its matrix elements follow the same signed
permutation formula as the Toeplitz side, and the distinguished tuple
for the dual Brown-Halmos relations is built from conjugated coordinate
symbols.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, MarginError
from .operators import (
    DualToeplitz,
    Hankel,
    Laurent,
    MatrixWindow,
    OperatorSpec,
    Toeplitz,
    assemble,
    bh_residual_column,
    bh_residuals,
)
from .partitions import Partition, Window
from .scalars import ComplexRational
from .symbols import Symbol


def dual_bh_residual_column(T: OperatorSpec, i: int, p) -> dict:
    """Exact column of the i-th dual Brown-Halmos residual at non-analytic p.

    The distinguished tuple is (DT_{conj s_1}, ..., DT_{conj s_{d-1}},
    DT_{conj p}); see bh_residual_column, which serves both sides.
    """
    p = p if isinstance(p, Partition) else Partition(p)
    if p.is_analytic:
        raise DomainError("dual residuals need a non-analytic column")
    return bh_residual_column(T, i, p)


def dual_bh_residuals(T: OperatorSpec, window: Window) -> list[MatrixWindow]:
    """All d dual residual matrices on a non-analytic window (exact)."""
    if any(p.is_analytic for p in window):
        raise DomainError("dual residuals need a non-analytic window")
    return bh_residuals(T, window)


@dataclass
class BlockReport:
    block_ok: dict  # name -> bool
    witnesses: list

    @property
    def passed(self) -> bool:
        return all(self.block_ok.values())

    def to_json_dict(self) -> dict:
        return {
            "check": "block-decomposition",
            "verdict": "pass" if self.passed else "fail",
            "blocks": dict(self.block_ok),
            "witnesses": [
                {"row": list(q), "col": list(p), "block": name}
                for name, q, p in self.witnesses
            ],
        }


def block_decomposition_check(phi: Symbol, full_window: Window) -> BlockReport:
    """Entrywise exact check of the 2x2 multiplication block matrix.

    Splitting the window into analytic and non-analytic members, the
    Laurent matrix of phi must match Toeplitz / Hankel / adjoint-Hankel /
    dual-Toeplitz entries block by block.
    """
    d = phi.d
    if full_window.d != d:
        raise DomainError("window dimension mismatch")
    h = phi.height()
    if full_window.max_top < h or -full_window.min_bottom < h:
        raise MarginError(
            f"window [{full_window.min_bottom}, {full_window.max_top}] thinner than "
            f"symbol height {h} on one side"
        )
    wa = full_window.analytic_part()
    wn = full_window.nonanalytic_part()
    if not len(wa) or not len(wn):
        raise DomainError("window must contain analytic and non-analytic indices")

    laurent = assemble(Laurent(phi), full_window, full_window)
    toeplitz = assemble(Toeplitz(phi), wa, wa)
    hankel = assemble(Hankel(phi), wn, wa)
    hankel_conj = assemble(Hankel(phi.conjugate()), wn, wa)
    dual = assemble(DualToeplitz(phi), wn, wn)

    got = {}
    for (i, j), v in laurent.entries.items():
        got[(full_window.members[i], full_window.members[j])] = v

    block_ok = {"toeplitz": True, "hankel": True, "hankel-adjoint": True, "dual": True}
    witnesses = []

    def compare(name, q, p, expected):
        actual = got.get((q, p), ComplexRational(0))
        if actual != expected:
            block_ok[name] = False
            if len(witnesses) < 10:
                witnesses.append((name, q, p))

    for q in full_window:
        for p in full_window:
            if q.is_analytic and p.is_analytic:
                compare("toeplitz", q, p, toeplitz.entry_at(q, p))
            elif not q.is_analytic and p.is_analytic:
                compare("hankel", q, p, hankel.entry_at(q, p))
            elif q.is_analytic and not p.is_analytic:
                # adjoint block: <H_{conj phi}^* e_p, e_q> = conj(H_{conj phi}[p, q])
                compare("hankel-adjoint", q, p,
                        hankel_conj.entry_at(p, q).conjugate())
            else:
                compare("dual", q, p, dual.entry_at(q, p))
    return BlockReport(block_ok, witnesses)

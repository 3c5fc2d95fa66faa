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


# block of an index pair, keyed by (row analytic, column analytic)
_BLOCK_NAMES = {(True, True): "toeplitz", (False, True): "hankel",
                (True, False): "hankel-adjoint", (False, False): "dual"}


def block_decomposition_check(phi: Symbol, full_window: Window) -> BlockReport:
    """Entrywise exact check of the 2x2 multiplication block matrix.

    Splitting the window into analytic and non-analytic members, the
    Laurent matrix of phi must match Toeplitz / Hankel / adjoint-Hankel /
    dual-Toeplitz entries block by block.  Witnesses are the first ten
    mismatches in row-major window order.
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

    got = laurent.keyed_entries()
    expected = {**toeplitz.keyed_entries(), **hankel.keyed_entries(), **dual.keyed_entries()}
    # adjoint block: <H_{conj phi}^* e_p, e_q> = conj(H_{conj phi}[p, q])
    expected.update({(q, p): v.conjugate()
                     for (p, q), v in hankel_conj.keyed_entries().items()})

    pos = full_window.position
    mismatches = sorted((k for k in got.keys() | expected.keys()
                         if got.get(k) != expected.get(k)),
                        key=lambda k: (pos[k[0]], pos[k[1]]))
    block_ok = dict.fromkeys(_BLOCK_NAMES.values(), True)
    witnesses = [(_BLOCK_NAMES[q.is_analytic, p.is_analytic], q, p) for q, p in mismatches]
    for name, _, _ in witnesses:
        block_ok[name] = False
    return BlockReport(block_ok, witnesses[:10])

"""Compactness and asymptotic-Toeplitz diagnostics on finite windows.

The eta block test conjugates an operator by j-th powers of the d
distinguished isometries (the basis shifts Y_1..Y_{d-1} and T_p); for
compact operators the stacked block matrix dies out as j grows, while
Toeplitz-type obstructions keep its norm bounded away from zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MarginError
from .operators import (
    Commutator,
    FiniteRank,
    MatrixWindow,
    OperatorSpec,
    OpSum,
    Toeplitz,
    assemble,
    bh_residual_matrix,
    bh_residuals,
    norm_estimate,
)
from .partitions import Partition, Window, shift
from .scalars import ONE
from .symbols import Symbol, elementary


@dataclass
class EtaReport:
    j: int
    blocks: dict  # (a, b) -> MatrixWindow, 1-based block coordinates
    block_norm: float

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def stacked_dense(self) -> np.ndarray:
        d = max(a for a, _ in self.blocks)
        n = len(next(iter(self.blocks.values())).rows)
        out = np.zeros((d * n, d * n), dtype=complex)
        for (a, b), m in self.blocks.items():
            out[(a - 1) * n:a * n, (b - 1) * n:b * n] = m.to_dense()
        return out

    def to_json_dict(self) -> dict:
        return {
            "check": "eta",
            "j": self.j,
            "blockNorm": self.block_norm,
            "exactZero": self.is_zero(),
        }


def eta(T: OperatorSpec, j: int, window: Window,
        iterations: int = 100, seed: int = 42) -> EtaReport:
    """Conjugated block matrix (Z_a^{*j} T Z_b^j)_{a,b} on the window.

    Z_a is the a-th basis shift for a < d and T_p for a = d, so block
    (a,b) at (q,p) is the exact entry of T at (q + j f_a, p + j f_b): T
    assembled on the shifted windows, read at the unshifted positions.
    """
    if j < 0:
        raise DomainError("eta exponent must be >= 0")
    if window.d != T.d:
        raise DomainError("window dimension mismatch")
    d = T.d
    moved = {a: window.shifted(j, a) for a in range(1, d + 1)}
    blocks = {(a, b): MatrixWindow(window, window, assemble(T, moved[a], moved[b]).entries)
              for a in moved for b in moved}
    report = EtaReport(j, blocks, 0.0)
    report.block_norm = norm_estimate(report.stacked_dense(), iterations, seed)
    return report


def el_projection(d: int, l: int) -> list[Partition]:
    """Index set of the l-th seed projection: (k+(d-2)l, ..., k+l, k, 0), 1<=k<=l."""
    if d < 2:
        raise DomainError("need d >= 2")
    if l < 1:
        raise DomainError("projection level must be >= 1")
    out = []
    for k in range(1, l + 1):
        entries = [k + (d - 2 - i) * l for i in range(d - 1)] + [0]
        out.append(Partition(entries))
    return out


def truncation_support(d: int, l: int) -> set:
    """Basis support of F_l: the seed set pushed along 0..l-1 diagonal shifts.

    The shifted copies are disjoint (the last entry records the shift), so
    F_l is an orthogonal projection onto their span.
    """
    base = el_projection(d, l)
    out = set()
    for r in range(l):
        for p in base:
            out.add(shift(p, r))
    return out


def f_l_projection(d: int, l: int) -> FiniteRank:
    """F_l as an explicit finite-rank (diagonal 0/1) operator."""
    return FiniteRank(d, [(p, p, ONE) for p in truncation_support(d, l)])


def finite_rank_truncation(T: OperatorSpec, l: int, window: Window) -> MatrixWindow:
    """Exact window matrix of T - (T F_l + F_l T - F_l T F_l) = (I-F_l) T (I-F_l)."""
    if window.d != T.d:
        raise DomainError("window dimension mismatch")
    support = truncation_support(T.d, l)
    if not all(p in window.position for p in support):
        raise MarginError(
            f"window does not contain the level-{l} truncation support; "
            "increase maxTop"
        )
    inside = [p in support for p in window.members]
    m = assemble(T, window, window)
    return MatrixWindow(window, window, {(i, j): v for (i, j), v in m.entries.items()
                                         if not inside[i] and not inside[j]})


@dataclass
class DecayReport:
    partner_index: int
    norms: list
    conjugated: list  # MatrixWindow per exponent n = 0..n_max
    bh_residual: MatrixWindow

    @property
    def final_exact_zero(self) -> bool:
        return self.conjugated[-1].is_zero()

    def to_json_dict(self) -> dict:
        return {
            "check": "commutator-decay",
            "partner": f"s_{self.partner_index}",
            "norms": self.norms,
            "finalExactZero": self.final_exact_zero,
            "bhResidualZero": self.bh_residual.is_zero(),
        }


def commutator_decay(T: OperatorSpec, i: int, n_max: int, window: Window,
                     iterations: int = 100, seed: int = 42) -> DecayReport:
    """Norms of T_p^{*n} [T, T_{s_i}] T_p^n on the window for n = 0..n_max.

    The conjugated entry at (q, p) is the exact commutator entry at
    (q + n, p + n), read off the commutator assembled on the shifted
    window; the report also carries the exact i-th Brown-Halmos residual.
    """
    d = T.d
    if not 1 <= i <= d - 1:
        raise DomainError(f"commutator partner index must satisfy 1 <= i <= d-1, got {i}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if window.d != d:
        raise DomainError("window dimension mismatch")
    commutator = Commutator(T, Toeplitz(elementary(d, i)))
    mats = [MatrixWindow(window, window, assemble(commutator, w, w).entries)
            for w in (window.shifted(n) for n in range(n_max + 1))]
    norms = [norm_estimate(m, iterations, seed) for m in mats]
    return DecayReport(i, norms, mats, bh_residual_matrix(T, i, window))


@dataclass
class AsymptoticReport:
    decay_ok: bool
    toeplitz_part_ok: bool
    residual_eta_ok: bool
    decay_norms: dict  # i -> list over n
    eta_norms: list  # over j = 1..j_max

    @property
    def passed(self) -> bool:
        return self.decay_ok and self.toeplitz_part_ok and self.residual_eta_ok

    def to_json_dict(self) -> dict:
        return {
            "check": "asymptotic-toeplitz",
            "verdict": "pass" if self.passed else "fail",
            "commutatorDecayOk": self.decay_ok,
            "toeplitzPartOk": self.toeplitz_part_ok,
            "residualEtaOk": self.residual_eta_ok,
            "decayNorms": {str(k): v for k, v in self.decay_norms.items()},
            "etaNorms": self.eta_norms,
        }


def asymptotic_classify(phi: Symbol, K, j_max: int, window: Window,
                        iterations: int = 100, seed: int = 42) -> AsymptoticReport:
    """Three-part asymptotic-Toeplitz verdict for T = T_phi + K.

    (1) every conjugated commutator window is exactly zero at n = j_max,
    (2) the Toeplitz part passes the Brown-Halmos residual test exactly,
    (3) eta_{j_max} of the residual part K is exactly zero.
    Limits are replaced by exact stabilization at the largest probe.
    """
    if j_max < 1:
        raise DomainError("j_max must be >= 1")
    d = phi.d
    parts = [Toeplitz(phi)]
    if K is not None:
        parts.append(K)
    T = OpSum(parts) if len(parts) > 1 else parts[0]

    decay_norms = {}
    decay_ok = True
    for i in range(1, d):
        rep = commutator_decay(T, i, j_max, window, iterations, seed)
        decay_norms[i] = rep.norms
        if not rep.final_exact_zero:
            decay_ok = False

    toeplitz_part_ok = all(m.is_zero() for m in bh_residuals(Toeplitz(phi), window))

    eta_norms = []
    residual_eta_ok = True
    if K is None:
        eta_norms = [0.0] * j_max
    else:
        for j in range(1, j_max + 1):
            rep = eta(K, j, window, iterations, seed)
            eta_norms.append(rep.block_norm)
            if j == j_max and not rep.is_zero():
                residual_eta_ok = False
    return AsymptoticReport(decay_ok, toeplitz_part_ok, residual_eta_ok,
                            decay_norms, eta_norms)

"""Compactness and asymptotic-Toeplitz diagnostics on finite windows.

The eta block test conjugates an operator by j-th powers of the d
distinguished isometries (the basis shifts Y_1..Y_{d-1} and T_p); for
compact operators the stacked block matrix dies out as j grows, while
Toeplitz-type obstructions keep its norm bounded away from zero.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, MarginError, require_budget
from .operators import (
    Commutator,
    FiniteRank,
    MatrixWindow,
    OperatorSpec,
    OpSum,
    Report,
    Toeplitz,
    _distinguished,
    _require_dense,
    assemble,
    bh_residual_matrix,
    bh_residuals,
    norm_estimate,
    pass_fail,
)
from .partitions import Partition, Window, shift
from .scalars import ONE
from .symbols import Symbol

# Largest stacked eta matrix, counted as its (d*n)^2 dense entries before
# any block is assembled: 64 MB of complex entries, and as much again for
# norm_estimate's a^H a.  The largest eta the tests, the CLI goldens and
# the benchmark workloads stack has 252^2 entries (d = 3, n = 84).
MAX_ETA_ENTRIES = 2 ** 22


def eta_blocks(T: OperatorSpec, j: int, window: Window) -> dict:
    """Blocks (Z_a^{*j} T Z_b^j)_{a,b} on the window, keyed by 1-based (a, b).

    Z_a is the a-th basis shift for a < d and T_p for a = d, so block
    (a,b) at (q,p) is the exact entry of T at (q + j f_a, p + j f_b): T
    assembled on the shifted windows, read at the unshifted positions.
    A stack over MAX_ETA_ENTRIES raises MarginError before any assembly.
    """
    if j < 0:
        raise DomainError("eta exponent must be >= 0")
    if window.d != T.d:
        raise DomainError("window dimension mismatch")
    d = T.d
    entries = (d * len(window)) ** 2
    require_budget(entries, MAX_ETA_ENTRIES, "eta",
                   f"stacking {d}x{d} eta blocks of {len(window)} rows needs {entries} "
                   "dense entries", "use a smaller window")
    moved = {a: window.shifted(j, a) for a in range(1, d + 1)}
    return {(a, b): MatrixWindow(window, window, assemble(T, moved[a], moved[b]).entries)
            for a in moved for b in moved}


def eta(T: OperatorSpec, j: int, window: Window, seed: int = 42) -> Report:
    """Norm of the stacked eta_blocks matrix; passes when every block is exactly zero."""
    blocks = eta_blocks(T, j, window)
    n = len(window)
    stacked = np.zeros((T.d * n, T.d * n), dtype=complex)
    for (a, b), m in blocks.items():
        stacked[(a - 1) * n:a * n, (b - 1) * n:b * n] = m.to_dense()
    norm = norm_estimate(stacked, 100, seed)
    zero = all(m.is_zero() for m in blocks.values())
    return Report(zero, {"check": "eta", "j": j, "blockNorm": norm, "exactZero": zero},
                  [], [norm])


def el_projection(d: int, l: int) -> list[Partition]:
    """Index set of the l-th seed projection: (k+(d-2)l, ..., k+l, k, 0), 1<=k<=l."""
    if d < 2:
        raise DomainError("need d >= 2")
    if l < 1:
        raise DomainError("projection level must be >= 1")
    return [Partition([k + (d - 2 - i) * l for i in range(d - 1)] + [0])
            for k in range(1, l + 1)]


def truncation_support(d: int, l: int) -> set:
    """Basis support of F_l: the seed set pushed along 0..l-1 diagonal shifts.

    The shifted copies are disjoint (the last entry records the shift), so
    F_l is an orthogonal projection onto their span.
    """
    return {shift(p, r) for p in el_projection(d, l) for r in range(l)}


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


def commutator_decay(T: OperatorSpec, i: int, n_max: int, window: Window,
                     seed: int = 42) -> Report:
    """Norms of T_p^{*n} [T, T_{s_i}] T_p^n on the window for n = 0..n_max.

    The conjugated entry at (q, p) is the exact commutator entry at
    (q + n, p + n), read off the commutator assembled on the shifted
    window.  It passes when step n_max is exactly zero; its details also
    say whether the exact i-th Brown-Halmos residual is zero.  A window
    whose dense matrix is over MAX_DENSE_ENTRIES raises MarginError
    before any assembly.
    """
    d = T.d
    if not 1 <= i <= d - 1:
        raise DomainError(f"commutator partner index must satisfy 1 <= i <= d-1, got {i}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if window.d != d:
        raise DomainError("window dimension mismatch")
    _require_dense(len(window), "the decay window")
    commutator = Commutator(T, _distinguished(d, True)[0][i - 1])
    mats = [MatrixWindow(window, window, assemble(commutator, w, w).entries)
            for w in (window.shifted(n) for n in range(n_max + 1))]
    norms = [norm_estimate(m, 100, seed) for m in mats]
    final_zero = mats[-1].is_zero()
    return Report(final_zero, {
        "check": "commutator-decay",
        "partner": f"s_{i}",
        "norms": norms,
        "finalExactZero": final_zero,
        "bhResidualZero": bh_residual_matrix(T, i, window).is_zero(),
    }, [], norms)


def asymptotic_classify(phi: Symbol, K, j_max: int, window: Window,
                        seed: int = 42) -> Report:
    """Three-part asymptotic-Toeplitz verdict for T = T_phi + K.

    (1) every conjugated commutator window is exactly zero at n = j_max,
    (2) the Toeplitz part passes the Brown-Halmos residual test exactly,
    (3) eta_{j_max} of the residual part K is exactly zero.
    Limits are replaced by exact stabilization at the largest probe.
    """
    if j_max < 1:
        raise DomainError("j_max must be >= 1")
    d = phi.d
    T = Toeplitz(phi) if K is None else OpSum([Toeplitz(phi), K])

    decays = {i: commutator_decay(T, i, j_max, window, seed) for i in range(1, d)}
    decay_ok = all(rep.passed for rep in decays.values())
    toeplitz_part_ok = all(m.is_zero() for m in bh_residuals(Toeplitz(phi), window))
    etas = [] if K is None else [eta(K, j, window, seed) for j in range(1, j_max + 1)]
    residual_eta_ok = not etas or etas[-1].passed
    passed = decay_ok and toeplitz_part_ok and residual_eta_ok
    return Report(passed, {
        "check": "asymptotic-toeplitz",
        "verdict": pass_fail(passed),
        "commutatorDecayOk": decay_ok,
        "toeplitzPartOk": toeplitz_part_ok,
        "residualEtaOk": residual_eta_ok,
        "decayNorms": {str(i): rep.norms for i, rep in decays.items()},
        "etaNorms": [rep.norms[0] for rep in etas] or [0.0] * j_max,
    })

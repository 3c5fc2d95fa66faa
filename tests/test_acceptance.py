"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion computes its checks into a failure list first, prints a
single pass/fail line (with elapsed time), and only then asserts, so the
verdict line is emitted whether or not the criterion holds.  Exact checks
compare ComplexRational values literally; floating checks state their
tolerances inline.
"""

import time

import numpy as np
from scipy.stats import unitary_group

from symtoep import (
    ComplexRational,
    FiniteRank,
    GammaTuple,
    Partition,
    ShiftY,
    Toeplitz,
    analytic_window,
    assemble,
    bh_residuals,
    check_gamma_unitary,
    classify_analytic,
    elementary,
    enumerate_window,
    eta,
    norm_estimate,
    point_in_gamma,
    product_defect,
    recover_symbol,
    s_toeplitz_solve,
    synth_gamma_unitary,
    block_decomposition_check,
    zero_symbol,
)
from conftest import compose_columns, symbol_battery, symmetrize_point, worst_failure
from test_gamma import kron_nullspace_dimension


def finish(num: int, name: str, started: float, failures: list,
           budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    over = budget is not None and elapsed > budget
    ok = not failures and not over
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s]")
    detail = list(failures[:5])
    if over:
        detail.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    assert ok, detail


def commutator_column(a, b, p):
    """Exact column of (a b - b a) at basis vector p."""
    ab = compose_columns(a, b, p)
    ba = compose_columns(b, a, p)
    out = dict(ab)
    for k, v in ba.items():
        out[k] = out.get(k, ComplexRational(0)) - v
    return {k: v for k, v in out.items() if v}


def test_criterion_1_exact_brown_halmos_battery():
    """Every battery residual is the exact zero matrix (d=2 top 8, d=3 top 6)."""
    started = time.perf_counter()
    failures = []
    for d, top in ((2, 8), (3, 6)):
        window = analytic_window(d, top)
        battery = symbol_battery(d)
        if len(battery) < 20 and d == 3:
            failures.append(f"battery too small for d={d}: {len(battery)}")
        for phi in battery:
            for idx, res in enumerate(bh_residuals(Toeplitz(phi), window)):
                if not (res.to_json_dict()["exact"] and res.is_zero()):
                    failures.append(
                        (d, dict(phi.coeffs), idx, res.nonzero_witnesses(1)))
    finish(1, "exact Brown-Halmos battery", started, failures, budget=60.0)


def test_criterion_2_recovery_round_trip():
    """recover_symbol inverts Toeplitz assembly exactly on the battery."""
    started = time.perf_counter()
    failures = []
    for d in (2, 3):
        for phi in symbol_battery(d):
            bound = max(phi.height(), 1)
            recovered = recover_symbol(Toeplitz(phi).entry, d, bound)
            if recovered.coeffs != phi.coeffs:
                failures.append((d, dict(phi.coeffs), dict(recovered.coeffs)))
    empty = recover_symbol(lambda q, p: ComplexRational(0), 2, 2)
    if empty.coeffs != zero_symbol(2).coeffs:
        failures.append(("zero oracle", dict(empty.coeffs)))
    finish(2, "injectivity round trip", started, failures, budget=10.0)


def test_criterion_3_shift_example_reproduction():
    """Nonzero [Y_j, T_{s_i}] witness for j,i < d; the final relation holds."""
    started = time.perf_counter()
    failures = []
    for d in (2, 3):
        probe = list(analytic_window(d, 6))
        for j in range(1, d):
            y = ShiftY(d, j)
            for i in range(1, d):
                t = Toeplitz(elementary(d, i))
                witness = None
                for p in probe:
                    col = commutator_column(y, t, p)
                    if col:
                        witness = (p, col)
                        break
                if witness is None:
                    failures.append(f"[Y_{j}, T_s{i}] looks zero for d={d}")
            final = bh_residuals(y, analytic_window(d, 5))[-1]
            if not final.is_zero():
                failures.append(f"T_p* Y_{j} T_p != Y_{j} for d={d}")
    finish(3, "shift example reproduction", started, failures, budget=5.0)


def test_criterion_4_analytic_characterization():
    """Classification matches is_analytic; hand witness e_(2,0) reproduced."""
    started = time.perf_counter()
    failures = []
    for d in (2, 3):
        window = analytic_window(d, d + 4)
        for phi in symbol_battery(d):
            report = classify_analytic(phi, window)
            if not report.consistent:
                failures.append((d, dict(phi.coeffs)))
            if report.commutes_with_all != phi.is_analytic:
                failures.append(("verdict mismatch", d, dict(phi.coeffs)))
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    col = commutator_column(
        Toeplitz(phi), Toeplitz(elementary(2, 2)), Partition((1, 0)))
    if col != {Partition((2, 0)): ComplexRational(1)}:
        failures.append(("hand witness", col))
    finish(4, "analytic characterization", started, failures)


def test_criterion_5_block_and_product_defect():
    """Block decomposition and defect identity exact on all battery pairs."""
    started = time.perf_counter()
    failures = []
    for d in (2, 3):
        battery = symbol_battery(d)
        for phi in battery:
            h = max(phi.height(), 1)
            window = enumerate_window(d, h + 2, -(h + 2))
            report = block_decomposition_check(phi, window)
            if not report.passed:
                failures.append(("block", d, dict(phi.coeffs),
                                 report.witnesses[:1]))
        for phi in battery:
            for psi in battery:
                top = phi.height() + psi.height() + 2
                defect = product_defect(phi, psi, analytic_window(d, top))
                if not defect.is_zero():
                    failures.append(("defect", d, dict(phi.coeffs),
                                     dict(psi.coeffs),
                                     defect.nonzero_witnesses(1)))
    finish(5, "block decomposition and product defect", started, failures)


def test_criterion_6_compactness_diagnostics():
    """eta kills the rank-one for j >= 2; eta of T_{s_1} stays >= 0.5."""
    started = time.perf_counter()
    failures = []
    window = analytic_window(2, 12)
    e10 = Partition((1, 0))
    rank_one = FiniteRank(2, [(e10, e10, ComplexRational(1))])
    for j in (2, 3, 4):
        report = eta(rank_one, j, window)
        if not report.passed:
            failures.append(("rank-one eta nonzero", j))
    t = Toeplitz(elementary(2, 1))
    for j in (1, 2, 3, 4):
        report = eta(t, j, window)
        if report.details["blockNorm"] < 0.5:
            failures.append(("toeplitz eta too small", j, report.details["blockNorm"]))
    finish(6, "compactness diagnostics", started, failures, budget=60.0)


def test_criterion_7_norm_convergence():
    """Windowed norms of T_{s_1} increase to the sampled sup norm 2."""
    started = time.perf_counter()
    failures = []
    phi = elementary(2, 1)
    norms = []
    for top in (4, 8, 16, 20):
        win = analytic_window(2, top)
        norms.append(norm_estimate(assemble(Toeplitz(phi), win, win),
                                   iterations=300))
    for lo, hi in zip(norms, norms[1:]):
        if lo > hi + 1e-9:
            failures.append(("monotonicity", norms))
    if norms[-1] < 1.9:  # threshold frozen from the first baseline run
        failures.append(("final norm below 1.9", norms[-1]))
    sampled, _ = phi.sup_norm_sampled(256)
    if abs(sampled - 2.0) > 1e-3:
        failures.append(("sampled sup", sampled))
    finish(7, "norm convergence", started, failures)


def test_criterion_8_gamma_checkers_and_solver():
    """100 syntheses pass, perturbations fail with margin; solver dims match."""
    started = time.perf_counter()
    failures = []
    for k in range(100):
        rng = np.random.default_rng(5000 + k)
        # d = 3: the relations R_2 = R_1* U and R_1 = R_2* U compare
        # distinct matrices, so a +0.1 entry perturbation leaves an exact
        # 0.1 residual in one of them regardless of the seed.
        d = 3
        n = 3
        if k % 2 == 0:
            q = np.eye(n, dtype=complex)
        else:
            q = unitary_group.rvs(n, random_state=900 + k)
        us = [q @ np.diag(np.exp(2j * np.pi * rng.random(n))) @ q.conj().T
              for _ in range(d)]
        t = synth_gamma_unitary(us)
        report = check_gamma_unitary(t, tol=1e-8)
        if not report.passed:
            failures.append(("clean synthesis failed", k, worst_failure(report)))
        mats = [m.copy() for m in t.mats]
        mats[0][0, 0] += 0.1
        perturbed = check_gamma_unitary(GammaTuple(d, tuple(mats)), tol=1e-8)
        if perturbed.passed:
            failures.append(("perturbation accepted", k))
        elif worst_failure(perturbed) < 0.05:
            failures.append(("perturbation margin too small", k,
                             worst_failure(perturbed)))
    for k in range(50):
        rng = np.random.default_rng(7000 + k)
        n = 2 if k % 2 == 0 else 3
        mats = tuple(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                     for _ in range(2))
        got = len(s_toeplitz_solve(GammaTuple(2, mats)))
        want = kron_nullspace_dimension(list(mats))
        if got != want:
            failures.append(("solver dimension mismatch", k, got, want))
    finish(8, "gamma checkers and solver", started, failures, budget=30.0)


def test_criterion_9_membership_oracles():
    """Symmetrized polydisk points pass; off-disk coordinates fail by > 0.05."""
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(424242)
    d = 3
    inside = 0
    for _ in range(1000):
        zs = np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        if point_in_gamma(symmetrize_point(zs)).passed:
            inside += 1
    if inside != 1000:
        failures.append(("interior failures", 1000 - inside))
    bad_margins = []
    for _ in range(1000):
        zs = np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        spot = rng.integers(0, d)
        zs[spot] = 1.1 * np.exp(2j * np.pi * rng.random())
        report = point_in_gamma(symmetrize_point(zs))
        if report.passed or report.details["margin"] <= 0.05:
            bad_margins.append(report.details["margin"])
    if bad_margins:
        failures.append(("off-disk points not rejected", len(bad_margins),
                         bad_margins[:3]))
    finish(9, "membership oracles", started, failures)

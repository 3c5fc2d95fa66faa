"""The four benchmark workloads, each a list of checks with their oracles.

A check is one call that returns one verdict.  ``call`` is the timed
library work; ``verify`` runs afterwards, untimed, and returns ``None``
when the result matches the known mathematical answer or a short reason
when it does not.  Library functions are looked up on the ``symtoep``
module at call time, so the traced run sees every call through its
wrappers, and every operator is built inside the call, so column caches
start cold on every check, as they do for a user.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import inputs
import symtoep as st
import symtoep.cli


# Supports, and where a rank-one perturbation sits, set how much work a
# check does, so they come from this fixed stream and are the same for
# every seed; the run's seed draws the coefficients, points and tuples.
SHAPE_SEED = 0


@dataclass(frozen=True)
class Check:
    name: str
    call: Callable[[], object]
    verify: Callable[[object], "str | None"]
    tag: str = ""


def _call(name: str, *args):
    """symtoep.<name>(*args), looked up now so a traced run sees its wrapper."""
    return getattr(st, name)(*args)


def _raised(fn, exc_type):
    """Run fn; return the exception if it raised exc_type, else the result."""
    try:
        return fn()
    except exc_type as exc:
        return exc


# -- bh-battery ------------------------------------------------------------------


def _all_zero(count: int, residuals) -> "str | None":
    if len(residuals) != count:
        return f"expected {count} residual matrices, got {len(residuals)}"
    for i, m in enumerate(residuals, start=1):
        if not m.is_zero():
            return f"residual {i} nonzero at {m.nonzero_witnesses(1)}"
    return None


def _shift_witnessed(d: int, j: int, residuals) -> "str | None":
    """Y_j fails every coordinate relation with an exact witness; the final one holds."""
    if len(residuals) != d:
        return f"expected {d} residual matrices, got {len(residuals)}"
    if not residuals[-1].is_zero():
        return "final relation T_p* Y T_p = Y fails"
    y = st.ShiftY(d, j)
    for i, m in enumerate(residuals[:-1], start=1):
        witnesses = m.nonzero_witnesses(1)
        if not witnesses:
            return f"coordinate residual {i} is zero"
        q, p, v = witnesses[0]
        if st.bh_residual_entry(y, i, q, p) != v:
            return f"witness {witnesses[0]} disagrees with the entry route"
    if (d, j) == (2, 1):
        q, p, v = residuals[0].nonzero_witnesses(1)[0]
        if (tuple(q), tuple(p), v) != ((2, 1), (1, 0), st.ComplexRational(1)):
            return f"witness {(q, p, v)} is not ((2,1), (1,0), 1)"
    return None


def _toeplitz_residuals(phi, window):
    return st.bh_residuals(st.Toeplitz(phi), window)


def _dual_residuals(phi, window):
    return st.dual_bh_residuals(st.DualToeplitz(phi), window)


def _shift_residuals(d, j, window):
    return st.bh_residuals(st.ShiftY(d, j), window)


def bh_battery(seed: int, tmp: str) -> list:
    """Exact Brown-Halmos residuals: d=2, 3, 4 batteries, dual d=2 and 3, shifts."""
    checks = []
    # The 32 fast d=2 checks move p50 into the dense run of d=3, dual d=3
    # and small d=4 checks (about 30-47 ms) and p90 into a run of similar
    # d=4 checks; without them both quantiles sat at the edge of a gap in
    # the check times, where run-to-run noise moved them by up to 40%.
    for d in (2, 3, 4):
        window = st.analytic_window(d, 6)
        for k, phi in enumerate(inputs.symbol_battery(d)):
            checks.append(Check(f"bh d={d} #{k}",
                                partial(_toeplitz_residuals, phi, window),
                                partial(_all_zero, d)))
    for d in (2, 3):
        window = st.dual_window(d, 3, -3)
        for k, phi in enumerate(inputs.symbol_battery(d)):
            checks.append(Check(f"dual-bh d={d} #{k}",
                                partial(_dual_residuals, phi, window),
                                partial(_all_zero, d)))
    for d in (2, 3, 4):
        window = st.analytic_window(d, 6)
        for j in range(1, d):
            checks.append(Check(f"bh shiftY({d},{j})",
                                partial(_shift_residuals, d, j, window),
                                partial(_shift_witnessed, d, j)))
    # the seed fixes the order; the set of checks is the same for every seed
    random.Random(seed).shuffle(checks)
    return checks


# -- recovery --------------------------------------------------------------------


def _recover_toeplitz(phi, bound):
    return st.recover_symbol(st.Toeplitz(phi).entry, phi.d, bound)


def _same_coeffs(phi, recovered) -> "str | None":
    if recovered.coeffs != phi.coeffs:
        return f"recovered {recovered.coeffs} != {phi.coeffs}"
    return None


def _rejected(out) -> "str | None":
    if isinstance(out, st.NotToeplitzError):
        return None
    return f"non-Toeplitz oracle accepted as {out!r}"


def _zero_oracle(q, p):
    return st.ComplexRational(0)


def _reject_shift(d, j):
    return _raised(lambda: st.recover_symbol(st.ShiftY(d, j).entry, d, 2),
                   st.NotToeplitzError)


def _reject_perturbed(phi, rank_one):
    oracle = st.OpSum([st.Toeplitz(phi), rank_one]).entry
    return _raised(lambda: st.recover_symbol(oracle, phi.d, 1), st.NotToeplitzError)


def recovery(seed: int, tmp: str) -> list:
    """recover_symbol on entry oracles: criterion 2, random symbols, rejections."""
    rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
    checks = []
    for d in (2, 3):
        for k, phi in enumerate(inputs.symbol_battery(d)):
            bound = max(phi.height(), 1)
            checks.append(Check(f"recover battery d={d} #{k}",
                                partial(_recover_toeplitz, phi, bound),
                                partial(_same_coeffs, phi), tag="criterion2"))
    checks.append(Check(
        "recover zero oracle",
        partial(_call, "recover_symbol", _zero_oracle, 2, 2),
        partial(_same_coeffs, st.zero_symbol(2)), tag="criterion2"))
    # d=3 height-1 symbols sit between the fast d=2 checks and the slow
    # height-2 ones; with 16 of them the median falls mid-way through that
    # cluster, not near the gap below it
    for d, height, count in ((3, 1, 16), (3, 2, 3)):
        for k in range(count):
            phi = inputs.symbol_on(rng, d, inputs.random_support(shapes, d, height, 3))
            checks.append(Check(f"recover random d={d} h={height} #{k}",
                                partial(_recover_toeplitz, phi, height),
                                partial(_same_coeffs, phi)))
    for d, j in ((2, 1), (3, 1), (3, 2)):
        checks.append(Check(f"reject shiftY({d},{j})",
                            partial(_reject_shift, d, j), _rejected))
    for d in (2, 2, 3, 3):
        phi = inputs.symbol_on(rng, d, inputs.random_support(shapes, d, 1, 2))
        rank_one = inputs.rank_one_perturbation(shapes, rng, d, 1)
        checks.append(Check(f"reject toeplitz+rank-one d={d}",
                            partial(_reject_perturbed, phi, rank_one), _rejected))
    return checks


# -- defect-rational -------------------------------------------------------------


def _defect_zero(m) -> "str | None":
    return None if m.is_zero() else f"defect nonzero at {m.nonzero_witnesses(1)}"


def _blocks_ok(report) -> "str | None":
    return None if report.passed else f"blocks {report.block_ok}"


def _classified(analytic: bool, report) -> "str | None":
    if not report.consistent or report.commutes_with_all != analytic:
        return f"classification {report.to_json_dict()} for analytic={analytic}"
    return None


def defect_rational(seed: int, tmp: str) -> list:
    """Product defect, block decomposition and classification, rational symbols."""
    rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
    checks = []
    # 16 d=2 and 6 d=3 symbols put p50 inside the d=2 checks and p90 inside
    # the slow d=3 ones, away from the gaps between clusters of check times
    for d, height, count in ((2, 2, 16), (3, 2, 6)):
        group = [inputs.symbol_on(rng, d, inputs.random_support(
                     shapes, d, height, 3, analytic=(k % 2 == 0)), rational=True)
                 for k in range(count)]
        for k, phi in enumerate(group):
            psi = group[(k + 1) % count]
            top = phi.height() + psi.height() + 2
            checks.append(Check(
                f"defect d={d} #{k}",
                partial(_call, "product_defect", phi, psi, st.analytic_window(d, top)),
                _defect_zero))
            h = phi.height()
            checks.append(Check(
                f"block d={d} #{k}",
                partial(_call, "block_decomposition_check", phi,
                        st.enumerate_window(d, h + 2, -(h + 2))),
                _blocks_ok))
            checks.append(Check(
                f"classify d={d} #{k}",
                partial(_call, "classify_analytic", phi, st.analytic_window(d, h + d + 2)),
                partial(_classified, k % 2 == 0)))
    return checks


# -- cli-suites ------------------------------------------------------------------

_SUITES = ("brown-halmos", "analytic", "defect", "block", "dual-brown-halmos",
           "lift", "decay", "eta")
# eta of a nonzero Toeplitz operator contains T itself as its (d, d) block,
# so it is never zero and the suite exits 1; every other suite holds.
_SYMBOL_EXIT = {suite: 1 if suite == "eta" else 0 for suite in _SUITES}


def _cli(argv):
    """Run symtoep.cli.main in-process; return (exit code, stdout text).

    The report is captured in memory, not written with --out: on the
    reference machine a file write added about 1.5 ms to the median
    `gamma member` call (itself about 3 ms) and doubled its p90, so the
    disk, not the front end, would have set this workload's p50.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = st.cli.main(argv)
    return code, buffer.getvalue()


def _cli_report(expected_code: int, check_report, outcome) -> "str | None":
    code, text = outcome
    if code != expected_code:
        return f"exit {code}, expected {expected_code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"no readable report: {exc}"
    return check_report(report)


def _no_extra_check(report):
    return None


def _zero_norms(report) -> "str | None":
    return None if all(x == 0.0 for x in report["norms"]) else f"norms {report['norms']}"


def _lift_bounds(phi, report) -> "str | None":
    """Lift norms nondecreasing, Toeplitz <= Laurent, both <= the l1 norm of
    the symbol; the sampled sup lies between |phi(1,...,1)| (a grid point)
    and that l1 norm."""
    tol = 1e-9
    l1 = sum(abs(c.to_complex()) * inputs.orbit_size(m) for m, c in phi.coeffs.items())
    at_one = abs(sum(c.to_complex() * inputs.orbit_size(m) for m, c in phi.coeffs.items()))
    rows = report["details"]["windows"]
    t_norms = [r["toeplitzNorm"] for r in rows]
    l_norms = [r["laurentNorm"] for r in rows]
    if any(a > b + tol for a, b in zip(t_norms, t_norms[1:])) or \
            any(a > b + tol for a, b in zip(l_norms, l_norms[1:])):
        return f"lift norms not monotone: {t_norms} {l_norms}"
    if any(t > lo + tol for t, lo in zip(t_norms, l_norms)):
        return f"Toeplitz norm above Laurent norm: {t_norms} {l_norms}"
    if max(l_norms) > l1 + tol:
        return f"Laurent norm {max(l_norms)} above l1 bound {l1}"
    sup = report["details"]["sampledSup"]
    if not at_one - tol <= sup <= l1 + tol:
        return f"sampled sup {sup} outside [{at_one}, {l1}]"
    return None


def _decay_dies(report) -> "str | None":
    # the commutator [T_phi, T_{s_i}] lives on indices with last entry below
    # height(phi), so conjugating by T_p^4 kills it for height <= 4
    if report["details"]["finalExactZero"] and report["norms"][-1] == 0.0:
        return None
    return f"decay did not reach exact zero: {report['norms']}"


def _positive_norm(floor: float, report) -> "str | None":
    norm = report["norms"][0]
    return None if norm >= floor else f"eta norm {norm} below {floor}"


def _shift_witness(d: int, j: int, report) -> "str | None":
    if not report["witnesses"]:
        return "no witness for the shift"
    if (d, j) == (2, 1):
        want = {"row": [2, 1], "col": [1, 0], "re": "1", "im": "0"}
        if report["witnesses"][0] != want:
            return f"witness {report['witnesses'][0]} != {want}"
    return None


def _membership(inside: bool, report) -> "str | None":
    margin = report["closure"]["margin"]
    if inside and margin > report["config"]["tol"]:
        return f"interior point rejected with margin {margin}"
    if not inside and margin <= 0.05:
        return f"off-disk point margin {margin} <= 0.05"
    return None


def _solution_space(report) -> "str | None":
    # the identity solves the relations of a gamma-unitary tuple
    return None if report["dimension"] >= 1 else "empty S-Toeplitz solution space"


def cli_suites(seed: int, tmp: str) -> list:
    """In-process symtoep.cli.main runs: verify suites, shifts, gamma subcommands."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    checks = []

    def add(name, argv, expected_code, check_report=_no_extra_check):
        checks.append(Check(name, partial(_cli, argv),
                            partial(_cli_report, expected_code, check_report)))

    # The suites take most of a pass and their cost follows the support, so
    # the supports are fixed and only the coefficients follow the seed.  Four
    # d=2 symbols give p90 a plateau of similar d=2 eta and dual checks just
    # below the slow d=3 and decay ones.
    d2_gaussian, d2_rational = [(2, 0), (1, 1), (0, -1)], [(2, -1), (1, 0), (0, -2)]
    symbols = [
        inputs.symbol_on(rng, 2, d2_gaussian),
        inputs.symbol_on(rng, 2, d2_rational, rational=True),
        inputs.symbol_on(rng, 2, d2_gaussian),
        inputs.symbol_on(rng, 2, d2_rational, rational=True),
        inputs.symbol_on(rng, 3, [(1, 0, 0), (1, 0, -1), (0, 0, -1)]),
    ]
    paths = [inputs.write_symbol(tmp, f"phi{k}.json", phi) for k, phi in enumerate(symbols)]
    for k, (phi, path) in enumerate(zip(symbols, paths)):
        partner = paths[k ^ 1] if phi.d == 2 else path
        for suite in _SUITES:
            argv = ["verify", "--suite", suite, "--symbol", path]
            extra = _no_extra_check
            if suite == "defect":
                argv += ["--symbol2", partner]
            if suite in ("brown-halmos", "dual-brown-halmos", "defect"):
                extra = _zero_norms
            elif suite == "lift":
                extra = partial(_lift_bounds, phi)
            elif suite == "decay":
                extra = _decay_dies
            elif suite == "eta":
                extra = partial(_positive_norm, 1e-9)
            add(f"verify {suite} d={phi.d} #{k}", argv, _SYMBOL_EXIT[suite], extra)

    s1 = inputs.write_symbol(tmp, "s1.json", st.elementary(2, 1))
    add("verify eta s_1 d=2", ["verify", "--suite", "eta", "--symbol", s1], 1,
        partial(_positive_norm, 0.5))
    for d, j, suites in ((2, 1, ("brown-halmos", "decay", "eta")),
                         (3, 1, ("brown-halmos",)), (3, 2, ("brown-halmos",))):
        for suite in suites:
            extra = partial(_shift_witness, d, j) if suite == "brown-halmos" else _no_extra_check
            add(f"verify {suite} shiftY{j} d={d}",
                ["verify", "--suite", suite, "--operator", f"shiftY{j}", "--d", str(d)],
                1, extra)

    # 80 `gamma member` calls (about 2 ms each) and the four solve-toeplitz
    # ones make up 84 of the 134 checks, so p50 sits well inside that cluster
    # and not at its edge, next to the slower analytic and check-unitary
    # checks; they also put p90 mid-way through the d=2 eta and dual plateau
    for d in (2, 3):
        inside, outside = inputs.gamma_points(gen, d, 20)
        for k, point in enumerate(inside):
            add(f"gamma member inside d={d} #{k}",
                ["gamma", "member", "--point", inputs.point_text(point)], 0,
                partial(_membership, True))
        for k, point in enumerate(outside):
            add(f"gamma member outside d={d} #{k}",
                ["gamma", "member", "--point", inputs.point_text(point)], 1,
                partial(_membership, False))
    for k, d in enumerate((2, 2, 3, 3)):
        path = inputs.write_tuple(tmp, f"tuple{k}.json", d,
                                  inputs.gamma_unitary_mats(gen, d, 3))
        add(f"gamma check-unitary d={d} #{k}", ["gamma", "check-unitary", "--tuple", path], 0)
        add(f"gamma solve-toeplitz d={d} #{k}", ["gamma", "solve-toeplitz", "--tuple", path], 0,
            _solution_space)
    return checks


WORKLOADS = {
    "bh-battery": bh_battery,
    "recovery": recovery,
    "defect-rational": defect_rational,
    "cli-suites": cli_suites,
}

"""Command-line front end.

Three subcommands:

* ``matrix``  -- assemble one operator matrix on a finite window and emit
  it as CSV or JSON, with exact rational entries.
* ``verify``  -- run one of the verification suites (Brown-Halmos
  residuals, analytic classification, product defect, block
  decomposition, dual relations, lift norms, commutator decay, eta
  diagnostics) and emit a JSON report.
* ``gamma``   -- membership and structure checks for symmetrized-polydisk
  data: point membership, gamma-unitary and gamma-isometry checkers, and
  the S-Toeplitz equation solver.

Exit codes: 0 success, 1 verification failure, 2 input error (a
non-finite tuple entry is one), 3 domain error, 4 internal error (any
other exception).  Output is deterministic for a fixed configuration and
seed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys

import numpy as np

from .errors import DegeneracyError, DomainError, MarginError, NotToeplitzError
from .partitions import Window, analytic_window, dual_window, enumerate_window
from .symbols import Symbol
from .operators import (
    DualToeplitz,
    Hankel,
    Laurent,
    MatrixWindow,
    OperatorSpec,
    ShiftY,
    Toeplitz,
    assemble,
    bh_residuals,
    classify_analytic,
    lift_verify,
    product_defect,
    witness_dict,
)
from .compactness import commutator_decay, eta
from .dual import block_decomposition_check
from .gamma import (
    GammaTuple,
    check_gamma_isometry,
    check_gamma_unitary,
    point_in_bgamma,
    point_in_gamma,
    s_toeplitz_solve,
)


class _InputError(Exception):
    """Bad file, bad JSON, or inconsistent flags; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input helpers


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _read_symbol(path: str, d: int | None) -> Symbol:
    data = _load_json(path)
    try:
        phi = Symbol.from_json_dict(data)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path} is not a valid symbol file: {exc}") from exc
    if d is not None and phi.d != d:
        raise _InputError(
            f"--d {d} disagrees with symbol dimension {phi.d} in {path}"
        )
    return phi


def _read_tuple(path: str) -> GammaTuple:
    data = _load_json(path)
    try:
        return GammaTuple.from_json_dict(data)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path} is not a valid tuple file: {exc}") from exc


def _parse_point(text: str) -> tuple:
    parts = [piece.strip() for piece in text.split(",")]
    if not parts or any(not piece for piece in parts):
        raise _InputError(f"cannot parse point {text!r}")
    values = []
    for piece in parts:
        try:
            value = complex(piece.replace(" ", ""))
        except ValueError as exc:
            raise _InputError(f"bad coordinate {piece!r} in point") from exc
        if not cmath.isfinite(value):
            raise _InputError(f"coordinate {piece!r} in point is not finite")
        values.append(value)
    return tuple(values)


_SHIFT_RE = re.compile(r"shiftY(\d+)")


def _parse_operator(text: str, d: int) -> OperatorSpec:
    match = _SHIFT_RE.fullmatch(text)
    if match is None:
        raise _InputError(f"unknown operator {text!r}; expected shiftY<j>")
    j = int(match.group(1))
    if not 1 <= j <= d - 1:
        raise _InputError(f"shift index {j} out of range 1..{d - 1} for d={d}")
    return ShiftY(d, j)


# ---------------------------------------------------------------------------
# output helpers


def _witness_dicts(matrix: MatrixWindow, limit: int = 5) -> list:
    return [witness_dict(q, p, v) for q, p, v in matrix.nonzero_witnesses(limit)]


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report(payload: dict, out: str | None) -> int:
    """Emit a JSON report; the exit code is 0 if its verdict holds, else 1."""
    _emit(_report_text(payload), out)
    return 0 if payload["verdict"] else 1


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# matrix command


def _matrix_windows(args) -> tuple[Window, Window]:
    d, top = args.d, args.maxtop
    bottom = -top if args.minbottom is None else args.minbottom
    if args.kind in ("toeplitz", "shiftY"):
        win = analytic_window(d, top)
        return win, win
    if args.kind == "laurent":
        win = enumerate_window(d, top, bottom)
        return win, win
    if args.kind == "hankel":
        return dual_window(d, top, bottom), analytic_window(d, top)
    win = dual_window(d, top, bottom)
    return win, win


def _check_maxtop(maxtop: int | None) -> None:
    if maxtop is not None and maxtop < 0:
        raise _InputError(f"--maxtop must be >= 0, got {maxtop}")


def _check_grid(grid: int) -> None:
    if grid < 1:
        raise _InputError(f"--grid must be >= 1, got {grid}")


def _cmd_matrix(args) -> int:
    _check_maxtop(args.maxtop)
    if args.kind == "shiftY":
        if args.j is None:
            raise _InputError("--kind shiftY requires --j")
        op: OperatorSpec = ShiftY(args.d, args.j)
    else:
        if args.symbol is None:
            raise _InputError(f"--kind {args.kind} requires --symbol")
        phi = _read_symbol(args.symbol, args.d)
        op = {
            "toeplitz": Toeplitz,
            "laurent": Laurent,
            "hankel": Hankel,
            "dual": DualToeplitz,
        }[args.kind](phi)
    rows, cols = _matrix_windows(args)
    matrix = assemble(op, rows, cols)
    if args.format == "csv":
        _emit(matrix.to_csv_text(), args.out)
    else:
        config = {
            "command": "matrix",
            "kind": args.kind,
            "d": args.d,
            "maxtop": args.maxtop,
            "minbottom": args.minbottom,
            "symbol": args.symbol,
            "j": args.j,
        }
        _emit(_report_text({"config": config, "matrix": matrix.to_json_dict()}),
              args.out)
    return 0


# ---------------------------------------------------------------------------
# verify command


def _suite_brown_halmos(args, phi, op, window):
    # the window's side picks the Toeplitz or the dual relations
    residuals = bh_residuals(op, window)
    witnesses = [w for res in residuals for w in _witness_dicts(res)]
    norms = [res.max_abs() for res in residuals]
    return all(res.is_zero() for res in residuals), witnesses, norms, {
        "residual_count": len(residuals)
    }


def _suite_analytic(args, phi, op, window):
    report = classify_analytic(phi, window)
    witnesses = [{"partner": check.partner, **witness_dict(*check.witness)}
                 for check in report.checks if check.witness is not None]
    return report.consistent, witnesses, [], report.to_json_dict()


def _suite_defect(args, phi, op, window):
    psi = phi if args.symbol2 is None else _read_symbol(args.symbol2, phi.d)
    defect = product_defect(phi, psi, window)
    return defect.is_zero(), _witness_dicts(defect), [defect.max_abs()], {}


def _suite_block(args, phi, op, window):
    report = block_decomposition_check(phi, window)
    witnesses = [{"block": name, "row": list(q), "col": list(p)}
                 for name, q, p in report.witnesses]
    return report.passed, witnesses, [], report.to_json_dict()


def _suite_lift(args, phi, op, window):
    tops = sorted({max(phi.d, args.maxtop // 4),
                   max(phi.d, args.maxtop // 2), args.maxtop})
    # the window for top t is [max(-t, bottom), t], so none reaches below the
    # verify window, which is the one at --maxtop unless its bottom is below -maxtop
    bottom = window.min_bottom
    windows = [window if (t, max(-t, bottom)) == (window.max_top, bottom)
               else enumerate_window(phi.d, t, max(-t, bottom)) for t in tops]
    report = lift_verify(phi, windows, seed=args.seed,
                         grid_size=args.grid, tol=args.tol)
    norms = [row.toeplitz_norm for row in report.rows]
    return report.passed, [], norms, report.to_json_dict()


def _suite_decay(args, phi, op, window):
    report = commutator_decay(op, args.j, 4, window, seed=args.seed)
    return report.final_exact_zero, [], list(report.norms), report.to_json_dict()


def _suite_eta(args, phi, op, window):
    report = eta(op, args.j, window, seed=args.seed)
    return report.is_zero(), [], [report.block_norm], report.to_json_dict()


_SUITES = {
    "brown-halmos": (_suite_brown_halmos, "analytic"),
    "analytic": (_suite_analytic, "analytic"),
    "defect": (_suite_defect, "analytic"),
    "block": (_suite_block, "full"),
    "dual-brown-halmos": (_suite_brown_halmos, "dual"),
    "lift": (_suite_lift, "full"),
    "decay": (_suite_decay, "analytic"),
    "eta": (_suite_eta, "analytic"),
}

_SYMBOL_ONLY = {"analytic", "defect", "block", "lift"}


def _default_maxtop(suite: str, phi: Symbol | None, d: int) -> int:
    height = 1 if phi is None else max(phi.height(), 1)
    if suite == "analytic":
        return height + d + 2
    if suite == "defect":
        return 2 * height + 2
    if suite in ("block", "lift"):
        return height + 2
    if suite == "eta":
        return height + d + 4
    if suite == "decay":
        return height + d + 8
    return height + 4


def _cmd_verify(args) -> int:
    runner, window_kind = _SUITES[args.suite]
    _check_maxtop(args.maxtop)
    _check_grid(args.grid)
    phi = None
    op: OperatorSpec | None = None
    if args.symbol is not None:
        phi = _read_symbol(args.symbol, args.d)
        d = phi.d
        if args.suite == "dual-brown-halmos":
            op = DualToeplitz(phi)
        else:
            op = Toeplitz(phi)
    if args.operator is not None:
        if args.suite in _SYMBOL_ONLY:
            raise _InputError(f"suite {args.suite} requires --symbol")
        if args.d is None:
            raise _InputError("--operator requires --d")
        d = args.d
        op = _parse_operator(args.operator, d)
        phi = None
    if op is None:
        raise _InputError("verify requires --symbol or --operator")

    top = args.maxtop if args.maxtop is not None else _default_maxtop(
        args.suite, phi, d)
    args.maxtop = top
    bottom = -top if args.minbottom is None else args.minbottom
    if window_kind == "analytic":
        window = analytic_window(d, top)
    elif window_kind == "dual":
        window = dual_window(d, top, bottom)
    else:
        window = enumerate_window(d, top, bottom)
    if not len(window):
        raise MarginError(
            f"the {window_kind} window for d={d} is empty; widen --maxtop/--minbottom")

    verdict, witnesses, norms, details = runner(args, phi, op, window)
    config = {
        "command": "verify",
        "suite": args.suite,
        "d": d,
        "maxtop": top,
        "minbottom": bottom if window_kind != "analytic" else None,
        "symbol": args.symbol,
        "symbol2": args.symbol2,
        "operator": args.operator,
        "j": args.j,
        "tol": args.tol,
        "seed": args.seed,
        "grid": args.grid,
    }
    return _report({
        "check": args.suite,
        "config": config,
        "verdict": verdict,
        "witnesses": witnesses,
        "norms": norms,
        "details": details,
    }, args.out)


# ---------------------------------------------------------------------------
# gamma command


def _cmd_gamma_member(args) -> int:
    point = _parse_point(args.point)
    if args.d is not None and len(point) != args.d:
        raise _InputError(
            f"--d {args.d} disagrees with point length {len(point)}")
    closure = point_in_gamma(point, tol=args.tol)
    boundary = point_in_bgamma(point, tol=args.tol)
    return _report({
        "check": "gamma-member",
        "config": {"command": "gamma member", "point": args.point,
                   "d": len(point), "boundary": args.boundary,
                   "tol": args.tol},
        "verdict": boundary.in_set if args.boundary else closure.in_set,
        "closure": closure.to_json_dict(),
        "boundary": boundary.to_json_dict(),
    }, args.out)


def _cmd_gamma_check_unitary(args) -> int:
    t = _read_tuple(args.tuple)
    report = check_gamma_unitary(t, tol=args.tol, seed=args.seed)
    return _report({
        "check": "gamma-unitary",
        "config": {"command": "gamma check-unitary", "tuple": args.tuple,
                   "tol": args.tol, "seed": args.seed},
        "verdict": report.passed,
        "details": report.to_json_dict(),
    }, args.out)


def _cmd_gamma_check_isometry(args) -> int:
    _check_grid(args.grid)
    t = _read_tuple(args.tuple)
    report = check_gamma_isometry(t, tol=args.tol, grid_size=args.grid)
    return _report({
        "check": "gamma-isometry",
        "config": {"command": "gamma check-isometry", "tuple": args.tuple,
                   "tol": args.tol, "grid": args.grid},
        "verdict": report.passed,
        "details": report.to_json_dict(),
    }, args.out)


def _cmd_gamma_solve(args) -> int:
    t = _read_tuple(args.tuple)
    basis = s_toeplitz_solve(t, tol=args.tol)
    mats = [[[float(np.real(v)), float(np.imag(v))] for v in row.flat]
            for row in basis]
    shapes = [list(b.shape) for b in basis]
    return _report({
        "check": "s-toeplitz-solve",
        "config": {"command": "gamma solve-toeplitz", "tuple": args.tuple,
                   "tol": args.tol},
        "verdict": True,
        "dimension": len(basis),
        "basis_shapes": shapes,
        "basis": mats,
    }, args.out)


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="numerical tolerance (exact checks ignore it)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for randomized estimates")
    parser.add_argument("--out", default=None,
                        help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtoep",
        description="Exact operator matrices and verification suites for "
                    "the Hardy space of the symmetrized polydisk.")
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="assemble one operator matrix")
    matrix.add_argument("--kind", required=True,
                        choices=["toeplitz", "laurent", "hankel", "dual",
                                 "shiftY"])
    matrix.add_argument("--symbol", default=None,
                        help="symbol JSON file (all kinds except shiftY)")
    matrix.add_argument("--j", type=int, default=None,
                        help="shift index for --kind shiftY")
    matrix.add_argument("--d", type=int, required=True)
    matrix.add_argument("--maxtop", type=int, required=True)
    matrix.add_argument("--minbottom", type=int, default=None,
                        help="lower window bound (default -maxtop)")
    matrix.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(matrix)
    matrix.set_defaults(func=_cmd_matrix)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    verify.add_argument("--symbol", default=None)
    verify.add_argument("--symbol2", default=None,
                        help="second factor for --suite defect")
    verify.add_argument("--operator", default=None,
                        help="named operator, e.g. shiftY1")
    verify.add_argument("--d", type=int, default=None)
    verify.add_argument("--maxtop", type=int, default=None)
    verify.add_argument("--minbottom", type=int, default=None)
    verify.add_argument("--j", type=int, default=1,
                        help="shift/partner index for eta and decay")
    verify.add_argument("--grid", type=int, default=128,
                        help="torus sampling grid size")
    _add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    gamma = sub.add_parser("gamma", help="symmetrized-polydisk checks")
    gsub = gamma.add_subparsers(dest="action", required=True)

    member = gsub.add_parser("member", help="point membership in Gamma_d")
    member.add_argument("--point", required=True,
                        help="comma-separated coordinates, e.g. '0,-1'")
    member.add_argument("--d", type=int, default=None)
    member.add_argument("--boundary", action="store_true",
                        help="test distinguished-boundary membership")
    _add_common(member)
    member.set_defaults(func=_cmd_gamma_member)

    unitary = gsub.add_parser("check-unitary")
    unitary.add_argument("--tuple", required=True, help="tuple JSON file")
    _add_common(unitary)
    unitary.set_defaults(func=_cmd_gamma_check_unitary)

    isometry = gsub.add_parser("check-isometry")
    isometry.add_argument("--tuple", required=True, help="tuple JSON file")
    isometry.add_argument("--grid", type=int, default=16)
    _add_common(isometry)
    isometry.set_defaults(func=_cmd_gamma_check_isometry)

    solve = gsub.add_parser("solve-toeplitz")
    solve.add_argument("--tuple", required=True, help="tuple JSON file")
    _add_common(solve)
    solve.set_defaults(func=_cmd_gamma_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take non-negative seeds only
            raise _InputError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotToeplitzError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, MarginError, DegeneracyError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means a verification failure, never a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

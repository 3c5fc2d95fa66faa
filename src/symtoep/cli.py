"""Command-line front end.

Three subcommands:

* ``matrix``  -- assemble one operator matrix on a finite window and emit
  it as CSV or JSON, with exact rational entries.
* ``verify``  -- run one of the verification suites (Brown-Halmos
  residuals, analytic classification, product defect, block
  decomposition, dual relations, lift norms, commutator decay, eta
  diagnostics) and emit a JSON report.
* ``gamma``   -- membership and structure checks for symmetrized-polydisk
  data: point membership, gamma-unitary and gamma-isometry decisions
  (a gamma-isometry on C^n is a gamma-unitary), and the S-Toeplitz
  equation solver.

Exit codes: 0 success, 1 verification failure, 2 input error (a
non-finite tuple entry is one, and so is a NaN, negative or infinite
--tol), 3 domain error, 4 internal error (any other exception).  Output
is deterministic for a fixed configuration and seed.
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
    Report,
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


def _shift(d: int, j: int) -> ShiftY:
    if not 1 <= j <= d - 1:
        raise _InputError(f"shift index {j} out of range 1..{d - 1} for d={d}")
    return ShiftY(d, j)


def _parse_operator(text: str, d: int) -> OperatorSpec:
    match = _SHIFT_RE.fullmatch(text)
    if match is None:
        raise _InputError(f"unknown operator {text!r}; expected shiftY<j>")
    return _shift(d, int(match.group(1)))


# ---------------------------------------------------------------------------
# output helpers


def _witness_dicts(matrix: MatrixWindow) -> list:
    return [witness_dict(q, p, v) for q, p, v in matrix.nonzero_witnesses()]


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report(payload: dict, out: str | None) -> int:
    """Emit a JSON report; the exit code is 0 if its verdict holds, else 1."""
    _emit(_report_text(payload), out)
    return 0 if payload["verdict"] else 1


def _config(args, **computed) -> dict:
    """A report's config: the command and action, every parsed option but
    --out and --format, and the values the command computed from them."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("func", "out", "format", "action")}
    config["command"] = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    return {**config, **computed}


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


def _window(kind: str, d: int, top: int, bottom: int) -> Window:
    """The analytic, dual or full window up to top; the analytic one ignores bottom."""
    if kind == "analytic":
        return analytic_window(d, top)
    return (dual_window if kind == "dual" else enumerate_window)(d, top, bottom)


def _reject_unread(args, flag: str, chosen: str, readers: dict) -> None:
    """Reject the options given to a --kind or --suite that does not read
    them; readers maps each option to the kinds or suites that do."""
    unread = [f"{option} is read only by {flag} {'/'.join(sorted(names))}, "
              f"not by {flag} {chosen}"
              for option, names in readers.items()
              if getattr(args, option[2:]) is not None and chosen not in names]
    if unread:
        raise _InputError("; ".join(unread))


def _check_maxtop(maxtop: int | None) -> None:
    if maxtop is not None and maxtop < 0:
        raise _InputError(f"--maxtop must be >= 0, got {maxtop}")


# --kind: operator class, row window kind, column window kind
_KINDS = {
    "toeplitz": (Toeplitz, "analytic", "analytic"),
    "laurent": (Laurent, "full", "full"),
    "hankel": (Hankel, "dual", "analytic"),
    "dual": (DualToeplitz, "dual", "dual"),
    "shiftY": (ShiftY, "analytic", "analytic"),
}


def _cmd_matrix(args) -> int:
    _reject_unread(args, "--kind", args.kind, {
        "--symbol": [k for k, (cls, _, _) in _KINDS.items() if cls is not ShiftY],
        "--j": ["shiftY"],
        "--minbottom": [k for k, (_, rows, cols) in _KINDS.items() if {rows, cols} != {"analytic"}],
    })
    _check_maxtop(args.maxtop)
    op_class, row_kind, col_kind = _KINDS[args.kind]
    if op_class is ShiftY:
        if args.j is None:
            raise _InputError("--kind shiftY requires --j")
        op: OperatorSpec = _shift(args.d, args.j)
    else:
        if args.symbol is None:
            raise _InputError(f"--kind {args.kind} requires --symbol")
        op = op_class(_read_symbol(args.symbol, args.d))
    d, top = args.d, args.maxtop
    bottom = -top if args.minbottom is None else args.minbottom
    rows, cols = _window(row_kind, d, top, bottom), _window(col_kind, d, top, bottom)
    matrix = assemble(op, rows, cols)
    if args.format == "csv":
        _emit(matrix.to_csv_text(), args.out)
    else:
        _emit(_report_text({"config": _config(args), "matrix": matrix.to_json_dict()}),
              args.out)
    return 0


# ---------------------------------------------------------------------------
# verify command


def _suite_brown_halmos(args, phi, op, window) -> Report:
    # the window's side picks the Toeplitz or the dual relations
    residuals = bh_residuals(op, window)
    return Report(all(res.is_zero() for res in residuals),
                  {"residual_count": len(residuals)},
                  [w for res in residuals for w in _witness_dicts(res)],
                  [res.max_abs() for res in residuals])


def _suite_defect(args, phi, op, window) -> Report:
    psi = phi if args.symbol2 is None else _read_symbol(args.symbol2, None)
    if psi.d != phi.d:
        raise _InputError(f"--symbol2 dimension {psi.d} in {args.symbol2} disagrees "
                          f"with --symbol dimension {phi.d} in {args.symbol}")
    defect = product_defect(phi, psi, window)
    return Report(defect.is_zero(), {}, _witness_dicts(defect), [defect.max_abs()])


def _suite_lift(args, phi, op, window) -> Report:
    top = window.max_top
    tops = sorted({max(phi.d, top // 4), max(phi.d, top // 2), top})
    # the window for top t is [max(-t, bottom), t], so none reaches below the
    # verify window, which is the one at --maxtop unless its bottom is below -maxtop
    bottom = window.min_bottom
    windows = [window if (t, max(-t, bottom)) == (top, bottom)
               else enumerate_window(phi.d, t, max(-t, bottom)) for t in tops]
    return lift_verify(phi, windows, seed=args.seed, grid_size=args.grid, tol=args.tol)


# suite: runner, window kind, the operator --symbol builds (None: the suite
# reads only the symbol), the default --maxtop from the height h and d, and
# the options of _SUITE_OPTIONS it reads.  A runner takes (args, phi, op,
# window) and returns the check's Report; it looks its library function up
# when it runs, so a function patched on this module after import is the one
# called.
_SUITES = {
    "brown-halmos": (_suite_brown_halmos, "analytic", Toeplitz, lambda h, d: h + 4, ()),
    "analytic": (lambda args, phi, op, w: classify_analytic(phi, w),
                 "analytic", None, lambda h, d: h + d + 2, ()),
    "defect": (_suite_defect, "analytic", None, lambda h, d: 2 * h + 2, ("--symbol2",)),
    "block": (lambda args, phi, op, w: block_decomposition_check(phi, w),
              "full", None, lambda h, d: h + 2, ("--minbottom",)),
    "dual-brown-halmos": (_suite_brown_halmos, "dual", DualToeplitz, lambda h, d: h + 4,
                          ("--minbottom",)),
    "lift": (_suite_lift, "full", None, lambda h, d: h + 2, ("--minbottom", "--grid", "--seed")),
    "decay": (lambda args, phi, op, w: commutator_decay(op, args.j, 4, w, seed=args.seed),
              "analytic", Toeplitz, lambda h, d: h + d + 8, ("--j", "--seed")),
    "eta": (lambda args, phi, op, w: eta(op, args.j, w, seed=args.seed),
            "analytic", Toeplitz, lambda h, d: h + d + 4, ("--j", "--seed")),
}
# the verify options only some suites read, and the value each takes when it
# is not given; the report's config echoes that value for every suite
_SUITE_OPTIONS = {"--symbol2": None, "--minbottom": None, "--j": 1, "--grid": 128, "--seed": 42}


def _check_j(suite: str, j: int, d: int) -> None:
    """--j is the partner index 1..d-1 of decay and the power >= 0 of eta."""
    if suite == "decay" and not 1 <= j <= d - 1:
        raise _InputError(f"--j {j} out of range 1..{d - 1} for --suite decay at d={d}")
    if suite == "eta" and j < 0:
        raise _InputError(f"--j must be >= 0 for --suite eta, got {j}")


def _cmd_verify(args) -> int:
    runner, window_kind, op_class, default_top, _ = _SUITES[args.suite]
    _reject_unread(args, "--suite", args.suite,
                   {option: [s for s, entry in _SUITES.items() if option in entry[-1]]
                    for option in _SUITE_OPTIONS})
    for option, value in _SUITE_OPTIONS.items():
        if getattr(args, option[2:]) is None:
            setattr(args, option[2:], value)
    _check_maxtop(args.maxtop)
    if args.grid < 1:
        raise _InputError(f"--grid must be >= 1, got {args.grid}")
    if args.symbol is not None:
        phi = _read_symbol(args.symbol, args.d)
        d = phi.d
        op = None if op_class is None else op_class(phi)
    else:
        if op_class is None:
            raise _InputError(f"suite {args.suite} requires --symbol")
        if args.d is None:
            raise _InputError("--operator requires --d")
        d, phi = args.d, None
        op = _parse_operator(args.operator, d)
    _check_j(args.suite, args.j, d)

    height = 1 if phi is None else max(phi.height(), 1)
    top = args.maxtop if args.maxtop is not None else default_top(height, d)
    bottom = -top if args.minbottom is None else args.minbottom
    window = _window(window_kind, d, top, bottom)
    if not len(window):
        raise MarginError(
            f"the {window_kind} window for d={d} is empty; widen --maxtop/--minbottom")

    report = runner(args, phi, op, window)
    return _report({
        "check": args.suite,
        "config": _config(args, d=d, maxtop=top,
                          minbottom=None if window_kind == "analytic" else bottom),
        "verdict": report.passed,
        "witnesses": report.witnesses,
        "norms": report.norms,
        "details": report.details,
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
        "config": _config(args, d=len(point)),
        "verdict": (boundary if args.boundary else closure).passed,
        "closure": closure.details,
        "boundary": boundary.details,
    }, args.out)


def _tuple_check(args, report: Report) -> int:
    return _report({
        "check": report.details["check"],
        "config": _config(args),
        "verdict": report.passed,
        "details": report.details,
    }, args.out)


def _cmd_gamma_check_unitary(args) -> int:
    t = _read_tuple(args.tuple)
    return _tuple_check(args, check_gamma_unitary(t, tol=args.tol, seed=args.seed))


def _cmd_gamma_check_isometry(args) -> int:
    t = _read_tuple(args.tuple)
    return _tuple_check(args, check_gamma_isometry(t, tol=args.tol))


def _cmd_gamma_solve(args) -> int:
    t = _read_tuple(args.tuple)
    basis = s_toeplitz_solve(t, tol=args.tol)
    mats = [[[float(np.real(v)), float(np.imag(v))] for v in row.flat]
            for row in basis]
    shapes = [list(b.shape) for b in basis]
    return _report({
        "check": "s-toeplitz-solve",
        "config": _config(args),
        "verdict": True,
        "dimension": len(basis),
        "basis_shapes": shapes,
        "basis": mats,
    }, args.out)


# ---------------------------------------------------------------------------
# parser


_OPTIONS = {
    "--tol": dict(type=float, default=1e-9,
                  help="numerical tolerance (exact checks ignore it)"),
    "--out": dict(default=None, help="write output to this path instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared options a subcommand reads."""
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


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
    _add_options(matrix, "--out")
    matrix.set_defaults(func=_cmd_matrix)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    subject = verify.add_mutually_exclusive_group(required=True)
    subject.add_argument("--symbol", default=None)
    subject.add_argument("--operator", default=None,
                         help="named operator, e.g. shiftY1")
    verify.add_argument("--symbol2", default=None,
                        help="second factor for --suite defect")
    verify.add_argument("--d", type=int, default=None)
    verify.add_argument("--maxtop", type=int, default=None)
    verify.add_argument("--minbottom", type=int, default=None)
    verify.add_argument("--j", type=int, default=None,
                        help="power for eta, partner index for decay "
                             f"(default {_SUITE_OPTIONS['--j']})")
    verify.add_argument("--grid", type=int, default=None,
                        help="torus sampling grid size for lift "
                             f"(default {_SUITE_OPTIONS['--grid']})")
    verify.add_argument("--seed", type=int, default=None,
                        help="seed for the norm estimates of decay, eta and lift "
                             f"(default {_SUITE_OPTIONS['--seed']})")
    _add_options(verify, "--tol", "--out")
    verify.set_defaults(func=_cmd_verify)

    gamma = sub.add_parser("gamma", help="symmetrized-polydisk checks")
    gsub = gamma.add_subparsers(dest="action", required=True)

    member = gsub.add_parser("member", help="point membership in Gamma_d")
    member.add_argument("--point", required=True,
                        help="comma-separated coordinates, e.g. '0,-1'")
    member.add_argument("--d", type=int, default=None)
    member.add_argument("--boundary", action="store_true",
                        help="test distinguished-boundary membership")
    _add_options(member, "--tol", "--out")
    member.set_defaults(func=_cmd_gamma_member)

    unitary = gsub.add_parser("check-unitary")
    unitary.add_argument("--tuple", required=True, help="tuple JSON file")
    unitary.add_argument("--seed", type=int, default=42,
                         help="seed for the random combination it diagonalizes")
    _add_options(unitary, "--tol", "--out")
    unitary.set_defaults(func=_cmd_gamma_check_unitary)

    isometry = gsub.add_parser("check-isometry")
    isometry.add_argument("--tuple", required=True, help="tuple JSON file")
    _add_options(isometry, "--tol", "--out")
    isometry.set_defaults(func=_cmd_gamma_check_isometry)

    solve = gsub.add_parser("solve-toeplitz")
    solve.add_argument("--tuple", required=True, help="tuple JSON file")
    _add_options(solve, "--tol", "--out")
    solve.set_defaults(func=_cmd_gamma_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's generators take non-negative seeds only; verify's is None
        # when not given
        if (getattr(args, "seed", None) or 0) < 0:
            raise _InputError(f"--seed must be >= 0, got {args.seed}")
        # a NaN, negative or infinite tolerance fails or passes every check
        if not 0.0 <= getattr(args, "tol", 0.0) < cmath.inf:
            raise _InputError(f"--tol must be finite and >= 0, got {args.tol}")
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

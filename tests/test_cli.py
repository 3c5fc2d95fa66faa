"""Command-line interface: formats, verdicts, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from symtoep import GammaTuple, analytic_window, elementary, synth_gamma_unitary
from symtoep.cli import main
from symtoep.symbols import MAX_TERM_EVALUATIONS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def s1_file(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(elementary(2, 1).to_json_dict()))
    return str(path)


@pytest.fixture()
def selfadj_file(tmp_path):
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi.to_json_dict()))
    return str(path)


@pytest.fixture()
def unitary_tuple_file(tmp_path):
    rng = np.random.default_rng(2)
    q = unitary_group.rvs(3, random_state=6)
    us = [q @ np.diag(np.exp(2j * np.pi * rng.random(3))) @ q.conj().T
          for _ in range(2)]
    t = synth_gamma_unitary(us)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(t.to_json_dict()))
    return str(path), t


def run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv_golden(s1_file, capsys):
    code, out, _ = run_main(
        ["matrix", "--kind", "toeplitz", "--symbol", s1_file,
         "--d", "2", "--maxtop", "2"], capsys)
    assert code == 0
    assert out == "row;col;re;im\n1;0;1;0\n2;1;1;0\n"


def test_matrix_shift_is_permutation_like(capsys):
    code, out, _ = run_main(
        ["matrix", "--kind", "shiftY", "--j", "1", "--d", "2",
         "--maxtop", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert lines  # nonempty
    cols = set()
    for line in lines:
        row, col, re, im = line.split(";")
        assert (re, im) == ("1", "0")
        assert col not in cols  # at most one entry per column
        cols.add(col)


def test_matrix_empty_window(s1_file, capsys):
    code, out, _ = run_main(
        ["matrix", "--kind", "toeplitz", "--symbol", s1_file,
         "--d", "2", "--maxtop", "0"], capsys)
    assert code == 0
    assert out == "row;col;re;im\n"


def test_matrix_json_format(s1_file, capsys):
    code, out, _ = run_main(
        ["matrix", "--kind", "toeplitz", "--symbol", s1_file,
         "--d", "2", "--maxtop", "3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["config"]["kind"] == "toeplitz"
    assert data["matrix"]["exact"] is True
    assert {"row": 1, "col": 0, "re": "1", "im": "0"} in data["matrix"]["entries"]


def test_matrix_kind_needs_symbol(capsys):
    code, _, err = run_main(
        ["matrix", "--kind", "toeplitz", "--d", "2", "--maxtop", "3"], capsys)
    assert code == 2
    assert "symbol" in err


def test_verify_brown_halmos_passes(selfadj_file, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "brown-halmos", "--symbol", selfadj_file], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "brown-halmos"
    assert report["verdict"] is True
    assert report["witnesses"] == []
    assert report["norms"] == [0.0, 0.0]
    assert report["config"]["tol"] == 1e-9
    assert report["config"]["seed"] == 42


def _assert_shift_fails_with_witness(margin, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "brown-halmos", "--operator", "shiftY1",
         "--d", "2"] + margin, capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    first = report["witnesses"][0]
    assert (first["row"], first["col"]) == ([2, 1], [1, 0])


def test_verify_shift_fails_with_witness(capsys):
    _assert_shift_fails_with_witness([], capsys)


# --maxtop 1 leaves the window {(1,0)}, which holds no nonzero residual row
def test_verify_shift_fails_with_witness_on_thin_window(capsys):
    _assert_shift_fails_with_witness(["--maxtop", "1"], capsys)


@pytest.mark.parametrize("suite", ["analytic", "defect", "block",
                                   "dual-brown-halmos", "lift", "decay"])
def test_verify_suites_pass_for_selfadjoint_symbol(suite, selfadj_file, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", suite, "--symbol", selfadj_file], capsys)
    assert code == 0, out
    assert json.loads(out)["verdict"] is True


def test_verify_defect_two_symbols(s1_file, selfadj_file, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "defect", "--symbol", s1_file,
         "--symbol2", selfadj_file], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_eta_reports_nonzero_for_toeplitz(s1_file, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "eta", "--symbol", s1_file, "--j", "2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["norms"][0] > 0.5


def test_verify_margin_error_exit_code(selfadj_file, capsys):
    code, _, err = run_main(
        ["verify", "--suite", "analytic", "--symbol", selfadj_file,
         "--maxtop", "1"], capsys)
    assert code == 3
    assert "domain error" in err


def test_verify_missing_inputs(capsys):
    code, _, err = run_main(["verify", "--suite", "brown-halmos"], capsys)
    assert code == 2
    code, _, err = run_main(
        ["verify", "--suite", "brown-halmos", "--operator", "shiftY1"], capsys)
    assert code == 2
    # Y_d is not one of the shifts Y_1..Y_{d-1}
    code, _, err = run_main(
        ["verify", "--suite", "brown-halmos", "--operator", "shiftY2",
         "--d", "2"], capsys)
    assert code == 2
    assert "shift index" in err
    # a symbol and an operator together are rejected before any file is read
    code, out, err = run_main(
        ["verify", "--suite", "brown-halmos", "--symbol", "missing.json",
         "--operator", "shiftY1", "--d", "2"], capsys)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_verify_empty_window_is_not_a_pass(capsys):
    base = ["verify", "--suite", "brown-halmos", "--operator", "shiftY1",
            "--d", "2", "--maxtop"]
    code, out, err = run_main(base + ["0"], capsys)
    assert (code, out) == (3, "")
    assert "domain error" in err
    code, out, err = run_main(base + ["-1"], capsys)
    assert (code, out) == (2, "")
    assert "--maxtop" in err


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_grid_below_one_is_input_error(grid, selfadj_file, unitary_tuple_file, capsys):
    for argv in (["verify", "--suite", "lift", "--symbol", selfadj_file],
                 ["gamma", "check-isometry", "--tuple", unitary_tuple_file[0]]):
        code, out, err = run_main(argv + ["--grid", grid], capsys)
        assert (code, out) == (2, ""), argv
        assert "--grid" in err


def _no_sampling(monkeypatch, *names):
    import symtoep.symbols as symbols

    def no_evaluation(*args):
        raise AssertionError("torus_max evaluated points before counting them")

    for name in names:
        monkeypatch.setattr(symbols, name, no_evaluation)


def test_verify_lift_grid_over_the_sampling_cap_is_domain_error(selfadj_file, capsys,
                                                                monkeypatch):
    import math

    import symtoep.operators as operators

    def no_assembly(*args):
        raise AssertionError("lift assembled windows before sampling the symbol")

    monkeypatch.setattr(operators, "assemble", no_assembly)
    _no_sampling(monkeypatch, "_modulus_kernel")
    # z1 + z2 + conj: 4 lattice terms at C(grid + 1, 2) orbit points, one
    # grid step over the cap (8192 at a cap of 2^27)
    grid = math.isqrt(MAX_TERM_EVALUATIONS // 2)
    while 4 * math.comb(grid + 1, 2) > MAX_TERM_EVALUATIONS:
        grid -= 1
    code, out, err = run_main(
        ["verify", "--suite", "lift", "--symbol", selfadj_file, "--grid", str(grid + 1)], capsys)
    assert (code, out) == (3, "")
    assert "domain error" in err and "sampling cap" in err


def test_verify_lift_certification_over_the_sampling_cap_is_domain_error(tmp_path, capsys,
                                                                         monkeypatch):
    import symtoep.operators as operators

    def no_assembly(*args):
        raise AssertionError("lift assembled windows before sampling the symbol")

    monkeypatch.setattr(operators, "assemble", no_assembly)
    _no_sampling(monkeypatch, "_grid_chunks", "_candidate_points")
    # |z1 z2 z3 z4| = 1: every orbit point is a candidate, so the orbit pass
    # (C(131, 4) points, one term) fits and certifying on the whole 128^4
    # grid does not
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"d": 4, "terms": [{"m": [1, 1, 1, 1], "re": "1", "im": "0"}]}))
    code, out, err = run_main(["verify", "--suite", "lift", "--symbol", str(path)], capsys)
    assert (code, out) == (3, "")
    assert "domain error" in err and "whole 128^4 grid" in err and "sampling cap" in err


def test_gamma_check_isometry_grid_over_the_sampling_cap_is_domain_error(
        unitary_tuple_file, capsys, monkeypatch):
    _no_sampling(monkeypatch, "_modulus_kernel")
    # a d = 2 tuple samples a grid in d - 1 = 1 variable, and its first
    # battery monomial x1 has one term: one grid point over the cap
    path, t = unitary_tuple_file
    assert t.d == 2
    code, out, err = run_main(
        ["gamma", "check-isometry", "--tuple", path, "--grid", str(MAX_TERM_EVALUATIONS + 1)],
        capsys)
    assert (code, out) == (3, "")
    assert "domain error" in err and "sampling cap" in err


def test_verify_window_over_the_cap_is_domain_error(selfadj_file, capsys, monkeypatch):
    import types

    import symtoep.partitions as partitions

    def no_enumeration(*args):
        raise AssertionError("verify enumerated a window before checking its size")

    monkeypatch.setattr(partitions, "itertools", types.SimpleNamespace(combinations=no_enumeration))
    # C(100001, 2), about 5 * 10^9 window members
    code, out, err = run_main(
        ["verify", "--suite", "brown-halmos", "--symbol", selfadj_file, "--maxtop", "100000"],
        capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "window cap" in err
    assert "Traceback" not in err


def test_matrix_window_over_the_entry_cap_is_domain_error(capsys, monkeypatch):
    import types

    import symtoep.partitions as partitions

    def no_enumeration(*args):
        raise AssertionError("matrix enumerated a window before counting its entries")

    monkeypatch.setattr(partitions, "itertools", types.SimpleNamespace(combinations=no_enumeration))
    # C(100001, 100000) = 100001 members of 100000 entries each
    code, out, err = run_main(
        ["matrix", "--kind", "shiftY", "--j", "1", "--d", "100000", "--maxtop", "100000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "10000100000 entries" in err
    assert "window cap" in err


def test_verify_eta_over_the_eta_cap_is_domain_error(selfadj_file, capsys, monkeypatch):
    import symtoep.compactness as compactness

    def no_assembly(*args):
        raise AssertionError("eta assembled a block before counting the stack")

    monkeypatch.setattr(compactness, "assemble", no_assembly)
    # the default eta window of a height-1 d = 2 symbol: maxtop 1 + 2 + 4
    n = len(analytic_window(2, 7))
    monkeypatch.setattr(compactness, "MAX_ETA_ENTRIES", (2 * n) ** 2 - 1)
    code, out, err = run_main(["verify", "--suite", "eta", "--symbol", selfadj_file], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "eta cap" in err


def test_verify_lift_over_the_dense_cap_is_domain_error(capsys, monkeypatch):
    from pathlib import Path

    import symtoep.operators as operators
    from symtoep import MatrixWindow, Symbol

    def no_work(*args):
        raise AssertionError("lift sampled or built a matrix before counting its windows")

    monkeypatch.setattr(operators, "assemble", no_work)
    monkeypatch.setattr(MatrixWindow, "to_dense", no_work)
    monkeypatch.setattr(Symbol, "sup_norm_sampled", no_work)
    # enumerate_window(3, 20, -20): C(41, 3) = 10660 members, under the window
    # cap, but a dense matrix of about 1.1 * 10^8 entries (1.8 GB)
    phi3 = Path(__file__).parent / "golden" / "phi3.json"
    code, out, err = run_main(
        ["verify", "--suite", "lift", "--symbol", str(phi3), "--maxtop", "20"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "113635600 entries" in err
    assert "dense cap" in err


@pytest.mark.parametrize("extra", [[], ["--maxtop", "7"], ["--maxtop", "7", "--minbottom", "-4"]])
def test_verify_lift_enumerates_each_window_once(extra, capsys, monkeypatch):
    from collections import Counter
    from pathlib import Path

    import symtoep.cli as cli

    calls = Counter()
    real = cli.enumerate_window

    def counting(d, max_top, min_bottom):
        calls[d, max_top, min_bottom] += 1
        return real(d, max_top, min_bottom)

    monkeypatch.setattr(cli, "enumerate_window", counting)
    phi3 = Path(__file__).parent / "golden" / "phi3.json"
    code, out, _ = run_main(["verify", "--suite", "lift", "--symbol", str(phi3)] + extra,
                            capsys)
    assert code == 0
    report = json.loads(out)
    # the window for top t is [max(-t, bottom), t]: --minbottom bounds each
    bottom = report["config"]["minbottom"]
    windows = [(row["maxTop"], row["minBottom"]) for row in report["details"]["windows"]]
    assert windows == [(t, max(-t, bottom)) for t, _ in windows]
    assert {(3, t, b) for t, b in windows} <= set(calls)
    assert set(calls.values()) == {1}, calls


def test_verify_symbol_over_the_lattice_cap_is_domain_error(tmp_path, capsys, monkeypatch):
    import symtoep.symbols as symbols

    def no_enumeration(*args):
        raise AssertionError("verify enumerated an orbit expansion before counting it")

    monkeypatch.setattr(symbols, "orbit_permutations", no_enumeration)
    # one d = 12 orbit of 12! points
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"d": 12, "terms": [
        {"m": list(range(11, -1, -1)), "re": "1", "im": "0"}]}))
    code, out, err = run_main(
        ["verify", "--suite", "brown-halmos", "--symbol", str(path), "--maxtop", "12"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "lattice cap" in err


def test_gamma_solve_over_the_solver_cap_is_domain_error(tmp_path, capsys, monkeypatch):
    import symtoep.gamma as gamma

    def no_blocks(*args):
        raise AssertionError("solve-toeplitz built a block before counting the system")

    monkeypatch.setattr(gamma.np, "kron", no_blocks)
    # d = 2 and 33 x 33 matrices: an SVD of (2 * 33^2)^2, about 4.7 * 10^6 entries
    n = 33
    t = GammaTuple(2, (np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(t.to_json_dict()))
    code, out, err = run_main(["gamma", "solve-toeplitz", "--tuple", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "solver cap" in err


def test_matrix_negative_maxtop_is_input_error(s1_file, capsys):
    code, out, err = run_main(
        ["matrix", "--kind", "toeplitz", "--symbol", s1_file,
         "--d", "2", "--maxtop", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "--maxtop" in err


# default --maxtop of every suite, as a function of the input: phi.json and
# phi3.json have height 1; a symbol-only suite refuses --operator with exit 2,
# and ShiftY has no columns on the dual window, so it exits 3
_SYMBOL_D2, _SYMBOL_D3 = ["--symbol", str(GOLDEN / "phi.json")], ["--symbol", str(GOLDEN / "phi3.json")]
_SHIFT = ["--operator", "shiftY1", "--d", "2"]


@pytest.mark.parametrize("suite,source,code,maxtop", [
    ("brown-halmos", _SYMBOL_D2, 0, 5), ("brown-halmos", _SYMBOL_D3, 0, 5),
    ("brown-halmos", _SHIFT, 1, 5),
    ("analytic", _SYMBOL_D2, 0, 5), ("analytic", _SYMBOL_D3, 0, 6), ("analytic", _SHIFT, 2, None),
    ("defect", _SYMBOL_D2, 0, 4), ("defect", _SYMBOL_D3, 0, 4), ("defect", _SHIFT, 2, None),
    ("block", _SYMBOL_D2, 0, 3), ("block", _SYMBOL_D3, 0, 3), ("block", _SHIFT, 2, None),
    ("dual-brown-halmos", _SYMBOL_D2, 0, 5), ("dual-brown-halmos", _SYMBOL_D3, 0, 5),
    ("dual-brown-halmos", _SHIFT, 3, None),
    ("lift", _SYMBOL_D2, 0, 3), ("lift", _SYMBOL_D3, 0, 3), ("lift", _SHIFT, 2, None),
    ("decay", _SYMBOL_D2, 0, 11), ("decay", _SYMBOL_D3, 0, 12), ("decay", _SHIFT, 1, 11),
    ("eta", _SYMBOL_D2, 1, 7), ("eta", _SYMBOL_D3, 1, 8), ("eta", _SHIFT, 1, 7),
])
def test_verify_default_maxtop(suite, source, code, maxtop, capsys):
    got, out, _ = run_main(["verify", "--suite", suite] + source, capsys)
    assert got == code
    assert (json.loads(out)["config"]["maxtop"] if out else None) == maxtop


def test_verify_decay_passes_seed(selfadj_file, capsys, monkeypatch):
    import symtoep.cli as cli

    seen = []
    real = cli.commutator_decay

    def spy(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "commutator_decay", spy)
    code, out, _ = run_main(
        ["verify", "--suite", "decay", "--symbol", selfadj_file,
         "--seed", "7"], capsys)
    assert code == 0
    assert seen == [7]
    assert json.loads(out)["config"]["seed"] == 7


def test_gamma_member_boundary_point(capsys):
    code, out, _ = run_main(
        ["gamma", "member", "--point", "0,-1", "--d", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["closure"]["inSet"] is True
    assert report["boundary"]["inSet"] is True

    code, out, _ = run_main(
        ["gamma", "member", "--point", "0,0", "--boundary"], capsys)
    assert code == 1
    assert json.loads(out)["boundary"]["inSet"] is False


def test_gamma_member_rejects_garbage(capsys):
    code, _, err = run_main(
        ["gamma", "member", "--point", "zebra,1"], capsys)
    assert code == 2
    for point in ("nan,0", "1e400,0", "0,inf"):
        code, out, err = run_main(["gamma", "member", "--point", point], capsys)
        assert (code, out) == (2, ""), point
        assert "not finite" in err


def test_gamma_check_unitary_cli(unitary_tuple_file, tmp_path, capsys):
    path, t = unitary_tuple_file
    code, out, _ = run_main(["gamma", "check-unitary", "--tuple", path], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] is True

    bad = [m.copy() for m in t.mats]
    bad[0][0, 0] += 0.1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(GammaTuple(2, tuple(bad)).to_json_dict()))
    code, out, _ = run_main(
        ["gamma", "check-unitary", "--tuple", str(bad_path)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] is False


_TUPLE_TEXT = ('{"d": 2, "mats": [[[[0, 0], [X, 0]], [[X, 0], [0, 0]]], '
               '[[[X, 0], [0, 0]], [[0, 0], [X, 0]]]]}')


@pytest.mark.parametrize("action", ["check-unitary", "check-isometry",
                                    "solve-toeplitz"])
@pytest.mark.parametrize("entry,code,message", [
    ("NaN", 2, "error: "),
    ("Infinity", 2, "error: "),
    # finite, but the norms overflow double precision: a domain error
    ("1e308", 3, "domain error: "),
])
def test_gamma_tuple_bad_entries_exit_codes(action, entry, code, message,
                                            tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(_TUPLE_TEXT.replace("X", entry))
    got, out, err = run_main(["gamma", action, "--tuple", str(path)], capsys)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1].startswith(message)


def test_gamma_solve_toeplitz_cli(tmp_path, capsys):
    t = GammaTuple(2, (np.diag([2.0, 0.0]).astype(complex),
                       np.diag([1.0, -1.0]).astype(complex)))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(t.to_json_dict()))
    code, out, _ = run_main(
        ["gamma", "solve-toeplitz", "--tuple", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 2
    assert report["basis_shapes"] == [[2, 2], [2, 2]]


def test_missing_file_is_input_error(capsys):
    code, _, err = run_main(
        ["matrix", "--kind", "toeplitz", "--symbol", "/nonexistent.json",
         "--d", "2", "--maxtop", "2"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_byte_identical_reruns(selfadj_file, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run_main(
            ["verify", "--suite", "lift", "--symbol", selfadj_file,
             "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_subprocess(s1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "symtoep.cli", "matrix", "--kind", "toeplitz",
         "--symbol", s1_file, "--d", "2", "--maxtop", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("row;col;re;im")


def test_argparse_rejects_unknown_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "bogus", "--d", "2", "--maxtop", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["matrix", "--kind", "shiftY", "--j", "1", "--d", "2", "--maxtop", "2", "--tol", "1e-9"],
    ["matrix", "--kind", "shiftY", "--j", "1", "--d", "2", "--maxtop", "2", "--seed", "1"],
    ["gamma", "member", "--point", "0,0", "--seed", "1"],
    ["gamma", "check-isometry", "--tuple", "tuple.json", "--seed", "1"],
    ["gamma", "solve-toeplitz", "--tuple", "tuple.json", "--seed", "1"],
])
def test_an_option_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_overflowing_modulus_prints_only_the_domain_error(tmp_path):
    # numpy's overflow warning, with its source line, once reached stderr first
    path = tmp_path / "big.json"
    path.write_text('{"d": 2, "terms": [{"m": [1, 0], "re": "1e308", "im": "0"}]}')
    proc = subprocess.run(
        [sys.executable, "-m", "symtoep.cli", "verify", "--suite", "lift",
         "--maxtop", "3", "--symbol", str(path)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("domain error: ")

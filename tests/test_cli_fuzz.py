"""Fuzz of the CLI contract: no input crashes `main` or escapes every cap.

Every MAX_* size cap is patched down to 2^10, so the cap paths fire
cheaply and no example allocates much.  Inputs are mutated symbol and
tuple files (wrong types, non-square or non-finite matrices, huge
exponents, d up to 20) and extreme flag values.  Whatever the input,
`main` must exit 0 (pass), 1 (verification failure), 2 (bad input) or
3 (domain error), and never print a traceback or an internal error.
"""

import contextlib
import importlib
import io
import json
import math
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symtoep
from symtoep import ComplexRational, cli

CAP = 2 ** 10
MODULES = [importlib.import_module(f"symtoep.{info.name}")
           for info in pkgutil.iter_modules(symtoep.__path__)]
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

def mostly(ordinary, odd):
    """ordinary five times in six, so that many examples hold one odd input
    and reach the code behind the input checks with it"""
    return st.sampled_from([False] * 5 + [True]).flatmap(lambda odd_one: odd if odd_one else ordinary)


extreme = st.sampled_from([-(2 ** 63), -10 ** 6, -1, 2 ** 31, 2 ** 63, 10 ** 30])
# JSON numbers no command-line flag can carry
odd_number = st.sampled_from([math.inf, -math.inf, math.nan, 2.5, 1e300])
flag_value = mostly(st.integers(0, 6), st.integers(-2, 12) | extreme)
# --maxtop and --grid: a negative one is rejected before any work
size_flag = mostly(st.integers(1, 6), st.integers(-1, 12) | extreme)
dimension = mostly(st.integers(2, 4), st.integers(-1, 20) | odd_number)
clean_text = st.one_of(st.sampled_from(["0", "1", "-1/2", "3/4", "0.5", "2e3", "1e400"]),
                       st.fractions(max_denominator=10 ** 6).map(str))
odd_text = st.sampled_from(["nan", "inf", "1/0", "x", "", "1e-400", "1e999999999"])
odd_entry = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324])
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3), st.just({}),
)
file_kind = mostly(st.just("doc"), st.sampled_from(["missing", "not-json"]))


@st.composite
def symbol_docs(draw):
    d = draw(dimension)
    # one draw per document decides whether its exponents and coefficients may be odd
    exponent = draw(mostly(st.just(st.integers(-2, 2)),
                           st.just(st.integers(-2, 2) | extreme | odd_number)))
    text = draw(mostly(st.just(clean_text), st.just(clean_text | odd_text)))
    length = max(d, 0) if isinstance(d, int) else 2
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        m = sorted(draw(st.lists(exponent, min_size=length, max_size=length)), reverse=True)
        terms.append({"m": m, "re": draw(text), "im": draw(text)})
    return {"d": d, "terms": terms}


@st.composite
def tuple_docs(draw):
    d = draw(dimension)
    n = draw(st.integers(1, 3))
    values = draw(mostly(st.just(st.floats(-2, 2)), st.just(st.floats(-2, 2) | odd_entry)))
    rows = draw(mostly(st.just(n), st.just(n + 1)))  # n + 1 rows: not square
    mats = []
    for _ in range(max(d, 0) if isinstance(d, int) else 2):
        mats.append([[[draw(values), draw(values)] for _ in range(n)] for _ in range(rows)])
    return {"d": d, "mats": mats}


def _paths(doc, here=()):
    yield here
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, here + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, here + (k,))


def _replace(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replace(doc[head], rest, value)}
    return [_replace(v, rest, value) if k == head else v for k, v in enumerate(doc)]


@st.composite
def mutated(draw, docs):
    """A document with up to two of its nodes replaced by values of the wrong kind."""
    doc = draw(docs)
    for _ in range(draw(mostly(st.just(0), st.integers(1, 2)))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(junk))
    return doc


def _flag(draw, name, values):
    value = draw(st.none() | values)
    return [] if value is None else [name, str(value)]


@st.composite
def argvs(draw):
    """(argv, files): a command line and the JSON documents its paths name."""
    files = {}

    def symbol_path(name):
        choice = draw(file_kind)
        files[name] = draw(mutated(symbol_docs())) if choice == "doc" else choice
        return name

    def symbol_d(name):
        # mostly the symbol's own dimension, which --d must match
        doc = files[name]
        own = doc.get("d") if isinstance(doc, dict) else None
        return str(draw(flag_value if own is None else mostly(st.just(own), flag_value)))

    command = draw(st.sampled_from(["matrix", "verify", "gamma"]))
    if command == "matrix":
        kind = draw(st.sampled_from(["toeplitz", "laurent", "hankel", "dual", "shiftY"]))
        argv = ["matrix", "--kind", kind, "--maxtop", str(draw(size_flag))]
        if kind != "shiftY" or draw(st.booleans()):
            argv += ["--symbol", symbol_path("phi.json"), "--d", symbol_d("phi.json")]
        else:
            argv += ["--d", str(draw(flag_value))]
        if kind == "shiftY" and draw(st.integers(0, 3)):
            argv += ["--j", str(draw(st.integers(1, 3) | flag_value))]
        else:
            argv += _flag(draw, "--j", flag_value)
        argv += _flag(draw, "--minbottom", flag_value)
        argv += _flag(draw, "--format", st.sampled_from(["csv", "json"]))
    elif command == "verify":
        argv = ["verify", "--suite", draw(st.sampled_from(sorted(cli._SUITES)))]
        operator = draw(st.sampled_from([None, None, "shiftY1", "shiftY2", "shiftY0",
                                         "shiftY99", "shift"]))
        if operator is None or draw(st.integers(0, 3)) == 0:
            argv += ["--symbol", symbol_path("phi.json")]
            if draw(st.booleans()):
                argv += ["--d", symbol_d("phi.json")]
        else:
            argv += ["--operator", operator, "--d", str(draw(flag_value))]
        if draw(st.booleans()):
            argv += ["--symbol2", symbol_path("psi.json")]
        argv += _flag(draw, "--maxtop", size_flag)
        argv += _flag(draw, "--grid", size_flag)
        for name in ("--minbottom", "--j"):
            argv += _flag(draw, name, flag_value)
    else:
        action = draw(st.sampled_from(["member", "check-unitary", "check-isometry",
                                       "solve-toeplitz"]))
        argv = ["gamma", action]
        if action == "member":
            coords = draw(st.lists(st.sampled_from(["0", "-1", "1j", "0.5+0.5j", "2", "1e308",
                                                    "nan", "x", ""]), max_size=20))
            argv += ["--point=" + ",".join(coords)]
            argv += _flag(draw, "--d", flag_value)
            if draw(st.booleans()):
                argv.append("--boundary")
        else:
            choice = draw(file_kind)
            files["tuple.json"] = draw(mutated(tuple_docs())) if choice == "doc" else choice
            argv += ["--tuple", "tuple.json"]
    # each option only where the command reads it; argparse rejects it elsewhere
    if argv[:2] == ["gamma", "check-unitary"] or command == "verify":
        argv += _flag(draw, "--seed", flag_value)
    if command != "matrix":
        argv += _flag(draw, "--tol", mostly(st.just(1e-9), st.sampled_from([0.0, -1.0, math.nan,
                                                                             math.inf])))
    return argv, files


def _run(argv, files, directory):
    for name, doc in files.items():
        path = directory / name
        path.unlink(missing_ok=True)
        if doc == "not-json":
            path.write_text("{not json", encoding="utf-8")
        elif doc != "missing":
            path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        for module in MODULES:
            for name in dir(module):
                if name.startswith("MAX_"):
                    mp.setattr(module, name, CAP)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_cap_is_patched():
    names = {name for module in MODULES for name in dir(module) if name.startswith("MAX_")}
    assert names >= {"MAX_WINDOW_ENTRIES", "MAX_INDEX_PERMUTATIONS", "MAX_TERM_EVALUATIONS",
                     "MAX_LATTICE_TERMS", "MAX_SOLVE_ENTRIES", "MAX_DENSE_ENTRIES"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(case=argvs())
def test_cli_exit_codes_hold_under_fuzz(case, fuzz_dir):
    argv, files = case
    code, out, err = _run(argv, files, fuzz_dir)
    assert code in (0, 1, 2, 3), (argv, files, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, files, err)
    if code < 2:
        _check_report(argv, out)


def _no_constant(name):
    raise AssertionError(f"report holds the non-JSON number {name}")


def _check_report(argv, out):
    """A report is strict JSON, or `row;col;re;im` CSV of exact rationals
    from `matrix` in its default format."""
    if argv[0] == "matrix" and "json" not in argv:
        header, *rows = out.splitlines()
        assert header == "row;col;re;im", out
        for row in rows:
            i, j, re, im = row.split(";")
            assert int(i) >= 0 and int(j) >= 0 and ComplexRational.from_strings(re, im), row
    else:
        json.loads(out, parse_constant=_no_constant)


def _identity_tuple(d):
    return {"d": d, "mats": [[[[1.0, 0.0]]]] * d}


# inputs the fuzz has found; each once crashed `main`, hung it or ran unbounded
@pytest.mark.parametrize("argv,files,code", [
    (["verify", "--suite", "brown-halmos", "--operator", "shiftY1", "--d", str(2 ** 31)],
     {}, 3),
    (["verify", "--suite", "analytic", "--symbol", "phi.json"],
     {"phi.json": {"d": 2, "terms": [{"m": [0, -(2 ** 63)], "re": "0", "im": "1"}]}}, 3),
    (["verify", "--suite", "lift", "--symbol", "phi.json", "--maxtop", str(2 ** 63)],
     {"phi.json": {"d": 10 ** 20, "terms": []}}, 3),
    (["verify", "--suite", "analytic", "--symbol", "phi.json"],
     {"phi.json": {"d": math.inf, "terms": []}}, 2),
    (["verify", "--suite", "analytic", "--symbol", "phi.json"],
     {"phi.json": {"d": 2, "terms": [{"m": [math.inf, 0], "re": "1", "im": "0"}]}}, 2),
    (["matrix", "--kind", "toeplitz", "--symbol", "phi.json", "--d", "2", "--maxtop", "2"],
     {"phi.json": {"d": 2, "terms": [{"m": [1, 0], "re": "1e999999999", "im": "0"}]}}, 2),
    (["gamma", "check-unitary", "--tuple", "tuple.json"], {"tuple.json": {"d": math.inf}}, 2),
    (["gamma", "check-unitary", "--tuple", "tuple.json", "--seed", "-1"],
     {"tuple.json": _identity_tuple(2)}, 2),
    # the identity tuple is a gamma-isometry at any d
    (["gamma", "check-isometry", "--tuple", "tuple.json"],
     {"tuple.json": _identity_tuple(10)}, 0),
    # z1^(10^30) overflows the power table: no NaN sampledSup may pass
    (["verify", "--suite", "lift", "--symbol", "phi.json", "--maxtop", "3", "--grid", "8"],
     {"phi.json": {"d": 2, "terms": [{"m": [10 ** 30, 0], "re": "1", "im": "0"}]}}, 3),
    # a finite exact coefficient beyond double range
    (["verify", "--suite", "eta", "--symbol", "phi.json", "--maxtop", "2"],
     {"phi.json": {"d": 2, "terms": [{"m": [1, 0], "re": "1e400", "im": "0"}]}}, 3),
    (["verify", "--suite", "lift", "--symbol", "phi.json", "--maxtop", "3", "--grid", "8"],
     {"phi.json": {"d": 2, "terms": [{"m": [1, 0], "re": "1e400", "im": "0"}]}}, 3),
    # a coefficient in double range whose modulus is not
    (["verify", "--suite", "lift", "--symbol", "phi.json", "--maxtop", "3", "--grid", "8"],
     {"phi.json": {"d": 2, "terms": [{"m": [1, 0], "re": "1.5e308", "im": "1.5e308"}]}}, 3),
    # A^*A overflows in the norm estimate: no NaN norm may pass
    (["verify", "--suite", "decay", "--symbol", "phi.json", "--maxtop", "3"],
     {"phi.json": {"d": 2, "terms": [{"m": [1, 0], "re": "1e300", "im": "0"},
                                     {"m": [1, -1], "re": "1e300", "im": "0"}]}}, 3),
    # the boundary relation defect overflows: no infinite margin may pass
    (["gamma", "member", "--point", "1e308,1e308"], {}, 3),
    # a shift index out of range is bad input, as it is for `verify --operator`
    (["matrix", "--kind", "shiftY", "--j", "2", "--d", "2", "--maxtop", "3"], {}, 2),
    (["matrix", "--kind", "shiftY", "--j", "0", "--d", "2", "--maxtop", "3"], {}, 2),
    (["matrix", "--kind", "shiftY", "--j", "1", "--d", "1", "--maxtop", "3"], {}, 2),
])
def test_fuzz_findings_exit_cleanly(argv, files, code, tmp_path):
    got, out, err = _run(argv, files, tmp_path)
    # only a report, printed with exit 0 or 1, goes to stdout
    assert (got, out == "") == (code, code > 1), err
    assert "Traceback" not in err and "internal error" not in err

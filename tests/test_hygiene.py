"""Static checks on the source tree: no unused import, no unread private name,
no default of a private function that no call sets, and no public name that
only tests read.

All four read the modules with `ast` and import nothing.  Re-exports in
`symtoep/__init__.py` and `from __future__` imports are not uses a scan can
see, so they are skipped.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "symtoep").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree: ast.AST) -> set:
    """Every name the module reads: bare names, attribute names and names
    imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_imports(path: Path) -> list:
    tree = _tree(path)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_every_private_module_name_in_src_is_read():
    trees = {path: _tree(path) for path in SOURCES}
    read = set().union(*map(_reads, trees.values()))
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


def _passes(call: ast.Call, name: str, arg: str, index) -> bool:
    """Whether the call is to `name` and sets its parameter `arg`, by keyword,
    by position `index` (None for keyword-only) or through * or ** unpacking."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
        return False
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_keyword_default_of_a_private_function_in_src_is_passed():
    """A default that no call in src overrides is a knob that nothing sets."""
    trees = {path: _tree(path) for path in SOURCES}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for path, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(a, i) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unset += [f"{path.name}:{node.lineno} {node.name}({a.arg})" for a, i in defaulted
                      if not any(_passes(call, node.name, a.arg, i) for call in calls)]
    assert unset == []


# Public names with no reader yet in the CLI, the benchmark or a README
# example: the compact-perturbation check and its F_l truncations wait for a
# `verify` suite, and synth_gamma_unitary builds the tuples of the gamma
# tests.  The index and report types reach a caller as what the library
# returns, and shift and orbit_permutations are the index helpers the tests
# build their expectations from.
_UNREAD_PUBLIC = {
    "asymptotic_classify", "el_projection", "f_l_projection", "finite_rank_truncation",
    "truncation_support", "synth_gamma_unitary",
    "BlockReport", "ClassifyReport", "Partition", "SignedPartition",
    "orbit_permutations", "shift",
}


def test_every_public_name_is_read_by_the_cli_the_benchmark_or_the_readme():
    """A public name that only tests read is a test oracle, not library
    surface; bench/tracing.py patches the functions it times by name."""
    public = next(ast.literal_eval(node.value)
                  for node in _tree(ROOT / "src" / "symtoep" / "__init__.py").body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    trees = [_tree(ROOT / "src" / "symtoep" / "cli.py")]
    bench = [_tree(path) for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += bench + [ast.parse(block)
                      for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    read = set().union(*map(_reads, trees))
    read |= {node.value for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(public) - read) == sorted(_UNREAD_PUBLIC)

"""Static checks on the source tree: no unused import, no unread private name,
no default of a private function that no call sets.

All three read the modules with `ast` and import nothing.  Re-exports in
`symtoep/__init__.py` and `from __future__` imports are not uses a scan can
see, so they are skipped.
"""
import ast
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

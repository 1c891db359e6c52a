"""No module imports a name it never uses.

An ``ast`` scan of every Python file under ``src/``, ``tests/``,
``benchmarks/`` and ``examples/``: a name an ``import`` binds counts as
used when the module reads it (a ``Name``, also inside a string
annotation) or lists it in ``__all__``. ``from __future__`` imports are
directives and exempt.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "benchmarks", "examples")


def python_files():
    for tree in TREES:
        for folder, dirs, files in os.walk(os.path.join(ROOT, tree)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def imported_names(module):
    """(bound name, line) of every import in *module*."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(module):
    """Every name *module* reads, plus the entries of its ``__all__``."""
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                used.update(part.value for part in ast.walk(node.value)
                            if isinstance(part, ast.Constant))
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation):
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    try:
                        parsed = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    used.update(n.id for n in ast.walk(parsed)
                                if isinstance(n, ast.Name))
    return used


def unused_imports(path):
    with open(path) as handle:
        module = ast.parse(handle.read(), filename=path)
    used = used_names(module)
    return [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for name, line in imported_names(module) if name not in used]


def test_scan_sees_every_tree():
    files = [os.path.relpath(p, ROOT) for p in python_files()]
    for tree in TREES:
        assert any(f.startswith(tree + os.sep) for f in files), tree


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport sys as system\n"
                    "from json import dumps, loads\n"
                    "from typing import List\n"
                    "def f(x: 'List[int]'):\n    return loads(x)\n")
    assert [line.rsplit(" ", 1)[1] for line in unused_imports(str(path))] \
        == ["os", "system", "dumps"]


@pytest.mark.parametrize("tree", TREES)
def test_no_unused_imports(tree):
    found = [hit for path in python_files()
             if os.path.relpath(path, ROOT).startswith(tree + os.sep)
             for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)

"""Every name has one import path, and every ``__all__`` entry resolves.

A package ``__init__`` holds its docstring and nothing else (the root
also holds ``__version__``): a name is imported from the module that
defines it, so importing one module never loads a package's siblings.

A stale ``__all__`` entry breaks ``from <module> import *`` at import
time, and no test that imports names one by one would notice it.
"""

import ast
import importlib
import os
import pkgutil

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _package_inits():
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        if "__init__.py" in files:
            yield os.path.join(folder, "__init__.py")


def _statements(path):
    """What an ``__init__`` holds, one word per top-level statement."""
    with open(path, encoding="utf-8") as handle:
        body = ast.parse(handle.read()).body
    words = []
    for node in body:
        if (not words and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            words.append("docstring")
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id == "__version__"):
            words.append("__version__")
        else:
            words.append(f"{type(node).__name__} at line {node.lineno}")
    return words


def test_package_inits_hold_only_their_docstring():
    root = os.path.join(SRC, "repro", "__init__.py")
    found = {path: _statements(path) for path in _package_inits()}
    assert root in found and len(found) > 1
    expected = {path: ["docstring", "__version__"] if path == root
                else ["docstring"] for path in found}
    assert found == expected


def test_every_exported_name_resolves():
    stale = []
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                stale.append(f"{module.__name__}.{name}")
    assert checked > 0
    assert stale == []

"""The oracles stay enumerator-free, and no test file leans on another.

``oracles.py`` may import the standard library only, at any depth of
its code, so no prediction it makes can share code with ``nquandles``.
A test file imports the oracles it needs, never another test file."""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def imported_modules(source):
    """Every module an import in ``source`` names, nested ones too: each
    ``import`` name, and for ``from m import a`` both m and m.a, since a
    may be a module.  A relative import keeps its leading dots."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            prefix = module if module.endswith(".") else module + "."
            yield module
            yield from (prefix + alias.name for alias in node.names)


def test_the_import_walk_finds_nested_and_relative_imports():
    source = ("import os.path\n"
              "def f():\n"
              "    from nquandles.enumerator import enumerate_quandle\n"
              "    class C:\n"
              "        import test_pretzels as tp\n"
              "from . import test_census\n")
    assert sorted(imported_modules(source)) == [
        ".", ".test_census", "nquandles.enumerator",
        "nquandles.enumerator.enumerate_quandle", "os.path", "test_pretzels"]


def test_the_oracles_import_only_the_standard_library():
    modules = list(imported_modules((TESTS / "oracles.py").read_text()))
    assert modules
    outside = [m for m in modules if m.startswith(".")
               or m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_no_test_file_imports_another(path):
    modules = imported_modules(path.read_text())
    assert [m for m in modules if any(part.startswith("test_") for part in m.split("."))] == []

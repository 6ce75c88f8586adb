"""Every import in the package is used: a stdlib `ast` check, no linter needed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perpamm"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (a name in `__all__` counts as read)."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import exp, log as ln\n"
              "def f():\n"
              "    import json\n"
              "    return exp(1) + len(os.sep)\n")
    assert unused_imports(source) == ["json", "ln", "osp"]
    assert unused_imports("from math import exp\n__all__ = ['exp']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_module(source: str, module: str) -> bool:
    """Whether the source imports `module` (or one of its submodules) anywhere."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


def test_checker_finds_module_imports():
    assert imports_module("import decimal\n", "decimal")
    assert imports_module("def f():\n    from decimal import Decimal\n", "decimal")
    assert not imports_module("import decimals\nfrom .decimal import x\n", "decimal")


# Decimal parses input (money.to_units, the loaders, the CLI, figure grids and
# prices); the engine, the curves, the oracle and the vault compute in ints and floats.
@pytest.mark.parametrize("name", ["engine.py", "curves.py", "oracle.py", "vault.py"])
def test_computing_modules_do_not_import_decimal(name):
    assert not imports_module((PACKAGE / name).read_text(), "decimal")

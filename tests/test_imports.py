"""Every import in the package is used: a stdlib `ast` check, no linter needed."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perpamm"


def read(path: Path) -> str:
    """A source file's text: UTF-8, whatever the locale's encoding."""
    return path.read_text(encoding="utf-8")


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
    assert unused_imports(read(path)) == []


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


# Decimal holds input numbers: a JSON fraction, which money.to_units converts
# exactly (a string amount is parsed by int()), and the curve tables' flags,
# params and grids. The engine, the curves, the oracle and the vault compute
# in ints (and binary64 inside the raw curves).
@pytest.mark.parametrize("name", ["engine.py", "curves.py", "oracle.py", "vault.py"])
def test_computing_modules_do_not_import_decimal(name):
    assert not imports_module(read(PACKAGE / name), "decimal")


def names_used(source: str) -> set[str]:
    """Every name the source imports, reads, or reads as an attribute."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_checker_finds_names_used():
    source = "from .money import quantize9 as q\nimport perpamm\nperpamm.money.format9(1)\n"
    assert {"quantize9", "format9"} <= names_used(source)
    assert "format9" not in names_used("def f():\n    return 'format9'\n")


# Utilization, skew, rates, fee indices and the share price are int nanos from
# the curve's output to the fee; binary64 quantizing and printing (quantize9,
# format9) stay out of the modules that compute and print them.
@pytest.mark.parametrize("name", ["engine.py", "curves.py", "vault.py", "scenario.py"])
def test_nano_modules_do_not_use_float_quantizing(name):
    assert not {"quantize9", "format9"} & names_used(read(PACKAGE / name))


def feed_names(source: str) -> set[str]:
    """The feed names the source holds as string constants."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in ("primary", "secondary")}


def test_checker_finds_feed_names():
    assert feed_names("x = 'primary'\ndef f(feed='secondary'):\n    pass\n") == {
        "primary", "secondary"}
    assert feed_names('"""The primary feed."""\nx = "primary_feed"\n') == set()
    assert feed_names(read(PACKAGE / "oracle.py")) == {"primary", "secondary"}


# A market settles against exactly two feeds, and `oracle` names them once
# (PRIMARY, SECONDARY); every other module reads those names.
@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "oracle.py"], ids=lambda p: p.name)
def test_only_the_oracle_names_the_feeds(path):
    assert feed_names(read(path)) == set()


def text_opens_without_utf8(source: str) -> list[int]:
    """Lines of the `open` and `os.fdopen` calls in text mode that do not pass
    encoding="utf-8" (a mode with "b" is binary, which has no encoding)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"
                or isinstance(func, ast.Attribute) and func.attr == "fdopen"
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in mode.value:
            continue
        encoding = keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
            lines.append(node.lineno)
    return lines


def test_checker_finds_text_opens_without_utf8():
    source = ("import os\n"
              "open(p)\n"
              "open(p, 'rb')\n"
              "open(p, mode='wb')\n"
              "open(p, 'w', encoding='utf-8')\n"
              "open(p, newline='', encoding='latin-1')\n"
              "os.fdopen(fd, 'w', newline='')\n"
              "os.fdopen(fd, 'w', encoding='utf-8')\n"
              "open(p, mode, encoding=enc)\n")
    assert text_opens_without_utf8(source) == [2, 6, 7, 9]


# Input and output files are UTF-8 whatever the locale: until Python 3.15 a
# text-mode open() without encoding= decodes with the locale's encoding (PEP 686).
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_text_file_is_opened_as_utf8(path):
    assert text_opens_without_utf8(read(path)) == []


# Only a replay's manifest hashes its inputs, and `write_outputs` imports
# hashlib itself: its OpenSSL costs about 3.6 MB of resident memory, which a
# `perpamm curves` process never pays.
CURVES_WITHOUT_HASHLIB = """\
import sys
from perpamm.cli import main
code = main(["curves", "--kind", "base_fee", "--kb", "0.0325", "--cb", "0",
             "--grid", "0:100:1", "--out", sys.argv[1]])
print(code, sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


def test_a_curves_table_does_not_load_hashlib(tmp_path):
    out = tmp_path / "fees.csv"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CURVES_WITHOUT_HASHLIB, str(out)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 []\n")
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "100,325.000000000"

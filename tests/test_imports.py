"""Every module of the package uses each name it imports (``__init__.py``,
which imports to re-export, is exempt), and the command-line front end
imports only public library names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "survent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing reads; a name
    read only inside a string annotation (``x: "Dataset"``) counts as read."""
    tree = ast.parse(source)
    imported = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations += [node.returns] if node.returns else []
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                read |= {n.id for n in ast.walk(ast.parse(const.value))
                         if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_checker_sees_unused_and_string_annotated_imports():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .data import Dataset, ContingencyTable\n"
              "def f(d: \"Dataset\") -> int:\n"
              "    return os.path.sep\n")
    assert unused_imports(source) == ["ContingencyTable", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Names with a leading underscore, dunders aside, that ``source``
    imports."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for a in node.names
                  if a.name.startswith("_") and not a.name.endswith("__"))


def test_checker_sees_private_imports():
    source = ("from .mfs import _response_entropy, run_mfs\n"
              "from . import __version__\n")
    assert private_imports(source) == ["_response_entropy"]


def test_cli_imports_only_public_names():
    assert private_imports((SRC / "cli.py").read_text(encoding="utf-8")) == []

"""Every layer the benchmark's span tracer wraps exists in the library."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _layers() -> list[tuple[str, str, str]]:
    """``LAYERS`` as written in the tracer, read without importing it."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS list in {TRACED}")


@pytest.mark.parametrize("module, attr, span", _layers())
def test_traced_layer_resolves(module, attr, span):
    owner = importlib.import_module(f"survent.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), span
    else:
        assert callable(getattr(owner, attr, None)), span

"""Checks on the source of the ``crossloc`` package itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossloc"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read where it appears as a name anywhere in the module
    (an attribute chain such as ``np.zeros`` reads its root) or as a string
    in ``__all__``. ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .liegroup import Pose, se3_exp, skew\n"
        "__all__ = ['skew']\n"
        "x = np.zeros(3)\n"
        "def f(p: Pose): return p\n"
    )
    assert unused_imports(source) == ["os (line 3)", "se3_exp (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

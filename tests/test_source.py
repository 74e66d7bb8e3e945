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


def batch_twins(source: str) -> list[str]:
    """Module-level functions ``f_batch`` defined next to a module-level ``f``.

    Such a pair is one map implemented twice; one function should take one
    element or a stack. Methods, such as a factor kind's ``evaluate`` and
    ``evaluate_batch``, are not looked at.
    """
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return sorted(name for name in defined if name.removesuffix("_batch") in defined - {name})


def test_batch_twins_are_found():
    source = (
        "def so3_exp(phi): pass\n"
        "def so3_exp_batch(phi): pass\n"
        "def knn_batch(q): pass\n"
        "class Factor:\n"
        "    def evaluate(self): pass\n"
        "    def evaluate_batch(self): pass\n"
    )
    assert batch_twins(source) == ["so3_exp_batch"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_batch_twins(path):
    assert batch_twins(path.read_text()) == []

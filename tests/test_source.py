"""Checks on the source of the ``crossloc`` package itself, and on the imports of its tests."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "crossloc"
BENCH = TESTS.parent / "perfbench"


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


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
)
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


def second_kernels(source: str) -> list[str]:
    """Public module-level functions named ``*_residual``, and classes whose
    ``evaluate_batch`` does not call their own ``evaluate``.

    Each factor kind has one kernel: ``evaluate_batch`` itself, or an
    ``evaluate`` over stacked rows that ``evaluate_batch`` calls. One-row
    references belong in ``tests/oracles.py``. A private helper, such as
    the estimator's ``_mean_constraint_residual`` diagnostic, is no kernel.
    """
    tree = ast.parse(source)
    found = [
        (node.name, node.lineno)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_residual") and not node.name.startswith("_")
    ]
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
        if "evaluate" in methods and "evaluate_batch" in methods:
            batch = methods["evaluate_batch"]
            if not any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "evaluate"
                for node in ast.walk(batch)
            ):
                found.append((f"{cls.name}.evaluate_batch", batch.lineno))
    return [f"{name} (line {line})" for name, line in found]


def test_second_kernels_are_found():
    source = (
        "def point_to_point_residual(anchor, lm, c): pass\n"
        "def _mean_residual(rows): pass\n"
        "def stack_residuals(rows):\n"
        "    def row_residual(r): pass\n"
        "class OneKernel:\n"
        "    def evaluate(cls, blocks): pass\n"
        "    def evaluate_batch(cls, batch, values):\n"
        "        return cls.evaluate(batch.vectors(values, 0))\n"
        "class BatchOnly:\n"
        "    def evaluate_batch(cls, batch, values): pass\n"
        "    def reprojection_residual(cls): pass\n"
        "class TwoKernels:\n"
        "    def evaluate(cls, blocks): pass\n"
        "    def evaluate_batch(cls, batch, values):\n"
        "        return batch.vectors(values, 0)\n"
    )
    assert second_kernels(source) == ["point_to_point_residual (line 1)", "TwoKernels.evaluate_batch (line 14)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_one_kernel_per_factor_kind(path):
    assert second_kernels(path.read_text()) == []


# liegroup's parts of a retraction: a module that takes them builds its own
RETRACTION_PARTS = {"so3_exp_and_left_jacobian", "orthonormalize"}


def retraction_parts(source: str) -> list[str]:
    """Names in ``RETRACTION_PARTS`` that a module imports or reads as an
    attribute (``lg.orthonormalize``), with their lines.

    Outside ``liegroup`` the one retraction is ``Pose.retract``, over one
    pose or a stack.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names if alias.name in RETRACTION_PARTS]
        elif isinstance(node, ast.Attribute) and node.attr in RETRACTION_PARTS:
            found.append((node.attr, node.lineno))
    return [f"{name} (line {line})" for name, line in sorted(found, key=lambda f: f[1])]


def test_retraction_parts_are_found():
    source = (
        "from .liegroup import Pose, orthonormalize\n"
        "from crossloc import liegroup as lg\n"
        "def f(d): return lg.so3_exp_and_left_jacobian(d)\n"
        "def g(p, d): return p.retract(d)\n"
    )
    assert retraction_parts(source) == ["orthonormalize (line 1)", "so3_exp_and_left_jacobian (line 3)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "liegroup.py"), ids=lambda path: path.name
)
def test_no_private_retraction(path):
    assert retraction_parts(path.read_text()) == []


SWITCH_ANGLES = {"SMALL_ANGLE", "Q_SERIES_ANGLE"}


def angle_switches(source: str) -> list[int]:
    """Lines of comparisons with a switch angle (``SWITCH_ANGLES``, by name
    or as an attribute) outside ``_by_angle``, the one small-angle switch."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_by_angle"
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in inside:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if names & SWITCH_ANGLES:
                lines.append(node.lineno)
    return sorted(lines)


def test_angle_switches_are_found():
    source = (
        "def _by_angle(theta, series, closed, switch=SMALL_ANGLE):\n"
        "    small = theta < SMALL_ANGLE\n"
        "def q(theta):\n"
        "    if theta < SMALL_ANGLE:\n"
        "        return 0.0\n"
        "    return np.where(lg.Q_SERIES_ANGLE > theta, 1.0, np.maximum(theta, SMALL_ANGLE))\n"
    )
    assert angle_switches(source) == [4, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_angle_switch_outside_by_angle(path):
    assert angle_switches(path.read_text()) == []


# Public definitions that no src or perfbench module reads yet, each with the
# ROADMAP direction that will call it. An entry goes when its caller lands.
ENTRY_POINTS = {
    "laser_map.save_map": "7: the CLI's build-map",
    "laser_map.load_map": "7: the CLI's localize",
    "session.save_session": "7: the CLI's simulate",
    "session.load_session": "7: the CLI's build-map and localize",
    "map_pipeline.build_full_map": "5: the unfiltered map variant",
    "map_pipeline.association_posterior": "5: the association KL per map variant",
    "map_pipeline.association_kld": "5: the association KL per map variant",
    "map_pipeline.em_lower_bound": "5: kept only if the comparison uses it",
    "simulator.sample_world_map": "5: the true map the KL is taken against",
    "map_pipeline.association_log_likelihood": "20: the likelihood the anchor search scores",
}


def _reads(node, skip=frozenset()) -> set[str]:
    """Names read under ``node``, outside the nodes whose ids are in
    ``skip``: names, attributes (``lg.se3_log`` reads ``se3_log``), imported
    names, and strings that are identifiers (the benchmark names the
    attributes it wraps as strings)."""
    read, stack = set(), [node]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return read


def unread_definitions(modules: dict, readers=(), entry_points=()) -> list[str]:
    """Public module-level functions and classes, and public methods of
    module-level classes, of ``modules`` (name -> source) that no live code
    reads, as ``module.name (line n)``.

    Live code is the ``readers`` sources, every module's code outside its
    public definitions, and, in turn, the body of each definition that live
    code reads or that ``entry_points`` names; so a definition read only by
    unread ones is unread too. A name is matched alone: a method is read
    wherever an attribute of its name is.
    """
    live, found = set(), []
    for module, source in modules.items():
        tree = ast.parse(source)
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs += [
                        (f"{node.name}.{m.name}", m)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    ]
        nodes = {id(node) for _, node in defs}
        live |= _reads(tree, nodes)
        found += [(f"{module}.{qualname}", node, _reads(node, nodes - {id(node)})) for qualname, node in defs]
    for source in readers:
        live |= _reads(ast.parse(source))
    unread = {name for name, _, _ in found}
    grew = True
    while grew:
        grew = False
        for name, node, body in found:
            if name in unread and (node.name in live or name in entry_points):
                unread.discard(name)
                live |= body
                grew = True
    return [f"{name} (line {node.lineno})" for name, node, _ in found if name in unread]


def test_unread_definitions_are_found():
    modules = {
        "geo": (
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def only_by_dead(): pass\n"
            "def dead(): return only_by_dead()\n"
            "def _private(): pass\n"
            "def wrapped(): pass\n"
            "def planned(): return Shape\n"
            "class Shape:\n"
            "    def area(self): pass\n"
            "    def unused(self): return self.unused()\n"
            "    def _hidden(self): pass\n"
        ),
        "app": "from .geo import used\nx = used().area()\n",
    }
    bench = "patch(geo, 'wrapped')\n"
    assert unread_definitions(modules, [bench], {"geo.planned"}) == [
        "geo.only_by_dead (line 3)",
        "geo.dead (line 4)",
        "geo.Shape.unused (line 10)",
    ]


def _package_and_bench():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    return modules, [path.read_text() for path in sorted(BENCH.glob("*.py"))]


def test_every_public_definition_is_read():
    """``src`` holds what the system runs: each public definition is read by
    the package or the benchmark, or is an entry point a direction will call.
    A reference only tests read belongs in ``tests/oracles.py``."""
    assert unread_definitions(*_package_and_bench(), ENTRY_POINTS) == []


def test_entry_points_are_unread_otherwise():
    """Every ``ENTRY_POINTS`` name exists and nothing calls it yet: once its
    caller lands, its entry goes."""
    unread = {entry.split(" (line")[0] for entry in unread_definitions(*_package_and_bench())}
    assert set(ENTRY_POINTS) <= unread, set(ENTRY_POINTS) - unread

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
    references belong in ``tests/oracles.py``. A private helper is no kernel.
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


def private_imports(source: str) -> list[str]:
    """Private names (``_name``) a module imports from a module of its own
    package, relatively (``from .laser_map import _name``) or by the
    package's name, with their lines. What one module of ``src`` reads of
    another is that module's public API."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "crossloc"):
            found += [(alias.name, node.lineno) for alias in node.names if alias.name.startswith("_")]
    return [f"{name} (line {line})" for name, line in found]


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from numpy import _NoValue\n"
        "from .laser_map import PointCloudMap, _canonical_sign\n"
        "from .liegroup import Pose\n"
        "from crossloc.liegroup import _matvec, skew\n"
        "from . import _private\n"
        "def f(): from ..solver import _System\n"
    )
    assert private_imports(source) == [
        "_canonical_sign (line 3)", "_matvec (line 5)", "_private (line 6)", "_System (line 7)"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


# the one part of scipy the package may import, with its submodules
SCIPY_ALLOWED = "scipy.spatial"


def scipy_imports(source: str) -> list[str]:
    """Modules of scipy a module imports from outside ``SCIPY_ALLOWED``,
    with their lines. ``import scipy`` counts as all of scipy, and ``from
    scipy import x`` as ``scipy.x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "scipy":
                found += [(f"scipy.{alias.name}", node.lineno) for alias in node.names]
            else:
                found.append((node.module, node.lineno))
    return [
        f"{module} (line {line})"
        for module, line in found
        if module.split(".")[0] == "scipy" and not f"{module}.".startswith(f"{SCIPY_ALLOWED}.")
    ]


def test_scipy_imports_are_found():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "from scipy.interpolate import CubicSpline\n"
        "from scipy.spatial import cKDTree\n"
        "from scipy.spatial.transform import Rotation\n"
        "import scipy.spatial.distance, scipy.optimize\n"
        "from scipy import spatial, fft\n"
        "from scipy.spatialx import thing\n"
        "from .scipy import local\n"
        "def f(): import scipy.linalg as la\n"
    )
    assert scipy_imports(source) == [
        "scipy (line 2)", "scipy.interpolate (line 3)", "scipy.optimize (line 6)", "scipy.fft (line 7)",
        "scipy.spatialx (line 8)", "scipy.linalg (line 10)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_scipy_only_from_spatial(path):
    """The runtime loads no scipy beyond ``scipy.spatial`` (the k-d tree):
    ``scipy.interpolate`` alone, which the route spline once came from, also
    loads ``scipy.optimize`` and ``scipy.fft``."""
    assert scipy_imports(path.read_text()) == []


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
    "map_pipeline.build_full_map": "22: the co-registration's input",
    "laser_map.Candidates.posterior": "5: the association KL per map variant",
    "laser_map.association_kld": "5: the association KL per map variant",
    "simulator.sample_world_map": "5: the true map the KL is taken against",
    "laser_map.Candidates.log_likelihood": "20: the likelihood the anchor search scores",
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


# the one function of src that queries the map's k nearest points: the
# association kernel, ``PointCloudMap.match``
KNN_CALLER = "laser_map.match"


def knn_calls(modules: dict) -> list[str]:
    """Calls of a ``.knn`` attribute in ``modules`` (name -> source) outside
    the body of ``KNN_CALLER``, as ``module.function (line n)``, the
    function being the innermost one around the call, or ``module`` at
    module level.

    Every map query on the localization path goes through one association:
    a second k-NN call site is a second association with its own model.
    """
    found = []
    for module, source in modules.items():
        stack = [(ast.parse(source), module)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, ast.FunctionDef):
                where = f"{module}.{node.name}"
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "knn" and where != KNN_CALLER:
                found.append((where, node.lineno))
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return [f"{where} (line {line})" for where, line in sorted(found)]


def test_knn_calls_are_found():
    modules = {
        "laser_map": (
            "class PointCloudMap:\n"
            "    def match(self, query, k, gate):\n"
            "        return self.knn(query, k)\n"
        ),
        "estimator": (
            "def associate_constraints(window, cloud):\n"
            "    return cloud.knn(window.positions, 5)\n"
            "def _monitor(cloud, p):\n"
            "    return cloud.knn(p, 1)\n"
        ),
        "map_pipeline": (
            "class Scorer:\n"
            "    def score(self, cloud, p):\n"
            "        def inner(q): return cloud.knn(q, 3)\n"
            "        return inner(p)\n"
            "idx = CLOUD.knn(P, 2)\n"
            "tree.query(P, k=2)\n"
        ),
    }
    assert knn_calls(modules) == [
        "estimator._monitor (line 4)",
        "estimator.associate_constraints (line 2)",
        "map_pipeline (line 5)",
        "map_pipeline.inner (line 3)",
    ]


def test_one_knn_call_site():
    """``src`` has one k-NN call site, the localization's association kernel
    (ROADMAP direction 23)."""
    assert knn_calls(_package_and_bench()[0]) == []


# The estimator's functions that read a ground-truth field of the session,
# with the fields they read and the ROADMAP direction that removes the reads.
# An entry goes when its direction lands; direction 21 is done when none is left.
GROUND_TRUTH_READS = {
    "estimator._initial_velocity": ("gt_poses gt_times", "21: the first velocity from the visual-inertial start"),
}


def ground_truth_reads(modules: dict) -> dict:
    """The ``gt_*`` attributes read in ``modules`` (name -> source), as
    ``{"module.function": {field, ...}}``, the function being the innermost
    one around the read, or ``module`` at module level."""
    found = {}
    for module, source in modules.items():
        stack = [(ast.parse(source), module)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, ast.FunctionDef):
                where = f"{module}.{node.name}"
            if isinstance(node, ast.Attribute) and node.attr.startswith("gt_"):
                found.setdefault(where, set()).add(node.attr)
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def test_ground_truth_reads_are_found():
    modules = {
        "estimator": (
            "def _initial_state(session):\n"
            "    gt0 = session.gt_poses[0]\n"
            "    return gt0, session.gt_times[1]\n"
            "def run(session, gt_times):\n"
            "    def inner(s): return s.gt_times\n"
            "    return replace(session, gt_poses=None), gt_times, inner(session)\n"
            "T0 = SESSION.gt_times[0]\n"
        ),
    }
    assert ground_truth_reads(modules) == {
        "estimator._initial_state": {"gt_poses", "gt_times"},
        "estimator.inner": {"gt_times"},
        "estimator": {"gt_times"},
    }


def _estimator_ground_truth_reads():
    return ground_truth_reads({"estimator": (PACKAGE / "estimator.py").read_text()})


def test_no_unlisted_ground_truth_read():
    """The estimator reads ground truth only where ``GROUND_TRUTH_READS``
    says (ROADMAP direction 21): a new read is a new entry, with the
    direction that removes it."""
    listed = {name: set(fields.split()) for name, (fields, _) in GROUND_TRUTH_READS.items()}
    unlisted = {name: fields - listed.get(name, set()) for name, fields in _estimator_ground_truth_reads().items()}
    assert {name: fields for name, fields in unlisted.items() if fields} == {}


def test_ground_truth_read_entries_are_current():
    """Every ``GROUND_TRUTH_READS`` field is still read where its entry says:
    once a read goes, so does its field, and an entry with none left."""
    found = _estimator_ground_truth_reads()
    stale = {name: set(fields.split()) - found.get(name, set()) for name, (fields, _) in GROUND_TRUTH_READS.items()}
    assert {name: fields for name, fields in stale.items() if fields} == {}


# Defaults of public src definitions that no src or perfbench call sets, each
# with the measurement or the scene it describes that varies it. A default
# that nothing varies is a module constant; an entry goes when a call sets it.
KEPT_OPTIONS = {
    "estimator.EstimatorConfig.window_capacity": "Table A: capacities 7, 12 and 20",
    "estimator.EstimatorConfig.max_iterations": "Table A: 4, 8 and 16 iterations",
    "estimator.EstimatorConfig.knn_k": "Table C: k-NN k 20",
    "estimator.EstimatorConfig.gate_radius": "Table C: a 2.5 m gate",
    "estimator.EstimatorConfig.prior_trans_sigma": "Table C: prior sigmas of 0.3 and 1.0 m",
    "estimator.run_localization.cfg": "Tables A and C: a sweep passes its config",
    "map_pipeline.MapFilterParams.ground_voxel": "Table D: a 1.0 m ground voxel",
    "map_pipeline.run_map_pipeline.params": "Table D: a sweep passes its ground voxel",
    "simulator.PlanarPatch.sessions": "the scene: an element only some sessions see",
    "simulator.Pole.sessions": "the scene: an element only some sessions see",
    "simulator.ScatterCluster.sessions": "the scene: an element only some sessions see",
    "simulator.ScatterCluster.point_radius": "the scene: a bush's spread (direction 11's seasons)",
    "simulator.TrajectorySpec.speed": "the scene: a route's speed",
    "simulator.generate_session.pixel_sigma": "the sensors: pixel noise",
    "simulator.generate_session.outlier_fraction": "the sensors: pixel outliers (direction 4)",
    "simulator.generate_session.noise": "the sensors: noise-free sessions",
    "simulator.default_world.seed": "the scene: another world",
    "simulator.default_world.car_sessions": "the scene: the sessions that see the parked cars",
}


def _parameters(function: ast.FunctionDef, bound: bool):
    """A function's parameters that a call fills by position, after a bound
    first one unless it is a ``staticmethod``, and the line of each that has
    a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if bound and "staticmethod" not in [ast.unparse(d) for d in function.decorator_list]:
        positional = positional[1:]
    return [a.arg for a in positional], {a.arg: a.lineno for a in defaulted}


def _signatures(module: str, source: str):
    """``(name, callee, positional parameters, {defaulted parameter: line})``
    of each public module-level function, each public method of a public
    module-level class, and each such class's constructor: its dataclass
    fields, and its ``__init__``. A method is called by its own name, a
    constructor by its class's, and both are named ``module.Class``."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        name = f"{module}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            yield (name, node.name, *_parameters(node, bound=False))
            continue
        if any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            defaults = {f.target.id: f.lineno for f in fields if f.value is not None}
            yield name, node.name, [f.target.id for f in fields], defaults
        for method in node.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                yield (name, node.name, *_parameters(method, bound=True))
            elif isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                yield (f"{name}.{method.name}", method.name, *_parameters(method, bound=True))


def _sets(call: ast.Call, positional: list, parameter: str) -> bool:
    """Whether ``call`` sets ``parameter``: by keyword or ``**``, or by its
    place in ``positional``, which a starred argument fills from its own on."""
    keywords = {k.arg for k in call.keywords}
    if parameter in keywords or None in keywords:
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return parameter in positional and (starred or positional.index(parameter) < len(call.args))


def unset_defaults(modules: dict, readers=(), kept=()) -> list[str]:
    """Defaults in the ``_signatures`` of ``modules`` (name -> source) that
    no call in ``modules`` or ``readers`` sets, as ``name.parameter (line
    n)``, leaving out those that ``kept`` names, or whose definition it
    names. A callee is matched by name alone, as ``unread_definitions``
    matches a read."""
    calls = {}
    for source in [*modules.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    found = []
    for module, source in modules.items():
        for name, callee, positional, defaults in _signatures(module, source):
            for parameter, line in defaults.items():
                option = f"{name}.{parameter}"
                if name in kept or option in kept:
                    continue
                if not any(_sets(call, positional, parameter) for call in calls.get(callee, [])):
                    found.append(f"{option} (line {line})")
    return found


def test_unset_defaults_are_found():
    modules = {
        "geo": (
            "from dataclasses import dataclass, field\n"
            "def area(w, h=1.0, *, unit='m', scale=2): pass\n"
            "def volume(w, depth=1.0): pass\n"
            "def ratio(a, b=1.0): pass\n"
            "def _private(k=3): pass\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    w: float\n"
            "    h: float = 1.0\n"
            "    d: float = 1.0\n"
            "    tag: str = field(default='')\n"
            "    def grow(self, by=1.0, twice=False): pass\n"
            "    @staticmethod\n"
            "    def unit(size=1.0): pass\n"
            "class Grid:\n"
            "    def __init__(self, cell=0.5, seed=0): pass\n"
            "    def fill(self, value=0): pass\n"
            "    def _hidden(self, k=2): pass\n"
            "@dataclass\n"
            "class Spec:\n"
            "    name: str\n"
            "    kind = 'spec'\n"
        ),
        "app": (
            "from .geo import Box, Grid, area, volume\n"
            "area(2.0, 3.0, unit='cm')\n"
            "log(scale=2, d=3, seed=1)\n"
            "volume(*sizes)\n"
            "b = Box(1.0, 2.0)\n"
            "b.grow(2.0)\n"
            "Box.unit(3.0)\n"
            "Grid(0.25)\n"
        ),
    }
    bench = "ratio(**options)\n"
    assert unset_defaults(modules, [bench], {"geo.Box.tag", "geo.Grid.fill"}) == [
        "geo.area.scale (line 2)",
        "geo.Box.d (line 10)",
        "geo.Box.grow.twice (line 12)",
        "geo.Grid.seed (line 16)",
    ]


def test_every_default_is_set():
    """A default is set by some ``src`` or benchmark call, or it is a
    constant: ``KEPT_OPTIONS`` lists those a measurement varies, and an
    entry point's wait for its caller."""
    modules, readers = _package_and_bench()
    assert unset_defaults(modules, readers, set(ENTRY_POINTS) | set(KEPT_OPTIONS)) == []


def test_kept_options_are_unset_otherwise():
    """Every ``KEPT_OPTIONS`` name is a default that no call sets yet: once
    one does, its entry goes."""
    unset = {entry.split(" (line")[0] for entry in unset_defaults(*_package_and_bench())}
    assert set(KEPT_OPTIONS) <= unset, set(KEPT_OPTIONS) - unset

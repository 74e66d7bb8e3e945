"""In-memory span tracing around calls into the program's public functions.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, so nested calls form a tree. Counts
are named integers recorded at the same boundaries. Nothing is written out
while the program runs; the benchmark reads the tracer when a round ends.

Spans come from wrappers that ``instrument`` installs on module and class
attributes for the duration of a ``with`` block. The program's modules call
each other through module globals (``estimator.step``, ``solver.evaluate_cost``)
or class attributes (``PointCloudMap.knn``), so replacing the attribute is
enough to see every call; the program itself is not modified.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from crossloc import estimator, laser_map, map_pipeline, residuals, simulator, solver


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> list:
        """Per span: its duration minus the part its children cover.

        Children of one parent may overlap only if the program ran them
        concurrently; their union, not their sum, is subtracted.
        """
        children: dict = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s.end - s.start) - covered)
        return out

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def children_of(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose parent span is a ``parent_name``."""
        return sum(
            1
            for s in self.spans
            if s.name == name and s.parent >= 0 and self.spans[s.parent].name == parent_name
        )


def _wrap(tracer: Tracer, fn, name: str, count=None):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return traced


def _patch(patches, tracer, owner, attr, name, count=None):
    original = inspect.getattr_static(owner, attr)
    if isinstance(original, classmethod):
        replacement = classmethod(_wrap(tracer, original.__func__, name, count))
    else:
        replacement = _wrap(tracer, original, name, count)
    patches.append((owner, attr, original))
    setattr(owner, attr, replacement)


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_rays(counts, args, result):
    counts["simulator.rays_cast"] += len(args[1])


def _count_intervals(counts, args, result):
    counts["imu.integrate_calls"] += 1
    counts["imu.intervals_integrated"] += len(args[0]) - 1


def _count_batch(counts, args, result):
    # classmethod wrapper: args are (cls, factors, values, ...)
    counts["residuals.factor_evals"] += len(args[1])


def _count_solve(counts, args, result):
    counts["solver.solve_calls"] += 1
    counts["solver.lm_iterations"] += result.iterations
    counts["solver.max_iter_stops"] += result.termination == "max_iter"


def _count_associate(counts, args, result):
    window, _, cloud, _ = args
    counts["estimator.associate_calls"] += 1
    counts["estimator.landmarks_queried"] += len(window.landmarks) if len(cloud) else 0
    counts["estimator.constraints"] += len(result)


# Always installed: the step latencies and the keyframe count are
# end-to-end metrics and checks, so the untraced run needs them too.
def _steps(patches, tracer):
    _patch(patches, tracer, estimator, "step", "estimator.step")
    _patch(
        patches, tracer, estimator.SlidingWindow, "insert_keyframe",
        "estimator.insert_keyframe", _count_calls("estimator.keyframes_inserted"),
    )


def _layers(patches, tracer):
    sim, mp, est = simulator, map_pipeline, estimator
    _patch(patches, tracer, sim, "generate_session", "simulator.generate_session")
    _patch(patches, tracer, sim, "cast_rays", "simulator.cast_rays", _count_rays)

    for attr, name in (
        ("vision_transform_session", "map_pipeline.vision_transform"),
        ("merge_sessions", "map_pipeline.merge"),
        ("classify_static", "map_pipeline.filter"),
        ("erode_static", "map_pipeline.filter"),
        ("expand_static", "map_pipeline.filter"),
        ("extract_ground", "map_pipeline.ground"),
        ("build_final_map", "map_pipeline.final"),
        ("estimate_normals", "laser_map.estimate_normals"),
    ):
        _patch(patches, tracer, mp, attr, name)
    _patch(
        patches, tracer, laser_map.PointCloudMap, "knn", "laser_map.knn",
        _count_calls("laser_map.knn_calls"),
    )

    _patch(patches, tracer, est, "integrate", "imu.integrate", _count_intervals)
    for cls in (
        residuals.StereoReprojectionFactor,
        residuals.PointToPlaneFactor,
        residuals.PointToPointFactor,
    ):
        _patch(patches, tracer, cls, "evaluate_batch", "residuals.evaluate_batch", _count_batch)
    for cls in (
        residuals.PreintegrationFactor,
        residuals.BiasRandomWalkFactor,
        residuals.AnchorPriorFactor,
    ):
        _patch(patches, tracer, cls, "evaluate", "residuals.evaluate")

    _patch(patches, tracer, est, "solve", "solver.solve", _count_solve)
    _patch(patches, tracer, solver, "evaluate_cost", "solver.evaluate_cost")
    _patch(patches, tracer, est, "associate_constraints", "estimator.associate", _count_associate)
    _patch(patches, tracer, est, "rigid_ba", "estimator.rigid_ba")
    _patch(patches, tracer, est, "non_rigid_ba", "estimator.non_rigid_ba")


@contextmanager
def instrument(tracer: Tracer, layers: bool):
    """Record spans into ``tracer``: step spans always, every layer if asked."""
    patches: list = []
    try:
        _steps(patches, tracer)
        if layers:
            _layers(patches, tracer)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

import inspect

import pytest

from crossloc import estimator, laser_map, residuals, solver
from spans import Span, Tracer, instrument


def tree(*spans):
    tracer = Tracer()
    tracer.spans = [Span(name, start, end, parent) for name, start, end, parent in spans]
    return tracer


def test_self_time_subtracts_children_only():
    t = tree(
        ("solve", 0.0, 10.0, -1),
        ("cost", 1.0, 4.0, 0),
        ("batch", 2.0, 3.0, 1),  # grandchild: counted against "cost", not "solve"
        ("batch", 5.0, 6.5, 0),
    )
    assert t.self_times() == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])
    assert t.self_total("batch") == pytest.approx(2.5)
    assert t.total("batch") == pytest.approx(2.5)
    assert t.children_of("batch", "solve") == 1


def test_self_time_counts_overlapping_children_once():
    t = tree(("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0), ("c", 9.0, 12.0, 0))
    # union of children inside the root: [1, 6] and [9, 10]
    assert t.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_live_spans_nest():
    t = Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    assert [s.parent for s in t.spans] == [-1, 0]
    assert t.spans[0].start <= t.spans[1].start <= t.spans[1].end <= t.spans[0].end


def test_instrument_restores_every_attribute():
    owners = [
        (estimator, "step"),
        (estimator, "solve"),
        (solver, "evaluate_cost"),
        (laser_map.PointCloudMap, "knn"),
        (residuals.PointToPlaneFactor, "evaluate_batch"),
    ]
    before = [inspect.getattr_static(o, a) for o, a in owners]
    tracer = Tracer()
    with instrument(tracer, layers=True):
        assert estimator.step is not before[0]
        cloud = laser_map.PointCloudMap([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        idx, _ = cloud.knn([0.9, 0.0, 0.0], 1)
    assert list(idx) == [1]
    assert tracer.counts["laser_map.knn_calls"] == 1
    assert [s.name for s in tracer.spans] == ["laser_map.knn"]
    assert [inspect.getattr_static(o, a) for o, a in owners] == before

"""End-to-end localization on a short simulated map and query."""

from dataclasses import astuple

import numpy as np
import pytest

from crossloc import estimator, laser_map, map_pipeline
from crossloc import residuals as res
from crossloc import simulator as sim
from crossloc.liegroup import se3_exp
from crossloc.solver import Problem, SolverOptions, solve

from oracles import brute_force_knn


@pytest.fixture(scope="module")
def short_inputs():
    world = sim.default_world()
    rig = sim.default_rig()
    forward = sim.default_trajectory_spec("forward")
    maps = [sim.generate_session(world, forward, rig, sid, 1, duration=6.0) for sid in (0, 1)]
    query = sim.generate_session(world, forward, rig, 3, 2, duration=4.0)
    cloud, _ = map_pipeline.run_map_pipeline(maps)
    guess = query.gt_poses[0] @ se3_exp(np.array([0.0, 0.0, 0.02, 0.3, -0.2, 0.1]))
    return query, cloud, guess


def _assert_deterministic(short_inputs, mode):
    query, cloud, guess = short_inputs
    runs = [
        estimator.run_localization(query, cloud, guess, estimator.BaSchedule(mode))
        for _ in range(2)
    ]
    for run in runs:
        assert not run.diverged, run.divergence_reason
        assert len(run.records) > 5
        assert all(r.n_constraints > 0 for r in run.records)
    first, second = runs
    assert len(first.poses_map) == len(second.poses_map)
    for a, b in zip(first.poses_map, second.poses_map):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)
    # assert_equal compares floats exactly and treats NaN as equal to NaN
    np.testing.assert_equal(
        [astuple(r) for r in first.records], [astuple(r) for r in second.records]
    )
    # accuracy in the map frame, against the simulator's ground truth
    est = np.array([p.translation for p in first.poses_map])
    truth = np.array([query.gt_poses[r.keyframe_id].translation for r in first.records])
    err = np.linalg.norm(est - truth, axis=1)
    assert err[-1] < 0.15
    guess_offset = np.linalg.norm(guess.translation - query.gt_poses[0].translation)
    assert np.sqrt(np.mean(err**2)) < guess_offset
    return first


def test_non_rigid_localization_is_deterministic(short_inputs):
    _assert_deterministic(short_inputs, "non_rigid_only")


def test_hybrid_localization_is_deterministic(short_inputs):
    run = _assert_deterministic(short_inputs, "hybrid")
    assert {r.actions for r in run.records} == {("rigid",), ("non_rigid",)}


def test_observer_counts_on_a_hand_built_window():
    """Each keyframe counts once per landmark; evicted keyframes not at all."""
    window = estimator.SlidingWindow(capacity=3)

    def keyframe(kf_id, ids):
        # every landmark 20 px of disparity to the right view
        pixels = np.tile([320.0, 240.0, 300.0, 240.0], (len(ids), 1))
        state = estimator.NavState(pose=se3_exp(np.array([0, 0, 0, 0.5 * kf_id, 0, 0])))
        return estimator.Keyframe(kf_id, 0.1 * kf_id, state, np.array(ids), pixels)

    # landmark 9's first observer, keyframe 0, is evicted by keyframe 3
    for kf_id, ids in enumerate([[9, 1, 2, 3], [9, 2, 3, 3], [9, 3, 4, 5], [6, 7, 4, 5]]):
        window.insert_keyframe(keyframe(kf_id, ids), min_landmarks=0)
    assert [kf.kf_id for kf in window.keyframes] == [1, 2, 3]
    assert window.observer_counts() == {9: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    window.landmarks = {i: np.zeros(3) for i in (1, 2, 3, 9)}
    assert estimator._solvable_landmarks(window) == [3, 9]
    # inserting a keyframe retires the landmarks no window keyframe sees
    window.insert_keyframe(keyframe(4, [9, 4, 5, 6]), min_landmarks=0)
    assert window.observer_counts() == {9: 2, 3: 1, 4: 3, 5: 3, 6: 2, 7: 1}
    assert sorted(window.landmarks) == [3, 9]
    assert estimator._solvable_landmarks(window) == [9]
    # pending landmarks with two observers are triangulated: landmark 6 from
    # its recorded first observer, 9 (first seen by the evicted keyframe 0)
    # from the oldest window keyframe that sees it
    recorded = np.array([330.0, 250.0, 305.0, 250.0])
    window.landmarks = {}
    window._pending = {6: (3, recorded), 7: (3, recorded), 9: (0, recorded)}
    rig = sim.default_rig()
    assert estimator.activate_landmarks(window, rig, estimator.EstimatorConfig()) == 2
    assert sorted(window.landmarks) == [6, 9] and list(window._pending) == [7]
    oldest, first_of_6 = window.keyframes[0], window.keyframes[1]
    for lm_id, state, px in ((6, first_of_6.state, recorded), (9, oldest.state, oldest.pixels[0])):
        want = estimator.triangulate_stereo(rig, state, px, 1.0)
        np.testing.assert_array_equal(window.landmarks[lm_id], want)


def _fixed_association(rng, cfg):
    """Landmarks and constraints of both metrics, a tenth of them outliers."""
    truth = se3_exp(np.array([0.02, -0.01, 0.3, 1.0, -2.0, 0.5]))
    landmarks, constraints = {}, []
    info = np.eye(3) / cfg.sigma_map**2
    for lm_id in range(60):
        landmarks[lm_id] = rng.uniform(-8.0, 8.0, size=3)
        point = truth.apply(landmarks[lm_id]) + rng.normal(scale=cfg.sigma_map, size=3)
        if lm_id % 10 == 3:
            point = point + rng.uniform(-2.0, 2.0, size=3)
        if rng.uniform() < 0.5:
            normal = rng.normal(size=3)
            constraints.append(res.MapConstraint(
                lm_id, point, normal / np.linalg.norm(normal), info, res.POINT_TO_PLANE))
        else:
            constraints.append(res.MapConstraint(lm_id, point, None, info, res.POINT_TO_POINT))
    guess = truth.retract(np.array([0.01, 0.0, -0.02, 0.2, 0.1, -0.15]))
    return landmarks, constraints, estimator.AnchorTransform(guess, guess, prior_scale=10.0)


@pytest.mark.parametrize("max_iterations", [8, 50])
def test_anchor_alignment_matches_generic_problem(max_iterations):
    """The rigid step's 6x6 solve against the same sub-problem built from factors."""
    cfg = estimator.EstimatorConfig()
    landmarks, constraints, anchor = _fixed_association(np.random.default_rng(11), cfg)
    assert {c.metric for c in constraints} == {res.POINT_TO_PLANE, res.POINT_TO_POINT}
    options = SolverOptions(max_iterations=max_iterations)

    kernel = res.RobustKernel("cauchy", cfg.cauchy_metric)
    generic = Problem()
    generic.add_pose_block("anchor", anchor.pose)
    for c in constraints:
        generic.add_vector_block(f"lm{c.landmark_id}", landmarks[c.landmark_id], fixed=True)
    for c in constraints:
        factor = res.PointToPlaneFactor if c.metric == res.POINT_TO_PLANE else res.PointToPointFactor
        generic.add_factor(factor("anchor", f"lm{c.landmark_id}", c, kernel))
    generic.add_factor(res.AnchorPriorFactor(
        "anchor", anchor.prior_mean, cfg.prior_information(anchor.prior_scale)))
    want = solve(generic, options)

    alignment = estimator.AnchorAlignment(anchor, constraints, landmarks, cfg)
    got = solve(alignment, options)

    assert (got.iterations, got.termination) == (want.iterations, want.termination)
    assert got.initial_cost == pytest.approx(want.initial_cost, rel=1e-12)
    assert got.final_cost == pytest.approx(want.final_cost, rel=1e-12)
    assert got.gradient_norm == pytest.approx(want.gradient_norm, rel=1e-9)
    assert got.final_cost < 0.5 * got.initial_cost
    assert got.termination == ("max_iter" if max_iterations == 8 else "converged")
    expected = generic.value("anchor")
    np.testing.assert_allclose(alignment.value.rotation, expected.rotation, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alignment.value.translation, expected.translation, rtol=0, atol=1e-12)


def test_association_matches_one_landmark_at_a_time():
    """The batched association against a per-landmark brute-force reference."""
    rng = np.random.default_rng(12)
    ground = np.column_stack([rng.uniform(-6, 6, 600), rng.uniform(-6, 6, 600), np.zeros(600)])
    wall = np.column_stack([np.full(300, 5.0), rng.uniform(-6, 6, 300), rng.uniform(0, 3, 300)])
    scatter = rng.uniform(-6, 6, size=(100, 3))
    cloud = laser_map.estimate_normals(
        laser_map.PointCloudMap(np.vstack([ground, wall, scatter])), neighborhood_k=8
    )
    assert 0 < cloud.has_normal().sum() < len(cloud)
    cfg = estimator.EstimatorConfig()
    anchor = se3_exp(np.array([0.0, 0.0, 0.1, 0.2, -0.1, 0.0]))
    window = estimator.SlidingWindow()
    local = anchor.inverse().apply(rng.uniform([-8, -8, -1], [8, 8, 4], size=(200, 3)))
    window.landmarks = {int(lm_id): p for lm_id, p in zip(rng.permutation(1000)[:200], local)}

    want = []
    for lm_id in sorted(window.landmarks):
        idx, dist = brute_force_knn(cloud.positions, anchor.apply(window.landmarks[lm_id]), cfg.knn_k)
        if dist[0] > cfg.gate_radius:
            continue
        normals = cloud.normals[idx]
        angles = np.arccos(np.clip(normals @ normals.T, -1.0, 1.0))
        plane = not np.isnan(normals).any() and np.all(angles <= cfg.normal_consistency_angle + 1e-12)
        want.append((lm_id, idx[0], res.POINT_TO_PLANE if plane else res.POINT_TO_POINT))

    got = estimator.associate_constraints(window, anchor, cloud, cfg)
    assert {metric for _, _, metric in want} == {res.POINT_TO_PLANE, res.POINT_TO_POINT}
    assert 0 < len(want) < len(window.landmarks)
    assert [(c.landmark_id, c.metric) for c in got] == [(i, m) for i, _, m in want]
    for c, (_, nearest, metric) in zip(got, want):
        assert np.array_equal(c.point, cloud.positions[nearest])
        if metric == res.POINT_TO_PLANE:
            assert np.array_equal(c.normal, cloud.normals[nearest])
        else:
            assert c.normal is None

"""End-to-end localization on a short simulated map and query."""

import math
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


def _keyframe(kf_id, ids):
    """A keyframe 0.5 m further along x per id; every landmark 20 px of
    disparity to the right view, each row's pixels distinct."""
    rows = np.arange(len(ids))[:, None]
    pixels = np.array([320.0, 240.0, 300.0, 240.0]) + [1.0, 10.0 * kf_id, 1.0, 10.0 * kf_id] * rows
    state = estimator.NavState(pose=se3_exp(np.array([0, 0, 0, 0.5 * kf_id, 0, 0])))
    return estimator.Keyframe(kf_id, 0.1 * kf_id, state, np.array(ids), pixels)


def _hand_built_window():
    """Keyframes 1-3 of a capacity-3 window; landmark 9's first observer,
    keyframe 0, was evicted by keyframe 3."""
    window = estimator.SlidingWindow(capacity=3)
    for kf_id, ids in enumerate([[9, 1, 2, 3], [9, 2, 3, 3], [9, 3, 4, 5], [6, 7, 4, 5]]):
        window.insert_keyframe(_keyframe(kf_id, ids), min_landmarks=0)
    return window


def test_observer_counts_on_a_hand_built_window():
    """Each keyframe counts once per landmark; evicted keyframes not at all."""
    window = _hand_built_window()
    assert [kf.kf_id for kf in window.keyframes] == [1, 2, 3]
    assert window.observer_counts() == {9: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    window.landmarks = {i: np.zeros(3) for i in (1, 2, 3, 9)}
    assert estimator._solvable_landmarks(window) == [3, 9]
    # inserting a keyframe retires the landmarks no window keyframe sees
    window.insert_keyframe(_keyframe(4, [9, 4, 5, 6]), min_landmarks=0)
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


def test_window_problem_has_one_stereo_row_per_solvable_occurrence():
    """The stereo group, keyframe by keyframe in window order: a landmark id
    repeated in one keyframe gives two rows, and landmarks that are inactive
    (5) or seen by one keyframe only (2) give none."""
    window = _hand_built_window()
    window.landmarks = {i: np.array([0.5, 0.1 * i, 5.0]) for i in (2, 3, 4, 9)}
    lm_ids = estimator._solvable_landmarks(window)
    assert lm_ids == [3, 4, 9]
    rig = sim.default_rig()
    problem = estimator._build_vio_problem(
        window, rig, rig.gravity_vector(), estimator.EstimatorConfig(), lm_ids
    )
    # no keyframe here carries a preintegration, so the stereo group is the only one
    (stereo,) = problem.groups
    assert stereo.kind is res.StereoReprojectionFactor
    rows = list(zip(*([keys[i] for i in index] for keys, index in zip(stereo.keys, stereo.index))))
    # keyframes 1-3 see [9, 2, 3, 3], [9, 3, 4, 5] and [6, 7, 4, 5]
    want = [(1, 0, 9), (1, 2, 3), (1, 3, 3), (2, 0, 9), (2, 1, 3), (2, 2, 4), (3, 2, 4)]
    assert rows == [(f"pose{kf_id}", f"lm{lm_id}") for kf_id, _, lm_id in want]
    by_id = {kf.kf_id: kf for kf in window.keyframes}
    pixels, cam_left, cam_right = stereo.data
    np.testing.assert_array_equal(pixels, [by_id[kf_id].pixels[j] for kf_id, j, _ in want])
    assert cam_left is rig.camera
    np.testing.assert_array_equal(
        cam_right.body_t_cam.translation, rig.right_camera().body_t_cam.translation
    )
    assert sorted(k for k in problem.values() if k.startswith("lm")) == ["lm3", "lm4", "lm9"]


def test_empty_association():
    """No map points, or no landmarks: no rows, a NaN mean residual, and a
    non-rigid step without an anchor block that leaves the anchor alone."""
    cfg = estimator.EstimatorConfig()
    window = _hand_built_window()
    window.landmarks = {i: np.array([0.5, 0.1 * i, 5.0]) for i in (3, 4, 9)}
    bare = _hand_built_window()
    cloud = laser_map.PointCloudMap(np.random.default_rng(4).uniform(-6, 6, size=(50, 3)))
    pose = se3_exp(np.array([0.0, 0.0, 0.1, 0.2, -0.1, 0.0]))
    for w, c in ((window, laser_map.PointCloudMap(np.zeros((0, 3)))), (bare, cloud)):
        association = estimator.associate_constraints(w, pose, c, cfg)
        assert len(association) == 0
        assert association.points.shape == association.normals.shape == (0, 3)
        assert math.isnan(estimator._mean_constraint_residual(w, pose, association))

    problems = []

    def recording_solve(problem, options):
        problems.append(problem)
        return solve(problem, options)

    anchor = estimator.AnchorTransform(pose, pose)
    original, estimator.solve = estimator.solve, recording_solve
    try:
        estimator.non_rigid_ba(window, anchor, cloud, association, sim.default_rig(), cfg)
    finally:
        estimator.solve = original
    (problem,) = problems
    assert "anchor" not in problem.values()
    assert [g.kind for g in problem.groups] == [res.StereoReprojectionFactor]
    assert anchor.pose is pose


def _fixed_association(rng, cfg):
    """Landmarks and an association of both metrics, a tenth of them outliers."""
    truth = se3_exp(np.array([0.02, -0.01, 0.3, 1.0, -2.0, 0.5]))
    landmarks, points, normals, plane = {}, [], [], []
    for lm_id in range(60):
        landmarks[lm_id] = rng.uniform(-8.0, 8.0, size=3)
        point = truth.apply(landmarks[lm_id]) + rng.normal(scale=cfg.sigma_map, size=3)
        if lm_id % 10 == 3:
            point = point + rng.uniform(-2.0, 2.0, size=3)
        points.append(point)
        plane.append(rng.uniform() < 0.5)
        normal = rng.normal(size=3) if plane[-1] else np.full(3, np.nan)
        normals.append(normal / np.linalg.norm(normal))
    association = estimator.MapAssociation(
        np.arange(60), np.array(points), np.array(normals), np.array(plane)
    )
    guess = truth.retract(np.array([0.01, 0.0, -0.02, 0.2, 0.1, -0.15]))
    return landmarks, association, estimator.AnchorTransform(guess, guess, prior_scale=10.0)


@pytest.mark.parametrize("max_iterations", [8, 50])
def test_anchor_alignment_matches_generic_problem(max_iterations):
    """The rigid step's 6x6 solve against the joint problem's anchor groups."""
    cfg = estimator.EstimatorConfig()
    landmarks, association, anchor = _fixed_association(np.random.default_rng(11), cfg)
    assert 0 < association.plane.sum() < len(association)
    options = SolverOptions(max_iterations=max_iterations)

    generic = Problem()
    for lm_id in association.landmark_ids.tolist():
        generic.add_vector_block(f"lm{lm_id}", landmarks[lm_id], fixed=True)
    estimator._add_anchor_groups(generic, anchor, association, cfg)
    assert [g.kind for g in generic.groups] == [
        res.PointToPlaneFactor, res.PointToPointFactor, res.AnchorPriorFactor
    ]
    want = solve(generic, options)

    alignment = estimator.AnchorAlignment(anchor, association, landmarks, cfg)
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
    assert len(got) == len(want)
    assert got.landmark_ids.tolist() == [i for i, _, _ in want]
    assert got.plane.tolist() == [m == res.POINT_TO_PLANE for _, _, m in want]
    nearest = np.array([k for _, k, _ in want])
    assert np.array_equal(got.points, cloud.positions[nearest])
    assert np.array_equal(got.normals[got.plane], cloud.normals[nearest][got.plane])
    # the mean map residual against a landmark-by-landmark sum
    total = 0.0
    for lm_id, k, metric in want:
        offset = cloud.positions[k] - anchor.apply(window.landmarks[lm_id])
        plane = metric == res.POINT_TO_PLANE
        total += abs(float(cloud.normals[k] @ offset)) if plane else float(np.linalg.norm(offset))
    mean = estimator._mean_constraint_residual(window, anchor, got)
    assert mean == pytest.approx(total / len(want), rel=1e-12)

"""End-to-end localization on a short simulated map and query."""

import math
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossloc import estimator, laser_map, map_pipeline, solver
from crossloc import residuals as res
from crossloc import simulator as sim
from crossloc.liegroup import se3_exp
from crossloc.solver import solve

from oracles import (
    POINT_TO_PLANE,
    POINT_TO_POINT,
    DictWindow,
    MapConstraint,
    anchor_alignment_gauss_newton,
    brute_force_knn,
    levenberg_marquardt_two_evaluations,
)


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


@pytest.mark.parametrize(
    "mode, m, n", [("rigid_only", 1, 3), ("nope", 1, 3), ("hybrid", 0, 3), ("hybrid", 1, 0)]
)
def test_schedule_rejects_unknown_modes_and_ratios(mode, m, n):
    with pytest.raises(ValueError):
        estimator.BaSchedule(mode, m, n)


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


def _set_active(window, ids, positions=None):
    """Make ``ids`` (sorted, each seen by a window keyframe) the active
    landmarks, at ``positions`` or the origin."""
    window.landmarks = np.array(ids, dtype=int)
    window.positions = np.zeros((len(ids), 3)) if positions is None else np.array(positions, dtype=float)


def _observers(window):
    return dict(zip(window.seen_ids.tolist(), window.observers.tolist()))


def test_observer_counts_on_a_hand_built_window():
    """Each keyframe counts once per landmark; evicted keyframes not at all.
    Activation triangulates each inactive landmark that two window keyframes
    see from its first row in the oldest window keyframe that sees it."""
    rig = sim.default_rig()
    cfg = estimator.EstimatorConfig()

    def triangulated(kf, row):
        position, ok = estimator.triangulate_stereo(rig, kf.state.pose, kf.pixels[row], cfg.min_disparity)
        assert ok
        return position

    window = _hand_built_window()
    assert [kf.kf_id for kf in window.keyframes] == [1, 2, 3]
    assert window.row_ids.tolist() == [9, 2, 3, 3, 9, 3, 4, 5, 6, 7, 4, 5]
    assert window.row_keyframe.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    np.testing.assert_array_equal(window.row_pixels, np.vstack([kf.pixels for kf in window.keyframes]))
    assert _observers(window) == {9: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    # landmark 3, seen twice by keyframe 1 ([9, 2, 3, 3]), takes the first of those rows
    assert estimator.activate_landmarks(window, rig, cfg) == 4
    assert window.landmarks.tolist() == [3, 4, 5, 9]
    kf1 = window.keyframes[0]
    np.testing.assert_array_equal(window.positions[0], triangulated(kf1, 2))
    assert not np.array_equal(window.positions[0], triangulated(kf1, 3))

    # landmark 2, seen by keyframe 1 only, is active but not solvable
    _set_active(window, [2, 3, 9])
    assert window.landmarks[window.solvable()].tolist() == [3, 9]
    # inserting a keyframe retires the landmarks no window keyframe sees
    kf4 = _keyframe(4, [9, 4, 5, 6])
    window.insert_keyframe(kf4, min_landmarks=0)
    assert _observers(window) == {9: 2, 3: 1, 4: 3, 5: 3, 6: 2, 7: 1}
    assert window.landmarks.tolist() == [3, 9]
    assert window.landmarks[window.solvable()].tolist() == [9]

    # keyframes 2-4 see [9, 3, 4, 5], [6, 7, 4, 5] and [9, 4, 5, 6]. Landmark 9
    # (first seen by the evicted keyframe 0) and 6 come from their oldest
    # window observer; 3 and 7, seen once, stay inactive, and so does 5,
    # whose row in its oldest observer has too little disparity. Rows are
    # stacked at insertion, so keyframe 2's pixels change before it goes in.
    kf2, kf3, _ = window.keyframes
    kf2 = replace(kf2, pixels=kf2.pixels.copy())
    kf2.pixels[3, 2] = kf2.pixels[3, 0] - 0.5 * cfg.min_disparity
    window = estimator.SlidingWindow(capacity=3)
    for kf in (kf2, kf3, kf4):
        window.insert_keyframe(kf, min_landmarks=0)
    _set_active(window, [4])
    assert estimator.activate_landmarks(window, rig, cfg) == 2
    assert window.landmarks.tolist() == [4, 6, 9]
    np.testing.assert_array_equal(window.positions[0], np.zeros(3))
    np.testing.assert_array_equal(window.positions[2], triangulated(kf2, 0))
    np.testing.assert_array_equal(window.positions[1], triangulated(kf3, 0))
    assert _observers(window)[5] == 3
    position, ok = estimator.triangulate_stereo(rig, kf2.state.pose, kf2.pixels[3], cfg.min_disparity)
    assert not ok and np.isnan(position).all()


@pytest.mark.parametrize("seed", range(6))
def test_window_tables_match_the_dict_reference(seed):
    """Random keyframes into a capacity-3 window and into the dict window of
    ``tests/oracles.py``: ids repeat within a keyframe, keyframes are
    evicted, and about a third of the rows have too little disparity. After
    every insertion, activation and solve write-back the active ids, their
    positions (bitwise), the observer counts, the solvable set and the
    window problem's stereo slots and pixels agree."""
    rng = np.random.default_rng(seed)
    rig = sim.default_rig()
    cfg = estimator.EstimatorConfig()
    window, reference = estimator.SlidingWindow(capacity=3), DictWindow(3)

    def check():
        assert window.landmarks.tolist() == sorted(reference.landmarks)
        want = [reference.landmarks[i] for i in sorted(reference.landmarks)]
        np.testing.assert_array_equal(window.positions, np.reshape(want, (-1, 3)))
        assert _observers(window) == reference.observer_counts()
        solvable = window.solvable()
        assert window.landmarks[solvable].tolist() == reference.solvable()
        problem = estimator._build_vio_problem(window, rig, rig.gravity_vector(), cfg, solvable)
        rows = reference.stereo_rows()
        assert len(problem.groups) == (len(rows) > 0)
        if rows:
            (stereo,) = problem.groups
            (_, kf_rows), (_, lm_rows) = stereo.slots
            got = zip(kf_rows.tolist(), window.landmarks[solvable][lm_rows].tolist())
            assert list(got) == [(k, lm_id) for k, lm_id, _ in rows]
            np.testing.assert_array_equal(stereo.data[0], [px for _, _, px in rows])
        return problem, solvable

    retired = set()
    for kf_id in range(12):
        n = int(rng.integers(4, 10))
        ids = rng.integers(kf_id, kf_id + 6, size=n)  # a pool that drifts, so ids leave
        ul, vl = rng.uniform(200.0, 440.0, n), rng.uniform(100.0, 380.0, n)
        disparity = rng.uniform(0.0, 3.0 * cfg.min_disparity, n)
        state = estimator.NavState(pose=se3_exp(rng.normal(scale=[0.1, 0.1, 0.1, 1.0, 1.0, 1.0])))
        kf = estimator.Keyframe(kf_id, 0.1 * kf_id, state, ids, np.column_stack([ul, vl, ul - disparity, vl]))
        active = set(reference.landmarks)
        window.insert_keyframe(kf, min_landmarks=0)
        reference.insert(kf)
        retired |= active - set(reference.landmarks)
        check()
        assert estimator.activate_landmarks(window, rig, cfg) == reference.activate(rig, cfg.min_disparity)
        problem, solvable = check()
        # a solve moves the solvable landmarks; the keyframes are shared
        problem.value["lm"] = problem.value["lm"] + rng.normal(size=problem.value["lm"].shape)
        estimator._write_back(problem, window, solvable)
        reference.landmarks.update(zip(reference.solvable(), problem.value["lm"]))
        check()
    assert retired and reference.landmarks


def test_initialize_rejects_unusable_starts(short_inputs):
    """Too few frames for a second keyframe, nothing to triangulate, or a
    first frame that tracks too few landmarks."""
    query, _, guess = short_inputs
    cfg = estimator.EstimatorConfig()
    window, _ = estimator.initialize(query, guess, cfg)
    assert window.keyframes[0].kf_id == 0 and len(window.keyframes) == 2
    with pytest.raises(estimator.InsufficientParallaxError, match="too short"):
        estimator.initialize(replace(query, frames=query.frames[:2]), guess, cfg)
    with pytest.raises(estimator.InsufficientParallaxError, match="triangulated"):
        estimator.initialize(query, guess, replace(cfg, min_disparity=1e6))
    first_frame = len(query.frames[0].landmark_ids)
    with pytest.raises(estimator.TooFewObservationsError, match=f"{first_frame} < {first_frame + 1}"):
        estimator.initialize(query, guess, replace(cfg, min_frame_landmarks=first_frame + 1))


def test_initialize_passes_over_a_sparse_due_frame(short_inputs):
    """A due frame that tracks too few landmarks is passed over, as it is
    after initialization: the window is seeded from the next due frame."""
    query, _, guess = short_inputs
    cfg = estimator.EstimatorConfig()
    first_due = estimator.initialize(query, guess, cfg)[0].keyframes[1].kf_id
    frames = list(query.frames)
    sparse = frames[first_due]
    frames[first_due] = replace(sparse, landmark_ids=sparse.landmark_ids[:5], pixels=sparse.pixels[:5])
    window, _ = estimator.initialize(replace(query, frames=frames), guess, cfg)
    assert [kf.kf_id for kf in window.keyframes] == [0, first_due + 1]


def test_dropped_imu_samples(short_inputs):
    """With every 7th IMU sample off the frame clock dropped, each keyframe's
    preintegration still spans exactly its frame gap, and the run holds."""
    query, cloud, guess = short_inputs
    samples = query.imu_samples
    keep = np.isin(samples[:, 0], query.gt_times) | (np.arange(len(samples)) % 7 != 0)
    degraded = replace(query, imu_samples=samples[keep])
    assert len(degraded.imu_samples) < len(samples)

    _assert_keyframes_span_their_gaps(degraded, guess)
    run = estimator.run_localization(degraded, cloud, guess)
    assert not run.diverged, run.divergence_reason


def test_missing_frame_time_samples(short_inputs):
    """With every frame-time IMU sample after t = 0 dropped, each keyframe's
    preintegration still spans its whole frame gap: the ends are interpolated."""
    query, _, guess = short_inputs
    samples = query.imu_samples
    at_frame = np.isin(samples[:, 0], query.gt_times[1:])
    assert at_frame.sum() == len(query.gt_times) - 1
    _assert_keyframes_span_their_gaps(replace(query, imu_samples=samples[~at_frame]), guess)


def _assert_keyframes_span_their_gaps(query, guess):
    cfg = estimator.EstimatorConfig()
    window, _ = estimator.initialize(query, guess, cfg)
    keyframes = list(window.keyframes)
    for kf in estimator._due_keyframes(query, window, cfg):
        window.insert_keyframe(kf, cfg.min_frame_landmarks)
        keyframes.append(kf)
    assert len(keyframes) > 5
    for prev, kf in zip(keyframes, keyframes[1:]):
        assert abs(kf.pre_from_prev.dt_total - (kf.timestamp - prev.timestamp)) < 1e-12


def test_imu_between_interpolates_missing_ends():
    """Samples linear in time: an end without its own sample gets the line's
    value there; ends with one, or outside the stream, get nothing added."""
    times = np.array([0.0, 0.1, 0.2, 0.3])
    slope = np.arange(1.0, 7.0)
    samples = np.column_stack([times, 2.0 + times[:, None] * slope])
    session = SimpleNamespace(imu_samples=samples)

    exact = estimator._imu_between(session, 0.1, 0.3)
    np.testing.assert_array_equal(exact, samples[1:])
    assert np.shares_memory(exact, samples)

    got = estimator._imu_between(session, 0.05, 0.25)
    np.testing.assert_array_equal(got[:, 0], [0.05, 0.1, 0.2, 0.25])
    np.testing.assert_allclose(got[:, 1:], 2.0 + got[:, :1] * slope, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(got[1:3], samples[1:3])

    np.testing.assert_array_equal(estimator._imu_between(session, -0.1, 0.3), samples)
    np.testing.assert_array_equal(estimator._imu_between(session, 0.0, 0.4), samples)
    between = estimator._imu_between(session, 0.12, 0.18)
    np.testing.assert_array_equal(between[:, 0], [0.12, 0.18])


def test_window_problem_has_one_stereo_row_per_solvable_occurrence():
    """The stereo group, keyframe by keyframe in window order: a landmark id
    repeated in one keyframe gives two rows, and landmarks that are inactive
    (5) or seen by one keyframe only (2) give none."""
    window = _hand_built_window()
    _set_active(window, [2, 3, 4, 9], [[0.5, 0.1 * i, 5.0] for i in (2, 3, 4, 9)])
    solvable = window.solvable()
    lm_ids = window.landmarks[solvable].tolist()
    assert lm_ids == [3, 4, 9]
    rig = sim.default_rig()
    problem = estimator._build_vio_problem(
        window, rig, rig.gravity_vector(), estimator.EstimatorConfig(), solvable
    )
    # no keyframe here carries a preintegration, so the stereo group is the only one
    (stereo,) = problem.groups
    assert stereo.kind is res.StereoReprojectionFactor
    (pose_family, kf_rows), (lm_family, lm_rows) = stereo.slots
    assert (pose_family, lm_family) == ("pose", "lm")
    kf_ids = [kf.kf_id for kf in window.keyframes]
    rows = [(kf_ids[i], lm_ids[j]) for i, j in zip(kf_rows, lm_rows)]
    # keyframes 1-3 see [9, 2, 3, 3], [9, 3, 4, 5] and [6, 7, 4, 5]
    want = [(1, 0, 9), (1, 2, 3), (1, 3, 3), (2, 0, 9), (2, 1, 3), (2, 2, 4), (3, 2, 4)]
    assert rows == [(kf_id, lm_id) for kf_id, _, lm_id in want]
    by_id = {kf.kf_id: kf for kf in window.keyframes}
    pixels, cam_left, cam_right = stereo.data
    np.testing.assert_array_equal(pixels, [by_id[kf_id].pixels[j] for kf_id, j, _ in want])
    assert cam_left is rig.camera
    np.testing.assert_array_equal(
        cam_right.body_t_cam.translation, rig.right_camera().body_t_cam.translation
    )
    # one family row per keyframe in window order, the oldest fixed; one per solvable landmark
    np.testing.assert_array_equal(problem.value["pose"][1], [kf.state.pose.translation for kf in window.keyframes])
    assert problem.families["pose"].fixed.tolist() == [True, False, False]
    np.testing.assert_array_equal(problem.value["lm"], [[0.5, 0.1 * i, 5.0] for i in lm_ids])
    assert problem.families["lm"].eliminate


def test_empty_association():
    """No map points, or no landmarks: no rows, a NaN mean residual, and a
    non-rigid step without an anchor block that leaves the anchor alone."""
    cfg = estimator.EstimatorConfig()
    window = _hand_built_window()
    _set_active(window, [3, 4, 9], [[0.5, 0.1 * i, 5.0] for i in (3, 4, 9)])
    bare = _hand_built_window()
    cloud = laser_map.PointCloudMap(np.random.default_rng(4).uniform(-6, 6, size=(50, 3)))
    pose = se3_exp(np.array([0.0, 0.0, 0.1, 0.2, -0.1, 0.0]))
    for w, c in ((window, laser_map.PointCloudMap(np.zeros((0, 3)))), (bare, cloud)):
        association = estimator.associate_constraints(w, pose, c, cfg)
        assert len(association) == 0
        assert association.points.shape == association.normals.shape == (0, 3)
        assert math.isnan(estimator._mean_constraint_residual(w, pose, association))

    problems = []

    def recording_solve(problem, max_iterations):
        problems.append(problem)
        return solve(problem, max_iterations)

    anchor = estimator.AnchorTransform(pose, pose)
    original, estimator.solve = estimator.solve, recording_solve
    try:
        estimator.non_rigid_ba(window, anchor, association, sim.default_rig(), cfg)
    finally:
        estimator.solve = original
    (problem,) = problems
    assert "anchor" not in problem.value
    assert [g.kind for g in problem.groups] == [res.StereoReprojectionFactor]
    assert anchor.pose is pose


def _fixed_association(rng, cfg):
    """A window of 60 landmarks, ids odd from 5, and an association of both
    metrics with a row for each, a tenth of them outliers."""
    truth = se3_exp(np.array([0.02, -0.01, 0.3, 1.0, -2.0, 0.5]))
    window = estimator.SlidingWindow()
    positions, points, normals, plane = [], [], [], []
    for i in range(60):
        positions.append(rng.uniform(-8.0, 8.0, size=3))
        point = truth.apply(positions[-1]) + rng.normal(scale=cfg.sigma_map, size=3)
        if i % 10 == 3:
            point = point + rng.uniform(-2.0, 2.0, size=3)
        points.append(point)
        plane.append(rng.uniform() < 0.5)
        normal = rng.normal(size=3) if plane[-1] else np.full(3, np.nan)
        normals.append(normal / np.linalg.norm(normal))
    _set_active(window, 5 + 2 * np.arange(60), positions)
    association = estimator.MapAssociation(
        window.landmarks, np.array(points), np.array(normals), np.array(plane)
    )
    guess = truth.retract(np.array([0.01, 0.0, -0.02, 0.2, 0.1, -0.15]))
    return window, association, estimator.AnchorTransform(guess, guess, prior_scale=10.0)


@pytest.mark.parametrize("max_iterations", [8, 50])
def test_anchor_alignment_matches_generic_problem(max_iterations):
    """The rigid step's anchor-only problem against a dense Gauss-Newton
    oracle built from the one-row map and prior references: capped at 8
    iterations the solve stops early; run to convergence its cost is the
    oracle's cost of its anchor, and the oracle's minimum.

    The solve stops on its relative-decrease rule (``STEP_TOL``) with its
    anchor 5.5e-7 from the oracle's fixed point, so the anchors agree to
    1e-6 and the costs, quadratic in that gap, to 1e-9.
    """
    cfg = estimator.EstimatorConfig()
    window, association, anchor = _fixed_association(np.random.default_rng(11), cfg)
    assert 0 < association.plane.sum() < len(association)

    problem = estimator._alignment_problem(window, anchor, association, cfg)
    assert [g.kind for g in problem.groups] == [
        res.PointToPlaneFactor, res.PointToPointFactor, res.AnchorPriorFactor
    ]
    report = solve(problem, max_iterations)
    assert report.final_cost < 0.5 * report.initial_cost
    if max_iterations == 8:
        assert report.termination == "max_iter"
        return

    constraints = [
        MapConstraint(
            int(lm_id), point, normal if plane else None,
            np.eye(1 if plane else 3) / cfg.sigma_map**2,
            POINT_TO_PLANE if plane else POINT_TO_POINT,
        )
        for lm_id, point, normal, plane in zip(
            association.landmark_ids, association.points, association.normals, association.plane
        )
    ]
    want, cost = anchor_alignment_gauss_newton(
        anchor.pose, dict(zip(window.landmarks.tolist(), window.positions)), constraints,
        (anchor.prior_mean, cfg.prior_information(anchor.prior_scale)),
        res.RobustKernel("cauchy", cfg.cauchy_metric),
    )
    got = estimator._solved_anchor(problem)
    assert report.termination == "converged"
    assert report.initial_cost == pytest.approx(cost(anchor.pose), rel=1e-12)
    assert report.final_cost == pytest.approx(cost(got), rel=1e-12)
    assert report.final_cost == pytest.approx(cost(want), rel=1e-9)
    np.testing.assert_allclose(got.rotation, want.rotation, rtol=0, atol=1e-6)
    np.testing.assert_allclose(got.translation, want.translation, rtol=0, atol=1e-6)


@pytest.mark.parametrize("max_iterations", [8, 50])
def test_alignment_solve_matches_two_evaluation_loop(max_iterations):
    """On the rigid step's anchor-only problem, the LM loop that linearizes
    each iterate once gives the value and the report of the loop that
    evaluates each iterate twice, bitwise."""
    cfg = estimator.EstimatorConfig()
    window, association, anchor = _fixed_association(np.random.default_rng(11), cfg)
    problem, reference = (estimator._alignment_problem(window, anchor, association, cfg) for _ in range(2))
    got = solve(problem, max_iterations)
    value, want = levenberg_marquardt_two_evaluations(
        solver._System(reference), reference.value, max_iterations
    )
    assert got == want
    for a, b in zip(problem.value["anchor"], value["anchor"]):
        np.testing.assert_array_equal(a, b)


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
    local = anchor.inverse().apply(rng.uniform([-8, -8, -1], [8, 8, 4], size=(200, 3)))
    landmarks = dict(zip(rng.permutation(1000)[:200].tolist(), local))
    window = estimator.SlidingWindow()
    _set_active(window, sorted(landmarks), [landmarks[i] for i in sorted(landmarks)])

    want = []
    for lm_id in sorted(landmarks):
        idx, dist = brute_force_knn(cloud.positions, anchor.apply(landmarks[lm_id]), cfg.knn_k)
        if dist[0] > cfg.gate_radius:
            continue
        normals = cloud.normals[idx]
        angles = np.arccos(np.clip(normals @ normals.T, -1.0, 1.0))
        plane = not np.isnan(normals).any() and np.all(angles <= cfg.normal_consistency_angle + 1e-12)
        want.append((lm_id, idx[0], POINT_TO_PLANE if plane else POINT_TO_POINT))

    got = estimator.associate_constraints(window, anchor, cloud, cfg)
    assert {metric for _, _, metric in want} == {POINT_TO_PLANE, POINT_TO_POINT}
    assert 0 < len(want) < len(window.landmarks)
    assert len(got) == len(want)
    assert got.landmark_ids.tolist() == [i for i, _, _ in want]
    assert got.plane.tolist() == [m == POINT_TO_PLANE for _, _, m in want]
    nearest = np.array([k for _, k, _ in want])
    assert np.array_equal(got.points, cloud.positions[nearest])
    assert np.array_equal(got.normals[got.plane], cloud.normals[nearest][got.plane])
    # the mean map residual against a landmark-by-landmark sum
    total = 0.0
    for lm_id, k, metric in want:
        offset = cloud.positions[k] - anchor.apply(landmarks[lm_id])
        plane = metric == POINT_TO_PLANE
        total += abs(float(cloud.normals[k] @ offset)) if plane else float(np.linalg.norm(offset))
    mean = estimator._mean_constraint_residual(window, anchor, got)
    assert mean == pytest.approx(total / len(want), rel=1e-12)

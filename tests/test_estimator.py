"""End-to-end localization on a short simulated map and query."""

import math
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossloc import estimator, imu, laser_map, map_pipeline, solver
from crossloc import residuals as res
from crossloc import simulator as sim
from crossloc.liegroup import Pose, rot_z, se3_exp, so3_exp
from crossloc.solver import solve

from oracles import (
    POINT_TO_PLANE,
    POINT_TO_POINT,
    DictWindow,
    MapConstraint,
    NavState,
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
    _assert_accurate(query, guess, first)
    return first


def _assert_accurate(query, guess, run):
    """In the map frame, against the simulator's ground truth: the last
    keyframe within 0.15 m, and the ATE RMSE below the guess's offset."""
    est = np.array([p.translation for p in run.poses_map])
    truth = np.array([query.gt_poses[r.keyframe_id].translation for r in run.records])
    err = np.linalg.norm(est - truth, axis=1)
    assert err[-1] < 0.15
    guess_offset = np.linalg.norm(guess.translation - query.gt_poses[0].translation)
    assert np.sqrt(np.mean(err**2)) < guess_offset


def test_non_rigid_localization_is_deterministic(short_inputs):
    _assert_deterministic(short_inputs, "non_rigid_only")


def test_hybrid_localization_is_deterministic(short_inputs):
    run = _assert_deterministic(short_inputs, "hybrid")
    assert {r.actions for r in run.records} == {("rigid",), ("non_rigid",)}


@pytest.mark.parametrize("mode", ["non_rigid_only", "hybrid"])
def test_moving_the_map_frame_moves_every_keyframe(short_inputs, mode):
    """One SE(3) that keeps z vertical, applied to the map's positions and
    normals and to the anchor guess, moves every keyframe pose by itself:
    within 1e-9 m and 1e-9 per rotation entry, with the same constraint
    count at every step."""
    query, cloud, guess = short_inputs
    move = Pose(rot_z(0.7), np.array([30.0, -12.0, 0.0]))
    moved = laser_map.PointCloudMap(
        move.apply(cloud.positions), cloud.normals @ move.rotation.T, cloud.counts, cloud.ground, cloud.labels
    )
    schedule = estimator.BaSchedule(mode)
    base = estimator.run_localization(query, cloud, guess, schedule)
    run = estimator.run_localization(query, moved, move @ guess, schedule)
    assert not base.diverged and not run.diverged
    assert len(base.records) > 5
    assert [r.n_constraints for r in run.records] == [r.n_constraints for r in base.records]
    assert len(run.poses_map) == len(base.poses_map)
    for got, pose in zip(run.poses_map, base.poses_map):
        want = move @ pose
        np.testing.assert_allclose(got.translation, want.translation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.rotation, want.rotation, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode", ["non_rigid_only", "hybrid"])
def test_anchor_prior_is_each_steps_input_anchor(short_inputs, mode):
    """Every anchor prior of a step, the rigid step's ICP solves included,
    has the anchor the step was given as its mean, bitwise, and that anchor
    is the one the last step returned; the prior's information is
    ``prior_information(INITIAL_PRIOR_SCALE)`` on the first step only."""
    query, cloud, guess = short_inputs
    cfg = estimator.EstimatorConfig()
    steps = []  # per step: its input anchor, its priors, its output anchor
    step, add_anchor_groups = estimator.step, estimator._add_anchor_groups

    def recording_step(window, anchor, *args):
        steps.append([anchor, []])
        out = step(window, anchor, *args)
        steps[-1].append(out[0])
        return out

    def recording_groups(problem, anchor, prior, *args):
        steps[-1][1].append(prior)
        return add_anchor_groups(problem, anchor, prior, *args)

    estimator.step, estimator._add_anchor_groups = recording_step, recording_groups
    try:
        run = estimator.run_localization(query, cloud, guess, estimator.BaSchedule(mode), cfg)
    finally:
        estimator.step, estimator._add_anchor_groups = step, add_anchor_groups
    assert not run.diverged and len(steps) == len(run.records) > 5
    assert steps[0][0] is guess
    assert all(given is returned for (_, _, returned), (given, _, _) in zip(steps, steps[1:]))
    first, later = (cfg.prior_information(scale) for scale in (estimator.INITIAL_PRIOR_SCALE, 1.0))
    assert not np.array_equal(first, later)
    for i, (anchor, priors, _) in enumerate(steps):
        assert priors
        for mean, information in priors:
            np.testing.assert_array_equal(mean.rotation, anchor.rotation)
            np.testing.assert_array_equal(mean.translation, anchor.translation)
            np.testing.assert_array_equal(information, first if i == 0 else later)
    # a non-rigid step adds the prior once, a rigid step once per ICP solve
    counts = {}
    for (_, priors, _), record in zip(steps, run.records):
        counts.setdefault(record.actions, []).append(len(priors))
    assert set(counts.pop(("non_rigid",))) == {1}
    if mode == "hybrid":
        assert max(counts.pop(("rigid",))) > 1
    assert not counts


@pytest.mark.parametrize(
    "field, value",
    [("window_capacity", 1), ("window_capacity", 0), ("prior_trans_sigma", 0.0), ("max_iterations", 0),
     ("gate_radius", -1.0), ("gate_radius", 0.0), ("knn_k", 0)],
)
def test_config_rejects_out_of_range_values(field, value):
    """A value the estimator cannot run with, or that gates out every map
    row, fails when the config is built, naming its field; the smallest
    values it runs with pass."""
    with pytest.raises(ValueError, match=field):
        estimator.EstimatorConfig(**{field: value})
    estimator.EstimatorConfig(window_capacity=2, max_iterations=1, knn_k=1, gate_radius=1e-9, prior_trans_sigma=1e-9)


@pytest.mark.parametrize("mode", ["rigid_only", "nope"])
def test_schedule_rejects_unknown_modes(mode):
    with pytest.raises(ValueError):
        estimator.BaSchedule(mode)


def test_schedule_cycles():
    """Hybrid: one non-rigid step, then three rigid ones, over and over."""
    hybrid, non_rigid = estimator.BaSchedule("hybrid"), estimator.BaSchedule("non_rigid_only")
    cycle = [("non_rigid",)] + [("rigid",)] * 3
    assert [hybrid.actions_at(c) for c in range(8)] == 2 * cycle
    assert [non_rigid.actions_at(c) for c in range(8)] == [("non_rigid",)] * 8


def _kf_pose(kf_id):
    """The pose of ``_keyframe(kf_id, ...)``: 0.5 m further along x per id."""
    return se3_exp(np.array([0, 0, 0, 0.5 * kf_id, 0, 0]))


# a 0.1 s link of still, zero IMU samples, for keyframes built by hand
_LINK = imu.integrate(np.array([[0.0] * 7, [0.1] + [0.0] * 6]))


def _keyframe(kf_id, ids):
    """``(keyframe, pose, velocity)``: at ``_kf_pose(kf_id)``, at rest, linked
    by ``_LINK``; every landmark 20 px of disparity to the right view, each
    row's pixels distinct."""
    rows = np.arange(len(ids))[:, None]
    pixels = np.array([320.0, 240.0, 300.0, 240.0]) + [1.0, 10.0 * kf_id, 1.0, 10.0 * kf_id] * rows
    return estimator.Keyframe(kf_id, np.array(ids), pixels, _LINK), _kf_pose(kf_id), np.zeros(3)


def _hand_built_window():
    """Keyframes 1-3 of a capacity-3 window; landmark 9's first observer,
    keyframe 0, was evicted by keyframe 3."""
    window = estimator.SlidingWindow(capacity=3)
    for kf_id, ids in enumerate([[9, 1, 2, 3], [9, 2, 3, 3], [9, 3, 4, 5], [6, 7, 4, 5]]):
        window.insert_keyframe(*_keyframe(kf_id, ids))
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

    def triangulated(kf, row):
        position, ok = estimator.triangulate_stereo(rig, _kf_pose(kf.kf_id), kf.pixels[row])
        assert ok
        return position

    window = _hand_built_window()
    assert [kf.kf_id for kf in window.keyframes] == [1, 2, 3]
    assert window.row_ids.tolist() == [9, 2, 3, 3, 9, 3, 4, 5, 6, 7, 4, 5]
    assert window.row_keyframe.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    np.testing.assert_array_equal(window.row_pixels, np.vstack([kf.pixels for kf in window.keyframes]))
    assert _observers(window) == {9: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    # landmark 3, seen twice by keyframe 1 ([9, 2, 3, 3]), takes the first of those rows
    assert estimator.activate_landmarks(window, rig) == 4
    assert window.landmarks.tolist() == [3, 4, 5, 9]
    kf1 = window.keyframes[0]
    np.testing.assert_array_equal(window.positions[0], triangulated(kf1, 2))
    assert not np.array_equal(window.positions[0], triangulated(kf1, 3))

    # landmark 2, seen by keyframe 1 only, is active but not solvable
    _set_active(window, [2, 3, 9])
    assert window.landmarks[window.solvable()].tolist() == [3, 9]
    # inserting a keyframe retires the landmarks no window keyframe sees
    kf4, *state4 = _keyframe(4, [9, 4, 5, 6])
    window.insert_keyframe(kf4, *state4)
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
    kf2.pixels[3, 2] = kf2.pixels[3, 0] - 0.5 * estimator.MIN_DISPARITY
    window = estimator.SlidingWindow(capacity=3)
    for kf in (kf2, kf3, kf4):
        window.insert_keyframe(kf, _kf_pose(kf.kf_id), np.zeros(3))
    _set_active(window, [4])
    assert estimator.activate_landmarks(window, rig) == 2
    assert window.landmarks.tolist() == [4, 6, 9]
    np.testing.assert_array_equal(window.positions[0], np.zeros(3))
    np.testing.assert_array_equal(window.positions[2], triangulated(kf2, 0))
    np.testing.assert_array_equal(window.positions[1], triangulated(kf3, 0))
    assert _observers(window)[5] == 3
    position, ok = estimator.triangulate_stereo(rig, _kf_pose(kf2.kf_id), kf2.pixels[3])
    assert not ok and np.isnan(position).all()


@pytest.mark.parametrize("seed", range(6))
def test_window_tables_match_the_dict_reference(seed):
    """Random keyframes into a capacity-3 window and into the dict window of
    ``tests/oracles.py``: ids repeat within a keyframe, keyframes are
    evicted, and about a third of the rows have too little disparity. After
    every insertion, activation and solve write-back the keyframe states
    (poses, velocities and biases, bitwise, and as the window problem's
    families), the active ids, their positions (bitwise), the observer
    counts, the solvable set and the window problem's stereo slots and
    pixels agree. A write-back moves the states and the solvable landmarks."""
    rng = np.random.default_rng(seed)
    state_rng = np.random.default_rng([seed, 1])  # velocities and state moves
    rig = sim.default_rig()
    window, reference = estimator.SlidingWindow(capacity=3), DictWindow(3)

    def check():
        def rows(field):
            return np.array([field(s) for s in reference.states])

        states = {
            "pose": (rows(lambda s: s.pose.rotation), rows(lambda s: s.pose.translation)),
            "vel": rows(lambda s: s.velocity),
            "bg": rows(lambda s: s.gyro_bias),
            "ba": rows(lambda s: s.accel_bias),
        }
        got = {
            "pose": (window.poses.rotation, window.poses.translation),
            "vel": window.velocities, "bg": window.gyro_biases, "ba": window.accel_biases,
        }
        np.testing.assert_equal(got, states)
        assert [kf.kf_id for kf in window.keyframes] == [kf.kf_id for kf in reference.keyframes]
        assert window.landmarks.tolist() == sorted(reference.landmarks)
        want = [reference.landmarks[i] for i in sorted(reference.landmarks)]
        np.testing.assert_array_equal(window.positions, np.reshape(want, (-1, 3)))
        assert _observers(window) == reference.observer_counts()
        solvable = window.solvable()
        assert window.landmarks[solvable].tolist() == reference.solvable()
        problem = estimator._build_vio_problem(window, rig, rig.gravity_vector(), solvable)
        np.testing.assert_equal({name: problem.value[name] for name in states}, states)
        rows = reference.stereo_rows()
        links = [res.PreintegrationFactor, res.BiasRandomWalkFactor] * (len(window.keyframes) > 1)
        assert [g.kind for g in problem.groups] == [res.StereoReprojectionFactor] * (len(rows) > 0) + links
        if rows:
            stereo = problem.groups[0]
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
        disparity = rng.uniform(0.0, 3.0 * estimator.MIN_DISPARITY, n)
        pose = se3_exp(rng.normal(scale=[0.1, 0.1, 0.1, 1.0, 1.0, 1.0]))
        kf = estimator.Keyframe(kf_id, ids, np.column_stack([ul, vl, ul - disparity, vl]), _LINK)
        velocity = state_rng.normal(size=3)
        active = set(reference.landmarks)
        window.insert_keyframe(kf, pose, velocity)
        reference.insert(kf, pose, velocity)
        retired |= active - set(reference.landmarks)
        check()
        assert estimator.activate_landmarks(window, rig) == reference.activate(rig, estimator.MIN_DISPARITY)
        problem, solvable = check()
        # a solve moves the states and the solvable landmarks; the keyframes are shared
        problem.value["lm"] = problem.value["lm"] + rng.normal(size=problem.value["lm"].shape)
        value, n = problem.value, len(window.keyframes)
        moved = Pose(*value["pose"]).retract(state_rng.normal(scale=0.1, size=(n, 6)))
        value["pose"] = (moved.rotation, moved.translation)
        for name in ("vel", "bg", "ba"):
            value[name] = value[name] + state_rng.normal(scale=0.1, size=(n, 3))
        estimator._write_back(problem, window, solvable)
        reference.landmarks.update(zip(reference.solvable(), value["lm"]))
        reference.states = [
            NavState(Pose(rot, trans), vel, ba, bg)
            for rot, trans, vel, ba, bg in zip(*value["pose"], value["vel"], value["ba"], value["bg"])
        ]
        check()
    assert retired and reference.landmarks


def test_initialize_rejects_unusable_starts(short_inputs):
    """Too few frames for a second keyframe, nothing to triangulate (every
    right pixel on its left one), or a first frame that tracks too few
    landmarks."""
    query, _, _ = short_inputs
    cfg = estimator.EstimatorConfig()
    window = estimator.initialize(query, cfg)
    assert window.keyframes[0].kf_id == 0 and len(window.keyframes) == 2
    with pytest.raises(estimator.InsufficientParallaxError, match="too short"):
        estimator.initialize(replace(query, frames=query.frames[:2]), cfg)
    flat = [replace(f, pixels=np.tile(f.pixels[:, :2], 2)) for f in query.frames]
    with pytest.raises(estimator.InsufficientParallaxError, match="only 0 landmarks triangulated"):
        estimator.initialize(replace(query, frames=flat), cfg)
    n = estimator.MIN_FRAME_LANDMARKS
    first = query.frames[0]
    cut = [replace(first, landmark_ids=first.landmark_ids[: n - 1], pixels=first.pixels[: n - 1])]
    with pytest.raises(estimator.TooFewObservationsError, match=f"{n - 1} < {n}"):
        estimator.initialize(replace(query, frames=cut + list(query.frames[1:])), cfg)


def test_initialize_passes_over_a_sparse_due_frame(short_inputs):
    """A due frame that tracks too few landmarks is passed over, as it is
    after initialization: the window is seeded from the next due frame."""
    query, _, _ = short_inputs
    cfg = estimator.EstimatorConfig()
    first_due = estimator.initialize(query, cfg).keyframes[1].kf_id
    frames = list(query.frames)
    sparse = frames[first_due]
    frames[first_due] = replace(sparse, landmark_ids=sparse.landmark_ids[:5], pixels=sparse.pixels[:5])
    window = estimator.initialize(replace(query, frames=frames), cfg)
    assert [kf.kf_id for kf in window.keyframes] == [0, first_due + 1]


def test_dropped_imu_samples(short_inputs):
    """With every 7th IMU sample off the frame clock dropped, each keyframe's
    preintegration still spans exactly its frame gap, and the run holds."""
    query, cloud, guess = short_inputs
    samples = query.imu_samples
    keep = np.isin(samples[:, 0], query.gt_times) | (np.arange(len(samples)) % 7 != 0)
    degraded = replace(query, imu_samples=samples[keep])
    assert len(degraded.imu_samples) < len(samples)

    _assert_keyframes_span_their_gaps(degraded)
    run = estimator.run_localization(degraded, cloud, guess)
    assert not run.diverged, run.divergence_reason


def test_missing_frame_time_samples(short_inputs):
    """With every frame-time IMU sample after t = 0 dropped, each keyframe's
    preintegration still spans its whole frame gap: the ends are interpolated."""
    query, _, _ = short_inputs
    samples = query.imu_samples
    at_frame = np.isin(samples[:, 0], query.gt_times[1:])
    assert at_frame.sum() == len(query.gt_times) - 1
    _assert_keyframes_span_their_gaps(replace(query, imu_samples=samples[~at_frame]))


@pytest.mark.parametrize("back", [5, 8, 11])
def test_imu_stream_ending_before_the_last_frames(short_inputs, back):
    """An IMU stream that ends 0.055 s after an early frame: keyframes stop
    at the first frame after its last sample, each spans its whole gap, and
    the run ends cleanly."""
    query, cloud, guess = short_inputs
    end = query.gt_times[-back] + 0.055
    cut = replace(query, imu_samples=query.imu_samples[query.imu_samples[:, 0] <= end])
    _assert_keyframes_span_their_gaps(cut)
    run = estimator.run_localization(cut, cloud, guess)
    assert not run.diverged, run.divergence_reason
    assert query.gt_times[run.records[-1].keyframe_id] <= end


def test_imu_stream_starting_after_frame_0(short_inputs):
    """A stream that starts 0.055 s after frame 0 would preintegrate the
    first keyframe link over part of its gap: ``initialize`` names the
    uncovered interval instead. A stream that starts on frame 0 is taken."""
    query, _, _ = short_inputs
    t0 = query.gt_times[0]
    samples = query.imu_samples
    late = replace(query, imu_samples=samples[samples[:, 0] >= t0 + 0.055])
    assert late.imu_samples[0, 0] == pytest.approx(t0 + 0.055)
    with pytest.raises(ValueError, match=r"\[0\.000000, 0\.055000\) s has no samples"):
        estimator.initialize(late)
    on_time = replace(query, imu_samples=samples[samples[:, 0] >= t0])
    assert on_time.imu_samples[0, 0] == t0
    _assert_keyframes_span_their_gaps(on_time)


def test_empty_imu_stream(short_inputs):
    """A stream without samples is named as such by ``initialize``: a plain
    ``ValueError``, not a parallax failure."""
    query, _, _ = short_inputs
    with pytest.raises(ValueError, match="IMU stream starts after frame 0") as raised:
        estimator.initialize(replace(query, imu_samples=query.imu_samples[:0]))
    assert not isinstance(raised.value, estimator.InsufficientParallaxError)


@pytest.mark.parametrize("mode", ["non_rigid_only", "hybrid"])
def test_empty_frames(short_inputs, mode):
    """Frames 15 to 24 track no landmarks, a second without vision. No
    keyframe falls in the gap: the first after it is frame 25, whose link
    spans the whole gap, and the run keeps its accuracy bounds."""
    query, cloud, guess = short_inputs
    frames = list(query.frames)
    for k in range(15, 25):
        frames[k] = replace(frames[k], landmark_ids=frames[k].landmark_ids[:0], pixels=frames[k].pixels[:0])
    gap = replace(query, frames=frames)
    _assert_keyframes_span_their_gaps(gap)
    run = estimator.run_localization(gap, cloud, guess, estimator.BaSchedule(mode))
    assert not run.diverged, run.divergence_reason
    assert min(r.keyframe_id for r in run.records if r.keyframe_id >= 15) == 25
    _assert_accurate(gap, guess, run)


def _assert_keyframes_span_their_gaps(query):
    cfg = estimator.EstimatorConfig()
    window = estimator.initialize(query, cfg)
    keyframes = list(window.keyframes)
    for kf, pose, velocity in estimator._due_keyframes(query, window):
        window.insert_keyframe(kf, pose, velocity)
        keyframes.append(kf)
    assert len(keyframes) > 5
    for prev, kf in zip(keyframes, keyframes[1:]):
        gap = query.frames[kf.kf_id].timestamp - query.frames[prev.kf_id].timestamp
        assert abs(kf.pre_from_prev.dt_total - gap) < 1e-12


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


def test_divergence_count_rule():
    """The count rule fires on exactly the 3 * DIVERGENCE_STEPS-th step in a
    row with fewer than DIVERGENCE_MIN_CONSTRAINTS constraints; a step with
    enough of them resets it."""
    sparse, enough = estimator.DIVERGENCE_MIN_CONSTRAINTS - 1, estimator.DIVERGENCE_MIN_CONSTRAINTS
    fuse = 3 * estimator.DIVERGENCE_STEPS
    monitor = estimator.DivergenceMonitor()
    assert [monitor.update(sparse, math.nan) for _ in range(fuse - 1)] == [""] * (fuse - 1)
    assert monitor.update(enough, 1.0) == ""
    assert [monitor.update(sparse, 1.0) for _ in range(fuse - 1)] == [""] * (fuse - 1)
    assert monitor.update(sparse, 1.0) == "no map constraints"


def test_divergence_residual_rule():
    """The residual rule fires on the DIVERGENCE_STEPS-th step in a row above
    DIVERGENCE_RATIO times the first good step's residual; a step at the
    ratio resets it, and a sparse step leaves it as it is."""
    steps, enough = estimator.DIVERGENCE_STEPS, estimator.DIVERGENCE_MIN_CONSTRAINTS
    monitor = estimator.DivergenceMonitor()
    assert monitor.update(enough, 1.0) == ""
    at = estimator.DIVERGENCE_RATIO * 1.0
    above = np.nextafter(at, np.inf)
    assert [monitor.update(enough, above) for _ in range(steps - 1)] == [""] * (steps - 1)
    assert monitor.update(enough, at) == ""
    assert [monitor.update(enough, above) for _ in range(steps - 1)] == [""] * (steps - 1)
    assert monitor.update(enough - 1, 0.0) == ""
    assert monitor.update(enough, above) == "map residual grew beyond ratio"


def test_divergence_baseline_is_floored_at_the_map_noise():
    """A first residual below 2 * SIGMA_MAP sets the baseline at that floor,
    so residuals up to DIVERGENCE_RATIO times the floor never fire."""
    steps, enough = estimator.DIVERGENCE_STEPS, estimator.DIVERGENCE_MIN_CONSTRAINTS
    floor = 2.0 * estimator.SIGMA_MAP
    monitor = estimator.DivergenceMonitor()
    assert monitor.update(enough, 0.01 * floor) == ""
    at = estimator.DIVERGENCE_RATIO * floor
    assert [monitor.update(enough, at) for _ in range(3 * steps)] == [""] * (3 * steps)
    above = [monitor.update(enough, np.nextafter(at, np.inf)) for _ in range(steps)]
    assert above == [""] * (steps - 1) + ["map residual grew beyond ratio"]


def test_keyframe_policy_fires_just_past_each_threshold():
    """Translation, rotation and landmark overlap each make a frame due
    alone, just past their constant, and not just short of it."""
    ids = np.arange(100)

    def due(translation=0.0, rotation=0.0, kept=len(ids)):
        pose = Pose(so3_exp(np.array([0.0, 0.0, rotation])), np.array([translation, 0.0, 0.0]))
        return estimator._keyframe_due(Pose.identity(), ids, pose, ids[:kept])

    eps = 1e-9
    assert due(translation=estimator.KF_TRANSLATION + eps)
    assert not due(translation=estimator.KF_TRANSLATION - eps)
    assert due(rotation=estimator.KF_ROTATION + eps)
    assert not due(rotation=estimator.KF_ROTATION - eps)
    kept = round(estimator.KF_OVERLAP * len(ids))
    assert kept / len(ids) == estimator.KF_OVERLAP
    assert due(kept=kept - 1)
    assert not due(kept=kept)


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
    problem = estimator._build_vio_problem(window, rig, rig.gravity_vector(), solvable)
    # then one preintegration and one bias row per consecutive pair of keyframes
    stereo, link, walk = problem.groups
    assert [g.kind for g in problem.groups] == [
        res.StereoReprojectionFactor, res.PreintegrationFactor, res.BiasRandomWalkFactor
    ]
    assert [(family, rows.tolist()) for family, rows in link.slots] == [
        ("pose", [0, 1]), ("vel", [0, 1]), ("bg", [0, 1]), ("ba", [0, 1]), ("pose", [1, 2]), ("vel", [1, 2])
    ]
    assert [(family, rows.tolist()) for family, rows in walk.slots] == [
        ("ba", [0, 1]), ("bg", [0, 1]), ("ba", [1, 2]), ("bg", [1, 2])
    ]
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
    np.testing.assert_array_equal(problem.value["pose"][1], [_kf_pose(kf.kf_id).translation for kf in window.keyframes])
    assert problem.families["pose"].fixed.tolist() == [True, False, False]
    np.testing.assert_array_equal(problem.value["lm"], [[0.5, 0.1 * i, 5.0] for i in lm_ids])
    assert problem.families["lm"].eliminate


def _non_rigid_problem(window, pose, association, cfg):
    """A non-rigid step on ``window`` from ``pose``, its prior's mean too;
    returns its anchor and the one problem it solved."""
    problems = []

    def recording_solve(problem, max_iterations):
        problems.append(problem)
        return solve(problem, max_iterations)

    original, estimator.solve = estimator.solve, recording_solve
    try:
        prior = (pose, cfg.prior_information())
        anchor, _ = estimator.non_rigid_ba(window, pose, prior, association, sim.default_rig(), cfg)
    finally:
        estimator.solve = original
    (problem,) = problems
    return anchor, problem


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
        assert math.isnan(association.mean_distance(pose.apply(w.positions[association.rows])))

    anchor, problem = _non_rigid_problem(window, pose, association, cfg)
    assert "anchor" not in problem.value
    assert [g.kind for g in problem.groups] == [
        res.StereoReprojectionFactor, res.PreintegrationFactor, res.BiasRandomWalkFactor
    ]
    assert anchor is pose


def test_map_rows_of_a_non_rigid_step_follow_the_solvable_landmarks():
    """On the hand-built window with landmarks 2, 3, 4 and 9 active, an
    association of 2 (active, seen by one keyframe only), 4 and 9: landmark
    2 gets no map row, and each other map row's ``lm`` slot is its own
    landmark's row among the solvable ones, 3, 4 and 9."""
    cfg = estimator.EstimatorConfig()
    window = _hand_built_window()
    _set_active(window, [2, 3, 4, 9], [[0.5, 0.1 * i, 5.0] for i in (2, 3, 4, 9)])
    solvable_ids = window.landmarks[window.solvable()]
    assert solvable_ids.tolist() == [3, 4, 9]
    rows = np.array([0, 2, 3])  # landmarks 2, 4 and 9: 2 and 9 point-to-plane, 4 point-to-point
    points = window.positions[rows] + [0.0, 0.0, 0.01]
    normals = np.array([[0.0, 0.0, 1.0], [np.nan] * 3, [0.0, 0.0, 1.0]])
    association = laser_map.Matches(rows, points, normals, np.array([True, False, True]))
    _, problem = _non_rigid_problem(window, Pose.identity(), association, cfg)
    groups = {group.kind: group for group in problem.groups}
    for kind, lm_id in ((res.PointToPlaneFactor, 9), (res.PointToPointFactor, 4)):
        (_, _), (family, lm_rows) = groups[kind].slots
        assert family == "lm" and solvable_ids[lm_rows].tolist() == [lm_id]
        np.testing.assert_array_equal(groups[kind].data[0], points[window.landmarks[rows] == lm_id])


def _shifted_matches(window, shift):
    """Every active landmark matched to its own position moved by ``shift``:
    the first row point-to-plane with normal z, the others point-to-point."""
    plane = np.arange(len(window.landmarks)) == 0
    normals = np.where(plane[:, None], [0.0, 0.0, 1.0], np.nan)
    return laser_map.Matches(np.arange(len(plane)), window.positions + shift, normals, plane)


def _scripted_associations(script):
    """A stand-in for ``associate_constraints`` that is a function of the
    anchor: an anchor not seen before gets a copy of the next association
    of ``script``, one seen before a copy of the association it got then."""
    seen = []  # (anchor, association)

    def associate(window, anchor, cloud, cfg):
        for old, association in seen:
            if np.array_equal(old.rotation, anchor.rotation) and np.array_equal(old.translation, anchor.translation):
                break
        else:
            assert len(seen) < len(script), "the ICP loop asked for more associations than scripted"
            association = script[len(seen)]
            seen.append((anchor, association))
        return laser_map.Matches(*(field.copy() for field in vars(association).values()))

    return associate


@pytest.mark.parametrize(
    "case, solves, termination",
    [("cycle", 2, "converged"), ("fixed point", 1, "converged"),
     ("empty", 0, None), ("no repeat", estimator.ICP_MAX_ITERATIONS, "max_iter")],
)
def test_rigid_icp_stops_when_an_association_repeats(monkeypatch, case, solves, termination):
    """``rigid_ba`` on the hand-built window, its associations scripted per
    anchor: A, B, A (a cycle) takes two anchor solves, a constant association
    one, an empty one none, and associations that never repeat one per
    association up to ``ICP_MAX_ITERATIONS``. Each anchor solve is one LM
    step; the association returned is the one at the anchor returned."""
    cfg = estimator.EstimatorConfig()
    window = _hand_built_window()
    _set_active(window, [3, 4, 9], [[0.5, 0.1 * i, 5.0] for i in (3, 4, 9)])
    a, b = (_shifted_matches(window, shift) for shift in ([0.0, 0.0, 0.3], [0.2, -0.1, 0.0]))
    script = {
        "cycle": [a, b, a],
        "fixed point": [a, a],
        "empty": [laser_map.NO_MATCHES],
        "no repeat": [
            _shifted_matches(window, [0.0, 0.0, 0.05 * (k + 1)]) for k in range(estimator.ICP_MAX_ITERATIONS + 1)
        ],
    }[case]
    associate = _scripted_associations(script)
    reports, anchor_solves = [], []

    def recording_solve(problem, max_iterations):
        reports.append(solve(problem, max_iterations))
        if "anchor" in problem.value:
            anchor_solves.append(max_iterations)
        return reports[-1]

    monkeypatch.setattr(estimator, "associate_constraints", associate)
    monkeypatch.setattr(estimator, "solve", recording_solve)
    guess = se3_exp(np.array([0.0, 0.0, 0.01, 0.1, 0.0, 0.0]))
    prior = (guess, cfg.prior_information())
    anchor, report, association = estimator.rigid_ba(window, guess, prior, None, sim.default_rig(), cfg)

    assert anchor_solves == [1] * solves
    assert len(reports) == solves + 1
    assert report.termination == (termination or reports[0].termination)
    assert report.iterations == sum(r.iterations for r in reports)
    assert report.initial_cost == reports[0].initial_cost and report.final_cost == reports[-1].final_cost
    if not solves:
        assert anchor is guess
    want = associate(window, anchor, None, cfg)
    for got_field, want_field in zip(vars(association).values(), vars(want).values()):
        np.testing.assert_array_equal(got_field, want_field)


def _fixed_association(rng, cfg):
    """A window of 60 landmarks, ids odd from 5, an association of both
    metrics with a row for each, a tenth of them outliers, an anchor guess
    and the first step's prior at it."""
    truth = se3_exp(np.array([0.02, -0.01, 0.3, 1.0, -2.0, 0.5]))
    window = estimator.SlidingWindow(cfg.window_capacity)
    positions, points, normals, plane = [], [], [], []
    for i in range(60):
        positions.append(rng.uniform(-8.0, 8.0, size=3))
        point = truth.apply(positions[-1]) + rng.normal(scale=estimator.SIGMA_MAP, size=3)
        if i % 10 == 3:
            point = point + rng.uniform(-2.0, 2.0, size=3)
        points.append(point)
        plane.append(rng.uniform() < 0.5)
        normal = rng.normal(size=3) if plane[-1] else np.full(3, np.nan)
        normals.append(normal / np.linalg.norm(normal))
    _set_active(window, 5 + 2 * np.arange(60), positions)
    association = laser_map.Matches(np.arange(60), np.array(points), np.array(normals), np.array(plane))
    guess = truth.retract(np.array([0.01, 0.0, -0.02, 0.2, 0.1, -0.15]))
    return window, association, guess, (guess, cfg.prior_information(estimator.INITIAL_PRIOR_SCALE))


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
    window, association, anchor, prior = _fixed_association(np.random.default_rng(11), cfg)
    assert 0 < association.plane.sum() < len(association)

    problem = estimator._alignment_problem(window, anchor, prior, association)
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
            np.eye(1 if plane else 3) / estimator.SIGMA_MAP**2,
            POINT_TO_PLANE if plane else POINT_TO_POINT,
        )
        for lm_id, point, normal, plane in zip(
            window.landmarks[association.rows], association.points, association.normals, association.plane
        )
    ]
    want, cost = anchor_alignment_gauss_newton(
        anchor, dict(zip(window.landmarks.tolist(), window.positions)), constraints, prior,
        res.RobustKernel("cauchy", estimator.CAUCHY_METRIC),
    )
    got = Pose(*problem.value["anchor"])[0]
    assert report.termination == "converged"
    assert report.initial_cost == pytest.approx(cost(anchor), rel=1e-12)
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
    window, association, anchor, prior = _fixed_association(np.random.default_rng(11), cfg)
    problem, reference = (estimator._alignment_problem(window, anchor, prior, association) for _ in range(2))
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
    cloud = laser_map.estimate_normals(laser_map.PointCloudMap(np.vstack([ground, wall, scatter])))
    assert 0 < cloud.has_normal().sum() < len(cloud)
    cfg = estimator.EstimatorConfig()
    anchor = se3_exp(np.array([0.0, 0.0, 0.1, 0.2, -0.1, 0.0]))
    local = anchor.inverse().apply(rng.uniform([-8, -8, -1], [8, 8, 4], size=(200, 3)))
    landmarks = dict(zip(rng.permutation(1000)[:200].tolist(), local))
    window = estimator.SlidingWindow(cfg.window_capacity)
    _set_active(window, sorted(landmarks), [landmarks[i] for i in sorted(landmarks)])

    want = []
    for lm_id in sorted(landmarks):
        idx, dist = brute_force_knn(cloud.positions, anchor.apply(landmarks[lm_id]), cfg.knn_k)
        if dist[0] > cfg.gate_radius:
            continue
        normals = cloud.normals[idx]
        angles = np.arccos(np.clip(normals @ normals.T, -1.0, 1.0))
        plane = not np.isnan(normals).any() and np.all(angles <= laser_map.NORMAL_CONSISTENCY_ANGLE + 1e-12)
        want.append((lm_id, idx[0], POINT_TO_PLANE if plane else POINT_TO_POINT))

    got = estimator.associate_constraints(window, anchor, cloud, cfg)
    assert {metric for _, _, metric in want} == {POINT_TO_PLANE, POINT_TO_POINT}
    assert 0 < len(want) < len(window.landmarks)
    assert len(got) == len(want)
    assert window.landmarks[got.rows].tolist() == [i for i, _, _ in want]
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
    mean = got.mean_distance(anchor.apply(window.positions[got.rows]))
    assert mean == pytest.approx(total / len(want), rel=1e-12)

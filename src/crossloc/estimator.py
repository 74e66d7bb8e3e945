"""Sliding-window visual-inertial localization against a prior laser map.

The window holds recent keyframes (pose, velocity, biases), the landmarks
they observe, and the anchor: the SE(3) transform from the odometry's
local frame into the map frame, estimated online. Each new keyframe runs
one bundle-adjustment step chosen by the schedule:

- non-rigid: states, landmarks and the anchor optimized jointly under
  reprojection + preintegration + map-alignment + anchor-prior terms;
- rigid: plain visual-inertial adjustment first, then an ICP-style loop
  that re-associates and refines the anchor alone with everything else
  held fixed. Each ICP iteration makes one batched association (one k-NN
  query over all landmarks) and one anchor-only solve: ``AnchorAlignment``
  stacks the association's landmarks, map points and normals once, and the
  solver's LM loop runs on its 6x6 normal equations;
- hybrid m:n cycles m non-rigid steps then n rigid ones.

The anchor prior mean is re-pinned to the converged anchor after every
step, so the prior always encodes "the last step's estimate".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import residuals as res
from .imu import NavState, PreintegratedImu, bias_information, integrate, predict_state
from .laser_map import PointCloudMap, normal_consistency
from .liegroup import Pose, se3_log, so3_log
from .session import SensorRig, SessionData
from .solver import DenseProblem, Problem, SolverOptions, SolverReport, solve


class TooFewObservationsError(ValueError):
    """Frame does not track enough landmarks to become a keyframe."""


class InsufficientParallaxError(ValueError):
    """Not enough stereo disparity to triangulate an initial landmark set."""


@dataclass
class EstimatorConfig:
    window_capacity: int = 7
    min_frame_landmarks: int = 15
    kf_translation: float = 0.5  # m
    kf_rotation: float = math.radians(10.0)
    kf_overlap: float = 0.6
    knn_k: int = 5
    gate_radius: float = 1.0
    sigma_map: float = 0.05
    normal_consistency_angle: float = math.radians(20.0)
    cauchy_pixel: float = 2.0
    cauchy_metric: float = 1.0
    prior_rot_sigma: float = 0.01  # rad
    prior_trans_sigma: float = 0.1  # m
    min_disparity: float = 1.0  # px
    initial_prior_scale: float = 10.0  # prior stddev multiplier before step 1
    max_iterations: int = 8
    icp_max_iterations: int = 20
    icp_update_tol: float = 1e-6
    divergence_ratio: float = 3.0
    divergence_steps: int = 5
    divergence_min_constraints: int = 5

    def prior_information(self, scale: float = 1.0) -> np.ndarray:
        rot = self.prior_rot_sigma * scale
        trans = self.prior_trans_sigma * scale
        return np.diag(
            np.concatenate([np.full(3, 1.0 / rot**2), np.full(3, 1.0 / trans**2)])
        )

    def solver_options(self) -> SolverOptions:
        return SolverOptions(max_iterations=self.max_iterations)


@dataclass
class AnchorTransform:
    """Local-to-map transform and the prior mean it is pulled toward.

    ``prior_scale`` widens the prior before the first step has produced an
    estimate (the initial guess is only coarse); it drops to 1 afterwards.
    """

    pose: Pose
    prior_mean: Pose
    prior_scale: float = 1.0


@dataclass
class Keyframe:
    kf_id: int
    timestamp: float
    state: NavState
    landmark_ids: np.ndarray
    pixels: np.ndarray  # (n, 4): ul vl ur vr
    pre_from_prev: PreintegratedImu | None = None


@dataclass
class BaSchedule:
    """Dispatch rule for per-keyframe adjustment steps."""

    mode: str = "hybrid"  # non_rigid_only | rigid_only | hybrid
    m: int = 1
    n: int = 3

    def __post_init__(self):
        if self.mode not in ("non_rigid_only", "rigid_only", "hybrid"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "hybrid" and (self.m < 1 or self.n < 1):
            raise ValueError("hybrid schedule needs m, n >= 1")

    def actions_at(self, counter: int) -> tuple[str, ...]:
        if self.mode == "non_rigid_only":
            return ("non_rigid",)
        if self.mode == "rigid_only":
            return ("rigid",)
        return ("non_rigid",) if counter % (self.m + self.n) < self.m else ("rigid",)


class SlidingWindow:
    """Keyframes plus the landmarks currently observed by at least two."""

    def __init__(self, capacity: int = 7):
        self.capacity = capacity
        self.keyframes: list[Keyframe] = []
        self.landmarks: dict[int, np.ndarray] = {}  # active, positions in L
        self._pending: dict[int, tuple[int, np.ndarray]] = {}  # id -> (kf_id, stereo px)

    def observer_counts(self) -> dict[int, int]:
        """Per observed landmark id, the number of window keyframes that see it."""
        seen = [np.unique(kf.landmark_ids) for kf in self.keyframes]  # once per keyframe
        ids, counts = np.unique(np.concatenate([np.zeros(0, dtype=int), *seen]), return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def insert_keyframe(self, kf: Keyframe, min_landmarks: int = 15) -> None:
        """Append; evict the oldest beyond capacity; retire orphan landmarks."""
        if len(kf.landmark_ids) < min_landmarks:
            raise TooFewObservationsError(
                f"frame tracks {len(kf.landmark_ids)} < {min_landmarks} landmarks"
            )
        self.keyframes.append(kf)
        if len(self.keyframes) > self.capacity:
            self.keyframes.pop(0)
        alive = self.observer_counts()
        self.landmarks = {i: p for i, p in self.landmarks.items() if i in alive}
        self._pending = {i: v for i, v in self._pending.items() if i in alive}


def triangulate_stereo(rig: SensorRig, state: NavState, stereo_px, min_disparity: float):
    """Landmark position in the local frame from one stereo observation."""
    cam = rig.camera
    ul, vl, ur, _ = (float(v) for v in stereo_px)
    disparity = ul - ur
    if disparity <= min_disparity:
        return None
    z = cam.fx * rig.stereo_baseline / disparity
    p_cam = np.array([(ul - cam.cx) * z / cam.fx, (vl - cam.cy) * z / cam.fy, z])
    return (state.pose @ cam.body_t_cam).apply(p_cam)


def activate_landmarks(window: SlidingWindow, rig: SensorRig, cfg: EstimatorConfig) -> int:
    """Triangulate pending landmarks once two window keyframes see them."""
    activated = 0
    states = {kf.kf_id: kf.state for kf in window.keyframes}
    observers = window.observer_counts()
    for lm_id in sorted(window._pending):
        if observers.get(lm_id, 0) < 2:
            continue
        kf_id, stereo = window._pending[lm_id]
        if kf_id not in states:
            # first observer already evicted: re-seed from the oldest current one
            for kf in window.keyframes:
                hits = np.nonzero(kf.landmark_ids == lm_id)[0]
                if len(hits):
                    kf_id, stereo = kf.kf_id, kf.pixels[hits[0]]
                    break
            else:
                continue
        pos = triangulate_stereo(rig, states[kf_id], stereo, cfg.min_disparity)
        if pos is None:
            continue
        window.landmarks[int(lm_id)] = pos
        del window._pending[lm_id]
        activated += 1
    return activated


def associate_constraints(
    window: SlidingWindow, anchor: Pose, cloud: PointCloudMap, cfg: EstimatorConfig
) -> list[res.MapConstraint]:
    """One constraint per active landmark against its nearest map point.

    All landmarks are moved into the map frame and queried in one k-NN call.
    The k nearest neighbors decide the metric: consistent normals pick the
    point-to-plane branch, anything else point-to-point; matches beyond the
    gate radius are dropped.
    """
    lm_ids = sorted(window.landmarks)
    if len(cloud) == 0 or not lm_ids:
        return []
    p_map = anchor.apply(np.array([window.landmarks[lm_id] for lm_id in lm_ids]))
    idx, dist = cloud.knn(p_map, cfg.knn_k)
    if idx.shape[1] >= 2:
        plane = normal_consistency(cloud.normals[idx], cfg.normal_consistency_angle)
    else:
        plane = np.zeros(len(lm_ids), dtype=bool)
    info = _map_information(cfg)
    constraints = []
    for row in np.nonzero(dist[:, 0] <= cfg.gate_radius)[0]:
        nearest = idx[row, 0]
        if plane[row]:
            normal, metric = cloud.normals[nearest].copy(), res.POINT_TO_PLANE
        else:
            normal, metric = None, res.POINT_TO_POINT
        constraints.append(
            res.MapConstraint(lm_ids[row], cloud.positions[nearest].copy(), normal, info, metric)
        )
    return constraints


def _map_information(cfg: EstimatorConfig) -> np.ndarray:
    """The isotropic information every map constraint carries."""
    return np.eye(3) / (cfg.sigma_map**2)


class AnchorAlignment(DenseProblem):
    """The rigid step's ICP sub-problem: the anchor alone, landmarks held fixed.

    Holds one association's landmark positions, map points and normals,
    stacked once per metric, plus the anchor prior. Its terms are those of
    the map and prior factors of the joint problem: the same residuals,
    informations and kernels, which ``DenseProblem`` whitens and re-weights
    as the solver does a Problem's factor groups. So the minimum, the
    iterations and the termination are those of a Problem with a free anchor
    block, fixed landmark blocks and those factors, on the 6x6 normal
    equations instead of the Schur system.
    """

    def __init__(self, anchor: AnchorTransform, constraints, landmarks: dict, cfg: EstimatorConfig):
        plane = [c for c in constraints if c.metric == res.POINT_TO_PLANE]
        point = [c for c in constraints if c.metric == res.POINT_TO_POINT]
        self.maps = []  # (batch function, its stacked inputs) per metric present
        if plane:
            self.maps.append((res.point_to_plane_batch, (
                np.array([landmarks[c.landmark_id] for c in plane], dtype=float),
                np.array([c.point for c in plane], dtype=float),
                np.array([c.normal for c in plane], dtype=float),
            )))
        if point:
            self.maps.append((res.point_to_point_batch, (
                np.array([landmarks[c.landmark_id] for c in point], dtype=float),
                np.array([c.point for c in point], dtype=float),
            )))
        self.prior_mean = anchor.prior_mean
        # the information and kernel of the joint problem's map factors
        # (associate_constraints gives every constraint this information),
        # then its prior's
        map_group = (_map_information(cfg), res.RobustKernel("cauchy", cfg.cauchy_metric))
        prior_group = (cfg.prior_information(anchor.prior_scale), res.RobustKernel())
        super().__init__(anchor.pose, [map_group] * len(self.maps) + [prior_group])

    def terms(self, pose: Pose, jacobian: bool):
        """Residuals and anchor Jacobians of the map terms per metric, then of the prior."""
        terms = []
        for batch, arrays in self.maps:
            r, jacs = batch(pose, *arrays, jacobian=jacobian)
            terms.append((r, jacs[0] if jacobian else None))
        r, j = res.anchor_prior_residual(pose, self.prior_mean)
        return terms + [(r[None], j[None] if jacobian else None)]

    def retract(self, pose: Pose, delta) -> Pose:
        return pose.retract(delta)


# ---------------------------------------------------------------------------
# problem assembly


def _solvable_landmarks(window: SlidingWindow) -> list[int]:
    """Active landmarks with at least two current observers."""
    observers = window.observer_counts()
    return [lm_id for lm_id in sorted(window.landmarks) if observers.get(lm_id, 0) >= 2]


def _build_vio_problem(window, rig, gravity, cfg, lm_ids) -> Problem:
    problem = Problem()
    for i, kf in enumerate(window.keyframes):
        problem.add_pose_block(f"pose{kf.kf_id}", kf.state.pose, fixed=(i == 0))
        problem.add_vector_block(f"vel{kf.kf_id}", kf.state.velocity)
        problem.add_vector_block(f"bg{kf.kf_id}", kf.state.gyro_bias)
        problem.add_vector_block(f"ba{kf.kf_id}", kf.state.accel_bias)
    for lm_id in lm_ids:
        problem.add_vector_block(f"lm{lm_id}", window.landmarks[lm_id], eliminate=True)
    lm_set = set(lm_ids)
    pix_kernel = res.RobustKernel("cauchy", cfg.cauchy_pixel)
    cam_right = rig.right_camera()
    for kf in window.keyframes:
        for j, lm_id in enumerate(kf.landmark_ids):
            if int(lm_id) not in lm_set:
                continue
            problem.add_factor(
                res.StereoReprojectionFactor(
                    f"pose{kf.kf_id}", f"lm{int(lm_id)}", kf.pixels[j], rig.camera,
                    cam_right, kernel=pix_kernel,
                )
            )
    for prev, curr in zip(window.keyframes[:-1], window.keyframes[1:]):
        if curr.pre_from_prev is None:
            continue
        problem.add_factor(
            res.PreintegrationFactor(
                (
                    f"pose{prev.kf_id}",
                    f"vel{prev.kf_id}",
                    f"bg{prev.kf_id}",
                    f"ba{prev.kf_id}",
                    f"pose{curr.kf_id}",
                    f"vel{curr.kf_id}",
                ),
                curr.pre_from_prev,
                gravity,
            )
        )
        problem.add_factor(
            res.BiasRandomWalkFactor(
                (f"ba{prev.kf_id}", f"bg{prev.kf_id}", f"ba{curr.kf_id}", f"bg{curr.kf_id}"),
                bias_information(rig.imu_noise, curr.pre_from_prev.dt_total),
            )
        )
    return problem


def _add_map_factors(problem, constraints, cfg, lm_ids) -> None:
    kernel = res.RobustKernel("cauchy", cfg.cauchy_metric)
    lm_set = set(lm_ids)
    for c in constraints:
        if c.landmark_id not in lm_set:
            continue
        if c.metric == res.POINT_TO_PLANE:
            problem.add_factor(res.PointToPlaneFactor("anchor", f"lm{c.landmark_id}", c, kernel))
        else:
            problem.add_factor(res.PointToPointFactor("anchor", f"lm{c.landmark_id}", c, kernel))


def _write_back(problem: Problem, window: SlidingWindow, lm_ids) -> None:
    for kf in window.keyframes:
        kf.state = NavState(
            pose=problem.value(f"pose{kf.kf_id}"),
            velocity=problem.value(f"vel{kf.kf_id}"),
            accel_bias=problem.value(f"ba{kf.kf_id}"),
            gyro_bias=problem.value(f"bg{kf.kf_id}"),
        )
    for lm_id in lm_ids:
        window.landmarks[lm_id] = problem.value(f"lm{lm_id}")


def non_rigid_ba(
    window: SlidingWindow,
    anchor: AnchorTransform,
    cloud: PointCloudMap,
    constraints: list[res.MapConstraint],
    rig: SensorRig,
    cfg: EstimatorConfig,
) -> SolverReport:
    """Joint adjustment of states, landmarks and the anchor.

    With no map constraints this reduces to the plain visual-inertial
    problem (no anchor block), matching a VIO-only solve exactly.
    """
    gravity = rig.gravity_vector()
    lm_ids = _solvable_landmarks(window)
    problem = _build_vio_problem(window, rig, gravity, cfg, lm_ids)
    if constraints:
        problem.add_pose_block("anchor", anchor.pose)
        _add_map_factors(problem, constraints, cfg, lm_ids)
        problem.add_factor(
            res.AnchorPriorFactor(
                "anchor", anchor.prior_mean, cfg.prior_information(anchor.prior_scale)
            )
        )
    report = solve(problem, cfg.solver_options())
    _write_back(problem, window, lm_ids)
    if constraints:
        anchor.pose = problem.value("anchor")
    return report


def rigid_ba(
    window: SlidingWindow,
    anchor: AnchorTransform,
    cloud: PointCloudMap,
    rig: SensorRig,
    cfg: EstimatorConfig,
) -> SolverReport:
    """VIO-only adjustment, then ICP-style anchor-only alignment.

    Stage two repeats association + anchor solve until the anchor update
    falls below the tolerance or ``icp_max_iterations`` is reached; states
    and landmarks stay untouched there. Each anchor solve is one
    ``AnchorAlignment`` (6x6, landmarks fixed) under the solver's LM loop,
    with the same minimum and iterations as a generic Problem of those terms.
    """
    gravity = rig.gravity_vector()
    lm_ids = _solvable_landmarks(window)
    problem = _build_vio_problem(window, rig, gravity, cfg, lm_ids)
    stage1 = solve(problem, cfg.solver_options())
    _write_back(problem, window, lm_ids)

    iterations = stage1.iterations
    final_cost = stage1.final_cost
    termination = stage1.termination
    for _ in range(cfg.icp_max_iterations):
        constraints = associate_constraints(window, anchor.pose, cloud, cfg)
        if not constraints:
            break
        alignment = AnchorAlignment(anchor, constraints, window.landmarks, cfg)
        report = solve(alignment, cfg.solver_options())
        update = np.linalg.norm(se3_log(anchor.pose.inverse() @ alignment.value))
        anchor.pose = alignment.value
        iterations += report.iterations
        final_cost = report.final_cost
        termination = report.termination
        if update < cfg.icp_update_tol:
            break
    return SolverReport(stage1.initial_cost, final_cost, iterations, termination)


def step(
    window: SlidingWindow,
    anchor: AnchorTransform,
    cloud: PointCloudMap,
    schedule: BaSchedule,
    counter: int,
    rig: SensorRig,
    cfg: EstimatorConfig,
):
    """One scheduled adjustment; returns (report, constraints, actions)."""
    actions = schedule.actions_at(counter)
    if actions == ("rigid",):
        report = rigid_ba(window, anchor, cloud, rig, cfg)
        constraints = associate_constraints(window, anchor.pose, cloud, cfg)
    else:
        constraints = associate_constraints(window, anchor.pose, cloud, cfg)
        report = non_rigid_ba(window, anchor, cloud, constraints, rig, cfg)
    anchor.prior_mean = anchor.pose
    anchor.prior_scale = 1.0
    return report, constraints, actions


# ---------------------------------------------------------------------------
# session driver


@dataclass
class StepRecord:
    keyframe_id: int
    timestamp: float
    actions: tuple[str, ...]
    initial_cost: float
    final_cost: float
    iterations: int
    termination: str
    n_constraints: int
    mean_constraint_residual: float


@dataclass
class LocalizationResult:
    times: np.ndarray
    poses_map: list  # keyframe poses in the map frame (anchor o local pose)
    anchors: list
    records: list
    diverged: bool = False
    divergence_reason: str = ""


def _mean_constraint_residual(window, anchor: Pose, constraints) -> float:
    if not constraints:
        return float("nan")
    total = 0.0
    for c in constraints:
        p = anchor.apply(window.landmarks[c.landmark_id])
        if c.metric == res.POINT_TO_PLANE:
            total += abs(float(c.normal @ (c.point - p)))
        else:
            total += float(np.linalg.norm(c.point - p))
    return total / len(constraints)


class DivergenceMonitor:
    """Flags runs whose map residuals blow up or associations collapse."""

    def __init__(self, cfg: EstimatorConfig):
        self.cfg = cfg
        self.baseline = None
        self.bad_residual = 0
        self.bad_count = 0
        self.steps = 0

    def update(self, n_constraints: int, mean_residual: float) -> str:
        self.steps += 1
        cfg = self.cfg
        if n_constraints < cfg.divergence_min_constraints:
            self.bad_count += 1
        else:
            self.bad_count = 0
        if math.isfinite(mean_residual) and n_constraints >= cfg.divergence_min_constraints:
            if self.baseline is None:
                # floor at the map noise scale: a near-zero first residual
                # must not make ordinary noise look like divergence
                self.baseline = max(mean_residual, 2.0 * cfg.sigma_map)
            if mean_residual > cfg.divergence_ratio * self.baseline:
                self.bad_residual += 1
            else:
                self.bad_residual = 0
        # associations may legitimately be sparse while a coarse anchor
        # converges, so the count rule gets a 3x longer fuse
        if self.bad_count >= 3 * cfg.divergence_steps:
            return "no map constraints"
        if self.bad_residual >= cfg.divergence_steps:
            return "map residual grew beyond ratio"
        return ""


def _frame_slice(session: SessionData, i0: int, i1: int):
    stride = int(round(session.rig.imu_rate / session.rig.frame_rate))
    return session.imu_samples[i0 * stride : i1 * stride + 1]


def _initial_state(session: SessionData) -> tuple[NavState, Pose]:
    """Local-frame initial state (identity pose) and the true anchor."""
    gt0 = session.gt_poses[0]
    if len(session.gt_poses) > 1:
        dt = float(session.gt_times[1] - session.gt_times[0])
        v_world = (session.gt_poses[1].translation - gt0.translation) / dt
    else:
        v_world = np.zeros(3)
    velocity = gt0.rotation.T @ v_world
    return NavState(pose=Pose.identity(), velocity=velocity), gt0


def initialize(
    session: SessionData, anchor_guess: Pose, cfg: EstimatorConfig | None = None
):
    """Seed the window with the first two keyframes and stereo landmarks."""
    cfg = cfg or EstimatorConfig()
    rig = session.rig
    state0, _ = _initial_state(session)
    window = SlidingWindow(cfg.window_capacity)
    frame0 = session.frames[0]
    if len(frame0.landmark_ids) < cfg.min_frame_landmarks:
        raise TooFewObservationsError("first frame tracks too few landmarks")
    kf0 = Keyframe(0, float(session.gt_times[0]), state0, frame0.landmark_ids.copy(),
                   frame0.pixels.copy())
    window.insert_keyframe(kf0, cfg.min_frame_landmarks)
    for lm_id, px in zip(frame0.landmark_ids, frame0.pixels):
        window._pending[int(lm_id)] = (0, px.copy())

    # walk forward until the keyframe policy fires
    kf_index = None
    state = state0
    ids0 = set(frame0.landmark_ids.tolist())
    for k in range(1, len(session.frames)):
        pre = integrate(_frame_slice(session, 0, k), (state0.gyro_bias, state0.accel_bias),
                        rig.imu_noise)
        state = predict_state(state0, pre, rig.gravity_vector())
        if _keyframe_due(state0, state, ids0, session.frames[k].landmark_ids, cfg):
            kf_index = k
            break
    if kf_index is None:
        raise InsufficientParallaxError("session too short to create a second keyframe")
    frame1 = session.frames[kf_index]
    kf1 = Keyframe(kf_index, float(session.gt_times[kf_index]), state,
                   frame1.landmark_ids.copy(), frame1.pixels.copy(), pre_from_prev=pre)
    window.insert_keyframe(kf1, cfg.min_frame_landmarks)
    for lm_id, px in zip(frame1.landmark_ids, frame1.pixels):
        window._pending.setdefault(int(lm_id), (kf_index, px.copy()))
    activated = activate_landmarks(window, rig, cfg)
    if activated < cfg.min_frame_landmarks:
        raise InsufficientParallaxError(
            f"only {activated} landmarks triangulated at initialization"
        )
    anchor = AnchorTransform(
        pose=anchor_guess, prior_mean=anchor_guess, prior_scale=cfg.initial_prior_scale
    )
    return window, anchor, kf_index


def _keyframe_due(last_state, state, last_ids: set, frame_ids, cfg) -> bool:
    """Keyframe policy; ``last_ids`` is the set of the last keyframe's landmark ids."""
    trans = np.linalg.norm(state.pose.translation - last_state.pose.translation)
    if trans > cfg.kf_translation:
        return True
    rel = last_state.pose.rotation.T @ state.pose.rotation
    if np.linalg.norm(so3_log(rel)) > cfg.kf_rotation:
        return True
    if not last_ids:
        return False
    overlap = len(last_ids.intersection(frame_ids.tolist())) / len(last_ids)
    return overlap < cfg.kf_overlap


def run_localization(
    session: SessionData,
    cloud: PointCloudMap,
    anchor_guess: Pose,
    schedule: BaSchedule | None = None,
    cfg: EstimatorConfig | None = None,
) -> LocalizationResult:
    """Drive the estimator over a whole session; emit map-frame keyframe poses."""
    cfg = cfg or EstimatorConfig()
    schedule = schedule or BaSchedule()
    rig = session.rig
    window, anchor, last_kf_index = initialize(session, anchor_guess, cfg)
    monitor = DivergenceMonitor(cfg)
    times, poses_map, anchors, records = [], [], [], []
    counter = 0

    def run_step(kf: Keyframe):
        nonlocal counter
        report, constraints, actions = step(window, anchor, cloud, schedule, counter, rig, cfg)
        counter += 1
        mean_res = _mean_constraint_residual(window, anchor.pose, constraints)
        records.append(
            StepRecord(
                kf.kf_id,
                kf.timestamp,
                actions,
                report.initial_cost,
                report.final_cost,
                report.iterations,
                report.termination,
                len(constraints),
                mean_res,
            )
        )
        times.append(kf.timestamp)
        poses_map.append(anchor.pose @ kf.state.pose)
        anchors.append(anchor.pose)
        return monitor.update(len(constraints), mean_res)

    reason = run_step(window.keyframes[-1])
    last_kf = window.keyframes[-1]
    last_ids = set(last_kf.landmark_ids.tolist())
    for k in range(last_kf_index + 1, len(session.frames)):
        if reason:
            break
        pre = integrate(
            _frame_slice(session, last_kf_index, k),
            (last_kf.state.gyro_bias, last_kf.state.accel_bias),
            rig.imu_noise,
        )
        state = predict_state(last_kf.state, pre, rig.gravity_vector())
        frame = session.frames[k]
        if not _keyframe_due(last_kf.state, state, last_ids, frame.landmark_ids, cfg):
            continue
        if len(frame.landmark_ids) < cfg.min_frame_landmarks:
            continue
        kf = Keyframe(
            k,
            float(session.gt_times[k]),
            state,
            frame.landmark_ids.copy(),
            frame.pixels.copy(),
            pre_from_prev=pre,
        )
        window.insert_keyframe(kf, cfg.min_frame_landmarks)
        for lm_id, px in zip(frame.landmark_ids, frame.pixels):
            if int(lm_id) not in window.landmarks:
                window._pending.setdefault(int(lm_id), (k, px.copy()))
        activate_landmarks(window, rig, cfg)
        last_kf = kf
        last_kf_index = k
        last_ids = set(kf.landmark_ids.tolist())
        reason = run_step(kf)

    return LocalizationResult(
        times=np.asarray(times),
        poses_map=poses_map,
        anchors=anchors,
        records=records,
        diverged=bool(reason),
        divergence_reason=reason,
    )

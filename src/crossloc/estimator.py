"""Sliding-window visual-inertial localization against a prior laser map.

The window holds recent keyframes (pose, velocity, biases), the landmarks
they observe, and the anchor: the SE(3) transform from the odometry's
local frame into the map frame, estimated online. Each new keyframe runs
one bundle-adjustment step chosen by the schedule:

- non-rigid: states, landmarks and the anchor optimized jointly under
  reprojection + preintegration + map-alignment + anchor-prior terms;
- rigid: plain visual-inertial adjustment first, then an ICP-style loop
  that re-associates and refines the anchor alone with everything else
  held fixed, each iteration one association and one anchor-only solve;
- hybrid m:n cycles m non-rigid steps then n rigid ones.

The front end is one keyframe path. ``_due_keyframes`` preintegrates the
IMU samples between the window's newest keyframe and each later frame, by
timestamp, and yields a keyframe wherever the policy (``_keyframe_due``:
translation, rotation or landmark overlap) fires on a frame that tracks
enough landmarks; ``initialize`` inserts frame 0 and its first yield,
``run_localization`` the rest. After each insertion ``activate_landmarks``
triangulates every inactive landmark that two window keyframes see, from its
stereo pixels in the oldest of them.

Both steps state their terms as arrays. The window problem
(``_build_vio_problem``) stacks the window in block families: ``pose``,
``vel``, ``bg`` and ``ba`` with one row per keyframe in window order (the
oldest pose fixed), and ``lm``, eliminated, with one row per solvable
landmark in id order. It has one factor group per term family, whose slots
index those rows: every stereo observation of a solvable landmark, in
window order (keyframe rows by ``np.repeat``, landmark rows by
``np.searchsorted`` of the ids), then the preintegration and the bias terms
between consecutive keyframes. After a solve ``_write_back`` unstacks the
families into the keyframe states and the landmark positions. An
association (``associate_constraints``, one k-NN query over all landmarks)
is one ``MapAssociation`` record of landmark ids, map points, normals and a
point-to-plane mask.

The anchor's terms are stated once, by ``_add_anchor_groups``: the one-row
``anchor`` family, one map group per metric and the anchor prior. A
non-rigid step adds them to the window problem. The rigid step's anchor-only
solve adds them to a problem whose only other family is the associated
landmarks, held fixed; the solver runs both problems on the same Schur
system, which gives the fixed landmarks no columns.

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
from .solver import Problem, SolverReport, solve


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

    mode: str = "hybrid"  # non_rigid_only | hybrid
    m: int = 1
    n: int = 3

    def __post_init__(self):
        if self.mode not in ("non_rigid_only", "hybrid"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "hybrid" and (self.m < 1 or self.n < 1):
            raise ValueError("hybrid schedule needs m, n >= 1")

    def actions_at(self, counter: int) -> tuple[str, ...]:
        if self.mode == "non_rigid_only":
            return ("non_rigid",)
        return ("non_rigid",) if counter % (self.m + self.n) < self.m else ("rigid",)


class SlidingWindow:
    """Keyframes plus the landmarks currently observed by at least two."""

    def __init__(self, capacity: int = 7):
        self.capacity = capacity
        self.keyframes: list[Keyframe] = []
        self.landmarks: dict[int, np.ndarray] = {}  # active, positions in L

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
    """Triangulate, in id order, each inactive landmark that two window keyframes see.

    A landmark is triangulated from its first row in the oldest window
    keyframe that sees it; one without enough disparity stays inactive.
    """
    kfs = window.keyframes
    ids = np.concatenate([kf.landmark_ids for kf in kfs])
    pixels = np.concatenate([kf.pixels for kf in kfs])
    owner = np.repeat(np.arange(len(kfs)), [len(kf.landmark_ids) for kf in kfs])
    observers = window.observer_counts()
    _, first = np.unique(ids, return_index=True)  # first rows, oldest keyframe first
    activated = 0
    for lm_id, row in zip(ids[first].tolist(), first.tolist()):
        if observers[lm_id] < 2 or lm_id in window.landmarks:
            continue
        pos = triangulate_stereo(rig, kfs[owner[row]].state, pixels[row], cfg.min_disparity)
        if pos is None:
            continue
        window.landmarks[lm_id] = pos
        activated += 1
    return activated


@dataclass(frozen=True)
class MapAssociation:
    """Map constraints as arrays, one row per associated landmark, by landmark id.

    ``normals`` holds the matched map point's normal on every row (NaN where
    the map has none); only the point-to-plane rows (``plane``) read it.
    """

    landmark_ids: np.ndarray  # (m,)
    points: np.ndarray  # (m, 3) nearest map point, map frame
    normals: np.ndarray  # (m, 3)
    plane: np.ndarray  # (m,) bool: point-to-plane, else point-to-point

    def __len__(self) -> int:
        return len(self.landmark_ids)

    def rows(self, mask) -> "MapAssociation":
        return MapAssociation(*(column[mask] for column in vars(self).values()))


# no rows, for an empty map or window and for the rigid step's first stage
_NO_ASSOCIATION = MapAssociation(
    np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=bool)
)


def associate_constraints(
    window: SlidingWindow, anchor: Pose, cloud: PointCloudMap, cfg: EstimatorConfig
) -> MapAssociation:
    """One constraint per active landmark against its nearest map point.

    All landmarks are moved into the map frame and queried in one k-NN call.
    The k nearest neighbors decide the metric: consistent normals pick the
    point-to-plane branch, anything else point-to-point; matches beyond the
    gate radius are dropped. Rows follow ``sorted(window.landmarks)``.
    """
    lm_ids = np.array(sorted(window.landmarks), dtype=int)
    if len(cloud) == 0 or not len(lm_ids):
        return _NO_ASSOCIATION
    idx, dist = cloud.knn(anchor.apply(_positions(window.landmarks, lm_ids)), cfg.knn_k)
    if idx.shape[1] >= 2:
        plane = normal_consistency(cloud.normals[idx], cfg.normal_consistency_angle)
    else:
        plane = np.zeros(len(lm_ids), dtype=bool)
    gated = dist[:, 0] <= cfg.gate_radius
    nearest = idx[gated, 0]
    return MapAssociation(
        lm_ids[gated], cloud.positions[nearest], cloud.normals[nearest], plane[gated]
    )


def _positions(landmarks: dict, lm_ids) -> np.ndarray:
    """The positions of ``lm_ids``, (m, 3)."""
    return np.array([landmarks[lm_id] for lm_id in lm_ids.tolist()], dtype=float).reshape(-1, 3)


def _add_anchor_groups(problem: Problem, anchor: AnchorTransform, association, lm_ids, cfg) -> None:
    """The ``anchor`` family of one row, one map group per metric present
    (point-to-plane first), and the anchor prior.

    Row j of the problem's ``lm`` family is landmark ``lm_ids[j]`` (sorted),
    and every associated landmark must be among them. Each map row carries
    its map point, and a point-to-plane row its normal too.
    """
    problem.add_poses("anchor", [anchor.pose])
    rows = np.searchsorted(lm_ids, association.landmark_ids)
    information = np.eye(3) / (cfg.sigma_map**2)
    kernel = res.RobustKernel("cauchy", cfg.cauchy_metric)
    for kind, plane in ((res.PointToPlaneFactor, True), (res.PointToPointFactor, False)):
        metric = association.plane == plane
        points = association.points[metric]
        data = (points, association.normals[metric]) if plane else (points,)
        problem.add_factors(
            kind, [("anchor", np.zeros(metric.sum(), dtype=int)), ("lm", rows[metric])], data,
            information, kernel,
        )
    problem.add_factors(
        res.AnchorPriorFactor, [("anchor", [0])], Pose.stack([anchor.prior_mean]),
        cfg.prior_information(anchor.prior_scale), res.RobustKernel(),
    )


def _alignment_problem(landmarks: dict, anchor: AnchorTransform, association, cfg) -> Problem:
    """The rigid step's anchor-only problem: the associated landmarks as a
    fixed ``lm`` family, in id order, and the anchor groups."""
    problem = Problem()
    problem.add_vectors("lm", _positions(landmarks, association.landmark_ids), fixed=True)
    _add_anchor_groups(problem, anchor, association, association.landmark_ids, cfg)
    return problem


def _solved_anchor(problem: Problem) -> Pose:
    """The ``anchor`` family's one row after a solve."""
    return Pose(*(a[0] for a in problem.value["anchor"]))


# ---------------------------------------------------------------------------
# problem assembly


def _solvable_landmarks(window: SlidingWindow) -> list[int]:
    """Active landmarks with at least two current observers."""
    observers = window.observer_counts()
    return [lm_id for lm_id in sorted(window.landmarks) if observers.get(lm_id, 0) >= 2]


def _build_vio_problem(window, rig, gravity, cfg, lm_ids) -> Problem:
    """The window's block families and its stereo, preintegration and bias groups.

    Families ``pose`` (the oldest row fixed), ``vel``, ``bg`` and ``ba`` have
    one row per keyframe in window order; ``lm``, eliminated, one per
    solvable landmark in ``lm_ids`` (sorted). The stereo group has one row
    per occurrence of a solvable landmark in a keyframe's ``landmark_ids``,
    keyframe by keyframe, carrying that keyframe's pixels.
    """
    kfs = window.keyframes
    states = [kf.state for kf in kfs]
    problem = Problem()
    problem.add_poses("pose", [s.pose for s in states], fixed=np.arange(len(kfs)) == 0)
    problem.add_vectors("vel", [s.velocity for s in states])
    problem.add_vectors("bg", [s.gyro_bias for s in states])
    problem.add_vectors("ba", [s.accel_bias for s in states])
    problem.add_vectors("lm", _positions(window.landmarks, np.asarray(lm_ids)), eliminate=True)

    seen = [np.isin(kf.landmark_ids, lm_ids) for kf in kfs]
    occurrences = np.concatenate([kf.landmark_ids[rows] for kf, rows in zip(kfs, seen)])
    pixels = np.concatenate([kf.pixels[rows] for kf, rows in zip(kfs, seen)])
    problem.add_factors(
        res.StereoReprojectionFactor,
        [("pose", np.repeat(np.arange(len(kfs)), [rows.sum() for rows in seen])),
         ("lm", np.searchsorted(lm_ids, occurrences))],
        (pixels, rig.camera, rig.right_camera()),
        res.PIXEL_INFORMATION,
        res.RobustKernel("cauchy", cfg.cauchy_pixel),
    )

    # a link joins the keyframes curr - 1 and curr
    curr = np.array([i for i in range(1, len(kfs)) if kfs[i].pre_from_prev is not None], dtype=int)
    prev = curr - 1
    pres = [kfs[i].pre_from_prev for i in curr]
    problem.add_factors(
        res.PreintegrationFactor,
        [("pose", prev), ("vel", prev), ("bg", prev), ("ba", prev), ("pose", curr), ("vel", curr)],
        res.stack_preintegrations(pres, gravity),
        np.array([pre.information() for pre in pres]),
        res.RobustKernel(),
    )
    problem.add_factors(
        res.BiasRandomWalkFactor,
        [("ba", prev), ("bg", prev), ("ba", curr), ("bg", curr)],
        None,
        np.array([bias_information(rig.imu_noise, pre.dt_total) for pre in pres]),
        res.RobustKernel(),
    )
    return problem


def _write_back(problem: Problem, window: SlidingWindow, lm_ids) -> None:
    """The solved families back into the keyframe states and the landmark positions."""
    value = problem.value
    rows = zip(*value["pose"], value["vel"], value["ba"], value["bg"])
    for kf, (rot, trans, vel, ba, bg) in zip(window.keyframes, rows):
        kf.state = NavState(Pose(rot, trans), vel, ba, bg)
    window.landmarks.update(zip(lm_ids, value["lm"]))


def _adjust_window(window, anchor, association, rig, cfg) -> SolverReport:
    """One solve of the window problem, with the anchor groups of the
    solvable landmarks' constraints if ``association`` has any, written back
    into the window and, with constraints, the anchor."""
    lm_ids = _solvable_landmarks(window)
    problem = _build_vio_problem(window, rig, rig.gravity_vector(), cfg, lm_ids)
    if len(association):
        solvable = association.rows(np.isin(association.landmark_ids, lm_ids))
        _add_anchor_groups(problem, anchor, solvable, lm_ids, cfg)
    report = solve(problem, cfg.max_iterations)
    _write_back(problem, window, lm_ids)
    if len(association):
        anchor.pose = _solved_anchor(problem)
    return report


def non_rigid_ba(
    window: SlidingWindow,
    anchor: AnchorTransform,
    association: MapAssociation,
    rig: SensorRig,
    cfg: EstimatorConfig,
) -> SolverReport:
    """Joint adjustment of states, landmarks and the anchor.

    With no map constraints this reduces to the plain visual-inertial
    problem (no anchor block), matching a VIO-only solve exactly. Otherwise
    the anchor groups take the constraints of the solvable landmarks.
    """
    return _adjust_window(window, anchor, association, rig, cfg)


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
    and landmarks stay untouched there. Each anchor solve is an
    ``_alignment_problem``: one free pose row, nothing eliminated. The
    report's initial cost is stage one's, its final cost the last anchor
    solve's.
    """
    stage1 = _adjust_window(window, anchor, _NO_ASSOCIATION, rig, cfg)

    iterations = stage1.iterations
    final_cost = stage1.final_cost
    termination = stage1.termination
    for _ in range(cfg.icp_max_iterations):
        association = associate_constraints(window, anchor.pose, cloud, cfg)
        if not len(association):
            break
        alignment = _alignment_problem(window.landmarks, anchor, association, cfg)
        report = solve(alignment, cfg.max_iterations)
        aligned = _solved_anchor(alignment)
        update = np.linalg.norm(se3_log(anchor.pose.inverse() @ aligned))
        anchor.pose = aligned
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
    """One scheduled adjustment; returns (report, association, actions)."""
    actions = schedule.actions_at(counter)
    if actions == ("rigid",):
        report = rigid_ba(window, anchor, cloud, rig, cfg)
        association = associate_constraints(window, anchor.pose, cloud, cfg)
    else:
        association = associate_constraints(window, anchor.pose, cloud, cfg)
        report = non_rigid_ba(window, anchor, association, rig, cfg)
    anchor.prior_mean = anchor.pose
    anchor.prior_scale = 1.0
    return report, association, actions


# ---------------------------------------------------------------------------
# session driver


@dataclass
class StepRecord:
    """One step's report. On a non-rigid step ``initial_cost`` and
    ``final_cost`` are the window problem's before and after its solve. On a
    rigid step they come from two objectives: ``initial_cost`` is the
    visual-inertial stage's (reprojection, preintegration and bias terms)
    before its solve, ``final_cost`` the last anchor-only ICP solve's (map
    and prior terms) after it, so they are not comparable."""

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
    poses_map: list  # keyframe poses in the map frame (anchor o local pose)
    anchors: list
    records: list
    diverged: bool = False
    divergence_reason: str = ""


def _mean_constraint_residual(window, anchor: Pose, association: MapAssociation) -> float:
    """Mean map distance of the associated landmarks: plane distance on
    point-to-plane rows, point distance on the others; NaN with no rows."""
    if not len(association):
        return float("nan")
    offset = association.points - anchor.apply(_positions(window.landmarks, association.landmark_ids))
    dist = np.linalg.norm(offset, axis=1)
    plane = association.plane
    dist[plane] = np.abs(np.einsum("ni,ni->n", association.normals[plane], offset[plane]))
    return float(dist.mean())


class DivergenceMonitor:
    """Flags runs whose map residuals blow up or associations collapse."""

    def __init__(self, cfg: EstimatorConfig):
        self.cfg = cfg
        self.baseline = None
        self.bad_residual = 0
        self.bad_count = 0

    def update(self, n_constraints: int, mean_residual: float) -> str:
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


def _imu_between(session: SessionData, t0: float, t1: float) -> np.ndarray:
    """The session's IMU samples with ``t0 <= t <= t1``.

    An end with no sample at exactly its time gets one, interpolated
    linearly between the samples on either side of it, so the stream spans
    the whole of ``[t0, t1]``. An end outside the stream gets none.
    """
    samples = session.imu_samples
    times = samples[:, 0]
    lo, hi = np.searchsorted(times, t0), np.searchsorted(times, t1, "right")
    head = 0 < lo < len(times) and times[lo] != t0
    tail = 0 < hi < len(times) and times[hi - 1] != t1
    if not (head or tail):
        return samples[lo:hi]
    return np.vstack(
        ([_interpolated_sample(samples, lo, t0)] if head else [])
        + [samples[lo:hi]]
        + ([_interpolated_sample(samples, hi, t1)] if tail else [])
    )


def _interpolated_sample(samples: np.ndarray, i: int, t: float) -> np.ndarray:
    """The sample at time t, linear between rows i - 1 and i, which bracket it."""
    before, after = samples[i - 1], samples[i]
    sample = before + (t - before[0]) / (after[0] - before[0]) * (after - before)
    sample[0] = t
    return sample


def _initial_state(session: SessionData) -> NavState:
    """Local-frame initial state: identity pose, the first true velocity in the body frame."""
    gt0 = session.gt_poses[0]
    if len(session.gt_poses) > 1:
        dt = float(session.gt_times[1] - session.gt_times[0])
        v_world = (session.gt_poses[1].translation - gt0.translation) / dt
    else:
        v_world = np.zeros(3)
    velocity = gt0.rotation.T @ v_world
    return NavState(pose=Pose.identity(), velocity=velocity)


def _due_keyframes(session: SessionData, window: SlidingWindow, cfg: EstimatorConfig):
    """Yield a ``Keyframe`` for each later frame that tracks at least
    ``cfg.min_frame_landmarks`` landmarks and where the keyframe policy fires.

    Every frame is predicted from the window's newest keyframe, read again
    for each frame, so a keyframe the caller inserts becomes the next base.
    """
    rig = session.rig
    for k in range(window.keyframes[-1].kf_id + 1, len(session.frames)):
        last = window.keyframes[-1]
        timestamp = float(session.gt_times[k])
        pre = integrate(
            _imu_between(session, last.timestamp, timestamp),
            (last.state.gyro_bias, last.state.accel_bias),
            rig.imu_noise,
        )
        state = predict_state(last.state, pre, rig.gravity_vector())
        frame = session.frames[k]
        if len(frame.landmark_ids) >= cfg.min_frame_landmarks and _keyframe_due(
            last, state, frame.landmark_ids, cfg
        ):
            yield Keyframe(k, timestamp, state, frame.landmark_ids.copy(),
                           frame.pixels.copy(), pre_from_prev=pre)


def initialize(
    session: SessionData, anchor_guess: Pose, cfg: EstimatorConfig | None = None
):
    """Seed the window with the first two keyframes and stereo landmarks.

    Returns ``(window, anchor)``. Raises ``TooFewObservationsError`` when
    frame 0 tracks too few landmarks, and ``InsufficientParallaxError`` when
    no second keyframe comes or too few landmarks triangulate.
    """
    cfg = cfg or EstimatorConfig()
    window = SlidingWindow(cfg.window_capacity)
    frame0 = session.frames[0]
    kf0 = Keyframe(0, float(session.gt_times[0]), _initial_state(session),
                   frame0.landmark_ids.copy(), frame0.pixels.copy())
    window.insert_keyframe(kf0, cfg.min_frame_landmarks)
    kf1 = next(_due_keyframes(session, window, cfg), None)
    if kf1 is None:
        raise InsufficientParallaxError("session too short to create a second keyframe")
    window.insert_keyframe(kf1, cfg.min_frame_landmarks)
    activated = activate_landmarks(window, session.rig, cfg)
    if activated < cfg.min_frame_landmarks:
        raise InsufficientParallaxError(
            f"only {activated} landmarks triangulated at initialization"
        )
    anchor = AnchorTransform(
        pose=anchor_guess, prior_mean=anchor_guess, prior_scale=cfg.initial_prior_scale
    )
    return window, anchor


def _keyframe_due(last: Keyframe, state: NavState, frame_ids, cfg) -> bool:
    """Keyframe policy: motion from the newest keyframe ``last``, or too little overlap."""
    trans = np.linalg.norm(state.pose.translation - last.state.pose.translation)
    if trans > cfg.kf_translation:
        return True
    rel = last.state.pose.rotation.T @ state.pose.rotation
    if np.linalg.norm(so3_log(rel)) > cfg.kf_rotation:
        return True
    last_ids = set(last.landmark_ids.tolist())
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
    window, anchor = initialize(session, anchor_guess, cfg)
    monitor = DivergenceMonitor(cfg)
    poses_map, anchors, records = [], [], []
    counter = 0

    def run_step(kf: Keyframe):
        nonlocal counter
        report, association, actions = step(window, anchor, cloud, schedule, counter, rig, cfg)
        counter += 1
        mean_res = _mean_constraint_residual(window, anchor.pose, association)
        records.append(
            StepRecord(
                kf.kf_id,
                kf.timestamp,
                actions,
                report.initial_cost,
                report.final_cost,
                report.iterations,
                report.termination,
                len(association),
                mean_res,
            )
        )
        poses_map.append(anchor.pose @ kf.state.pose)
        anchors.append(anchor.pose)
        return monitor.update(len(association), mean_res)

    reason = run_step(window.keyframes[-1])
    if not reason:
        for kf in _due_keyframes(session, window, cfg):
            window.insert_keyframe(kf, cfg.min_frame_landmarks)
            activate_landmarks(window, rig, cfg)
            reason = run_step(kf)
            if reason:
                break

    return LocalizationResult(
        poses_map=poses_map,
        anchors=anchors,
        records=records,
        diverged=bool(reason),
        divergence_reason=reason,
    )

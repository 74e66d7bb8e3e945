"""Sliding-window visual-inertial localization against a prior laser map.

The window holds recent keyframes (pose, velocity, biases), the landmarks
they observe, and the anchor: the SE(3) transform from the odometry's
local frame into the map frame, estimated online. Each new keyframe runs
one bundle-adjustment step chosen by the schedule:

- non-rigid: states, landmarks and the anchor optimized jointly under
  reprojection + preintegration + map-alignment + anchor-prior terms;
- rigid: plain visual-inertial adjustment first, then ICP on the anchor
  alone, one LM step per association until an association repeats;
- hybrid repeats ``HYBRID_CYCLE``: one non-rigid step, then three rigid.

The front end is one keyframe path. ``_due_keyframes`` preintegrates the
IMU samples between the window's newest keyframe and each later frame, by
the frames' timestamps and at that keyframe's biases, and yields a keyframe
wherever the policy (``_keyframe_due``: translation, rotation or landmark
overlap) fires on a frame that tracks enough landmarks; ``initialize``
inserts frame 0 and its first yield, ``run_localization`` the rest. The
IMU stream must start at or before frame 0, whose body the anchor guess
places (``initialize`` raises otherwise); where it ends, keyframes stop at
the first frame after its last sample. Each insertion shifts the window's
keyframe states by one row and restacks its two tables (``SlidingWindow``),
its keyframes' observation rows and its active landmarks;
``activate_landmarks`` then triangulates in one call every inactive
landmark that two window keyframes see, from its first row.

Both steps state their terms as arrays. The window problem
(``_build_vio_problem``) takes the window's state arrays as its block
families ``pose``, ``vel``, ``bg`` and ``ba``, one row per keyframe in
window order (the oldest pose fixed), and ``lm``, eliminated, with one row
per solvable landmark (a mask over the active ones) in id order. It has one
factor group per term family, whose slots index those rows: the window's
observation rows of solvable landmarks, masked from its table (landmark
rows by ``np.searchsorted`` of the ids), then the preintegration and the
bias terms between consecutive keyframes. After a solve ``_write_back``
assigns the families back to the state arrays and, through the mask, the
positions. An association (``associate_constraints``) moves all active
landmarks into the map frame and has ``laser_map`` match them
(``PointCloudMap.match``); its record's ``rows`` index ``window.landmarks``.

The anchor's terms are stated once, by ``_add_anchor_groups``: the one-row
``anchor`` family, one map group per metric and the anchor prior. A
non-rigid step adds them to the window problem. The rigid step's anchor-only
solve adds them to a problem whose only other family is the associated
landmarks, held fixed; the solver runs both problems on the same Schur
system, which gives the fixed landmarks no columns.

The anchor is one ``Pose`` that each step takes and returns. A step's
anchor prior has the anchor it was given, the last step's estimate, as its
mean, widened by ``INITIAL_PRIOR_SCALE`` on the first step only.

The thresholds (keyframe policy, map noise, robust scales, the ICP cap and
the divergence rules) are the module constants below. ``EstimatorConfig``
holds the five values that the ROADMAP's measurements vary: the window
capacity and the iteration budget, the k-NN k, the gate radius and the
prior's translation stddev.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import residuals as res
from .imu import PreintegratedImu, bias_information, integrate, predict_state
from .laser_map import NO_MATCHES, Matches, PointCloudMap
from .liegroup import Pose, so3_log
from .session import SensorRig, SessionData
from .solver import Problem, SolverReport, solve


class TooFewObservationsError(ValueError):
    """Frame does not track enough landmarks to become a keyframe."""


class InsufficientParallaxError(ValueError):
    """Not enough stereo disparity to triangulate an initial landmark set."""


# keyframe policy: a frame must track MIN_FRAME_LANDMARKS, and is due after
# this much motion from the newest keyframe or below this share of its landmarks
MIN_FRAME_LANDMARKS = 15
KF_TRANSLATION = 0.5  # m
KF_ROTATION = math.radians(10.0)
KF_OVERLAP = 0.6
MIN_DISPARITY = 1.0  # px, for a stereo row to triangulate
# map terms: point noise; robust scales
SIGMA_MAP = 0.05  # m
CAUCHY_PIXEL = 2.0
CAUCHY_METRIC = 1.0
# the anchor prior, and its stddev multiplier before the first step
PRIOR_ROT_SIGMA = 0.01  # rad
INITIAL_PRIOR_SCALE = 10.0
# the rigid step's ICP loop: at most this many associations aligned to
ICP_MAX_ITERATIONS = 20
# divergence: residual growth over the first good step's, or too few constraints
DIVERGENCE_RATIO = 3.0
DIVERGENCE_STEPS = 5
DIVERGENCE_MIN_CONSTRAINTS = 5
# the hybrid schedule's steps, over and over: the paper's 1:3
HYBRID_CYCLE = (("non_rigid",),) + (("rigid",),) * 3


@dataclass
class EstimatorConfig:
    window_capacity: int = 7
    knn_k: int = 5
    gate_radius: float = 1.0
    prior_trans_sigma: float = 0.1  # m
    max_iterations: int = 8

    def __post_init__(self):
        # a window of one keyframe triangulates nothing, a zero sigma divides by zero
        bounds = dict(window_capacity=1, knn_k=0, gate_radius=0.0, prior_trans_sigma=0.0, max_iterations=0)
        for name, bound in bounds.items():
            if not getattr(self, name) > bound:
                raise ValueError(f"{name} must be above {bound}, got {getattr(self, name)!r}")

    def prior_information(self, scale: float = 1.0) -> np.ndarray:
        rot = PRIOR_ROT_SIGMA * scale
        trans = self.prior_trans_sigma * scale
        return np.diag(
            np.concatenate([np.full(3, 1.0 / rot**2), np.full(3, 1.0 / trans**2)])
        )


@dataclass
class Keyframe:
    kf_id: int
    landmark_ids: np.ndarray
    pixels: np.ndarray  # (n, 4): ul vl ur vr
    pre_from_prev: PreintegratedImu | None = None  # from the keyframe before; frame 0's has none


@dataclass
class BaSchedule:
    """Dispatch rule for per-keyframe adjustment steps."""

    mode: str = "hybrid"  # non_rigid_only | hybrid

    def __post_init__(self):
        if self.mode not in ("non_rigid_only", "hybrid"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    def actions_at(self, counter: int) -> tuple[str, ...]:
        if self.mode == "non_rigid_only":
            return ("non_rigid",)
        return HYBRID_CYCLE[counter % len(HYBRID_CYCLE)]


class SlidingWindow:
    """Keyframes, their states and observation rows as tables, and the active landmarks.

    The keyframe states are stacked in window order (0 the oldest), the
    solver's layout: ``poses`` (a ``Pose`` stack, body in L), ``velocities``,
    ``gyro_biases`` and ``accel_biases`` (n, 3). Each insertion shifts them
    by one row and stacks the observation rows keyframe by keyframe:
    ``row_ids``, ``row_pixels`` (n, 4) and ``row_keyframe`` (window index).
    ``seen_ids`` are their ids, sorted, and ``observers`` how many keyframes
    see each (a keyframe counts once per id). The active landmarks are
    ``landmarks``, sorted ids, and ``positions`` (m, 3) in L, row for row:
    one stays active while a window keyframe sees it, and is solvable when two do.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keyframes: list[Keyframe] = []
        self.poses = Pose(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        self.velocities = self.gyro_biases = self.accel_biases = np.zeros((0, 3))
        empty = np.zeros(0, dtype=int)  # replaced, never written into
        self.row_ids, self.row_pixels, self.row_keyframe = empty, np.zeros((0, 4)), empty
        self.seen_ids, self.observers = empty, empty
        self.landmarks, self.positions = empty, np.zeros((0, 3))

    def insert_keyframe(self, kf: Keyframe, pose: Pose, velocity) -> None:
        """Append ``kf`` at ``pose`` and ``velocity`` with its predecessor's
        biases (zero for the first); evict the oldest beyond capacity;
        restack; retire orphan landmarks."""
        def shift(rows, row):
            return np.concatenate([rows, [row]])[-self.capacity:]

        bg, ba = (self.gyro_biases[-1], self.accel_biases[-1]) if self.keyframes else (np.zeros(3),) * 2
        kfs = self.keyframes = (self.keyframes + [kf])[-self.capacity:]
        rot, trans = self.poses.rotation, self.poses.translation
        self.poses = Pose(shift(rot, pose.rotation), shift(trans, pose.translation))
        self.velocities = shift(self.velocities, velocity)
        self.gyro_biases, self.accel_biases = shift(self.gyro_biases, bg), shift(self.accel_biases, ba)
        self.row_ids = np.concatenate([kf.landmark_ids for kf in kfs])
        self.row_pixels = np.concatenate([kf.pixels for kf in kfs])
        self.row_keyframe = np.repeat(np.arange(len(kfs)), [len(kf.landmark_ids) for kf in kfs])
        # one (id, keyframe) pair per keyframe that sees an id
        pairs = np.unique(np.column_stack([self.row_ids, self.row_keyframe]), axis=0)
        self.seen_ids, self.observers = np.unique(pairs[:, 0], return_counts=True)
        alive = np.isin(self.landmarks, self.seen_ids)
        self.landmarks, self.positions = self.landmarks[alive], self.positions[alive]

    def solvable(self) -> np.ndarray:
        """Mask over ``landmarks``: those that two window keyframes see."""
        return self.observers[np.searchsorted(self.seen_ids, self.landmarks)] >= 2


def triangulate_stereo(rig: SensorRig, pose: Pose, stereo_px):
    """Local-frame positions of stereo observations (ul, vl, ur, vr) seen
    from body poses, and which have more than ``MIN_DISPARITY`` px of
    disparity: (3,) and a bool for one pose and (4,) row, (n, 3) and (n,)
    for a stack. A row without enough disparity has a NaN position."""
    cam = rig.camera
    ul, vl, ur = (np.asarray(stereo_px, dtype=float)[..., i] for i in range(3))
    disparity = ul - ur
    ok = disparity > MIN_DISPARITY
    z = cam.fx * rig.stereo_baseline / np.where(ok, disparity, 1.0)
    p_cam = np.stack([(ul - cam.cx) * z / cam.fx, (vl - cam.cy) * z / cam.fy, z], axis=-1)
    world = pose @ cam.body_t_cam
    position = (world.rotation @ p_cam[..., None])[..., 0] + world.translation
    return np.where(ok[..., None], position, np.nan), ok


def activate_landmarks(window: SlidingWindow, rig: SensorRig) -> int:
    """Triangulate each inactive landmark that two window keyframes see.

    A landmark is triangulated from its first row, which is in the oldest
    window keyframe that sees it; one without enough disparity stays inactive.
    """
    ids, first = np.unique(window.row_ids, return_index=True)  # ids are seen_ids
    rows = first[(window.observers >= 2) & ~np.isin(ids, window.landmarks)]
    owner = window.poses[window.row_keyframe[rows]]
    positions, ok = triangulate_stereo(rig, owner, window.row_pixels[rows])
    ids = np.concatenate([window.landmarks, window.row_ids[rows[ok]]])
    order = np.argsort(ids)
    window.landmarks = ids[order]
    window.positions = np.concatenate([window.positions, positions[ok]])[order]
    return int(ok.sum())


def associate_constraints(
    window: SlidingWindow, anchor: Pose, cloud: PointCloudMap, cfg: EstimatorConfig
) -> Matches:
    """Each active landmark, moved into the map frame, matched to its nearest
    map point (``PointCloudMap.match``); the rows index ``window.landmarks``."""
    return cloud.match(anchor.apply(window.positions), cfg.knn_k, cfg.gate_radius)


def _add_anchor_groups(problem: Problem, anchor: Pose, prior, association, lm) -> None:
    """The ``anchor`` family of one row at ``anchor``, one map group per
    metric present (point-to-plane first), and the anchor prior ``prior``:
    (mean, information).

    Association row i constrains row ``lm[i]`` of the problem's ``lm``
    family. Each map row carries its map point, and a point-to-plane row its
    normal too.
    """
    problem.add_poses("anchor", Pose.stack([anchor]))
    information = np.eye(3) / (SIGMA_MAP**2)
    kernel = res.RobustKernel("cauchy", CAUCHY_METRIC)
    for kind, plane in ((res.PointToPlaneFactor, True), (res.PointToPointFactor, False)):
        metric = association.plane == plane
        points = association.points[metric]
        data = (points, association.normals[metric]) if plane else (points,)
        problem.add_factors(
            kind, [("anchor", np.zeros(metric.sum(), dtype=int)), ("lm", lm[metric])], data,
            information, kernel,
        )
    mean, information = prior
    problem.add_factors(
        res.AnchorPriorFactor, [("anchor", [0])], Pose.stack([mean]), information, res.RobustKernel()
    )


def _alignment_problem(window: SlidingWindow, anchor: Pose, prior, association) -> Problem:
    """The rigid step's anchor-only problem: the active landmarks as a
    fixed ``lm`` family, row for row, and the anchor groups."""
    problem = Problem()
    problem.add_vectors("lm", window.positions, fixed=True)
    _add_anchor_groups(problem, anchor, prior, association, association.rows)
    return problem


# ---------------------------------------------------------------------------
# problem assembly


def _build_vio_problem(window, rig, gravity, solvable) -> Problem:
    """The window's block families and its stereo, preintegration and bias groups.

    Families ``pose`` (the oldest row fixed), ``vel``, ``bg`` and ``ba`` have
    one row per keyframe in window order; ``lm``, eliminated, one per
    landmark that the mask ``solvable`` picks from ``window.landmarks``. The
    stereo group has one row per window row of such a landmark, keyframe by
    keyframe, carrying that row's pixels.
    """
    kfs = window.keyframes
    problem = Problem()
    problem.add_poses("pose", window.poses, fixed=np.arange(len(kfs)) == 0)
    problem.add_vectors("vel", window.velocities)
    problem.add_vectors("bg", window.gyro_biases)
    problem.add_vectors("ba", window.accel_biases)
    problem.add_vectors("lm", window.positions[solvable], eliminate=True)

    lm_ids = window.landmarks[solvable]
    rows = np.isin(window.row_ids, lm_ids)
    problem.add_factors(
        res.StereoReprojectionFactor,
        [("pose", window.row_keyframe[rows]), ("lm", np.searchsorted(lm_ids, window.row_ids[rows]))],
        (window.row_pixels[rows], rig.camera, rig.right_camera()),
        res.PIXEL_INFORMATION,
        res.RobustKernel("cauchy", CAUCHY_PIXEL),
    )

    # a link joins the keyframes curr - 1 and curr
    curr = np.arange(1, len(kfs))
    prev = curr - 1
    pres = [kf.pre_from_prev for kf in kfs[1:]]
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
        np.array([bias_information(pre.dt_total) for pre in pres]),
        res.RobustKernel(),
    )
    return problem


def _write_back(problem: Problem, window: SlidingWindow, solvable) -> None:
    """The solved families back into the window's states and, through ``solvable``, the positions."""
    value = problem.value
    window.poses = Pose(*value["pose"])
    window.velocities, window.gyro_biases, window.accel_biases = value["vel"], value["bg"], value["ba"]
    window.positions[solvable] = value["lm"]


def _adjust_window(window, anchor, prior, association, rig, cfg):
    """One solve of the window problem, with the anchor groups of the
    solvable landmarks' constraints if ``association`` has any, written back
    into the window; returns (anchor, report), the anchor as it was without."""
    solvable = window.solvable()
    problem = _build_vio_problem(window, rig, rig.gravity_vector(), solvable)
    if len(association):
        kept = association.subset(solvable[association.rows])
        _add_anchor_groups(problem, anchor, prior, kept, (np.cumsum(solvable) - 1)[kept.rows])
    report = solve(problem, cfg.max_iterations)
    _write_back(problem, window, solvable)
    return (Pose(*problem.value["anchor"])[0] if len(association) else anchor), report


def non_rigid_ba(
    window: SlidingWindow,
    anchor: Pose,
    prior,
    association: Matches,
    rig: SensorRig,
    cfg: EstimatorConfig,
):
    """Joint adjustment of states, landmarks and the anchor; returns (anchor, report).

    With no map constraints this reduces to the plain visual-inertial
    problem (no anchor block), matching a VIO-only solve exactly. Otherwise
    the anchor groups take the constraints of the solvable landmarks.
    """
    return _adjust_window(window, anchor, prior, association, rig, cfg)


def rigid_ba(
    window: SlidingWindow,
    anchor: Pose,
    prior,
    cloud: PointCloudMap,
    rig: SensorRig,
    cfg: EstimatorConfig,
):
    """VIO-only adjustment, then ICP on the anchor; returns (anchor, report,
    association), the association at the anchor returned.

    Stage two takes one LM step (Chen and Medioni) of an ``_alignment_problem``
    per association, states and landmarks untouched, until an association
    equals one aligned to in this step: a fixed point (Besl and McKay) or a
    cycle. The report's initial cost is stage one's, its final cost the last
    anchor solve's, its termination as ``StepRecord`` gives it.
    """
    anchor, report = _adjust_window(window, anchor, prior, NO_MATCHES, rig, cfg)
    initial_cost, iterations, termination = report.initial_cost, report.iterations, report.termination
    aligned = set()
    while True:
        association = associate_constraints(window, anchor, cloud, cfg)
        fields = tuple(field.tobytes() for field in vars(association).values())
        if not len(association) or fields in aligned or len(aligned) == ICP_MAX_ITERATIONS:
            break
        aligned.add(fields)
        alignment = _alignment_problem(window, anchor, prior, association)
        report = solve(alignment, 1)
        anchor = Pose(*alignment.value["anchor"])[0]
        iterations += report.iterations
    if len(association):
        termination = "converged" if fields in aligned else "max_iter"
    return anchor, SolverReport(initial_cost, report.final_cost, iterations, termination), association


def step(
    window: SlidingWindow,
    anchor: Pose,
    cloud: PointCloudMap,
    schedule: BaSchedule,
    counter: int,
    rig: SensorRig,
    cfg: EstimatorConfig,
):
    """One scheduled adjustment from ``anchor``, the mean of its anchor
    prior; returns (anchor, report, association, actions)."""
    actions = schedule.actions_at(counter)
    prior = (anchor, cfg.prior_information(INITIAL_PRIOR_SCALE if counter == 0 else 1.0))
    if actions == ("rigid",):
        anchor, report, association = rigid_ba(window, anchor, prior, cloud, rig, cfg)
    else:
        association = associate_constraints(window, anchor, cloud, cfg)
        anchor, report = non_rigid_ba(window, anchor, prior, association, rig, cfg)
    return anchor, report, association, actions


# ---------------------------------------------------------------------------
# session driver


@dataclass
class StepRecord:
    """One step's report. On a non-rigid step ``initial_cost`` and
    ``final_cost`` are the window problem's before and after its solve. On a
    rigid step they come from two objectives: ``initial_cost`` is the
    visual-inertial stage's (reprojection, preintegration and bias terms)
    before its solve, ``final_cost`` the last anchor-only ICP solve's (map
    and prior terms) after it, so they are not comparable. A rigid step's
    ``termination`` is ``converged`` if an ICP association repeated, else
    ``max_iter`` at ``ICP_MAX_ITERATIONS``, else the visual-inertial stage's."""

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
    records: list
    diverged: bool = False
    divergence_reason: str = ""


class DivergenceMonitor:
    """Flags runs whose map residuals blow up or associations collapse."""

    def __init__(self):
        self.baseline = None
        self.bad_residual = 0
        self.bad_count = 0

    def update(self, n_constraints: int, mean_residual: float) -> str:
        if n_constraints < DIVERGENCE_MIN_CONSTRAINTS:
            self.bad_count += 1
        else:
            self.bad_count = 0
        if math.isfinite(mean_residual) and n_constraints >= DIVERGENCE_MIN_CONSTRAINTS:
            if self.baseline is None:
                # floor at the map noise scale: a near-zero first residual
                # must not make ordinary noise look like divergence
                self.baseline = max(mean_residual, 2.0 * SIGMA_MAP)
            if mean_residual > DIVERGENCE_RATIO * self.baseline:
                self.bad_residual += 1
            else:
                self.bad_residual = 0
        # associations may legitimately be sparse while a coarse anchor
        # converges, so the count rule gets a 3x longer fuse
        if self.bad_count >= 3 * DIVERGENCE_STEPS:
            return "no map constraints"
        if self.bad_residual >= DIVERGENCE_STEPS:
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


def _initial_velocity(session: SessionData) -> np.ndarray:
    """The first keyframe's velocity: the first true velocity, in its body frame, which is L's."""
    gt0 = session.gt_poses[0]
    if len(session.gt_poses) > 1:
        dt = float(session.gt_times[1] - session.gt_times[0])
        v_world = (session.gt_poses[1].translation - gt0.translation) / dt
    else:
        v_world = np.zeros(3)
    return gt0.rotation.T @ v_world


def _due_keyframes(session: SessionData, window: SlidingWindow):
    """Yield ``(keyframe, pose, velocity)`` for each later frame that tracks
    at least ``MIN_FRAME_LANDMARKS`` landmarks and where the keyframe policy fires.

    Every frame is predicted from the window's newest keyframe, read again
    for each frame, so a keyframe the caller inserts becomes the next base.
    It stops at the first frame after the IMU stream's last sample.
    """
    rig = session.rig
    imu_end = session.imu_samples[-1, 0]
    for k in range(window.keyframes[-1].kf_id + 1, len(session.frames)):
        frame = session.frames[k]
        if frame.timestamp > imu_end:
            return
        last, last_pose = window.keyframes[-1], window.poses[-1]
        pre = integrate(
            _imu_between(session, session.frames[last.kf_id].timestamp, frame.timestamp),
            (window.gyro_biases[-1], window.accel_biases[-1]),
        )
        pose, velocity = predict_state(last_pose, window.velocities[-1], pre, rig.gravity_vector())
        if len(frame.landmark_ids) >= MIN_FRAME_LANDMARKS and _keyframe_due(
            last_pose, last.landmark_ids, pose, frame.landmark_ids
        ):
            kf = Keyframe(k, frame.landmark_ids.copy(), frame.pixels.copy(), pre)
            yield kf, pose, velocity


def initialize(session: SessionData, cfg: EstimatorConfig | None = None) -> SlidingWindow:
    """Seed the window with the first two keyframes and stereo landmarks.

    Raises ``ValueError`` when the IMU stream is empty or starts after frame
    0, which would leave the head of the first keyframe link unintegrated;
    ``TooFewObservationsError`` when frame 0 tracks too few landmarks; and
    ``InsufficientParallaxError`` when no second keyframe comes or too few
    landmarks triangulate.
    """
    cfg = cfg or EstimatorConfig()
    window = SlidingWindow(cfg.window_capacity)
    frame0 = session.frames[0]
    t0 = frame0.timestamp
    start = session.imu_samples[0, 0] if len(session.imu_samples) else math.inf  # an empty stream never starts
    if start > t0:
        raise ValueError(f"IMU stream starts after frame 0: [{t0:.6f}, {start:.6f}) s has no samples")
    if len(frame0.landmark_ids) < MIN_FRAME_LANDMARKS:
        raise TooFewObservationsError(
            f"frame tracks {len(frame0.landmark_ids)} < {MIN_FRAME_LANDMARKS} landmarks"
        )
    kf0 = Keyframe(0, frame0.landmark_ids.copy(), frame0.pixels.copy())
    window.insert_keyframe(kf0, Pose.identity(), _initial_velocity(session))
    second = next(_due_keyframes(session, window), None)
    if second is None:
        raise InsufficientParallaxError("session too short to create a second keyframe")
    window.insert_keyframe(*second)
    activated = activate_landmarks(window, session.rig)
    if activated < MIN_FRAME_LANDMARKS:
        raise InsufficientParallaxError(
            f"only {activated} landmarks triangulated at initialization"
        )
    return window


def _keyframe_due(last_pose: Pose, last_ids, pose: Pose, frame_ids) -> bool:
    """Keyframe policy: motion from ``last_pose``, or too little overlap with ``last_ids``."""
    trans = np.linalg.norm(pose.translation - last_pose.translation)
    if trans > KF_TRANSLATION:
        return True
    rel = last_pose.rotation.T @ pose.rotation
    if np.linalg.norm(so3_log(rel)) > KF_ROTATION:
        return True
    last_ids = set(last_ids.tolist())
    if not last_ids:
        return False
    overlap = len(last_ids.intersection(frame_ids.tolist())) / len(last_ids)
    return overlap < KF_OVERLAP


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
    window = initialize(session, cfg)
    anchor, monitor = anchor_guess, DivergenceMonitor()
    poses_map, records = [], []
    # the first step adjusts the initialized window, each later one an insertion
    for due in chain([None], _due_keyframes(session, window)):
        if due:
            window.insert_keyframe(*due)
            activate_landmarks(window, rig)
        anchor, report, association, actions = step(window, anchor, cloud, schedule, len(records), rig, cfg)
        mean_res = association.mean_distance(anchor.apply(window.positions[association.rows]))
        kf = window.keyframes[-1]
        records.append(
            StepRecord(
                kf.kf_id,
                session.frames[kf.kf_id].timestamp,
                actions,
                report.initial_cost,
                report.final_cost,
                report.iterations,
                report.termination,
                len(association),
                mean_res,
            )
        )
        poses_map.append(anchor @ window.poses[-1])
        reason = monitor.update(len(association), mean_res)
        if reason:
            break
    return LocalizationResult(
        poses_map=poses_map,
        records=records,
        diverged=bool(reason),
        divergence_reason=reason,
    )

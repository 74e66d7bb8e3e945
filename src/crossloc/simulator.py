"""Deterministic synthetic world and multi-session sensor data generator.

The world is a set of labeled geometric elements (planar patches, poles,
boxes, scatter clusters). Static elements exist in every session,
semi-static ones only in their session set, dynamic ones move and affect
laser returns only. Feature points are sampled once per world (seeded by
the world seed), so the same physical features reappear across sessions.

The laser is ray cast against a ``RayGeometry``: the elements present in
one session, stacked per element type and compiled once per (world,
session) on the ``WorldModel``. Each scan casts every type in one array
pass into a (rays, elements) distance array and keeps the nearest hit; on
equal distances the element earlier in world order wins. Poles and bushes
are tested exactly only for the rays that meet their bounding sphere,
which contains (with a margin) every point the exact test can hit, so the
cull never drops a hit.

A trajectory is a C2 cubic spline through waypoints traversed at a spline
speed profile; angular velocity and acceleration come from analytic spline
derivatives, so synthesized IMU streams are consistent with the sampled
ground truth up to integration error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .laser_map import PointCloudMap, canonical_sign
from .liegroup import Pose, rot_z
from .residuals import CameraModel
from .session import FrameObservations, LaserModel, SensorRig, SessionData

KIND_STATIC = "static"
KIND_SEMI_STATIC = "semi_static"
KIND_DYNAMIC = "dynamic"
KIND_GROUND = "ground"


# ---------------------------------------------------------------------------
# world elements


@dataclass(frozen=True)
class PlanarPatch:
    """Rectangle spanned by two orthogonal edges from an origin corner."""

    elem_id: int
    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    feature_density: float = 0.0  # features per m^2
    kind: str = KIND_STATIC
    sessions: tuple | None = None

    def __post_init__(self):
        if abs(float(self.edge_u @ self.edge_v)) > 1e-9:
            raise ValueError("patch edges must be orthogonal")

    @cached_property
    def normal(self) -> np.ndarray:
        n = np.cross(self.edge_u, self.edge_v)
        return n / np.linalg.norm(n)

    @property
    def area(self) -> float:
        return float(np.linalg.norm(self.edge_u) * np.linalg.norm(self.edge_v))


@dataclass(frozen=True)
class Pole:
    """Vertical-ish cylinder from base to tip."""

    elem_id: int
    base: np.ndarray
    tip: np.ndarray
    radius: float
    feature_density: float = 0.0  # features per m of height
    kind: str = KIND_STATIC
    sessions: tuple | None = None


def _pole_frame(pole: Pole):
    """The pole's unit axis, its height, and two unit vectors that complete
    a right-handed frame around the axis: (axis, height, e1, e2)."""
    axis = pole.tip - pole.base
    height = np.linalg.norm(axis)
    axis = axis / height
    e1 = np.cross(axis, [1.0, 0.0, 0.0])
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.cross(axis, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return axis, height, e1, np.cross(axis, e1)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; dynamic boxes oscillate along a direction."""

    elem_id: int
    center: np.ndarray
    size: np.ndarray  # full extents
    feature_density: float = 0.0  # features per m^2 of lateral faces
    kind: str = KIND_STATIC
    sessions: tuple | None = None
    motion_direction: np.ndarray | None = None
    motion_amplitude: float = 0.0
    motion_period: float = 1.0

    def center_at(self, t: float) -> np.ndarray:
        if self.kind != KIND_DYNAMIC or self.motion_direction is None:
            return self.center
        phase = math.sin(2.0 * math.pi * t / self.motion_period)
        return self.center + self.motion_direction * (self.motion_amplitude * phase)


@dataclass(frozen=True)
class ScatterCluster:
    """Blob of small spheres (bushes, clutter); points double as features."""

    elem_id: int
    center: np.ndarray
    extent: np.ndarray
    count: int
    point_radius: float = 0.04
    feature_density: float = 0.0  # > 0 makes every point a feature
    kind: str = KIND_STATIC
    sessions: tuple | None = None


class WorldModel:
    """Element collection with cached, seed-deterministic feature points and
    per-session ray-cast geometry.

    ``elements`` is a tuple of frozen elements, so neither cache can go stale.
    """

    def __init__(self, elements, seed: int = 0):
        self.elements = tuple(elements)
        self.seed = seed
        ids = [e.elem_id for e in self.elements]
        if len(ids) != len(set(ids)):
            raise ValueError("element ids must be unique")
        self._features = None
        self._ray_geometry = {}

    def element_present(self, elem, session_id: int) -> bool:
        if elem.kind == KIND_SEMI_STATIC:
            return elem.sessions is not None and session_id in elem.sessions
        return True

    def element_kinds(self) -> dict:
        return {e.elem_id: (e.kind, e.sessions) for e in self.elements}

    def ray_geometry(self, session_id: int) -> RayGeometry:
        """The elements present in ``session_id``, compiled once for ``cast_rays``."""
        geo = self._ray_geometry.get(session_id)
        if geo is None:
            present = [e for e in self.elements if self.element_present(e, session_id)]
            geo = self._ray_geometry[session_id] = RayGeometry(self, present)
        return geo

    def scatter_points(self, elem: ScatterCluster) -> np.ndarray:
        rng = np.random.default_rng([self.seed, elem.elem_id, 101])
        return elem.center + rng.uniform(-1, 1, size=(elem.count, 3)) * (elem.extent / 2.0)

    # -- feature points -----------------------------------------------------
    def feature_points(self):
        """(ids, positions (F,3), element id per feature), world-stable."""
        if self._features is not None:
            return self._features
        positions = []
        elem_ids = []
        for elem in self.elements:
            pts = self._element_features(elem)
            positions.extend(pts)
            elem_ids.extend([elem.elem_id] * len(pts))
        positions = np.asarray(positions, dtype=float).reshape(len(elem_ids), 3)
        ids = np.arange(len(elem_ids))
        self._features = (ids, positions, np.asarray(elem_ids, dtype=int))
        return self._features

    def _element_features(self, elem):
        if elem.feature_density <= 0.0:
            return []
        rng = np.random.default_rng([self.seed, elem.elem_id, 7])
        if isinstance(elem, PlanarPatch):
            count = int(round(elem.feature_density * elem.area))
            r = rng.uniform(size=(count, 2))
            return list(elem.origin + r[:, :1] * elem.edge_u + r[:, 1:] * elem.edge_v)
        if isinstance(elem, Pole):
            axis, height, e1, e2 = _pole_frame(elem)
            count = int(round(elem.feature_density * height))
            h = rng.uniform(0, height, size=count)
            ang = rng.uniform(0, 2 * np.pi, size=count)
            return list(
                elem.base
                + h[:, None] * axis
                + elem.radius * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
            )
        if isinstance(elem, Box):
            half = elem.size / 2.0
            faces = []
            # four lateral faces: (axis, sign)
            for axis, other in ((0, 1), (1, 0)):
                for sign in (-1.0, 1.0):
                    faces.append((axis, other, sign))
            areas = [elem.size[other] * elem.size[2] for _, other, _ in faces]
            count = int(round(elem.feature_density * sum(areas)))
            pts = []
            choice = rng.choice(len(faces), size=count, p=np.array(areas) / sum(areas))
            for f in choice:
                axis, other, sign = faces[f]
                p = np.array(elem.center, dtype=float)
                p[axis] += sign * half[axis]
                p[other] += rng.uniform(-half[other], half[other])
                p[2] += rng.uniform(-half[2], half[2])
                pts.append(p)
            return pts
        if isinstance(elem, ScatterCluster):
            return list(self.scatter_points(elem))
        return []

    def features_for_session(self, session_id: int):
        ids, positions, elem_ids = self.feature_points()
        by_id = {e.elem_id: e for e in self.elements}
        keep = np.array(
            [self.element_present(by_id[e], session_id) for e in elem_ids], dtype=bool
        )
        return ids[keep], positions[keep], elem_ids[keep]


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: np.ndarray  # (K, 3); first == last closes the loop
    speed: float | np.ndarray = 2.0  # scalar or per-waypoint (m/s)
    direction: str = "forward"

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[0] < 2 or wp.shape[1] != 3:
            raise ValueError("waypoints must be (K>=2, 3)")
        speeds = np.atleast_1d(np.asarray(self.speed, dtype=float))
        if np.any(speeds <= 0):
            raise ValueError("speeds must be positive")
        if self.direction not in ("forward", "reverse"):
            raise ValueError("direction must be forward or reverse")


@dataclass
class SampledTrajectory:
    """Ground truth on the IMU clock; frames subsample every ``stride``."""

    imu_times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    yaws: np.ndarray
    yaw_rates: np.ndarray
    stride: int

    def frame_indices(self, n_frames: int) -> np.ndarray:
        return np.arange(n_frames) * self.stride

    def pose_at(self, imu_index: int) -> Pose:
        return Pose(rot_z(self.yaws[imu_index]), self.positions[imu_index].copy())


class TrajectorySampler:
    """C2 time-parameterized spline through waypoints.

    Waypoint times come from chord lengths and the speed profile, and the
    path is splined directly against time, so sampled velocities and
    accelerations are exact derivatives of the sampled positions (no ODE
    integration between the two). Closed loops (first waypoint == last)
    wrap periodically.
    """

    def __init__(self, spec: TrajectorySpec, imu_rate: float, frame_rate: float):
        if imu_rate <= 0 or frame_rate <= 0:
            raise ValueError("rates must be positive")
        if abs(imu_rate / frame_rate - round(imu_rate / frame_rate)) > 1e-9:
            raise ValueError("imu_rate must be an integer multiple of frame_rate")
        self.imu_rate = float(imu_rate)
        self.frame_rate = float(frame_rate)
        self.stride = int(round(imu_rate / frame_rate))

        wp = np.array(spec.waypoints, dtype=float)
        if spec.direction == "reverse":
            wp = wp[::-1]
        self.closed = bool(np.allclose(wp[0], wp[-1], atol=1e-12))
        if self.closed:
            wp[-1] = wp[0]  # scipy's periodic bc requires exact equality
        chord = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        if np.any(chord <= 0):
            raise ValueError("consecutive waypoints must be distinct")
        speeds = np.atleast_1d(np.asarray(spec.speed, dtype=float))
        if speeds.size == 1:
            speeds = np.full(len(wp), speeds[0])
        elif speeds.size != len(wp):
            raise ValueError("speed profile must be scalar or one per waypoint")
        if spec.direction == "reverse":
            speeds = speeds[::-1]
        seg_time = chord / (0.5 * (speeds[:-1] + speeds[1:]))
        knots = np.concatenate([[0.0], np.cumsum(seg_time)])
        self.total_time = float(knots[-1])
        bc = "periodic" if self.closed else "natural"
        self.path = CubicSpline(knots, wp, bc_type=bc, axis=0)
        self._d_path = self.path.derivative()
        self._dd_path = self._d_path.derivative()

    def _wrap(self, t):
        if self.closed:
            return np.mod(t, self.total_time)
        return np.clip(t, 0.0, self.total_time)

    def states_at(self, times):
        """Vectorized (pos, vel, acc, yaw, yaw_rate) at the given times."""
        tw = self._wrap(np.asarray(times, dtype=float))
        pos = self.path(tw)
        vel = self._d_path(tw)
        acc = self._dd_path(tw)
        yaw = np.arctan2(vel[..., 1], vel[..., 0])
        denom = vel[..., 0] ** 2 + vel[..., 1] ** 2
        denom = np.maximum(denom, 1e-18)
        yaw_rate = (vel[..., 0] * acc[..., 1] - vel[..., 1] * acc[..., 0]) / denom
        return pos, vel, acc, yaw, yaw_rate

    def sample(self, duration: float) -> SampledTrajectory:
        """Ground truth at IMU rate over [0, duration)."""
        n_imu = int(round(duration * self.imu_rate))
        times = np.arange(n_imu) / self.imu_rate
        pos, vel, acc, yaw, yaw_rate = self.states_at(times)
        return SampledTrajectory(times, pos, vel, acc, yaw, yaw_rate, self.stride)


def generate_trajectory(spec: TrajectorySpec, imu_rate: float, frame_rate: float) -> TrajectorySampler:
    return TrajectorySampler(spec, imu_rate, frame_rate)


# ---------------------------------------------------------------------------
# IMU synthesis


def synthesize_imu(
    sampled: SampledTrajectory, rig: SensorRig, seed: int, session_id: int = 0, noise: bool = True
):
    """IMU stream consistent with the sampled trajectory, as an (N, 7) array.

    Noise adds white measurement noise and a bias random walk to both sensors.
    """
    rng = np.random.default_rng([seed, session_id, 11])
    n = len(sampled.imu_times)
    dt = 1.0 / rig.imu_rate
    gravity = rig.gravity_vector()
    nm = rig.imu_noise
    gyro_noise = np.zeros((n, 3))
    accel_noise = np.zeros((n, 3))
    bias_g = np.zeros((n, 3))
    bias_a = np.zeros((n, 3))
    if noise:
        gyro_noise = rng.normal(0.0, nm.gyro_noise_density / math.sqrt(dt), size=(n, 3))
        accel_noise = rng.normal(0.0, nm.accel_noise_density / math.sqrt(dt), size=(n, 3))
        bias_g = np.cumsum(rng.normal(0.0, nm.gyro_bias_walk * math.sqrt(dt), size=(n, 3)), axis=0)
        bias_a = np.cumsum(rng.normal(0.0, nm.accel_bias_walk * math.sqrt(dt), size=(n, 3)), axis=0)
    rate = np.zeros((n, 3))
    rate[:, 2] = sampled.yaw_rates
    omega = rate + bias_g + gyro_noise
    # specific force in the body frame: rot_z(yaw).T @ (acceleration - gravity)
    c, s = np.cos(sampled.yaws), np.sin(sampled.yaws)
    f = sampled.accelerations - gravity
    force = np.stack([c * f[:, 0] + s * f[:, 1], c * f[:, 1] - s * f[:, 0], f[:, 2]], axis=1)
    force = force + bias_a + accel_noise
    return np.column_stack([sampled.imu_times, omega, force])


# ---------------------------------------------------------------------------
# camera synthesis

_MAX_FEATURE_RANGE = 20.0  # m


def synthesize_camera(
    sampled: SampledTrajectory,
    world: WorldModel,
    rig: SensorRig,
    session_id: int,
    seed: int,
    n_frames: int,
    pixel_sigma: float = 0.5,
    outlier_fraction: float = 0.0,
):
    """Per-frame stereo observations of the session's visible features,
    those at most ``_MAX_FEATURE_RANGE`` (20 m) from the camera."""
    rng = np.random.default_rng([seed, session_id, 23])
    ids, positions, _ = world.features_for_session(session_id)
    cams = (rig.camera, rig.right_camera())
    frames = []
    for k in sampled.frame_indices(n_frames):
        body_pose = sampled.pose_at(k)
        uv_pair = []
        visible = np.ones(len(ids), dtype=bool)
        for cam in cams:
            world_t_cam = body_pose @ cam.body_t_cam
            p_cam = (positions - world_t_cam.translation) @ world_t_cam.rotation
            depth_ok = p_cam[:, 2] > 0.2
            rng_ok = np.linalg.norm(p_cam, axis=1) <= _MAX_FEATURE_RANGE
            with np.errstate(divide="ignore", invalid="ignore"):
                uv = cam.project(p_cam)
            visible &= depth_ok & rng_ok & cam.in_image(np.nan_to_num(uv, nan=-1.0))
            uv_pair.append(uv)
        sel = np.nonzero(visible)[0]
        pixels = np.concatenate([uv_pair[0][sel], uv_pair[1][sel]], axis=1)
        if pixel_sigma > 0:
            pixels = pixels + rng.normal(0.0, pixel_sigma, size=pixels.shape)
        if outlier_fraction > 0 and len(sel) > 0:
            bad = rng.uniform(size=len(sel)) < outlier_fraction
            n_bad = int(bad.sum())
            if n_bad:
                w, h = rig.camera.width, rig.camera.height
                pixels[bad] = np.column_stack(
                    [
                        rng.uniform(0, w - 1, n_bad),
                        rng.uniform(0, h - 1, n_bad),
                        rng.uniform(0, w - 1, n_bad),
                        rng.uniform(0, h - 1, n_bad),
                    ]
                )
        frames.append(FrameObservations(ids[sel].copy(), pixels))
    return frames


# ---------------------------------------------------------------------------
# laser synthesis


def laser_ray_directions(laser: LaserModel) -> np.ndarray:
    """Unit ray directions in the laser frame, channel-major."""
    elev = np.deg2rad(
        np.linspace(laser.elevation_min_deg, laser.elevation_max_deg, laser.channels)
    )
    azim = np.deg2rad(np.arange(0.0, 360.0, laser.azimuth_step_deg))
    ee, aa = np.meshgrid(elev, azim, indexing="ij")
    return np.stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)


# Slack (m) on the bounding spheres of the cull. Rounding in the
# ray-to-centre distance is below 1e-9 m at scene scale, so no true hit is
# culled.
_CULL_MARGIN = 1e-3


class RayGeometry:
    """One session's present elements, stacked per element type for casting.

    Built once per (world, session) by ``WorldModel.ray_geometry``. Each
    element owns one column of ``cast_rays``' distance array, in world
    order. Poles and bushes carry a bounding sphere (plus ``_CULL_MARGIN``)
    that contains every surface point the exact test can hit.
    """

    def __init__(self, world: WorldModel, elements):
        # element id per column; a last column that no element fills keeps
        # argmin defined when nothing is present
        self.column_ids = np.array([e.elem_id for e in elements] + [-1], dtype=int)

        def columns(cls):
            cols = [i for i, e in enumerate(elements) if isinstance(e, cls)]
            return np.array(cols, dtype=int), [elements[i] for i in cols]

        self.patch_cols, patches = columns(PlanarPatch)
        self.patch_origin = _rows([p.origin for p in patches])
        self.patch_normal = _rows([p.normal for p in patches])
        self.patch_edge_u = _rows([p.edge_u for p in patches])
        self.patch_edge_v = _rows([p.edge_v for p in patches])
        self.patch_lu2 = np.array([float(p.edge_u @ p.edge_u) for p in patches])
        self.patch_lv2 = np.array([float(p.edge_v @ p.edge_v) for p in patches])

        self.pole_cols, poles = columns(Pole)
        self.pole_base = _rows([p.base for p in poles])
        self.pole_length = np.array([np.linalg.norm(p.tip - p.base) for p in poles])
        self.pole_axis = _rows([(p.tip - p.base) / h for p, h in zip(poles, self.pole_length)])
        self.pole_radius = np.array([p.radius for p in poles])
        self.pole_center = _rows([0.5 * (p.base + p.tip) for p in poles])
        self.pole_bound = np.hypot(0.5 * self.pole_length, self.pole_radius) + _CULL_MARGIN

        self.box_cols, self.boxes = columns(Box)
        self.box_half = _rows([b.size / 2.0 for b in self.boxes])

        # bushes with no spheres can never be hit and get no column data
        bush_cols, bushes = columns(ScatterCluster)
        keep = [i for i, b in enumerate(bushes) if b.count > 0]
        self.bush_cols = bush_cols[keep]
        bushes = [bushes[i] for i in keep]
        points = [world.scatter_points(b) for b in bushes]
        # pad each bush to the largest count by repeating its first sphere,
        # which leaves its nearest hit unchanged
        m = max((len(p) for p in points), default=0)
        self.bush_points = np.array(
            [np.concatenate([p, np.repeat(p[:1], m - len(p), axis=0)]) for p in points]
        ).reshape(len(points), m, 3)
        self.bush_radius = np.array([b.point_radius for b in bushes])
        self.bush_center = _rows([b.center for b in bushes])
        self.bush_bound = np.array(
            [np.linalg.norm(p - b.center, axis=1).max() for p, b in zip(points, bushes)]
        ) + self.bush_radius + _CULL_MARGIN


def _rows(vectors) -> np.ndarray:
    return np.array(vectors, dtype=float).reshape(len(vectors), 3)


def _ray_pairs(origin, dirs, centers, bounds):
    """(ray, element) index pairs whose ray passes within ``bounds`` of ``centers``.

    A ray that starts outside a sphere meets it only if its closest approach
    to the centre lies ahead of the origin and within the radius.
    """
    oc = centers - origin
    oc2 = np.einsum("ij,ij->i", oc, oc)
    along = dirs @ oc.T
    dd = np.einsum("ij,ij->i", dirs, dirs)[:, None]
    meets = oc2 * dd - along * along <= bounds * bounds * dd
    return np.nonzero(meets & ((along > 0.0) | (oc2 <= bounds * bounds)))


def _hit_patches(origin, dirs, geo: RayGeometry):
    n = geo.patch_normal
    denom = dirs @ n.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("pj,pj->p", geo.patch_origin - origin, n) / denom
    t = np.where(np.abs(denom) < 1e-12, np.inf, t)
    finite = np.isfinite(t)
    tf = np.where(finite, t, 0.0)
    # edge coordinates of the hit point origin + t * dir, from the corner
    rel = origin - geo.patch_origin
    a = np.einsum("pj,pj->p", rel, geo.patch_edge_u) + tf * (dirs @ geo.patch_edge_u.T)
    b = np.einsum("pj,pj->p", rel, geo.patch_edge_v) + tf * (dirs @ geo.patch_edge_v.T)
    a /= geo.patch_lu2
    b /= geo.patch_lv2
    ok = finite & (t > 1e-9) & (a >= 0) & (a <= 1) & (b >= 0) & (b <= 1)
    return np.where(ok, t, np.inf)


def _hit_boxes(origin, dirs, geo: RayGeometry, t_scan: float):
    center = _rows([b.center_at(t_scan) for b in geo.boxes])
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs[:, None, :]
        t1 = (center - geo.box_half - origin) * inv
        t2 = (center + geo.box_half - origin) * inv
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
    # fmax / fmin skip the NaN of a zero direction component on a slab plane
    tmin = np.fmax(np.fmax(near[..., 0], near[..., 1]), near[..., 2])
    tmax = np.fmin(np.fmin(far[..., 0], far[..., 1]), far[..., 2])
    hit = (tmax >= tmin) & (tmax > 1e-9)
    t = np.where(tmin > 1e-9, tmin, tmax)
    return np.where(hit, t, np.inf)


def _hit_poles(origin, dirs, geo: RayGeometry, pole):
    """Distances along ``dirs[k]`` to pole ``pole[k]``'s side surface."""
    axis = geo.pole_axis[pole]
    oc = origin - geo.pole_base
    oc_par = np.einsum("pj,pj->p", oc, geo.pole_axis)
    oc_perp = oc - oc_par[:, None] * geo.pole_axis
    c = np.einsum("pj,pj->p", oc_perp, oc_perp) - geo.pole_radius * geo.pole_radius
    d_par = np.einsum("kj,kj->k", dirs, axis)
    d_perp = dirs - d_par[:, None] * axis
    a = np.einsum("kj,kj->k", d_perp, d_perp)
    b = 2.0 * np.einsum("kj,kj->k", d_perp, oc_perp[pole])
    disc = b * b - 4.0 * a * c[pole]
    t_out = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    for sign in (-1.0, 1.0):
        t = (-b + sign * sq) / (2.0 * np.where(ok, a, 1.0))
        s = oc_par[pole] + t * d_par
        good = ok & (t > 1e-9) & (s >= 0.0) & (s <= geo.pole_length[pole]) & (t < t_out)
        t_out[good] = t[good]
    return t_out


def _hit_bushes(origin, dirs, geo: RayGeometry, bush):
    """Nearest distances along unit ``dirs[k]`` to bush ``bush[k]``'s spheres."""
    oc = origin - geo.bush_points  # (bushes, spheres, 3)
    c = np.einsum("bmj,bmj->bm", oc, oc) - (geo.bush_radius * geo.bush_radius)[:, None]
    b = 2.0 * np.einsum("kj,kmj->km", dirs, oc[bush])
    disc = b * b - 4.0 * c[bush]
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = (-b - sq) / 2.0
    t2 = (-b + sq) / 2.0
    t = np.where(t1 > 1e-9, t1, t2)
    t = np.where((disc >= 0) & (t > 1e-9), t, np.inf)
    return t.min(axis=1, initial=np.inf)


def cast_rays(origin, dirs, world: WorldModel, session_id: int, t_scan: float):
    """Nearest-hit distances and element ids (-1 for miss).

    Every element type is cast in one array pass into a (rays, elements)
    distance array; poles and bushes only for the rays that meet their
    bounding spheres. ``argmin`` keeps the first of equal distances, so ties
    go to the element earlier in world order.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    geo = world.ray_geometry(session_id)
    dist = np.full((len(dirs), len(geo.column_ids)), np.inf)
    dist[:, geo.patch_cols] = _hit_patches(origin, dirs, geo)
    dist[:, geo.box_cols] = _hit_boxes(origin, dirs, geo, t_scan)
    ray, pole = _ray_pairs(origin, dirs, geo.pole_center, geo.pole_bound)
    dist[ray, geo.pole_cols[pole]] = _hit_poles(origin, dirs[ray], geo, pole)
    ray, bush = _ray_pairs(origin, dirs, geo.bush_center, geo.bush_bound)
    dist[ray, geo.bush_cols[bush]] = _hit_bushes(origin, dirs[ray], geo, bush)
    nearest = np.argmin(dist, axis=1)
    best_t = dist[np.arange(len(dirs)), nearest]
    best_id = np.where(np.isfinite(best_t), geo.column_ids[nearest], -1)
    return best_t, best_id


def synthesize_laser(
    sampled: SampledTrajectory,
    world: WorldModel,
    rig: SensorRig,
    session_id: int,
    seed: int,
    n_frames: int,
    noise: bool = True,
):
    """Per-frame scans: (points in the laser frame, element labels)."""
    rng = np.random.default_rng([seed, session_id, 37])
    dirs_f = laser_ray_directions(rig.laser)
    body_t_laser = rig.body_t_laser
    scans = []
    for k in sampled.frame_indices(n_frames):
        t_scan = float(sampled.imu_times[k])
        world_t_laser = sampled.pose_at(k) @ body_t_laser
        dirs_g = dirs_f @ world_t_laser.rotation.T
        t_hit, labels = cast_rays(world_t_laser.translation, dirs_g, world, session_id, t_scan)
        ok = np.isfinite(t_hit) & (t_hit <= rig.laser.max_range)
        ranges = t_hit[ok]
        if noise and rig.laser.range_noise > 0:
            ranges = ranges + rng.normal(0.0, rig.laser.range_noise, size=ranges.shape)
        points_f = dirs_f[ok] * ranges[:, None]
        scans.append((points_f, labels[ok]))
    return scans


# ---------------------------------------------------------------------------
# whole sessions


def generate_session(
    world: WorldModel,
    spec: TrajectorySpec,
    rig: SensorRig,
    session_id: int,
    seed: int,
    duration: float = 60.0,
    pixel_sigma: float = 0.5,
    outlier_fraction: float = 0.0,
    noise: bool = True,
) -> SessionData:
    """Bundle IMU, camera, laser and ground truth for one traversal."""
    sampler = generate_trajectory(spec, rig.imu_rate, rig.frame_rate)
    sampled = sampler.sample(duration)
    n_frames = int(round(duration * rig.frame_rate))
    frame_rows = sampled.frame_indices(n_frames)  # on the IMU clock
    imu_samples = synthesize_imu(sampled, rig, seed, session_id, noise=noise)
    frames = synthesize_camera(
        sampled,
        world,
        rig,
        session_id,
        seed,
        n_frames,
        pixel_sigma=pixel_sigma if noise else 0.0,
        outlier_fraction=outlier_fraction if noise else 0.0,
    )
    scans = synthesize_laser(sampled, world, rig, session_id, seed, n_frames, noise=noise)
    return SessionData(
        session_id=session_id,
        rig=rig,
        gt_times=sampled.imu_times[frame_rows],
        gt_poses=[sampled.pose_at(k) for k in frame_rows],
        imu_samples=imu_samples,
        frames=frames,
        scans=scans,
        element_kinds=world.element_kinds(),
    )


# ---------------------------------------------------------------------------
# analytic ("true") map sampling


def sample_world_map(
    world: WorldModel, spacing: float = 0.4, session_id: int | None = None
) -> PointCloudMap:
    """Grid-sample element surfaces with analytic normals and labels.

    ``session_id=None`` keeps only always-present geometry (static and
    ground); otherwise semi-static elements of that session are included.
    Dynamic elements are never sampled.
    """
    positions, normals, grounds, labels = [], [], [], []
    for elem in world.elements:
        if elem.kind == KIND_DYNAMIC:
            continue
        if elem.kind == KIND_SEMI_STATIC and (
            session_id is None or not world.element_present(elem, session_id)
        ):
            continue
        if isinstance(elem, PlanarPatch):
            lu = np.linalg.norm(elem.edge_u)
            lv = np.linalg.norm(elem.edge_v)
            nu = max(2, int(round(lu / spacing)) + 1)
            nv = max(2, int(round(lv / spacing)) + 1)
            a, b = np.meshgrid(np.linspace(0, 1, nu), np.linspace(0, 1, nv), indexing="ij")
            pts = elem.origin + a.reshape(-1, 1) * elem.edge_u + b.reshape(-1, 1) * elem.edge_v
            nrm = np.tile(elem.normal, (len(pts), 1))
        elif isinstance(elem, Pole):
            # curved surfaces take the point-to-point branch downstream, so
            # sample them finer than planes to keep nearest-sample error small
            fine = spacing / 3.0
            axis_u, height, e1, e2 = _pole_frame(elem)
            n_h = max(2, int(round(height / fine)) + 1)
            n_c = max(8, int(round(2 * np.pi * elem.radius / fine)))
            hh = np.linspace(0, height, n_h)
            ang = np.arange(n_c) * (2 * np.pi / n_c)
            hh, ang = np.meshgrid(hh, ang, indexing="ij")
            radial = np.cos(ang).reshape(-1, 1) * e1 + np.sin(ang).reshape(-1, 1) * e2
            pts = elem.base + hh.reshape(-1, 1) * axis_u + elem.radius * radial
            nrm = radial
        elif isinstance(elem, Box):
            half = elem.size / 2.0
            pts_list, nrm_list = [], []
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    if axis == 2 and sign < 0:
                        continue  # skip the bottom face
                    o1, o2 = [i for i in range(3) if i != axis]
                    n1 = max(2, int(round(elem.size[o1] / spacing)) + 1)
                    n2 = max(2, int(round(elem.size[o2] / spacing)) + 1)
                    g1, g2 = np.meshgrid(
                        np.linspace(-half[o1], half[o1], n1),
                        np.linspace(-half[o2], half[o2], n2),
                        indexing="ij",
                    )
                    pts_f = np.tile(elem.center, (g1.size, 1))
                    pts_f[:, axis] += sign * half[axis]
                    pts_f[:, o1] += g1.ravel()
                    pts_f[:, o2] += g2.ravel()
                    nrm_f = np.zeros((g1.size, 3))
                    nrm_f[:, axis] = sign
                    pts_list.append(pts_f)
                    nrm_list.append(nrm_f)
            pts = np.concatenate(pts_list)
            nrm = np.concatenate(nrm_list)
        elif isinstance(elem, ScatterCluster):
            pts = world.scatter_points(elem)
            nrm = np.full((len(pts), 3), np.nan)
        else:
            continue
        positions.append(pts)
        valid = ~np.isnan(nrm[:, 0])
        nrm[valid] = canonical_sign(nrm[valid])
        normals.append(nrm)
        grounds.append(np.full(len(pts), elem.kind == KIND_GROUND, dtype=bool))
        labels.append(np.full(len(pts), elem.elem_id, dtype=int))
    return PointCloudMap(
        np.concatenate(positions),
        np.concatenate(normals),
        np.ones(sum(len(p) for p in positions), dtype=int),
        np.concatenate(grounds),
        np.concatenate(labels),
    )


# ---------------------------------------------------------------------------
# default scene


def _rounded_rectangle_waypoints(half_x, half_y, corner_radius, spacing, z):
    """Closed loop of waypoints along a rounded rectangle, CCW."""
    hx, hy, r = half_x, half_y, corner_radius
    corners = [
        (np.array([hx - r, -hy + r]), -np.pi / 2),
        (np.array([hx - r, hy - r]), 0.0),
        (np.array([-hx + r, hy - r]), np.pi / 2),
        (np.array([-hx + r, -hy + r]), np.pi),
    ]
    pts = []
    for (c, start_ang), (c_next, _) in zip(corners, corners[1:] + corners[:1]):
        # quarter arc around c from start_ang
        arc_len = 0.5 * np.pi * r
        n_arc = max(2, int(round(arc_len / spacing)))
        for i in range(n_arc):
            ang = start_ang + 0.5 * np.pi * i / n_arc
            pts.append(c + r * np.array([np.cos(ang), np.sin(ang)]))
        # straight from end of this arc to start of next arc
        p0 = c + r * np.array([np.cos(start_ang + np.pi / 2), np.sin(start_ang + np.pi / 2)])
        p1 = c_next + r * np.array([np.cos(start_ang + np.pi / 2), np.sin(start_ang + np.pi / 2)])
        seg = p1 - p0
        length = np.linalg.norm(seg)
        n_seg = max(1, int(round(length / spacing)))
        for i in range(n_seg):
            pts.append(p0 + seg * (i / n_seg))
    pts.append(pts[0].copy())
    out = np.zeros((len(pts), 3))
    out[:, :2] = np.asarray(pts)
    out[:, 2] = z
    return out


BODY_HEIGHT = 0.5


def default_rig() -> SensorRig:
    """Forward-looking stereo camera, body-aligned laser, desk-scale rates."""
    r_bc = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    body_t_cam = Pose(r_bc, np.array([0.3, 0.15, 0.1]))
    cam = CameraModel(
        fx=460.0, fy=460.0, cx=320.0, cy=240.0, width=640, height=480, body_t_cam=body_t_cam
    )
    laser_height = 0.8
    body_t_laser = Pose(np.eye(3), np.array([0.0, 0.0, laser_height - BODY_HEIGHT]))
    cam_t_laser = body_t_cam.inverse() @ body_t_laser
    return SensorRig(
        camera=cam,
        stereo_baseline=0.4,
        cam_t_laser=cam_t_laser,
        laser_height=laser_height,
    )


def default_world(seed: int = 7, car_sessions=(0, 1)) -> WorldModel:
    """The `yq-mini` scene: loop road, facades, poles, ground, two
    semi-static cars, one moving box and two feature bushes."""
    elems = []
    eid = 0

    def nid():
        nonlocal eid
        eid += 1
        return eid - 1

    # ground
    elems.append(
        PlanarPatch(
            nid(),
            np.array([-30.0, -18.0, 0.0]),
            np.array([60.0, 0.0, 0.0]),
            np.array([0.0, 36.0, 0.0]),
            feature_density=0.0,
            kind=KIND_GROUND,
        )
    )
    # facades along +/- y, facing the road
    wall_h = 4.0
    for y in (14.0, -14.0):
        for x0, x1 in ((-16.0, -6.0), (-4.0, 4.0), (6.0, 16.0)):
            elems.append(
                PlanarPatch(
                    nid(),
                    np.array([x0, y, 0.0]),
                    np.array([x1 - x0, 0.0, 0.0]),
                    np.array([0.0, 0.0, wall_h]),
                    feature_density=0.7,
                    kind=KIND_STATIC,
                )
            )
    # short stubs perpendicular to the facades (doorways, pillars) give
    # the along-road direction planar structure
    for y, into in ((14.0, -1.0), (-14.0, 1.0)):
        for x in (-10.0, 0.0, 10.0):
            elems.append(
                PlanarPatch(
                    nid(),
                    np.array([x, y, 0.0]),
                    np.array([0.0, 1.6 * into, 0.0]),
                    np.array([0.0, 0.0, 3.0]),
                    feature_density=1.5,
                    kind=KIND_STATIC,
                )
            )
    # end walls at +/- x
    for x in (26.0, -26.0):
        elems.append(
            PlanarPatch(
                nid(),
                np.array([x, -9.0, 0.0]),
                np.array([0.0, 18.0, 0.0]),
                np.array([0.0, 0.0, wall_h]),
                feature_density=0.7,
                kind=KIND_STATIC,
            )
        )
    # poles (trees, lamp posts) along both road sides
    for x in np.linspace(-18, 18, 9):
        for y in (11.2, -11.2):
            elems.append(
                Pole(
                    nid(),
                    np.array([x, y, 0.0]),
                    np.array([x, y, 3.5]),
                    radius=0.15,
                    feature_density=3.0,
                    kind=KIND_STATIC,
                )
            )
    # a few poles on the inner island
    for x, y in ((-10.0, 6.2), (0.0, -6.2), (10.0, 6.2), (0.0, 6.2), (-10.0, -6.2), (10.0, -6.2)):
        elems.append(
            Pole(
                nid(),
                np.array([x, y, 0.0]),
                np.array([x, y, 3.0]),
                radius=0.12,
                feature_density=3.0,
                kind=KIND_STATIC,
            )
        )
    # semi-static parked cars near the facades
    for cx, cy in ((-8.0, 12.1), (10.0, -12.1)):
        elems.append(
            Box(
                nid(),
                np.array([cx, cy, 0.7]),
                np.array([4.0, 1.8, 1.4]),
                feature_density=1.2,
                kind=KIND_SEMI_STATIC,
                sessions=tuple(car_sessions),
            )
        )
    # one moving box crossing the scene (laser only)
    elems.append(
        Box(
            nid(),
            np.array([0.0, -10.0, 0.5]),
            np.array([1.0, 1.0, 1.0]),
            feature_density=0.0,
            kind=KIND_DYNAMIC,
            motion_direction=np.array([1.0, 0.0, 0.0]),
            motion_amplitude=8.0,
            motion_period=15.0,
        )
    )
    # feature bushes near the road edges
    for bx, by in ((12.0, 8.8), (-12.0, -8.8), (-14.0, 8.8), (14.0, -8.8), (0.0, 8.8), (4.0, -8.8)):
        elems.append(
            ScatterCluster(
                nid(),
                np.array([bx, by, 0.5]),
                np.array([1.2, 1.2, 1.0]),
                count=25,
                feature_density=1.0,
                kind=KIND_STATIC,
            )
        )
    return WorldModel(elems, seed=seed)


def default_trajectory_spec(direction: str = "forward", speed: float = 2.0) -> TrajectorySpec:
    waypoints = _rounded_rectangle_waypoints(
        half_x=20.0, half_y=10.0, corner_radius=6.0, spacing=2.5, z=BODY_HEIGHT
    )
    return TrajectorySpec(waypoints=waypoints, speed=speed, direction=direction)

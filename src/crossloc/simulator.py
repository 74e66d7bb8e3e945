"""Deterministic synthetic world and multi-session sensor data generator.

The world is a set of labeled geometric elements (planar patches, poles,
boxes, scatter clusters). Static elements exist in every session,
semi-static ones only in their session set, dynamic ones move and affect
laser returns only. Feature points are sampled once per world (seeded by
the world seed), so the same physical features reappear across sessions.

The laser is ray cast against a ``RayGeometry``: the elements present in a
session, stacked per element type and compiled once per (world, session).
Scans are cast a chunk at a time, and each element's exact test runs only
on the rays whose azimuth lies in its window, the arc under which a scan's
origin sees the element's axis-aligned box, widened by a margin (every ray
when the arc is a half circle or more). The nearest hit wins, and of equal
distances the element earlier in world order.

A trajectory is a C2 cubic spline through waypoints timed by their chord
lengths at one speed; angular velocity and acceleration come from analytic
spline derivatives, so synthesized IMU streams are consistent with the
sampled ground truth up to integration error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .imu import ACCEL_BIAS_WALK, ACCEL_NOISE_DENSITY, GYRO_BIAS_WALK, GYRO_NOISE_DENSITY
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
    speed: float = 2.0  # m/s
    direction: str = "forward"

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[0] < 2 or wp.shape[1] != 3:
            raise ValueError("waypoints must be (K>=2, 3)")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
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


def _knot_slopes(dx: np.ndarray, slope: np.ndarray, closed: bool) -> np.ndarray:
    """The C2 cubic spline's first derivative at each of its n knots, (n, 3),
    from its n - 1 intervals' lengths ``dx`` and chord slopes ``slope``.

    Row i of the knot system makes the second derivative continuous at knot
    i, between the interval before it (length h_l, chord slope m_l) and the
    one after it (h_r, m_r):
    ``h_r s[i-1] + 2 (h_l + h_r) s[i] + h_l s[i+1] = 3 (h_r m_l + h_l m_r)``.
    A closed route wraps around, with n - 1 unknowns since its last knot is
    its first; with three knots a row's two neighbours are one knot, and
    their coefficients add. An open route takes a zero second derivative at
    each end instead.
    """
    n = len(dx) + 1
    size = n - 1 if closed else n
    rows = np.arange(size) if closed else np.arange(1, n - 1)
    h_l, h_r = dx[rows - 1], dx[rows]
    a = np.zeros((size, size))
    a[rows, rows] = 2 * (h_l + h_r)
    a[rows, (rows - 1) % size] += h_r
    a[rows, (rows + 1) % size] += h_l
    b = np.zeros((size, 3))
    b[rows] = 3 * (h_r[:, None] * slope[rows - 1] + h_l[:, None] * slope[rows])
    if not closed:
        a[0, :2], a[-1, -2:] = (2.0, 1.0), (1.0, 2.0)
        b[0], b[-1] = 3 * slope[0], 3 * slope[-1]
    s = np.linalg.solve(a, b)
    return np.vstack([s, s[:1]]) if closed else s


def _power_series(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_k c[k] s^(K-1-k)`` by Horner's rule, ``c`` highest power first."""
    value = c[0]
    for ck in c[1:]:
        value = value * s + ck
    return value


class TrajectorySampler:
    """C2 time-parameterized cubic spline through waypoints.

    Waypoint times come from chord lengths and the speed, and the path is
    splined directly against time, so sampled velocities and accelerations
    are exact derivatives of the sampled positions (no ODE integration
    between the two). A closed route (first waypoint within 1e-12 m of the
    last in each coordinate) has periodic ends and wraps in time; an open
    one has natural ends and holds its end states outside them. The knot
    slopes come from one linear solve (``_knot_slopes``), and each interval
    holds its cubic and the cubic's two derivatives in the power basis;
    ``tests/test_simulator.py`` holds the spline to scipy's ``CubicSpline``.
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
        self.closed = bool(np.allclose(wp[0], wp[-1], rtol=0.0, atol=1e-12))
        if self.closed:
            wp[-1] = wp[0]  # the closed knot system takes y[-1] as y[0]
        chord = np.linalg.norm(np.diff(wp, axis=0), axis=1)
        knots = np.concatenate([[0.0], np.cumsum(chord / spec.speed)])
        if not np.all(np.diff(knots) > 0):
            raise ValueError("consecutive waypoints must be distinct")
        self.total_time = float(knots[-1])
        # power-basis coefficients per interval, highest power first, of the
        # path (the Hermite cubic of its end values and slopes) and its two
        # derivatives
        dx = np.diff(knots)[:, None]
        slope = np.diff(wp, axis=0) / dx
        s = _knot_slopes(dx[:, 0], slope, self.closed)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        path = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], wp[:-1]))
        d_path = path[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]
        dd_path = d_path[:-1] * np.array([2.0, 1.0])[:, None, None]
        self._knots = knots
        self._coefficients = (path, d_path, dd_path)

    def _wrap(self, t):
        if self.closed:
            return np.mod(t, self.total_time)
        return np.clip(t, 0.0, self.total_time)

    def states_at(self, times):
        """Vectorized (pos, vel, acc, yaw, yaw_rate) at the given times."""
        tw = self._wrap(np.asarray(times, dtype=float))
        # the interval of the last knot at or below t, the last one closed
        i = np.clip(np.searchsorted(self._knots, tw, side="right") - 1, 0, len(self._knots) - 2)
        s = (tw - self._knots[i])[..., None]
        pos, vel, acc = (_power_series(c[:, i], s) for c in self._coefficients)
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
    gyro_noise = np.zeros((n, 3))
    accel_noise = np.zeros((n, 3))
    bias_g = np.zeros((n, 3))
    bias_a = np.zeros((n, 3))
    if noise:
        gyro_noise = rng.normal(0.0, GYRO_NOISE_DENSITY / math.sqrt(dt), size=(n, 3))
        accel_noise = rng.normal(0.0, ACCEL_NOISE_DENSITY / math.sqrt(dt), size=(n, 3))
        bias_g = np.cumsum(rng.normal(0.0, GYRO_BIAS_WALK * math.sqrt(dt), size=(n, 3)), axis=0)
        bias_a = np.cumsum(rng.normal(0.0, ACCEL_BIAS_WALK * math.sqrt(dt), size=(n, 3)), axis=0)
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

# Frames per pass of the camera and laser synthesis. The default laser took
# 0.189 ms per scan in chunks of 16, 0.200 in 8, 0.193 in 32 and 0.252 in 64
# (medians of 7 forward sessions of 576 scans, one core of a 2-core VM).
_FRAME_CHUNK = 16


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
    indices = sampled.frame_indices(n_frames)
    for start in range(0, len(indices), _FRAME_CHUNK):
        body = [sampled.pose_at(k) for k in indices[start : start + _FRAME_CHUNK]]
        uv_pair, visible = [], np.ones((len(body), len(ids)), dtype=bool)
        for cam in cams:
            world_t_cam = [pose @ cam.body_t_cam for pose in body]
            rotations = np.array([p.rotation for p in world_t_cam])
            p_cam = (positions - _rows([p.translation for p in world_t_cam])[:, None]) @ rotations
            depth_ok = p_cam[..., 2] > 0.2
            rng_ok = np.linalg.norm(p_cam, axis=-1) <= _MAX_FEATURE_RANGE
            with np.errstate(divide="ignore", invalid="ignore"):
                uv = cam.project(p_cam)
            visible &= depth_ok & rng_ok & cam.in_image(np.nan_to_num(uv, nan=-1.0))
            uv_pair.append(uv)
        # noise and outliers frame by frame, in frame order
        for k, seen, uv_left, uv_right in zip(indices[start : start + _FRAME_CHUNK], visible, *uv_pair):
            sel = np.nonzero(seen)[0]
            pixels = np.concatenate([uv_left[sel], uv_right[sel]], axis=1)
            if pixel_sigma > 0:
                pixels = pixels + rng.normal(0.0, pixel_sigma, size=pixels.shape)
            if outlier_fraction > 0 and len(sel) > 0:
                bad = rng.uniform(size=len(sel)) < outlier_fraction
                n_bad = int(bad.sum())
                if n_bad:
                    w, h = rig.camera.width, rig.camera.height
                    pixels[bad] = np.column_stack([rng.uniform(0, m - 1, n_bad) for m in (w, h, w, h)])
            frames.append(FrameObservations(float(sampled.imu_times[k]), ids[sel].copy(), pixels))
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


# Widening (rad) of each element's azimuth window. Rounding moves azimuths
# and hits far less at scene scale, so the cull drops no hit the kernels find.
_AZIMUTH_MARGIN = 1e-6


class RayGeometry:
    """One session's present elements, stacked per element type for casting.

    Built once per (world, session) by ``WorldModel.ray_geometry``. Each
    element owns one entry of ``column_ids``, in world order. ``hull_low``
    and ``hull_high`` bound each patch, pole and bush, in that order, by an
    axis-aligned box that holds every point the exact test can hit.
    """

    def __init__(self, world: WorldModel, elements):
        # element id per column; a last column that no element fills is the miss
        self.column_ids = np.array([e.elem_id for e in elements] + [-1], dtype=int)

        def columns(cls):
            cols = [i for i, e in enumerate(elements) if isinstance(e, cls)]
            return np.array(cols, dtype=int), [elements[i] for i in cols]

        self.patch_cols, patches = columns(PlanarPatch)
        self.patch_origin = _rows([p.origin for p in patches])
        u, v = _rows([p.edge_u for p in patches]), _rows([p.edge_v for p in patches])
        # (patches, 3, 3): the normal and the two edges as columns
        self.patch_frame = np.stack([_rows([p.normal for p in patches]), u, v], axis=2)
        self.patch_lu2 = np.array([float(p.edge_u @ p.edge_u) for p in patches])
        self.patch_lv2 = np.array([float(p.edge_v @ p.edge_v) for p in patches])

        self.pole_cols, poles = columns(Pole)
        self.pole_base = _rows([p.base for p in poles])
        self.pole_length = np.array([np.linalg.norm(p.tip - p.base) for p in poles])
        self.pole_axis = _rows([(p.tip - p.base) / h for p, h in zip(poles, self.pole_length)])
        self.pole_radius = np.array([p.radius for p in poles])
        ends = np.stack([self.pole_base, _rows([p.tip for p in poles])], axis=1)

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

        o = self.patch_origin
        # the points that span each element and the radius that widens them
        spans = ((np.stack([o, o + u, o + v, o + u + v], 1), 0.0), (ends, self.pole_radius[:, None]),
                 (self.bush_points, self.bush_radius[:, None]))
        self.hull_low = np.concatenate([p.min(axis=1, initial=np.inf) - r for p, r in spans])
        self.hull_high = np.concatenate([p.max(axis=1, initial=-np.inf) + r for p, r in spans])
        # the columns in hull order, the boxes (made per scan) last, and each type's start
        kinds = (self.patch_cols, self.pole_cols, self.bush_cols, self.box_cols)
        self.hull_cols, self.type_starts = np.concatenate(kinds), np.cumsum([0, *map(len, kinds[:3])])


def _rows(vectors) -> np.ndarray:
    return np.array(vectors, dtype=float).reshape(len(vectors), 3)


def _window_pairs(low, high, dirs):
    """(ray, window) of each ray of ``dirs`` (scans, rays, 3) in the azimuth
    window of an element's box, ``low`` to ``high`` (elements, scans, 3) from
    the scan's origin; ``window`` (ascending) indexes the flat (elements, scans).

    The window is the arc of the box corners' azimuths, widened by
    ``_AZIMUTH_MARGIN``; it is every ray when the arc is a half circle or
    more or a corner lies straight above or below the origin.
    """
    n_scans, n_rays = dirs.shape[:2]
    azimuth = np.arctan2(dirs[..., 1], dirs[..., 0])
    by_azimuth = np.argsort(azimuth, axis=1)
    azimuth = np.take_along_axis(azimuth, by_azimuth, axis=1)
    # the x and y of the box's four vertical edges
    x = np.stack([low[..., 0], high[..., 0], low[..., 0], high[..., 0]], axis=-1)
    y = np.stack([low[..., 1], low[..., 1], high[..., 1], high[..., 1]], axis=-1)
    corner = np.arctan2(y, x)
    # offsets from the first corner: the true ones when all fit in a half circle
    offset = np.mod(corner - corner[..., :1] + np.pi, 2 * np.pi) - np.pi
    start = corner[..., 0] + offset.min(axis=-1) - _AZIMUTH_MARGIN
    span = offset.max(axis=-1) - offset.min(axis=-1) + 2 * _AZIMUTH_MARGIN
    every = (span >= np.pi) | np.any((x == 0) & (y == 0), axis=-1)
    # each ray also a turn below and above, so that a window's rays are one run of ranks
    turns = np.concatenate([azimuth - 2 * np.pi, azimuth, azimuth + 2 * np.pi], axis=1)
    first = np.array([np.searchsorted(row, w) for row, w in zip(turns, start.T)]).T
    stop = np.array([np.searchsorted(row, w, "right") for row, w in zip(turns, (start + span).T)]).T
    first = np.where(every, 0, first).ravel()
    count = np.where(every, n_rays, stop).ravel() - first
    window = np.repeat(np.arange(count.size), count)
    rank = np.arange(window.size) - np.repeat(np.cumsum(count) - count, count) + first[window]
    scan = window % n_scans
    return scan * n_rays + by_azimuth[scan, rank % n_rays], window


def _hit_patches(dirs, window, origins, geo: RayGeometry):
    """Distances along ``dirs[k]`` to ``window[k]``'s patch, from its scan's origin."""
    patch = window // len(origins)
    # per patch and scan: the origin along the normal and the edges, from the corner
    rel = np.einsum("psj,pjk->kps", origins - geo.patch_origin[:, None], geo.patch_frame)
    rel_n, rel_u, rel_v = rel.reshape(3, -1).take(window, axis=1)
    # the rays along the normal and the edges, rounded like the rows of a matrix product
    denom, along_u, along_v = (dirs[:, None] @ geo.patch_frame.take(patch, axis=0))[:, 0].T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -rel_n / denom
    t = np.where(np.abs(denom) < 1e-12, np.inf, t)
    finite = np.isfinite(t)
    tf = np.where(finite, t, 0.0)
    # edge coordinates of the hit point origin + t * dir, from the corner
    a = (rel_u + tf * along_u) / geo.patch_lu2.take(patch)
    b = (rel_v + tf * along_v) / geo.patch_lv2.take(patch)
    ok = finite & (t > 1e-9) & (a >= 0) & (a <= 1) & (b >= 0) & (b <= 1)
    return np.where(ok, t, np.inf)


def _hit_boxes(dirs, window, low, high):
    """Distances along ``dirs[k]`` into ``window[k]``'s box, whose faces lie
    ``low`` and ``high`` (boxes, scans, 3) from each scan's origin."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = low.reshape(-1, 3).take(window, axis=0) * inv
        t2 = high.reshape(-1, 3).take(window, axis=0) * inv
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
    # fmax / fmin skip the NaN of a zero direction component on a slab plane
    tmin = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
    tmax = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
    hit = (tmax >= tmin) & (tmax > 1e-9)
    t = np.where(tmin > 1e-9, tmin, tmax)
    return np.where(hit, t, np.inf)


def _hit_poles(dirs, window, origins, geo: RayGeometry):
    """Distances along ``dirs[k]`` to the side of ``window[k]``'s pole, from its scan's origin."""
    pole = window // len(origins)
    oc = origins - geo.pole_base[:, None]  # (poles, scans, 3)
    oc_par = np.einsum("psj,pj->ps", oc, geo.pole_axis)
    oc_perp = oc - oc_par[..., None] * geo.pole_axis[:, None]
    c = np.einsum("psj,psj->ps", oc_perp, oc_perp) - (geo.pole_radius * geo.pole_radius)[:, None]
    oc_par, oc_perp, c = oc_par.take(window), oc_perp.reshape(-1, 3).take(window, axis=0), c.take(window)
    axis = geo.pole_axis.take(pole, axis=0)
    d_par = np.einsum("kj,kj->k", dirs, axis)
    d_perp = dirs - d_par[:, None] * axis
    a = np.einsum("kj,kj->k", d_perp, d_perp)
    b = 2.0 * np.einsum("kj,kj->k", d_perp, oc_perp)
    disc = b * b - 4.0 * a * c
    t_out = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    for sign in (-1.0, 1.0):
        t = (-b + sign * sq) / (2.0 * np.where(ok, a, 1.0))
        s = oc_par + t * d_par
        good = ok & (t > 1e-9) & (s >= 0.0) & (s <= geo.pole_length.take(pole)) & (t < t_out)
        t_out[good] = t[good]
    return t_out


def _hit_bushes(dirs, window, origins, geo: RayGeometry):
    """Nearest distances along unit ``dirs[k]`` to the spheres of ``window[k]``'s bush."""
    oc = origins[:, None] - geo.bush_points[:, None]  # (bushes, scans, spheres, 3)
    c = np.einsum("bsmj,bsmj->bsm", oc, oc) - (geo.bush_radius * geo.bush_radius)[:, None, None]
    bush, scan = np.divmod(window, len(origins))
    b = 2.0 * np.einsum("kj,kmj->km", dirs, oc[bush, scan])
    disc = b * b - 4.0 * c[bush, scan]
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = (-b - sq) / 2.0
    t2 = (-b + sq) / 2.0
    t = np.where(t1 > 1e-9, t1, t2)
    t = np.where((disc >= 0) & (t > 1e-9), t, np.inf)
    return t.min(axis=1, initial=np.inf)


def cast_rays(origin, dirs, world: WorldModel, session_id: int, t_scan):
    """Nearest-hit distances and element ids (-1 for miss), one per ray.

    A scan is an ``origin`` (3,), rays ``dirs`` (N, 3) and a time ``t_scan``;
    S scans stack to (S, 3), their rays one scan after the other (S * N, 3),
    and (S,). Ties go to the element earlier in world order.
    """
    origins = np.asarray(origin, dtype=float).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=float)
    geo = world.ray_geometry(session_id)
    n_scans = len(origins)
    centers = np.array([[b.center_at(t) for t in np.ravel(t_scan).tolist()] for b in geo.boxes])
    centers = centers.reshape(len(geo.boxes), n_scans, 3)
    # the boxes' faces per axis, from each scan's origin
    box_low, box_high = (centers + sign * geo.box_half[:, None] - origins for sign in (-1.0, 1.0))
    ray, window = _window_pairs(
        np.concatenate([geo.hull_low[:, None] - origins, box_low]),
        np.concatenate([geo.hull_high[:, None] - origins, box_high]),
        dirs.reshape(n_scans, -1, 3),
    )
    # each element type's exact test and what it reads of the scans, in hull order
    tests = ((_hit_patches, origins, geo), (_hit_poles, origins, geo), (_hit_bushes, origins, geo),
             (_hit_boxes, box_low, box_high))
    starts = n_scans * geo.type_starts  # each type's first window, then its first pair
    pairs = np.searchsorted(window, starts).tolist() + [len(window)]
    t = np.concatenate([
        test(dirs.take(ray[a:b], axis=0), window[a:b] - w0, *scans)
        for (test, *scans), w0, a, b in zip(tests, starts, pairs, pairs[1:])
    ])
    found = np.isfinite(t)
    ray, col, t = ray[found], geo.hull_cols.take(window[found] // n_scans), t[found]
    best_t = np.full(len(dirs), np.inf)
    np.minimum.at(best_t, ray, t)
    tie = t == best_t.take(ray)  # of equal distances, the first column wins
    best_col = np.full(len(dirs), len(geo.column_ids) - 1)
    np.minimum.at(best_col, ray[tie], col[tie])
    return best_t, geo.column_ids[best_col]


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
    frames = sampled.frame_indices(n_frames)
    scans = []
    for start in range(0, len(frames), _FRAME_CHUNK):
        chunk = frames[start : start + _FRAME_CHUNK]
        poses = [sampled.pose_at(k) @ body_t_laser for k in chunk]
        origins = _rows([p.translation for p in poses])
        dirs_g = np.concatenate([dirs_f @ p.rotation.T for p in poses])
        t_hit, labels = cast_rays(origins, dirs_g, world, session_id, sampled.imu_times[chunk])
        # the range filter and the noise draws scan by scan, in frame order
        for t, lab in zip(t_hit.reshape(len(chunk), -1), labels.reshape(len(chunk), -1)):
            ok = np.isfinite(t) & (t <= rig.laser.max_range)
            ranges = t[ok]
            if noise and rig.laser.range_noise > 0:
                ranges = ranges + rng.normal(0.0, rig.laser.range_noise, size=ranges.shape)
            scans.append((dirs_f[ok] * ranges[:, None], lab[ok]))
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
    laser = LaserModel(
        channels=8, elevation_min_deg=-16.0, elevation_max_deg=8.0, azimuth_step_deg=3.0,
        max_range=40.0, range_noise=0.02,
    )
    laser_height = 0.8
    body_t_laser = Pose(np.eye(3), np.array([0.0, 0.0, laser_height - BODY_HEIGHT]))
    cam_t_laser = body_t_cam.inverse() @ body_t_laser
    return SensorRig(
        camera=cam,
        laser=laser,
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


def default_trajectory_spec(direction: str = "forward") -> TrajectorySpec:
    waypoints = _rounded_rectangle_waypoints(
        half_x=20.0, half_y=10.0, corner_radius=6.0, spacing=2.5, z=BODY_HEIGHT
    )
    return TrajectorySpec(waypoints=waypoints, direction=direction)

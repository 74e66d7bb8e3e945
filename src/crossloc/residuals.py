"""Error terms of the hybrid localization cost.

Five families: pixel reprojection, IMU preintegration, point-to-plane and
point-to-point map alignment, and the anchor pose prior. Each comes as a
bare function returning one term's residual and analytic Jacobians, and as
a factor kind whose ``evaluate_batch`` evaluates a whole group of rows for
the solver (see ``solver`` for the group contract); pixel reprojection as
the stereo kind only, which stacks the left and right views. Each kind's
docstring names its block slots and the ``data`` its group carries.

The tests compare every group evaluation with a one-row reference:

- stereo: ``reprojection_residual``, once per view;
- point-to-plane and point-to-point: ``point_to_plane_residual`` and
  ``point_to_point_residual``, which take one ``MapConstraint``;
- preintegration, bias random walk and anchor prior: the kind's one-row
  ``evaluate`` (on ``preintegration_residual`` and
  ``anchor_prior_residual``). A problem has one anchor prior row, and its
  group is evaluated as its rows' ``evaluate``.

The caller gives each group its information: stereo rows share
``PIXEL_INFORMATION`` (1 px in each coordinate); the others take theirs
from the preintegration, the bias random walk, the map noise or the prior.
The map kinds evaluate through ``point_to_plane_batch`` and
``point_to_point_batch``, which the rigid step's anchor-only solve calls
too. Pose Jacobians are always with respect to the right perturbation
``P * Exp(delta)`` with tangent order (phi, rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imu import NavState, PreintegratedImu, bias_corrected_delta
from .liegroup import (
    Pose,
    se3_log,
    se3_right_jacobian_inv,
    skew,
    skew_batch,
    so3_exp_batch,
    so3_left_jacobian_batch,
    so3_left_jacobian_inv,
    so3_left_jacobian_inv_batch,
    so3_log,
    so3_log_batch,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

__all__ = [
    "NavState",
    "Landmark",
    "Observation",
    "CameraModel",
    "RobustKernel",
    "MapConstraint",
    "BehindCameraError",
    "MetricMismatchError",
    "reprojection_residual",
    "preintegration_residual",
    "point_to_plane_residual",
    "point_to_point_residual",
    "anchor_prior_residual",
    "point_to_plane_batch",
    "point_to_point_batch",
    "stack_preintegrations",
    "StereoReprojectionFactor",
    "PreintegrationFactor",
    "BiasRandomWalkFactor",
    "PointToPlaneFactor",
    "PointToPointFactor",
    "AnchorPriorFactor",
    "PIXEL_INFORMATION",
]

POINT_TO_PLANE = "point_to_plane"
POINT_TO_POINT = "point_to_point"

# 1 px in each stereo coordinate (ul, vl, ur, vr)
PIXEL_INFORMATION = np.eye(4)
PIXEL_INFORMATION.flags.writeable = False


class BehindCameraError(ValueError):
    """Landmark has non-positive depth in the camera frame."""


class MetricMismatchError(ValueError):
    """Constraint metric does not match the residual being evaluated."""


@dataclass(frozen=True)
class Landmark:
    position: np.ndarray
    id: int = -1


@dataclass(frozen=True)
class Observation:
    keyframe_id: int
    landmark_id: int
    pixel: np.ndarray


@dataclass(frozen=True)
class CameraModel:
    """Ideal pinhole camera. ``body_t_cam`` maps camera coords to body."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    body_t_cam: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def project(self, p_cam: np.ndarray) -> np.ndarray:
        """Pinhole projection of one (3,) point or an (N, 3) batch."""
        p = np.asarray(p_cam, dtype=float)
        z = p[..., 2]
        return np.stack(
            [self.fx * p[..., 0] / z + self.cx, self.fy * p[..., 1] / z + self.cy],
            axis=-1,
        )

    def in_image(self, uv: np.ndarray, margin: float = 0.0) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        return (
            (uv[..., 0] >= margin)
            & (uv[..., 0] <= self.width - 1 - margin)
            & (uv[..., 1] >= margin)
            & (uv[..., 1] <= self.height - 1 - margin)
        )


@dataclass(frozen=True)
class RobustKernel:
    """Loss rho applied to the whitened squared error of one factor."""

    kind: str = "none"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cauchy", "none"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.scale <= 0.0:
            raise ValueError("kernel scale must be positive")

    def loss(self, squared_error):
        """Return (rho(s), rho'(s)); accepts scalars or arrays."""
        s = np.asarray(squared_error, dtype=float)
        if self.kind == "none":
            return s, np.ones_like(s)
        c2 = self.scale * self.scale
        return c2 * np.log1p(s / c2), 1.0 / (1.0 + s / c2)


@dataclass(frozen=True)
class MapConstraint:
    """Association of one landmark with one laser-map point: the input of the
    one-row map references ``point_to_plane_residual`` and ``point_to_point_residual``."""

    landmark_id: int
    point: np.ndarray
    normal: np.ndarray | None
    information: np.ndarray
    metric: str

    def __post_init__(self):
        if self.metric not in (POINT_TO_PLANE, POINT_TO_POINT):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric == POINT_TO_PLANE:
            if self.normal is None or abs(np.linalg.norm(self.normal) - 1.0) > 1e-9:
                raise ValueError("point_to_plane constraint needs a unit normal")


# ---------------------------------------------------------------------------
# reprojection


def _project_with_jacobians(pose: Pose, p_local: np.ndarray, cam: CameraModel):
    """Project a local-frame point through pose and extrinsic; chain rule."""
    q_body = pose.rotation.T @ (p_local - pose.translation)
    ext = cam.body_t_cam
    p_cam = ext.rotation.T @ (q_body - ext.translation)
    z = p_cam[2]
    if z <= 1e-9:
        raise BehindCameraError(f"depth {z:.3g} not positive")
    uv = np.array([cam.fx * p_cam[0] / z + cam.cx, cam.fy * p_cam[1] / z + cam.cy])
    j_pix = np.array(
        [
            [cam.fx / z, 0.0, -cam.fx * p_cam[0] / (z * z)],
            [0.0, cam.fy / z, -cam.fy * p_cam[1] / (z * z)],
        ]
    )
    j_cam = j_pix @ ext.rotation.T
    j_pose = np.empty((2, 6))
    j_pose[:, :3] = j_cam @ skew(q_body)
    j_pose[:, 3:] = -j_cam
    j_lm = j_cam @ pose.rotation.T
    return uv, j_pose, j_lm


def reprojection_residual(
    state: NavState, lm: Landmark, obs: Observation, cam: CameraModel
):
    """Pixel residual (projected - observed) with pose/landmark Jacobians."""
    uv, j_pose, j_lm = _project_with_jacobians(state.pose, lm.position, cam)
    return uv - obs.pixel, j_pose, j_lm


# ---------------------------------------------------------------------------
# preintegration


def preintegration_residual(
    s_i: NavState, s_k: NavState, pre: PreintegratedImu, gravity: np.ndarray
):
    """9-vector motion residual (e_R, e_p, e_v), 6-vector bias residual,
    and Jacobians of the motion residual keyed by variable name.

    The bias residual stacks (accel, gyro) differences between the two
    keyframes; its Jacobians are +/- identity and left to the caller.
    """
    gravity = np.asarray(gravity, dtype=float)
    dt = pre.dt_total
    rot_i = s_i.pose.rotation
    rot_k = s_k.pose.rotation
    d_rot, d_p, d_v = bias_corrected_delta(pre, (s_i.gyro_bias, s_i.accel_bias))

    rel = rot_i.T @ rot_k
    e_rot = so3_log(d_rot.T @ rel)
    w_p = rot_i.T @ (
        s_k.pose.translation
        - s_i.pose.translation
        - s_i.velocity * dt
        - 0.5 * gravity * dt * dt
    )
    e_p = w_p - d_p
    w_v = rot_i.T @ (s_k.velocity - s_i.velocity - gravity * dt)
    e_v = w_v - d_v
    residual = np.concatenate([e_rot, e_p, e_v])
    e_bias = np.concatenate([s_i.accel_bias - s_k.accel_bias, s_i.gyro_bias - s_k.gyro_bias])

    jr_inv = so3_right_jacobian_inv(e_rot)
    db_g = s_i.gyro_bias - pre.linearization_bias[0]
    j = {
        "pose_i": np.zeros((9, 6)),
        "vel_i": np.zeros((9, 3)),
        "gyro_bias_i": np.zeros((9, 3)),
        "accel_bias_i": np.zeros((9, 3)),
        "pose_k": np.zeros((9, 6)),
        "vel_k": np.zeros((9, 3)),
    }
    j["pose_i"][0:3, 0:3] = -jr_inv @ rel.T
    j["pose_i"][3:6, 0:3] = skew(w_p)
    j["pose_i"][3:6, 3:6] = -np.eye(3)
    j["pose_i"][6:9, 0:3] = skew(w_v)
    j["vel_i"][3:6] = -rot_i.T * dt
    j["vel_i"][6:9] = -rot_i.T
    j["gyro_bias_i"][0:3] = (
        -so3_left_jacobian_inv(e_rot)
        @ so3_right_jacobian(pre.J_g_dR @ db_g)
        @ pre.J_g_dR
    )
    j["gyro_bias_i"][3:6] = -pre.J_g_dp
    j["gyro_bias_i"][6:9] = -pre.J_g_dv
    j["accel_bias_i"][3:6] = -pre.J_a_dp
    j["accel_bias_i"][6:9] = -pre.J_a_dv
    j["pose_k"][0:3, 0:3] = jr_inv
    j["pose_k"][3:6, 3:6] = rel
    j["vel_k"][6:9] = rot_i.T
    return residual, e_bias, j


# ---------------------------------------------------------------------------
# map alignment


def point_to_plane_residual(anchor: Pose, lm: Landmark, c: MapConstraint):
    """Signed distance from the anchored landmark to the constraint plane."""
    if c.metric != POINT_TO_PLANE:
        raise MetricMismatchError(f"expected point_to_plane, got {c.metric}")
    n = c.normal
    p_map = anchor.apply(lm.position)
    r_n = float(n @ (c.point - p_map))
    n_rot = n @ anchor.rotation
    j_anchor = np.hstack([n_rot @ skew(lm.position), -n_rot]).reshape(1, 6)
    j_lm = (-n_rot).reshape(1, 3)
    return r_n, j_anchor, j_lm


def point_to_point_residual(anchor: Pose, lm: Landmark, c: MapConstraint):
    """Map point minus anchored landmark; both expressed in the map frame."""
    if c.metric != POINT_TO_POINT:
        raise MetricMismatchError(f"expected point_to_point, got {c.metric}")
    residual = c.point - anchor.apply(lm.position)
    j_anchor = np.hstack([anchor.rotation @ skew(lm.position), -anchor.rotation])
    j_lm = -anchor.rotation
    return residual, j_anchor, j_lm


def anchor_prior_residual(anchor: Pose, prior_mean: Pose):
    """Tangent-space deviation of the anchor from its prior mean, and its Jacobian."""
    residual = se3_log(prior_mean.inverse() @ anchor)
    return residual, se3_right_jacobian_inv(residual)


def point_to_plane_batch(anchor: Pose, p_lm, targets, normals, jacobian=True):
    """``point_to_plane_residual`` for n landmarks at once, as the 3-vector r_n * n.

    Returns residual (n, 3) and, if asked, [J_anchor (n, 3, 6), J_lm (n, 3, 3)].
    """
    p_map = p_lm @ anchor.rotation.T + anchor.translation
    r_n = np.einsum("ni,ni->n", normals, targets - p_map)
    residual = r_n[:, None] * normals
    if not jacobian:
        return residual, None
    n_rot = normals @ anchor.rotation
    row = np.concatenate([np.cross(n_rot, p_lm), -n_rot], axis=1)  # (n, 6)
    j_anchor = normals[:, :, None] * row[:, None, :]
    j_lm = normals[:, :, None] * (-n_rot)[:, None, :]
    return residual, [j_anchor, j_lm]


def point_to_point_batch(anchor: Pose, p_lm, targets, jacobian=True):
    """``point_to_point_residual`` for n landmarks at once.

    Returns residual (n, 3) and, if asked, [J_anchor (n, 3, 6), J_lm (n, 3, 3)].
    """
    residual = targets - (p_lm @ anchor.rotation.T + anchor.translation)
    if not jacobian:
        return residual, None
    n = len(p_lm)
    j_anchor = np.concatenate(
        [np.einsum("ij,njk->nik", anchor.rotation, skew_batch(p_lm)),
         np.broadcast_to(-anchor.rotation, (n, 3, 3)).copy()],
        axis=2,
    )
    j_lm = np.broadcast_to(-anchor.rotation, (n, 3, 3)).copy()
    return residual, [j_anchor, j_lm]


# ---------------------------------------------------------------------------
# factor kinds for the solver


class StereoReprojectionFactor:
    """Stacked left/right pixel residual of one stereo observation per row.

    Slots (pose, landmark); data ``(pixels (n, 4), cam_left, cam_right)``,
    pixels ordered (ul, vl, ur, vr). Each view contributes the plain
    reprojection residual; stacking them makes landmark depth observable
    from a single keyframe. A row whose landmark lies behind a camera
    evaluates to zero.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """Residual (n, 4) and Jacobians [pose (n, 4, 6), landmark (n, 4, 3)]."""
        pixels, *cams = batch.data
        n = len(batch)
        rot, trans = batch.poses(values, 0)
        p_lm = batch.vectors(values, 1)
        q_body = np.einsum("nj,nji->ni", p_lm - trans, rot)
        residual = np.zeros((n, 4))
        j_pose = np.zeros((n, 4, 6)) if jacobian else None
        j_lm = np.zeros((n, 4, 3)) if jacobian else None
        bad = np.zeros(n, dtype=bool)
        sk_q = skew_batch(q_body) if jacobian else None
        for c, cam in enumerate(cams):
            ext = cam.body_t_cam
            p_cam = (q_body - ext.translation) @ ext.rotation
            z = p_cam[:, 2]
            bad |= z <= 1e-9
            z = np.where(z <= 1e-9, 1.0, z)
            uv = np.stack(
                [cam.fx * p_cam[:, 0] / z + cam.cx, cam.fy * p_cam[:, 1] / z + cam.cy],
                axis=1,
            )
            residual[:, 2 * c : 2 * c + 2] = uv - pixels[:, 2 * c : 2 * c + 2]
            if jacobian:
                j_pix = np.zeros((n, 2, 3))
                j_pix[:, 0, 0] = cam.fx / z
                j_pix[:, 0, 2] = -cam.fx * p_cam[:, 0] / (z * z)
                j_pix[:, 1, 1] = cam.fy / z
                j_pix[:, 1, 2] = -cam.fy * p_cam[:, 1] / (z * z)
                j_cam = j_pix @ ext.rotation.T
                j_pose[:, 2 * c : 2 * c + 2, :3] = j_cam @ sk_q
                j_pose[:, 2 * c : 2 * c + 2, 3:] = -j_cam
                j_lm[:, 2 * c : 2 * c + 2, :] = np.einsum("nij,nkj->nik", j_cam, rot)
        if bad.any():
            residual[bad] = 0.0
            if jacobian:
                j_pose[bad] = 0.0
                j_lm[bad] = 0.0
        return residual, [j_pose, j_lm]


_PREINTEGRATION_FIELDS = (
    "delta_R", "delta_p", "delta_v", "dt_total", "J_g_dR", "J_g_dp", "J_g_dv", "J_a_dp", "J_a_dv"
)


def stack_preintegrations(pres, gravity) -> dict:
    """The data of a ``PreintegrationFactor`` group: each row's preintegrated
    deltas, bias Jacobians and linearization bias, stacked by name, and the
    gravity vector they all share."""
    out = {name: np.array([getattr(p, name) for p in pres]) for name in _PREINTEGRATION_FIELDS}
    out["bias_g"] = np.array([p.linearization_bias[0] for p in pres])
    out["bias_a"] = np.array([p.linearization_bias[1] for p in pres])
    out["gravity"] = np.asarray(gravity, dtype=float)
    return out


class PreintegrationFactor:
    """9-dof relative-motion residual between two keyframes per row.

    Slots (pose_i, vel_i, gyro_bias_i, accel_bias_i, pose_k, vel_k); data
    ``stack_preintegrations(pres, gravity)``.
    """

    @classmethod
    def evaluate(cls, values, keys, pre, gravity, jacobian=True):
        """One row, by ``preintegration_residual``: residual (9,), Jacobians (9, k)."""
        pi, vi, bgi, bai, pk, vk = (values[k] for k in keys)
        s_i = NavState(pose=pi, velocity=vi, accel_bias=bai, gyro_bias=bgi)
        s_k = NavState(pose=pk, velocity=vk)
        residual, _, j = preintegration_residual(s_i, s_k, pre, gravity)
        names = ("pose_i", "vel_i", "gyro_bias_i", "accel_bias_i", "pose_k", "vel_k")
        return residual, [j[name] for name in names]

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` for every row at once: residual (n, 9), Jacobians (n, 9, k)."""
        c = batch.data
        rot_i, t_i = batch.poses(values, 0)
        v_i, bg_i, ba_i = (batch.vectors(values, a) for a in (1, 2, 3))
        rot_k, t_k = batch.poses(values, 4)
        v_k = batch.vectors(values, 5)
        dt = c["dt_total"][:, None]
        gravity = c["gravity"]

        # bias_corrected_delta at the first keyframe's biases
        db_g = bg_i - c["bias_g"]
        db_a = ba_i - c["bias_a"]
        phi_g = _matvec(c["J_g_dR"], db_g)
        d_rot = c["delta_R"] @ so3_exp_batch(phi_g)
        d_p = c["delta_p"] + _matvec(c["J_g_dp"], db_g) + _matvec(c["J_a_dp"], db_a)
        d_v = c["delta_v"] + _matvec(c["J_g_dv"], db_g) + _matvec(c["J_a_dv"], db_a)

        rot_i_t = rot_i.transpose(0, 2, 1)
        rel = rot_i_t @ rot_k
        e_rot = so3_log_batch(d_rot.transpose(0, 2, 1) @ rel)
        w_p = _matvec(rot_i_t, t_k - t_i - v_i * dt - 0.5 * gravity * dt * dt)
        w_v = _matvec(rot_i_t, v_k - v_i - gravity * dt)
        residual = np.concatenate([e_rot, w_p - d_p, w_v - d_v], axis=1)
        if not jacobian:
            return residual, None

        n = len(batch)
        eye = np.eye(3)
        jr_inv = so3_left_jacobian_inv_batch(-e_rot)
        j_pose_i = np.zeros((n, 9, 6))
        j_pose_i[:, 0:3, 0:3] = -jr_inv @ rel.transpose(0, 2, 1)
        j_pose_i[:, 3:6, 0:3] = skew_batch(w_p)
        j_pose_i[:, 3:6, 3:6] = -eye
        j_pose_i[:, 6:9, 0:3] = skew_batch(w_v)
        j_vel_i = np.zeros((n, 9, 3))
        j_vel_i[:, 3:6] = -rot_i_t * dt[:, :, None]
        j_vel_i[:, 6:9] = -rot_i_t
        j_bg_i = np.zeros((n, 9, 3))
        j_bg_i[:, 0:3] = (
            -so3_left_jacobian_inv_batch(e_rot) @ so3_left_jacobian_batch(-phi_g) @ c["J_g_dR"]
        )
        j_bg_i[:, 3:6] = -c["J_g_dp"]
        j_bg_i[:, 6:9] = -c["J_g_dv"]
        j_ba_i = np.zeros((n, 9, 3))
        j_ba_i[:, 3:6] = -c["J_a_dp"]
        j_ba_i[:, 6:9] = -c["J_a_dv"]
        j_pose_k = np.zeros((n, 9, 6))
        j_pose_k[:, 0:3, 0:3] = jr_inv
        j_pose_k[:, 3:6, 3:6] = rel
        j_vel_k = np.zeros((n, 9, 3))
        j_vel_k[:, 6:9] = rot_i_t
        return residual, [j_pose_i, j_vel_i, j_bg_i, j_ba_i, j_pose_k, j_vel_k]


def _matvec(m, v):
    """m (n, i, j) times v (n, j) per row: (n, i)."""
    return np.einsum("nij,nj->ni", m, v)


def _bias_jacobians():
    """Jacobians of (accel_i - accel_k, gyro_i - gyro_k) per block, (6, 3) each."""
    eye, zero = np.eye(3), np.zeros((3, 3))
    return [np.vstack([eye, zero]), np.vstack([zero, eye]),
            np.vstack([-eye, zero]), np.vstack([zero, -eye])]


class BiasRandomWalkFactor:
    """Bias consistency between consecutive keyframes per row, (accel, gyro) order.

    Slots (accel_bias_i, gyro_bias_i, accel_bias_k, gyro_bias_k); no data.
    """

    @classmethod
    def evaluate(cls, values, keys, jacobian=True):
        """One row: residual (6,), Jacobians (6, 3)."""
        bai, bgi, bak, bgk = (values[k] for k in keys)
        return np.concatenate([bai - bak, bgi - bgk]), _bias_jacobians()

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` for every row at once: residual (n, 6), Jacobians (n, 6, 3)."""
        bai, bgi, bak, bgk = (batch.vectors(values, a) for a in range(4))
        residual = np.concatenate([bai - bak, bgi - bgk], axis=1)
        if not jacobian:
            return residual, None
        return residual, [np.broadcast_to(j, (len(batch), 6, 3)) for j in _bias_jacobians()]


class PointToPlaneFactor:
    """Plane-distance residual vector r_n * n per row.

    Slots (anchor, landmark), one anchor block for the whole group; data
    ``(map points (n, 3), unit normals (n, 3))``.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        (anchor,) = batch.keys[0]
        return point_to_plane_batch(values[anchor], batch.vectors(values, 1), *batch.data, jacobian)


class PointToPointFactor:
    """Map point minus anchored landmark per row.

    Slots (anchor, landmark), one anchor block for the whole group; data
    ``(map points (n, 3),)``.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        (anchor,) = batch.keys[0]
        return point_to_point_batch(values[anchor], batch.vectors(values, 1), *batch.data, jacobian)


class AnchorPriorFactor:
    """Keeps the anchor near the previous step's converged estimate.

    Slot (anchor,); data each row's prior mean ``Pose``.
    """

    @classmethod
    def evaluate(cls, values, keys, prior_mean, jacobian=True):
        """One row: residual (6,), Jacobian [(6, 6)]."""
        residual, jac = anchor_prior_residual(values[keys[0]], prior_mean)
        return residual, [jac]

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` row by row, stacked: a problem has one prior row."""
        rows = [
            cls.evaluate(values, (batch.keys[0][i],), mean, jacobian)
            for i, mean in zip(batch.index[0], batch.data)
        ]
        residual = np.stack([r for r, _ in rows])
        return residual, [np.stack([j for _, (j,) in rows])] if jacobian else None

"""Error terms of the hybrid localization cost.

Five families: pixel reprojection, IMU preintegration with its bias random
walk, point-to-plane and point-to-point map alignment, and the anchor pose
prior. Each is one factor kind with one kernel, which evaluates a whole
group of rows at once; pixel reprojection is the stereo kind, which stacks
the left and right views. ``evaluate_batch`` is what the solver calls (see
``solver`` for the group contract: each slot a block family and one row of
it per factor). Each kind's docstring names its block slots and the
``data`` its group carries.

The stereo and map kinds compute in ``evaluate_batch`` itself. The
preintegration, bias random walk and prior kinds compute in ``evaluate``,
over stacked rows: ``blocks`` holds each slot's values, a ``Pose`` stack or
an (n, k) array, and one row is a stack of one. Their ``evaluate_batch``
only gathers the group's blocks and calls it.

The tests check each kind against an independent one-row reference in
``tests/oracles.py`` (``reprojection_residual``, ``preintegration_residual``,
``point_to_plane_residual`` and ``point_to_point_residual``), against direct
arithmetic, and against central differences.

The caller gives each group its information: stereo rows share
``PIXEL_INFORMATION`` (1 px in each coordinate); the others take theirs
from the preintegration, the bias random walk, the map noise or the prior.
Both adjustment steps evaluate the map terms through the same two kinds.
Pose Jacobians are always with respect to the right perturbation
``P * Exp(delta)`` with tangent order (phi, rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liegroup import (
    Pose,
    se3_log,
    se3_log_and_right_jacobian_inv,
    skew,
    so3_exp_and_right_jacobian,
    so3_left_and_right_jacobian_inv,
    so3_log,
)

__all__ = [
    "CameraModel",
    "RobustKernel",
    "stack_preintegrations",
    "StereoReprojectionFactor",
    "PreintegrationFactor",
    "BiasRandomWalkFactor",
    "PointToPlaneFactor",
    "PointToPointFactor",
    "AnchorPriorFactor",
    "PIXEL_INFORMATION",
]

# 1 px in each stereo coordinate (ul, vl, ur, vr)
PIXEL_INFORMATION = np.eye(4)
PIXEL_INFORMATION.flags.writeable = False


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

    def in_image(self, uv: np.ndarray) -> np.ndarray:
        """Whether each pixel (..., 2) lies on the image, edges included."""
        uv = np.asarray(uv, dtype=float)
        return (
            (uv[..., 0] >= 0)
            & (uv[..., 0] <= self.width - 1)
            & (uv[..., 1] >= 0)
            & (uv[..., 1] <= self.height - 1)
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
        """Residual (n, 4) and Jacobians [pose (n, 4, 6), landmark (n, 4, 3)].

        Both views in one pass: with the extrinsics stacked as (2, 3, 3)
        and (2, 3), each row's point is taken into the two cameras as
        (n, 2, 3) by one product."""
        pixels, *cams = batch.data
        n = len(batch)
        rot, trans = batch.poses(values, 0)
        p_lm = batch.vectors(values, 1)
        ext_rot = np.array([cam.body_t_cam.rotation for cam in cams])
        ext_trans = np.array([cam.body_t_cam.translation for cam in cams])
        focal = np.array([[cam.fx, cam.fy] for cam in cams])
        centre = np.array([[cam.cx, cam.cy] for cam in cams])
        q_body = np.einsum("nj,nji->ni", p_lm - trans, rot)
        # (q - t_v) R_v of both views: q [R_0 | R_1] - t_v R_v
        p_cam = (q_body @ np.concatenate(ext_rot, axis=1)).reshape(n, 2, 3) - np.einsum(
            "vj,vji->vi", ext_trans, ext_rot
        )
        z = p_cam[:, :, 2:]
        behind = z <= 1e-9
        z = np.where(behind, 1.0, z)
        xy = p_cam[:, :, :2] / z
        residual = (focal * xy + centre).reshape(n, 4) - pixels
        bad = behind.any(axis=(1, 2))
        jac = None
        if jacobian:
            # d(pixel)/d(q_body), (n, 4, 3): view v's pixel coordinate a is
            # f_a / z (row a of R_v^T - xy_a * row 2 of R_v^T)
            rt = ext_rot.transpose(0, 2, 1)
            j_body = ((focal / z)[..., None] * (rt[:, :2] - xy[..., None] * rt[:, 2:])).reshape(n, 4, 3)
            # d(q_body)/d(phi, rho, landmark) = [skew(q_body) | -I | R^T]
            j_q = np.empty((n, 3, 9))
            j_q[:, :, :3] = skew(q_body)
            j_q[:, :, 3:6] = -np.eye(3)
            j_q[:, :, 6:] = rot.transpose(0, 2, 1)
            jac = j_body @ j_q
        if bad.any():
            residual[bad] = 0.0
            if jacobian:
                jac[bad] = 0.0
        return residual, None if jac is None else [jac[:, :, :6], jac[:, :, 6:]]


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
    def evaluate(cls, blocks, data, jacobian=True):
        """n stacked rows of block values, the rows' ``stack_preintegrations``
        in ``data``: residual (n, 9) and Jacobians [(n, 9, k) per slot] (None
        unless ``jacobian``)."""
        pose_i, v_i, bg_i, ba_i, pose_k, v_k = blocks
        rot_i, t_i = pose_i.rotation, pose_i.translation
        rot_k, t_k = pose_k.rotation, pose_k.translation
        c = data
        dt = c["dt_total"][:, None]
        gravity = c["gravity"]

        # the deltas, first-order corrected to the first keyframe's biases
        db_g = bg_i - c["bias_g"]
        db_a = ba_i - c["bias_a"]
        phi_g = _matvec(c["J_g_dR"], db_g)
        exp_g, jr_g = so3_exp_and_right_jacobian(phi_g)
        d_rot = c["delta_R"] @ exp_g
        d_p = c["delta_p"] + _matvec(c["J_g_dp"], db_g) + _matvec(c["J_a_dp"], db_a)
        d_v = c["delta_v"] + _matvec(c["J_g_dv"], db_g) + _matvec(c["J_a_dv"], db_a)

        rot_i_t = rot_i.transpose(0, 2, 1)
        rel = rot_i_t @ rot_k
        e_rot = so3_log(d_rot.transpose(0, 2, 1) @ rel)
        w_p = _matvec(rot_i_t, t_k - t_i - v_i * dt - 0.5 * gravity * dt * dt)
        w_v = _matvec(rot_i_t, v_k - v_i - gravity * dt)
        residual = np.concatenate([e_rot, w_p - d_p, w_v - d_v], axis=1)
        if not jacobian:
            return residual, None

        n = len(residual)
        eye = np.eye(3)
        jl_inv, jr_inv = so3_left_and_right_jacobian_inv(e_rot)
        j_pose_i = np.zeros((n, 9, 6))
        j_pose_i[:, 0:3, 0:3] = -jr_inv @ rel.transpose(0, 2, 1)
        j_pose_i[:, 3:6, 0:3] = skew(w_p)
        j_pose_i[:, 3:6, 3:6] = -eye
        j_pose_i[:, 6:9, 0:3] = skew(w_v)
        j_vel_i = np.zeros((n, 9, 3))
        j_vel_i[:, 3:6] = -rot_i_t * dt[:, :, None]
        j_vel_i[:, 6:9] = -rot_i_t
        j_bg_i = np.zeros((n, 9, 3))
        j_bg_i[:, 0:3] = -jl_inv @ jr_g @ c["J_g_dR"]
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

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` of the group's stacked rows."""
        pose_i, pose_k = (Pose(*batch.poses(values, a)) for a in (0, 4))
        v_i, bg_i, ba_i, v_k = (batch.vectors(values, a) for a in (1, 2, 3, 5))
        return cls.evaluate((pose_i, v_i, bg_i, ba_i, pose_k, v_k), batch.data, jacobian)


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
    def evaluate(cls, blocks, jacobian=True):
        """n stacked rows of block values, (n, 3) each: residual (n, 6) and
        Jacobians [(n, 6, 3) per slot] (None unless ``jacobian``)."""
        bai, bgi, bak, bgk = blocks
        residual = np.concatenate([bai - bak, bgi - bgk], axis=1)
        if not jacobian:
            return residual, None
        return residual, [np.broadcast_to(j, (len(residual), 6, 3)) for j in _bias_jacobians()]

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` of the group's stacked rows."""
        return cls.evaluate([batch.vectors(values, a) for a in range(4)], jacobian)


class PointToPlaneFactor:
    """Plane-distance residual vector r_n * n per row.

    Slots (anchor, landmark), every row naming one anchor row; data
    ``(map points (n, 3), unit normals (n, 3))``.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """Signed distance r_n = n . (point - anchor * landmark) for every
        row, as the 3-vector r_n * n: residual (n, 3) and Jacobians
        [anchor (n, 3, 6), landmark (n, 3, 3)]."""
        anchor = _group_pose(batch, values)
        p_lm = batch.vectors(values, 1)
        targets, normals = batch.data
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


class PointToPointFactor:
    """Map point minus anchored landmark per row.

    Slots (anchor, landmark), every row naming one anchor row; data
    ``(map points (n, 3),)``.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """point - anchor * landmark for every row: residual (n, 3) and
        Jacobians [anchor (n, 3, 6), landmark (n, 3, 3)]."""
        anchor = _group_pose(batch, values)
        p_lm = batch.vectors(values, 1)
        (targets,) = batch.data
        residual = targets - (p_lm @ anchor.rotation.T + anchor.translation)
        if not jacobian:
            return residual, None
        n = len(p_lm)
        j_anchor = np.concatenate(
            [np.einsum("ij,njk->nik", anchor.rotation, skew(p_lm)),
             np.broadcast_to(-anchor.rotation, (n, 3, 3)).copy()],
            axis=2,
        )
        j_lm = np.broadcast_to(-anchor.rotation, (n, 3, 3)).copy()
        return residual, [j_anchor, j_lm]


def _group_pose(batch, values) -> Pose:
    """The one pose that every row's first slot names: the map kinds' anchor."""
    family, rows = batch.slots[0]
    return Pose(*values[family])[rows[0]]


class AnchorPriorFactor:
    """Keeps the anchor near the previous step's converged estimate.

    Slot (anchor,); data the rows' prior means as one ``Pose`` stack
    (``Pose.stack``), stacked once when the group is added.
    """

    @classmethod
    def evaluate(cls, blocks, prior_mean, jacobian=True):
        """Tangent-space deviation of the anchor ``blocks[0]`` from its prior
        mean, one ``Pose`` each or stacks of n: residual (6,) or (n, 6) and
        Jacobians [(6, 6) or (n, 6, 6)] (None unless ``jacobian``)."""
        deviation = prior_mean.inverse() @ blocks[0]
        if not jacobian:
            return se3_log(deviation), None
        residual, jr_inv = se3_log_and_right_jacobian_inv(deviation)
        return residual, [jr_inv]

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` of the group's stacked rows and prior means."""
        return cls.evaluate((Pose(*batch.poses(values, 0)),), batch.data, jacobian)

"""Error terms of the hybrid localization cost.

Five families: pixel reprojection, IMU preintegration with its bias random
walk, point-to-plane and point-to-point map alignment, and the anchor pose
prior. Each is one factor kind with one kernel, which evaluates a whole
group of rows at once; pixel reprojection is the stereo kind, which stacks
the left and right views. ``evaluate_batch`` is what the solver calls (see
``solver`` for the group contract: each slot a block family and one row of
it per factor). Each kind's docstring names its block slots and the
``data`` its group carries. A kind returns its rows' residuals (n, d) and
one Jacobian J (n, d, K), whose K columns are the slots' tangent
coordinates, slot after slot.

The stereo and map kinds compute in ``evaluate_batch`` itself. The
preintegration, bias random walk and prior kinds compute in ``evaluate``,
over stacked rows: ``blocks`` holds each slot's values, a ``Pose`` stack or
an (n, k) array, and one row is a stack of one. Their ``evaluate_batch``
only gathers the group's blocks and calls it.

What does not change over a group's life is built once, when its data is:
``stack_stereo`` stacks the two views' extrinsics, their product with the
offsets, focal lengths and principal points; ``stack_preintegrations``
stacks the deltas and the Jacobian entries that no block value moves, which
every evaluation copies; the bias random walk's J is one module constant.

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
    "stack_stereo",
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


def stack_stereo(pixels, left: CameraModel, right: CameraModel) -> dict:
    """The data of a ``StereoReprojectionFactor`` group: each row's pixels
    (n, 4) and the constants of the two views, built once for the group.

    With the extrinsics stacked as R_v (2, 3, 3) and t_v (2, 3): the
    rotations side by side, [R_0 | R_1] (3, 6); the offsets t_v R_v (2, 3);
    the transposes' first two rows (2, 2, 3) and last row (2, 1, 3); and
    the focal lengths and principal points (2, 2), view by view.
    """
    cams = (left, right)
    ext_rot = np.array([cam.body_t_cam.rotation for cam in cams])
    ext_trans = np.array([cam.body_t_cam.translation for cam in cams])
    rt = ext_rot.transpose(0, 2, 1)
    return {
        "pixels": pixels,
        "rotations": np.concatenate(ext_rot, axis=1),
        "offsets": np.einsum("vj,vji->vi", ext_trans, ext_rot),
        "rt_xy": rt[:, :2].copy(),
        "rt_z": rt[:, 2:].copy(),
        "focal": np.array([[cam.fx, cam.fy] for cam in cams]),
        "centre": np.array([[cam.cx, cam.cy] for cam in cams]),
    }


class StereoReprojectionFactor:
    """Stacked left/right pixel residual of one stereo observation per row.

    Slots (pose, landmark); data ``stack_stereo(pixels, cam_left,
    cam_right)``, pixels ordered (ul, vl, ur, vr). Each view contributes
    the plain reprojection residual; stacking them makes landmark depth
    observable from a single keyframe. A row whose landmark lies behind a
    camera evaluates to zero.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """Residual (n, 4) and J (n, 4, 9), pose then landmark columns.

        Both views in one pass: each row's point is taken into the two
        cameras as (n, 2, 3) by one product with the group's stacked
        extrinsics."""
        c = batch.data
        n = len(batch)
        rot, trans = batch.poses(values, 0)
        p_lm = batch.vectors(values, 1)
        focal = c["focal"]
        q_body = np.einsum("nj,nji->ni", p_lm - trans, rot)
        # (q - t_v) R_v of both views: q [R_0 | R_1] - t_v R_v
        p_cam = (q_body @ c["rotations"]).reshape(n, 2, 3) - c["offsets"]
        z = p_cam[:, :, 2:]
        behind = z <= 1e-9
        z = np.where(behind, 1.0, z)
        xy = p_cam[:, :, :2] / z
        residual = (focal * xy + c["centre"]).reshape(n, 4) - c["pixels"]
        bad = behind.any(axis=(1, 2))
        jac = None
        if jacobian:
            # d(pixel)/d(q_body), (n, 4, 3): view v's pixel coordinate a is
            # f_a / z (row a of R_v^T - xy_a * row 2 of R_v^T)
            j_body = ((focal / z)[..., None] * (c["rt_xy"] - xy[..., None] * c["rt_z"])).reshape(n, 4, 3)
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
        return residual, jac


_PREINTEGRATION_FIELDS = (
    "delta_R", "delta_p", "delta_v", "dt_total", "J_g_dR", "J_g_dp", "J_g_dv", "J_a_dp", "J_a_dv"
)


def stack_preintegrations(pres, gravity) -> dict:
    """The data of a ``PreintegrationFactor`` group: each row's preintegrated
    deltas, bias Jacobians and linearization bias, stacked by name, and the
    gravity vector they all share. ``jacobian`` holds the entries of the
    residual's Jacobian that no block value moves, built once for the group:
    -I for the first position, and the negated bias Jacobians of the
    position and velocity deltas; every other entry is zero."""
    out = {name: np.array([getattr(p, name) for p in pres]) for name in _PREINTEGRATION_FIELDS}
    out["bias_g"] = np.array([p.linearization_bias[0] for p in pres])
    out["bias_a"] = np.array([p.linearization_bias[1] for p in pres])
    out["gravity"] = np.asarray(gravity, dtype=float)
    jac = np.zeros((len(pres), 9, 24))
    jac[:, 3:6, 3:6] = -np.eye(3)
    for rows, delta in ((slice(3, 6), "dp"), (slice(6, 9), "dv")):
        jac[:, rows, 9:12] = -out[f"J_g_{delta}"].reshape(-1, 3, 3)
        jac[:, rows, 12:15] = -out[f"J_a_{delta}"].reshape(-1, 3, 3)
    out["jacobian"] = jac
    return out


class PreintegrationFactor:
    """9-dof relative-motion residual between two keyframes per row.

    Slots (pose_i, vel_i, gyro_bias_i, accel_bias_i, pose_k, vel_k), 24
    Jacobian columns: 0:6, 6:9, 9:12, 12:15, 15:21 and 21:24; data
    ``stack_preintegrations(pres, gravity)``.
    """

    @classmethod
    def evaluate(cls, blocks, data, jacobian=True):
        """n stacked rows of block values, the rows' ``stack_preintegrations``
        in ``data``: residual (n, 9) and J (n, 9, 24) (None unless
        ``jacobian``)."""
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

        jl_inv, jr_inv = so3_left_and_right_jacobian_inv(e_rot)
        jac = c["jacobian"].copy()
        # pose_i
        jac[:, 0:3, 0:3] = -jr_inv @ rel.transpose(0, 2, 1)
        jac[:, 3:6, 0:3] = skew(w_p)
        jac[:, 6:9, 0:3] = skew(w_v)
        # vel_i, then the rotation rows of gyro_bias_i
        jac[:, 3:6, 6:9] = -rot_i_t * dt[:, :, None]
        jac[:, 6:9, 6:9] = -rot_i_t
        jac[:, 0:3, 9:12] = -jl_inv @ jr_g @ c["J_g_dR"]
        # pose_k, vel_k
        jac[:, 0:3, 15:18] = jr_inv
        jac[:, 3:6, 18:21] = rel
        jac[:, 6:9, 21:24] = rot_i_t
        return residual, jac

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` of the group's stacked rows."""
        pose_i, pose_k = (Pose(*batch.poses(values, a)) for a in (0, 4))
        v_i, bg_i, ba_i, v_k = (batch.vectors(values, a) for a in (1, 2, 3, 5))
        return cls.evaluate((pose_i, v_i, bg_i, ba_i, pose_k, v_k), batch.data, jacobian)


def _matvec(m, v):
    """m (n, i, j) times v (n, j) per row: (n, i)."""
    return np.einsum("nij,nj->ni", m, v)


# d(accel_i - accel_k, gyro_i - gyro_k) / d(accel_i, gyro_i, accel_k, gyro_k)
_BIAS_JACOBIAN = np.hstack([np.eye(6), -np.eye(6)])
_BIAS_JACOBIAN.flags.writeable = False


class BiasRandomWalkFactor:
    """Bias consistency between consecutive keyframes per row, (accel, gyro) order.

    Slots (accel_bias_i, gyro_bias_i, accel_bias_k, gyro_bias_k); no data.
    """

    @classmethod
    def evaluate(cls, blocks, jacobian=True):
        """n stacked rows of block values, (n, 3) each: residual (n, 6) and
        J (n, 6, 12), the same for every row (None unless ``jacobian``)."""
        bai, bgi, bak, bgk = blocks
        residual = np.concatenate([bai - bak, bgi - bgk], axis=1)
        if not jacobian:
            return residual, None
        return residual, np.broadcast_to(_BIAS_JACOBIAN, (len(residual), 6, 12))

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
        row, as the 3-vector r_n * n: residual (n, 3) and J (n, 3, 9),
        anchor then landmark columns."""
        anchor = _group_pose(batch, values)
        p_lm = batch.vectors(values, 1)
        targets, normals = batch.data
        p_map = p_lm @ anchor.rotation.T + anchor.translation
        r_n = np.einsum("ni,ni->n", normals, targets - p_map)
        residual = r_n[:, None] * normals
        if not jacobian:
            return residual, None
        n_rot = normals @ anchor.rotation
        # d(r_n) = [n_rot x p_lm | -n_rot | -n_rot], the cross product written out
        row = np.empty((len(p_lm), 9))
        row[:, :3] = n_rot[:, [1, 2, 0]] * p_lm[:, [2, 0, 1]] - n_rot[:, [2, 0, 1]] * p_lm[:, [1, 2, 0]]
        row[:, 3:6] = row[:, 6:] = -n_rot
        return residual, normals[:, :, None] * row[:, None, :]


class PointToPointFactor:
    """Map point minus anchored landmark per row.

    Slots (anchor, landmark), every row naming one anchor row; data
    ``(map points (n, 3),)``.
    """

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """point - anchor * landmark for every row: residual (n, 3) and
        J (n, 3, 9), anchor then landmark columns."""
        anchor = _group_pose(batch, values)
        p_lm = batch.vectors(values, 1)
        (targets,) = batch.data
        residual = targets - (p_lm @ anchor.rotation.T + anchor.translation)
        if not jacobian:
            return residual, None
        jac = np.empty((len(p_lm), 3, 9))
        jac[:, :, :3] = np.einsum("ij,njk->nik", anchor.rotation, skew(p_lm))
        jac[:, :, 3:6] = jac[:, :, 6:] = -anchor.rotation
        return residual, jac


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
        J (6, 6) or (n, 6, 6) (None unless ``jacobian``)."""
        deviation = prior_mean.inverse() @ blocks[0]
        if not jacobian:
            return se3_log(deviation), None
        return se3_log_and_right_jacobian_inv(deviation)

    @classmethod
    def evaluate_batch(cls, batch, values, jacobian=True):
        """``evaluate`` of the group's stacked rows and prior means."""
        return cls.evaluate((Pose(*batch.poses(values, 0)),), batch.data, jacobian)

"""IMU preintegration between consecutive keyframes.

An IMU stream is one float array of shape (N, 7), a row per sample with
the columns ``t wx wy wz ax ay az``: timestamp (s), angular rate (rad/s)
and specific force (m/s^2), both in the body frame.

Accumulates a stream into relative rotation, velocity and position
pseudo-measurements, together with first-order bias Jacobians and a
propagated 9x9 covariance (error order: rotation, position, velocity).
Gravity is not folded into the deltas; it is applied when predicting a
pose and velocity (``predict_state``) from a stream integrated at the
keyframe's biases. The bias Jacobians serve the preintegration residual,
whose biases move away from that point in a solve. Integration uses the
midpoint rule: each interval between consecutive samples is integrated
with the average of its two endpoint measurements.

Of the recurrences over intervals, three are truly sequential products and
run in a loop: the attitude ``delta_R`` (right products of the interval
rotations), ``J_g_dR``, and the 9x9 covariance. The covariance is
propagated the first time it is read, from the per-interval terms that
``integrate`` keeps (``PreintegratedImu.noise_terms``): a stream that never
becomes a keyframe link is never propagated, and a link's information is
inverted once however many solves read it. Every other term is built
for all intervals at once from the attitude before each interval. The
velocity-like terms (``delta_v``, ``J_g_dv``, ``J_a_dv``) are cumulative
sums of their increments, and the position-like ones (``delta_p``,
``J_g_dp``, ``J_a_dp``), of the form ``x_k = (x_{k-1} + v_{k-1} dt) + w``,
are one cumulative sum of the interleaved increments. ``cumsum`` adds in
sequence, so every field keeps the rounding of a loop over intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .liegroup import Pose, skew, so3_exp, so3_left_jacobian


# continuous-time noise densities (per sqrt(Hz)) and bias random walks of
# the IMU: the simulator draws its noise from them, the estimator weighs by them
GYRO_NOISE_DENSITY = 2.0e-4
ACCEL_NOISE_DENSITY = 2.0e-3
GYRO_BIAS_WALK = 1.0e-5
ACCEL_BIAS_WALK = 1.0e-4


class EmptyStreamError(ValueError):
    """No sample interval to integrate."""


class NonMonotonicTimestampsError(ValueError):
    """Sample timestamps must be strictly increasing."""


@dataclass(frozen=True)
class PreintegratedImu:
    """Relative motion between two keyframes plus bias sensitivities.

    ``covariance`` is ordered (rotation, position, velocity); it is
    propagated from ``noise_terms`` (see ``integrate``) the first time it is
    read, and ``information()`` inverts it on its first call. The bias
    Jacobians give the first-order change of each delta per unit change of
    gyro/accel bias away from ``linearization_bias``.
    """

    delta_R: np.ndarray
    delta_p: np.ndarray
    delta_v: np.ndarray
    dt_total: float
    J_g_dR: np.ndarray
    J_g_dv: np.ndarray
    J_a_dv: np.ndarray
    J_g_dp: np.ndarray
    J_a_dp: np.ndarray
    linearization_bias: tuple[np.ndarray, np.ndarray]
    noise_terms: tuple = field(repr=False, compare=False)

    @cached_property
    def covariance(self) -> np.ndarray:
        return _propagate_covariance(*self.noise_terms)

    @cached_property
    def _information(self) -> np.ndarray:
        information = np.linalg.inv(self.covariance + 1e-16 * np.eye(9))
        information.flags.writeable = False
        return information

    def information(self) -> np.ndarray:
        """Inverse of the propagated covariance (regularized), one read-only
        array computed on the first call."""
        return self._information


def integrate(
    samples: np.ndarray,
    bias: tuple[np.ndarray, np.ndarray] = (np.zeros(3), np.zeros(3)),
) -> PreintegratedImu:
    """Fold an (N, 7) IMU stream into a PreintegratedImu at the given bias.

    ``bias`` is (gyro, accel) and becomes the linearization point; the
    stream needs at least two samples (one interval). Every interval's
    rotation increments and right Jacobians come from one batched call
    each; only the attitude, ``J_g_dR`` and the covariance run interval by
    interval (see the module docstring).
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2:
        raise EmptyStreamError("need at least two samples (one interval)")
    # copied: the result keeps them as its linearization bias
    b_g = np.array(bias[0], dtype=float)
    b_a = np.array(bias[1], dtype=float)

    t = samples[:, 0]
    dts = np.diff(t)
    if np.any(dts <= 0.0):
        raise NonMonotonicTimestampsError(
            f"timestamps not strictly increasing at t={t[1:][dts <= 0.0][0]}"
        )
    mid = 0.5 * (samples[:-1, 1:] + samples[1:, 1:])
    a_mids = mid[:, 3:] - b_a
    dthetas = (mid[:, :3] - b_g) * dts[:, None]
    incrs = so3_exp(dthetas)
    j_rs = so3_left_jacobian(-dthetas)  # J_r(phi) = J_l(-phi)
    # specific force is rotated with the mid-interval attitude, which
    # keeps the global scheme second order on curved trajectories
    halves = so3_exp(0.5 * dthetas)
    skew_a_halves = skew(np.einsum("nij,nj->ni", halves, a_mids))
    # dt / 2 * half @ dacc_half is d(half a_mid)/d(gyro bias)
    dacc_halves = skew(a_mids) @ so3_left_jacobian(-0.5 * dthetas)
    dt3 = dts[:, None, None]
    n = len(dts)

    # the two sequential products: attitude before each interval, and J_g_dR
    d_rot, j_g_dr = np.eye(3), np.zeros((3, 3))
    d_rots, j_g_drs = [d_rot], [j_g_dr]
    for incr, j_r_dt in zip(incrs, j_rs * dt3):
        j_g_dr = incr.T @ j_g_dr - j_r_dt
        d_rot = d_rot @ incr
        d_rots.append(d_rot)
        j_g_drs.append(j_g_dr)
    d_rots = np.array(d_rots[:-1])
    rot_eff = d_rots @ halves
    coupling = d_rots @ skew_a_halves  # d(rot_eff a_mid)/d(attitude error)

    # d(rot_eff a_mid)/d(gyro bias): through the accumulated rotation and
    # through the half-interval attitude itself
    dacc_dbg = -coupling @ np.array(j_g_drs[:-1]) + (0.5 * dt3 * rot_eff) @ dacc_halves
    acc = (rot_eff @ a_mids[:, :, None])[:, :, 0]

    # the rates of d_v, J_g_dv and J_a_dv as 21 columns; those terms before
    # and after each interval, then d_p, J_g_dp and J_a_dp, whose steps add
    # the velocity term first
    rates = np.concatenate([acc, dacc_dbg.reshape(n, 9), -rot_eff.reshape(n, 9)], axis=1)
    dt1 = dts[:, None]
    vels = _running_sum(rates * dt1)
    pos = _running_sum(vels[:-1] * dt1, 0.5 * rates * dt1 * dt1)[-1].copy()
    vel = vels[-1].copy()

    return PreintegratedImu(
        delta_R=d_rot,
        delta_p=pos[:3],
        delta_v=vel[:3],
        dt_total=float(t[-1] - t[0]),
        J_g_dR=j_g_dr,
        J_g_dv=vel[3:12].reshape(3, 3),
        J_a_dv=vel[12:].reshape(3, 3),
        J_g_dp=pos[3:12].reshape(3, 3),
        J_a_dp=pos[12:].reshape(3, 3),
        linearization_bias=(b_g, b_a),
        noise_terms=(incrs, coupling, j_rs, rot_eff, dts),
    )


def _propagate_covariance(incrs, coupling, j_rs, rot_eff, dts):
    """The 9x9 covariance, order (phi, p, v), propagated over the intervals
    of ``integrate``: their rotation increments, couplings d(rot_eff
    a_mid)/d(attitude error), right Jacobians, mid-interval attitudes and
    lengths."""
    n = len(dts)
    dt3 = dts[:, None, None]
    variances = np.repeat([GYRO_NOISE_DENSITY**2, ACCEL_NOISE_DENSITY**2], 3)
    q_diags = variances / dts[:, None]
    # error-state transition and noise mapping
    a_mat = np.broadcast_to(np.eye(9), (n, 9, 9)).copy()
    a_mat[:, 0:3, 0:3] = incrs.transpose(0, 2, 1)
    a_mat[:, 3:6, 0:3] = -0.5 * coupling * dt3 * dt3
    a_mat[:, 3:6, 6:9] = np.eye(3) * dt3
    a_mat[:, 6:9, 0:3] = -coupling * dt3
    b_mat = np.zeros((n, 9, 6))
    b_mat[:, 0:3, 0:3] = j_rs * dt3
    b_mat[:, 3:6, 3:6] = 0.5 * rot_eff * dt3 * dt3
    b_mat[:, 6:9, 3:6] = rot_eff * dt3
    cov = np.zeros((9, 9))
    for a, bqb in zip(a_mat, (b_mat * q_diags[:, None, :]) @ b_mat.transpose(0, 2, 1)):
        cov = a @ cov @ a.T + bqb
    return 0.5 * (cov + cov.T)


def _running_sum(*increments):
    """Partial sums of x_k = ((x_{k-1} + u_k) + w_k) + ... from x_0 = 0 for the
    per-interval increments u, w, ... (each (n, m)), added in that order:
    (n + 1, m), x_0 first. One ``cumsum``, which adds in sequence, keeps the
    rounding of the loop that it replaces."""
    steps = np.stack(increments, axis=1).reshape(-1, increments[0].shape[1])
    sums = np.cumsum(np.concatenate([np.zeros((1, steps.shape[1])), steps]), axis=0)
    return sums[:: len(increments)]


def predict_state(pose: Pose, velocity: np.ndarray, pre: PreintegratedImu, gravity: np.ndarray):
    """The pose and velocity after the interval ``pre``, integrated at the
    keyframe's biases, from the keyframe's ``pose`` and ``velocity``."""
    gravity = np.asarray(gravity, dtype=float)
    rot_i = pose.rotation
    dt = pre.dt_total
    rot = rot_i @ pre.delta_R
    vel = velocity + gravity * dt + rot_i @ pre.delta_v
    pos = (
        pose.translation
        + velocity * dt
        + 0.5 * gravity * dt * dt
        + rot_i @ pre.delta_p
    )
    return Pose(rot, pos), vel


def bias_information(dt_total: float) -> np.ndarray:
    """6x6 information of the bias random-walk residual over one interval.

    Order (accel, gyro), matching the stacked bias residual. Inverse of
    walk^2 * dt per axis.
    """
    dt_total = max(dt_total, 1e-12)
    var = np.concatenate(
        [
            np.full(3, ACCEL_BIAS_WALK**2 * dt_total),
            np.full(3, GYRO_BIAS_WALK**2 * dt_total),
        ]
    )
    return np.diag(1.0 / var)


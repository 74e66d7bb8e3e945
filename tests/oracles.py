"""Independent oracle helpers shared by the test suite.

Everything here is deliberately naive (series expansions, brute-force
scans, central differences) so it cannot share a failure mode with the
library code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from crossloc.imu import PreintegratedImu
from crossloc.liegroup import Pose, se3_log, skew, so3_exp, so3_left_jacobian, so3_log
from crossloc.residuals import RobustKernel


def numeric_jacobian(fn, x, eps=1e-6):
    """Central-difference Jacobian of fn: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        fp = np.atleast_1d(np.asarray(fn(x + dx), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(x - dx), dtype=float))
        jac[:, i] = (fp - fm) / (2.0 * eps)
    return jac


def se3_hat(xi):
    """4x4 matrix form of a twist ordered (phi, rho)."""
    phi, rho = xi[:3], xi[3:]
    m = np.zeros((4, 4))
    m[0, 1], m[0, 2] = -phi[2], phi[1]
    m[1, 0], m[1, 2] = phi[2], -phi[0]
    m[2, 0], m[2, 1] = -phi[1], phi[0]
    m[:3, 3] = rho
    return m


def matrix_exp_series(mat, terms=20):
    """Truncated power series for the matrix exponential."""
    out = np.eye(mat.shape[0])
    acc = np.eye(mat.shape[0])
    for k in range(1, terms + 1):
        acc = acc @ mat / k
        out = out + acc
    return out


def so3_hat(v):
    """3x3 skew-symmetric matrix of v, written out entry by entry."""
    return se3_hat(np.concatenate([v, np.zeros(3)]))[:3, :3]


def jacobian_series(ad, terms=40):
    """The sum over k of ad^k / (k + 1)!, term by term: the left Jacobian of
    the exponential map whose generator acts by ``ad``. It converges at every
    angle, and for the twists of the tests its terms stay below 10, so it
    keeps its entries to about 1e-15 without any branch on the angle."""
    out = np.zeros_like(ad)
    term = np.eye(len(ad))  # ad^k / k!
    for k in range(terms):
        out = out + term / (k + 1)
        term = term @ ad / (k + 1)
    return out


def so3_right_jacobian(phi):
    """J_r of one rotation vector: the series of -phi's generator."""
    return jacobian_series(so3_hat(-np.asarray(phi, dtype=float)))


def so3_left_jacobian_inv(phi):
    return np.linalg.inv(jacobian_series(so3_hat(np.asarray(phi, dtype=float))))


def so3_right_jacobian_inv(phi):
    return np.linalg.inv(so3_right_jacobian(phi))


def se3_left_jacobian(xi):
    """The 6x6 J_l of one twist (phi, rho), with se3_exp(xi + d) ~
    se3_exp(J_l d) * se3_exp(xi): the series of its generator's adjoint
    [[skew(phi), 0], [skew(rho), skew(phi)]]. Its lower-left block is the Q
    block of Barfoot's closed form."""
    f, r = so3_hat(xi[:3]), so3_hat(xi[3:])
    return jacobian_series(np.block([[f, np.zeros((3, 3))], [r, f]]))


def se3_right_jacobian(xi):
    return se3_left_jacobian(-np.asarray(xi, dtype=float))


def se3_right_jacobian_inv(xi):
    return np.linalg.inv(se3_right_jacobian(xi))


def pose_matrix(pose):
    """4x4 homogeneous matrix of one pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def brute_force_knn(positions, query, k):
    """Indices and distances of the k nearest points, ties by index."""
    d = np.linalg.norm(positions - np.asarray(query, dtype=float), axis=1)
    order = np.lexsort((np.arange(len(d)), d))[: min(k, len(d))]
    return order, d[order]


def pose_numeric_jacobian(fn, pose, eps=1e-6):
    """Central differences of fn(pose) w.r.t. the right perturbation."""
    f0 = np.atleast_1d(np.asarray(fn(pose), dtype=float))
    jac = np.zeros((f0.size, 6))
    for i in range(6):
        d = np.zeros(6)
        d[i] = eps
        fp = np.atleast_1d(np.asarray(fn(pose.retract(d)), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(pose.retract(-d)), dtype=float))
        jac[:, i] = (fp - fm) / (2.0 * eps)
    return jac


def relative_error(a, b, floor=1e-6):
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def integrate_per_sample(samples, bias, gyro_density, accel_density):
    """``imu.integrate`` as a loop over intervals, on single-element SO(3) calls,
    with the given gyro and accelerometer noise densities (per sqrt(Hz)).

    Returns the fields of a PreintegratedImu as a dict, ``dt_total`` summed
    interval by interval.
    """
    b_g, b_a = (np.asarray(b, dtype=float) for b in bias)
    d_rot, d_p, d_v, dt_total = np.eye(3), np.zeros(3), np.zeros(3), 0.0
    j_g_dr, j_g_dv, j_a_dv, j_g_dp, j_a_dp = (np.zeros((3, 3)) for _ in range(5))
    cov = np.zeros((9, 9))
    q = np.repeat([gyro_density**2, accel_density**2], 3)
    for prev, curr in zip(samples[:-1], samples[1:]):
        dt = curr[0] - prev[0]
        w_mid = 0.5 * (prev[1:4] + curr[1:4]) - b_g
        a_mid = 0.5 * (prev[4:7] + curr[4:7]) - b_a
        dtheta = w_mid * dt
        incr, j_r = so3_exp(dtheta), so3_right_jacobian(dtheta)
        half = so3_exp(0.5 * dtheta)
        rot_eff = d_rot @ half
        coupling = d_rot @ skew(half @ a_mid)

        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = incr.T
        a_mat[3:6, 0:3] = -0.5 * coupling * dt * dt
        a_mat[3:6, 6:9] = np.eye(3) * dt
        a_mat[6:9, 0:3] = -coupling * dt
        b_mat = np.zeros((9, 6))
        b_mat[0:3, 0:3] = j_r * dt
        b_mat[3:6, 3:6] = 0.5 * rot_eff * dt * dt
        b_mat[6:9, 3:6] = rot_eff * dt
        cov = a_mat @ cov @ a_mat.T + (b_mat * (q / dt)) @ b_mat.T

        dacc_dbg = -coupling @ j_g_dr + 0.5 * dt * rot_eff @ skew(a_mid) @ so3_right_jacobian(0.5 * dtheta)
        j_g_dp = j_g_dp + j_g_dv * dt + 0.5 * dacc_dbg * dt * dt
        j_a_dp = j_a_dp + j_a_dv * dt - 0.5 * rot_eff * dt * dt
        j_g_dv = j_g_dv + dacc_dbg * dt
        j_a_dv = j_a_dv - rot_eff * dt

        acc_i = rot_eff @ a_mid
        d_p = d_p + d_v * dt + 0.5 * acc_i * dt * dt
        d_v = d_v + acc_i * dt
        j_g_dr = incr.T @ j_g_dr - j_r * dt
        d_rot = d_rot @ incr
        dt_total += dt
    return dict(
        delta_R=d_rot, delta_p=d_p, delta_v=d_v, dt_total=dt_total, J_g_dR=j_g_dr,
        J_g_dv=j_g_dv, J_a_dv=j_a_dv, J_g_dp=j_g_dp, J_a_dp=j_a_dp, covariance=0.5 * (cov + cov.T),
    )


def integrate_loop(samples, bias, gyro_density, accel_density):
    """``imu.integrate`` as one loop over intervals on its batched per-interval
    terms, with the given gyro and accelerometer noise densities.

    The order of every operation is the library's, so each field of its
    result must match bitwise. Returns the fields of a PreintegratedImu as a
    dict.
    """
    samples = np.asarray(samples, dtype=float)
    b_g, b_a = (np.asarray(b, dtype=float) for b in bias)
    t = samples[:, 0]
    dts = np.diff(t)
    mid = 0.5 * (samples[:-1, 1:] + samples[1:, 1:])
    a_mids = mid[:, 3:] - b_a
    dthetas = (mid[:, :3] - b_g) * dts[:, None]
    incrs = so3_exp(dthetas)
    j_rs = so3_left_jacobian(-dthetas)
    halves = so3_exp(0.5 * dthetas)
    skew_a_halves = skew(np.einsum("nij,nj->ni", halves, a_mids))
    dacc_halves = skew(a_mids) @ so3_left_jacobian(-0.5 * dthetas)
    variances = np.repeat([gyro_density**2, accel_density**2], 3)
    q_diags = variances / dts[:, None]

    d_rot, d_p, d_v = np.eye(3), np.zeros(3), np.zeros(3)
    j_g_dr, j_g_dv, j_a_dv, j_g_dp, j_a_dp = (np.zeros((3, 3)) for _ in range(5))
    cov = np.zeros((9, 9))
    eye3 = np.eye(3)
    for dt, incr, j_r, a_mid, half, skew_a_half, dacc_half, q_diag in zip(
        dts.tolist(), incrs, j_rs, a_mids, halves, skew_a_halves, dacc_halves, q_diags
    ):
        rot_eff = d_rot @ half
        coupling = d_rot @ skew_a_half

        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = incr.T
        a_mat[3:6, 0:3] = -0.5 * coupling * dt * dt
        a_mat[3:6, 6:9] = eye3 * dt
        a_mat[6:9, 0:3] = -coupling * dt
        b_mat = np.zeros((9, 6))
        b_mat[0:3, 0:3] = j_r * dt
        b_mat[3:6, 3:6] = 0.5 * rot_eff * dt * dt
        b_mat[6:9, 3:6] = rot_eff * dt
        cov = a_mat @ cov @ a_mat.T + (b_mat * q_diag) @ b_mat.T

        dacc_dbg = -coupling @ j_g_dr + 0.5 * dt * rot_eff @ dacc_half
        j_g_dp = j_g_dp + j_g_dv * dt + 0.5 * dacc_dbg * dt * dt
        j_a_dp = j_a_dp + j_a_dv * dt - 0.5 * rot_eff * dt * dt
        j_g_dv = j_g_dv + dacc_dbg * dt
        j_a_dv = j_a_dv - rot_eff * dt

        acc_i = rot_eff @ a_mid
        d_p = d_p + d_v * dt + 0.5 * acc_i * dt * dt
        d_v = d_v + acc_i * dt
        j_g_dr = incr.T @ j_g_dr - j_r * dt
        d_rot = d_rot @ incr
    return dict(
        delta_R=d_rot, delta_p=d_p, delta_v=d_v, dt_total=float(t[-1] - t[0]), J_g_dR=j_g_dr,
        J_g_dv=j_g_dv, J_a_dv=j_a_dv, J_g_dp=j_g_dp, J_a_dp=j_a_dp, covariance=0.5 * (cov + cov.T),
    )


def levenberg_marquardt_two_evaluations(system, value, max_iterations):
    """``solver._levenberg_marquardt`` as it evaluates each iterate twice:
    every iteration linearizes its value and every trial evaluates its
    candidate's cost, the start value's cost evaluated first."""
    from crossloc import solver

    initial_cost = system.cost(value)
    if not np.isfinite(initial_cost):
        return value, solver.SolverReport(initial_cost, initial_cost, 0, "failure")
    cost, lam, iterations = initial_cost, solver.INITIAL_LAMBDA, 0
    termination = "max_iter"
    while iterations < max_iterations:
        linear, cost, grad_norm = system.linearize(value)
        if grad_norm < solver.GRADIENT_TOL:
            termination = "converged"
            break
        accepted = False
        while lam <= solver.MAX_LAMBDA:
            iterations += 1
            delta = system.solve_damped(linear, lam)
            if delta is None:
                lam *= solver.LAMBDA_INCREASE
                if iterations >= max_iterations:
                    break
                continue
            candidate = system.retract(value, delta)
            new_cost = system.cost(candidate)
            if np.isfinite(new_cost) and new_cost < cost:
                rel_decrease = (cost - new_cost) / max(cost, 1e-300)
                value, cost, accepted = candidate, new_cost, True
                lam = max(lam * solver.LAMBDA_DECREASE, 1e-12)
                if rel_decrease < solver.STEP_TOL:
                    termination = "converged"
                break
            lam *= solver.LAMBDA_INCREASE
            if iterations >= max_iterations:
                break
        if not accepted:
            if lam > solver.MAX_LAMBDA:
                termination = "stalled"
            break
        if termination == "converged":
            break
    return value, solver.SolverReport(initial_cost, cost, iterations, termination)


# ---------------------------------------------------------------------------
# one-row references of the factor kinds: the tests compare each kind's
# stacked kernel with these, row by row


POINT_TO_PLANE = "point_to_plane"
POINT_TO_POINT = "point_to_point"


class BehindCameraError(ValueError):
    """Landmark has non-positive depth in the camera frame."""


class MetricMismatchError(ValueError):
    """Constraint metric does not match the residual being evaluated."""


@dataclass(frozen=True)
class NavState:
    """One keyframe's state: body pose in the local frame, velocity, biases."""

    pose: Pose = field(default_factory=Pose.identity)
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))


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


def _project_with_jacobians(pose: Pose, p_local: np.ndarray, cam):
    """Project a local-frame point through pose and the extrinsic of ``cam``,
    a ``residuals.CameraModel``; chain rule."""
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


def reprojection_residual(state: NavState, lm: Landmark, obs: Observation, cam):
    """Pixel residual (projected - observed) with pose/landmark Jacobians."""
    uv, j_pose, j_lm = _project_with_jacobians(state.pose, lm.position, cam)
    return uv - obs.pixel, j_pose, j_lm


# ---------------------------------------------------------------------------
# preintegration


def bias_corrected_delta(
    pre: PreintegratedImu, new_bias: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-order corrected (delta_R, delta_p, delta_v) at a new bias."""
    db_g = np.asarray(new_bias[0], dtype=float) - pre.linearization_bias[0]
    db_a = np.asarray(new_bias[1], dtype=float) - pre.linearization_bias[1]
    d_rot = pre.delta_R @ so3_exp(pre.J_g_dR @ db_g)
    d_p = pre.delta_p + pre.J_g_dp @ db_g + pre.J_a_dp @ db_a
    d_v = pre.delta_v + pre.J_g_dv @ db_g + pre.J_a_dv @ db_a
    return d_rot, d_p, d_v


def corrected_prediction(state: NavState, pre: PreintegratedImu, gravity: np.ndarray) -> NavState:
    """The state after the interval ``pre``, its deltas first-order corrected
    to ``state``'s biases, which the result keeps: the prediction whose
    preintegration residual is zero at any bias."""
    gravity = np.asarray(gravity, dtype=float)
    d_rot, d_p, d_v = bias_corrected_delta(pre, (state.gyro_bias, state.accel_bias))
    rot_i, dt = state.pose.rotation, pre.dt_total
    vel = state.velocity + gravity * dt + rot_i @ d_v
    pos = state.pose.translation + state.velocity * dt + 0.5 * gravity * dt * dt + rot_i @ d_p
    return NavState(Pose(rot_i @ d_rot, pos), vel, state.accel_bias.copy(), state.gyro_bias.copy())


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


def anchor_alignment_gauss_newton(anchor, landmarks, constraints, prior, kernel, iterations=200):
    """The rigid step's anchor-only alignment by dense Gauss-Newton, one
    constraint at a time: returns the anchor at convergence and the cost as a
    function of the anchor.

    ``constraints`` are ``oracles.MapConstraint`` records of the
    ``landmarks`` (id -> position), robustified by ``kernel``; ``prior`` is
    (mean, information), unrobustified. Each row enters the 6x6 normal
    equations through its one-row reference, whitened by the Cholesky
    factor of its information and weighted by rho' of its squared error
    (iteratively re-weighted least squares); the step is ``Pose.retract``.
    The prior row is ``se3_log(mean^-1 * anchor)`` with its Jacobian by
    central differences over ``Pose.retract``, not the prior factor's kernel.
    """

    def deviation(pose):
        return se3_log(prior[0].inverse() @ pose)

    def rows(pose):
        """Whitened residual, Jacobian and kernel of every row at ``pose``."""
        for c in constraints:
            lm = Landmark(landmarks[c.landmark_id])
            if c.metric == POINT_TO_PLANE:
                r, j, _ = point_to_plane_residual(pose, lm, c)
            else:
                r, j, _ = point_to_point_residual(pose, lm, c)
            s = np.linalg.cholesky(c.information).T
            yield s @ np.atleast_1d(r), s @ j, kernel
        r, j = deviation(pose), pose_numeric_jacobian(deviation, pose)
        s = np.linalg.cholesky(prior[1]).T
        yield s @ r, s @ j, RobustKernel()

    def cost(pose):
        return sum(float(k.loss(e @ e)[0]) for e, _, k in rows(pose))

    for _ in range(iterations):
        h, b = np.zeros((6, 6)), np.zeros(6)
        for e, j, k in rows(anchor):
            w = float(k.loss(e @ e)[1])
            h += w * j.T @ j
            b -= w * j.T @ e
        delta = np.linalg.solve(h, b)
        anchor = anchor.retract(delta)
        if np.abs(delta).max() < 1e-13:
            break
    return anchor, cost


def association_per_point(points, positions, transform, sigma, k):
    """Each point's association log likelihood, one point at a time over
    brute-force candidates: the point moved by ``transform``, a Gaussian of
    ``sigma`` around each of its k nearest positions, a uniform prior over
    them, and the candidates summed out."""
    log_likelihoods = []
    for p_v in np.asarray(points, dtype=float):
        p_map = transform.rotation @ p_v + transform.translation
        _, dist = brute_force_knn(positions, p_map, k)
        log_prior = -1.5 * math.log(2.0 * math.pi * sigma**2) - math.log(len(dist))
        log_joint = [-0.5 * (d / sigma) ** 2 + log_prior for d in dist]
        top = max(log_joint)
        log_likelihoods.append(top + math.log(sum(math.exp(x - top) for x in log_joint)))
    return np.array(log_likelihoods)


def voxel_cells(points, voxel):
    """Occupied voxels as (keys, first, centroids), in sorted key order.

    Points are filed one at a time into a dict keyed by their integer cell
    tuple ``floor(p / voxel)``; a cell keeps the index of its first point and
    a running coordinate sum, divided by its point count at the end.
    """
    cells = {}
    for i, p in enumerate(np.asarray(points, dtype=float)):
        key = tuple(math.floor(c / voxel) for c in p)
        if key not in cells:
            cells[key] = [i, [0.0, 0.0, 0.0], 0]
        cell = cells[key]
        cell[1] = [s + c for s, c in zip(cell[1], p)]
        cell[2] += 1
    keys = sorted(cells)
    first = np.array([cells[k][0] for k in keys], dtype=int)
    centroids = np.array([[s / cells[k][2] for s in cells[k][1]] for k in keys]).reshape(-1, 3)
    return keys, first, centroids


def first_come_thin(points, radius):
    """Indices of a first-come thinning, point by point in input order: a
    point is kept unless a kept point lies within ``radius`` of it (squared
    distance <= radius**2). Kept points are filed by their cell of side
    ``radius``, so each point is tested against the 27 cells around its own.
    """
    kept = []
    cells = {}
    inv = 1.0 / radius
    r2 = radius * radius
    for i, p in enumerate(points):
        key = (int(math.floor(p[0] * inv)), int(math.floor(p[1] * inv)), int(math.floor(p[2] * inv)))
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for j in cells.get((key[0] + dx, key[1] + dy, key[2] + dz), ()):
                        d = points[j] - p
                        if d @ d <= r2:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            cells.setdefault(key, []).append(i)
    return np.asarray(kept, dtype=int)


def near_feature_returns(session, gate):
    """Per scan with a ground-truth row, the indices of the returns that the
    vision transformation keeps, tested one point at a time: in front of the
    camera, inside the image and within ``gate`` pixels of some feature
    pixel of the scan's own frame. A scan past the last frame keeps none."""
    rig, cam = session.rig, session.rig.camera
    kept = []
    for k, (points_f, _) in enumerate(session.scans[: len(session.gt_poses)]):
        features = session.frames[k].pixels[:, :2] if k < len(session.frames) else []
        idx = []
        for i, p_f in enumerate(points_f):
            p_c = rig.cam_t_laser.rotation @ p_f + rig.cam_t_laser.translation
            if p_c[2] <= 1e-6:
                continue
            u = cam.fx * p_c[0] / p_c[2] + cam.cx
            v = cam.fy * p_c[1] / p_c[2] + cam.cy
            if not (0 <= u <= cam.width - 1 and 0 <= v <= cam.height - 1):
                continue
            if any(math.hypot(u - fu, v - fv) <= gate for fu, fv in features):
                idx.append(i)
        kept.append(np.asarray(idx, dtype=int))
    return kept


# ---------------------------------------------------------------------------
# the sliding window's landmark bookkeeping, one keyframe row at a time


def triangulate_one(rig, pose, stereo_px, min_disparity):
    """Local-frame position of one stereo observation (ul, vl, ur, vr) seen
    from one body pose, in Python floats; None unless its disparity exceeds
    ``min_disparity``."""
    cam = rig.camera
    ul, vl, ur, _ = (float(v) for v in stereo_px)
    disparity = ul - ur
    if disparity <= min_disparity:
        return None
    z = cam.fx * rig.stereo_baseline / disparity
    p_cam = np.array([(ul - cam.cx) * z / cam.fx, (vl - cam.cy) * z / cam.fy, z])
    return (pose @ cam.body_t_cam).apply(p_cam)


class DictWindow:
    """A sliding window as a keyframe list, one ``NavState`` per keyframe and
    a dict from active landmark id to position, every count taken by walking
    the keyframes' rows.

    The reference for the tables of ``estimator.SlidingWindow``: a keyframe
    goes in with its predecessor's biases (zero for the first), the oldest
    keyframe and its state are evicted beyond ``capacity``, an insertion
    retires the active landmarks no keyframe sees, and activation
    triangulates each inactive landmark that two keyframes see from its
    first row, oldest keyframe first, through ``triangulate_one``.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.keyframes = []
        self.states = []
        self.landmarks = {}

    def observer_counts(self):
        """Per id the keyframes hold, how many keyframes hold it."""
        counts = {}
        for kf in self.keyframes:
            for lm_id in set(kf.landmark_ids.tolist()):
                counts[lm_id] = counts.get(lm_id, 0) + 1
        return counts

    def insert(self, kf, pose, velocity):
        last = self.states[-1] if self.states else NavState()
        self.keyframes.append(kf)
        self.states.append(NavState(pose, velocity, last.accel_bias, last.gyro_bias))
        if len(self.keyframes) > self.capacity:
            self.keyframes.pop(0)
            self.states.pop(0)
        counts = self.observer_counts()
        self.landmarks = {i: p for i, p in self.landmarks.items() if i in counts}

    def solvable(self):
        """The active ids that two keyframes see, sorted."""
        counts = self.observer_counts()
        return sorted(i for i in self.landmarks if counts[i] >= 2)

    def activate(self, rig, min_disparity):
        """Activate what can be; returns how many were."""
        counts = self.observer_counts()
        first = {}
        for kf, state in zip(self.keyframes, self.states):
            for lm_id, px in zip(kf.landmark_ids.tolist(), kf.pixels):
                first.setdefault(lm_id, (state.pose, px))
        activated = 0
        for lm_id, (pose, px) in first.items():
            if counts[lm_id] >= 2 and lm_id not in self.landmarks:
                position = triangulate_one(rig, pose, px, min_disparity)
                if position is not None:
                    self.landmarks[lm_id] = position
                    activated += 1
        return activated

    def stereo_rows(self):
        """(keyframe index, id, pixels) of every row of a solvable id,
        keyframe by keyframe, oldest first."""
        solvable = set(self.solvable())
        return [
            (k, lm_id, px)
            for k, kf in enumerate(self.keyframes)
            for lm_id, px in zip(kf.landmark_ids.tolist(), kf.pixels)
            if lm_id in solvable
        ]

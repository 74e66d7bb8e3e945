"""SO(3)/SE(3) operations: exponential/logarithm maps, Jacobians, poses.

Conventions used throughout the package:

- Rotations are 3x3 orthonormal numpy matrices.
- se(3) tangent vectors are 6-vectors ordered ``(phi, rho)``: rotation part
  first (radians), translation part second (meters).
- All on-manifold updates use the right perturbation ``P * Exp(delta)``.
- ``Pose`` maps points from its "source" frame into its "target" frame:
  ``p_target = R @ p_source + t``.

Each map is one function over one element or a stack of n, and returns the
element's shape with n in front: the SO(3) maps (``skew``, ``so3_exp``,
``so3_log``, the left and right Jacobians and their inverses) over a (3,)
vector or (3, 3) matrix, the SE(3) maps (``se3_exp``, ``se3_log``, their
Jacobians) and ``Pose``'s operations over a (6,) twist or a ``Pose`` of a
(3, 3) rotation and a (3,) translation; ``Pose.apply`` applies one pose.
Where a caller needs two maps of one argument, a pair computes them from
one angle and one Phi^2, equal bit for bit to the two calls:
``so3_exp_and_left_jacobian``, ``so3_exp_and_right_jacobian``,
``so3_left_and_right_jacobian_inv`` and ``se3_log_and_right_jacobian_inv``
(the twist of a pose and J_r^-1 of it). Small angles switch the
trigonometric coefficients to Taylor series against catastrophic
cancellation, below ``SMALL_ANGLE`` (``Q_SERIES_ANGLE`` for the Q block of
the SE(3) Jacobians); ``_by_angle`` is the one switch, and it picks the
branch of each entry of a stack on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SMALL_ANGLE = 1e-6
# below it, the Q block of the SE(3) Jacobians takes its coefficients' series
Q_SERIES_ANGLE = 0.2

# skew(v) flattened is v @ _SKEW_BASIS, and vee(m - m^T) is m flattened @
# _SKEW_BASIS.T. Every product is by +-1 or 0, so each entry rounds as its
# written-out copy or difference would.
_SKEW_BASIS = np.array(
    [[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]],
    dtype=float,
)


class AngleNearPiError(ValueError):
    """Rotation angle too close to pi for a well-conditioned logarithm."""


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with skew(a) @ b = cross(a, b): (3, 3) of one
    (3,) vector, (n, 3, 3) of each row of (n, 3)."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


def _by_angle(theta, series, closed, switch=SMALL_ANGLE):
    """Coefficients of the angles theta, each entry taking its own branch:
    ``series(t2)`` below ``switch``, else ``closed(theta, t2)``.

    Both return a tuple of coefficients; each comes out shaped like theta.
    A branch that no entry takes is not evaluated.
    """
    small = theta < switch
    if small.all():
        return series(theta * theta)
    safe = np.maximum(theta, switch)  # keeps the closed form finite at 0
    if not small.any():
        return closed(safe, safe * safe)
    return tuple(
        np.where(small, s, c) for s, c in zip(series(theta * theta), closed(safe, safe * safe))
    )


def _exp_coeffs(theta):
    """Coefficients a, b, c with Exp = I + a*Phi + b*Phi^2 and
    J_l = I + b*Phi + c*Phi^2 (Phi unnormalized)."""

    def closed(t, t2):
        sin, half = np.sin(t), np.sin(0.5 * t)
        # 1 - cos t as 2 sin^2(t / 2): no cancellation at small t
        return sin / t, 2.0 * half * half / t2, (t - sin) / (t2 * t)

    return _by_angle(
        theta,
        lambda t2: (
            1.0 - t2 / 6.0 + t2 * t2 / 120.0,
            0.5 - t2 / 24.0 + t2 * t2 / 720.0,
            1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
        ),
        closed,
    )


def _inv_jacobian_coeff(theta):
    """Coefficient c, as a 1-tuple, with J_l^-1 = I - Phi / 2 + c*Phi^2."""
    return _by_angle(
        theta,
        lambda t2: (1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,),
        lambda t, t2: (1.0 / t2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)),),
    )


def _skew_terms(phi, coeffs):
    """Phi = skew(phi), Phi^2, and ``coeffs`` of phi's angle, each shaped
    (..., 1, 1) to scale them."""
    phi = np.asarray(phi, dtype=float)
    p = skew(phi)
    return p, p @ p, [c[..., None, None] for c in coeffs(np.linalg.norm(phi, axis=-1))]


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula: Exp(phi) of a rotation vector phi (radians)."""
    p, p2, (a, b, _) = _skew_terms(phi, _exp_coeffs)
    return np.eye(3) + a * p + b * p2


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Rotation vector of rot. Raises AngleNearPiError within 1e-6 of pi."""
    rot = np.asarray(rot, dtype=float)
    # vee(rot - rot^T) = 2 sin(theta) * axis
    w = rot.reshape(rot.shape[:-2] + (9,)) @ _SKEW_BASIS.T
    s = 0.5 * np.linalg.norm(w, axis=-1)
    c = 0.5 * (np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)
    if (theta > np.pi - 1e-6).any():
        raise AngleNearPiError(f"rotation angle {np.max(theta):.9f} too close to pi")
    # theta / (2 sin(theta)) ~ 0.5 + theta^2 / 12. Closed-form angles have
    # s >= sin(SMALL_ANGLE): the floor only keeps a series entry's s = 0 finite.
    (scale,) = _by_angle(
        theta,
        lambda t2: (0.5 + t2 / 12.0,),
        lambda t, t2: (t / (2.0 * np.maximum(s, SMALL_ANGLE * SMALL_ANGLE)),),
    )
    return scale[..., None] * w


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    """J_l with Exp(phi + d) ~ Exp(J_l d) Exp(phi) to first order."""
    p, p2, (_, b, c) = _skew_terms(phi, _exp_coeffs)
    return np.eye(3) + b * p + c * p2


def so3_exp_and_left_jacobian(phi: np.ndarray):
    """``so3_exp`` and ``so3_left_jacobian`` of phi from one angle and one
    Phi^2: Exp's second coefficient is J_l's first."""
    p, p2, (a, b, c) = _skew_terms(phi, _exp_coeffs)
    return np.eye(3) + a * p + b * p2, np.eye(3) + b * p + c * p2


def so3_exp_and_right_jacobian(phi: np.ndarray):
    """``so3_exp`` and ``so3_right_jacobian`` of phi from one angle and one
    Phi^2: J_r = I - b*Phi + c*Phi^2 shares Exp's b."""
    p, p2, (a, b, c) = _skew_terms(phi, _exp_coeffs)
    return np.eye(3) + a * p + b * p2, np.eye(3) - b * p + c * p2


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """J_r with Exp(phi + d) ~ Exp(phi) Exp(J_r d) to first order."""
    return so3_left_jacobian(-np.asarray(phi, dtype=float))


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    p, p2, (c,) = _skew_terms(phi, _inv_jacobian_coeff)
    return np.eye(3) - 0.5 * p + c * p2


def so3_right_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    return so3_left_jacobian_inv(-np.asarray(phi, dtype=float))


def so3_left_and_right_jacobian_inv(phi: np.ndarray):
    """``so3_left_jacobian_inv`` and ``so3_right_jacobian_inv`` of phi from
    one angle and one Phi^2: they differ in the sign of Phi / 2 only."""
    p, p2, (c,) = _skew_terms(phi, _inv_jacobian_coeff)
    return np.eye(3) - 0.5 * p + c * p2, np.eye(3) + 0.5 * p + c * p2


def orthonormalize(rot: np.ndarray) -> np.ndarray:
    """One Newton step toward the closest orthonormal matrix, of one (3, 3) or each of (n, 3, 3).

    Adequate for the drift of retraction chains (error is squared); not a
    substitute for a full polar decomposition of arbitrary matrices.
    """
    return rot @ (1.5 * np.eye(3) - 0.5 * (np.swapaxes(rot, -1, -2) @ rot))


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v of one (3, 3) and (3,), or of each pair of rows of a stack."""
    return (m @ v[..., None])[..., 0]


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_target = rotation @ p_source + translation; a
    stack of n holds rotations (n, 3, 3) and translations (n, 3)."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def stack(poses) -> "Pose":
        """One stack of a sequence of single poses."""
        rot = np.array([p.rotation for p in poses], dtype=float).reshape(-1, 3, 3)
        return Pose(rot, np.array([p.translation for p in poses], dtype=float).reshape(-1, 3))

    def compose(self, other: "Pose") -> "Pose":
        rot = self.rotation
        return Pose(rot @ other.rotation, _matvec(rot, other.translation) + self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = np.swapaxes(self.rotation, -1, -2)
        return Pose(rt.copy(), -_matvec(rt, self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) batch by one pose."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        # translated in place: a second (N, 3) array would cost a large
        # batch one more allocation and its page faults
        moved = points @ self.rotation.T
        moved += self.translation
        return moved

    def adjoint(self) -> np.ndarray:
        """6x6 Adj with Exp(Adj(P) xi) = P Exp(xi) P^-1, (phi, rho) order."""
        return _blocks(self.rotation, skew(self.translation) @ self.rotation)

    def retract(self, delta: np.ndarray) -> "Pose":
        """Right-multiplicative update P * Exp(delta), re-orthonormalized:
        repeated updates are where rounding accumulates."""
        moved = self.compose(se3_exp(delta))
        return Pose(orthonormalize(moved.rotation), moved.translation)

    def matrix(self) -> np.ndarray:
        m = np.zeros(self.rotation.shape[:-2] + (4, 4))
        m[..., :3, :3] = self.rotation
        m[..., :3, 3] = self.translation
        m[..., 3, 3] = 1.0
        return m


def se3_exp(xi: np.ndarray) -> Pose:
    """SE(3) exponential of a twist (phi, rho)."""
    xi = np.asarray(xi, dtype=float)
    rot, jac = so3_exp_and_left_jacobian(xi[..., :3])
    return Pose(rot, _matvec(jac, xi[..., 3:]))


def _log_terms(pose: Pose, coeffs):
    """se3_log of pose and the terms of its rotation vector phi that its
    Jacobians reuse: Phi, Phi^2 and J_l^-1's coefficient, then ``coeffs``
    of phi's angle, each shaped (..., 1, 1)."""
    phi = so3_log(pose.rotation)
    p, p2, (c, *rest) = _skew_terms(phi, lambda t: _inv_jacobian_coeff(t) + coeffs(t))
    rho = _matvec(np.eye(3) - 0.5 * p + c * p2, pose.translation)
    return np.concatenate([phi, rho], axis=-1), p, p2, c, rest


def se3_log(pose: Pose) -> np.ndarray:
    """Inverse of se3_exp; raises AngleNearPiError near antipodal rotations."""
    return _log_terms(pose, lambda t: ())[0]


def se3_log_and_right_jacobian_inv(pose: Pose):
    """``se3_log`` of pose and ``se3_right_jacobian_inv`` of that twist,
    from one Phi, one Phi^2 and one angle: J_r^-1 = I + Phi / 2 + c Phi^2
    has J_l^-1's coefficient c, and Q is taken at (-phi, -rho)."""
    xi, p, p2, c, (c1, c2, c3) = _log_terms(pose, _q_coeffs)
    ji = np.eye(3) + 0.5 * p + c * p2
    q = _q_from_terms(-p, p2, skew(-xi[..., 3:]), c1, c2, c3)
    return xi, _blocks(ji, -ji @ q @ ji)


def _q_coeffs(theta):
    """Coefficients c1, c2, c3 of the Q block. Their closed forms cancel
    catastrophically well above SMALL_ANGLE (Q off by 4e-10 at 1e-4 rad for
    |rho| = 1), their series to t^8 does not: both are exact to about 1e-16
    at Q_SERIES_ANGLE."""

    def closed(t, t2):
        sin, cos, t4 = np.sin(t), np.cos(t), t2 * t2
        c3 = (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t4 * t)
        return (t - sin) / (t2 * t), (t2 + 2.0 * cos - 2.0) / (2.0 * t4), c3

    def series(t2):  # by Horner's rule
        return tuple(a + t2 * (b + t2 * (c + t2 * (d + t2 * e))) for a, b, c, d, e in _Q_SERIES)

    return _by_angle(theta, series, closed, Q_SERIES_ANGLE)


# the Q coefficients' series in t^2, to t^8: c1, c2, c3
_Q_SERIES = (
    (1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0, -1.0 / 362880.0, 1.0 / 39916800.0),
    (1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0, -1.0 / 3628800.0, 1.0 / 479001600.0),
    (1.0 / 120.0, -1.0 / 2520.0, 1.0 / 120960.0, -1.0 / 9979200.0, 1.0 / 1245404160.0),
)


def _se3_q_matrix(phi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Q block of the SE(3) left Jacobian (Barfoot's closed form)."""
    f, f2, (c1, c2, c3) = _skew_terms(phi, _q_coeffs)
    return _q_from_terms(f, f2, skew(rho), c1, c2, c3)


def _q_from_terms(f, f2, r, c1, c2, c3):
    """Q of Phi = f, Phi^2 = f2 and skew(rho) = r, with phi's coefficients."""
    fr, rf = f @ r, r @ f
    frf = fr @ f
    return 0.5 * r + c1 * (fr + rf + frf) + c2 * (f2 @ r + r @ f2 - 3.0 * frf) + c3 * (fr @ f2 + f2 @ rf)


def _blocks(diag: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """The 6x6 [[diag, 0], [corner, diag]] of (3, 3) blocks, or a stack of them."""
    out = np.zeros(diag.shape[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = diag
    out[..., 3:, :3] = corner
    return out


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """6x6 J_l with se3_exp(xi + d) ~ se3_exp(J_l d) * se3_exp(xi)."""
    xi = np.asarray(xi, dtype=float)
    return _blocks(so3_left_jacobian(xi[..., :3]), _se3_q_matrix(xi[..., :3], xi[..., 3:]))


def se3_right_jacobian(xi: np.ndarray) -> np.ndarray:
    return se3_left_jacobian(-np.asarray(xi, dtype=float))


def se3_right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    """Inverse of the SE(3) right Jacobian, in closed form."""
    xi = np.asarray(xi, dtype=float)
    ji = so3_right_jacobian_inv(xi[..., :3])
    return _blocks(ji, -ji @ _se3_q_matrix(-xi[..., :3], -xi[..., 3:]) @ ji)


def rot_z(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def quat_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) of a rotation matrix (Shepperd's method)."""
    t = np.trace(rot)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (rot[2, 1] - rot[1, 2]) / s
        y = (rot[0, 2] - rot[2, 0]) / s
        z = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] >= rot[1, 1] and rot[0, 0] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
        w = (rot[2, 1] - rot[1, 2]) / s
        x = 0.25 * s
        y = (rot[0, 1] + rot[1, 0]) / s
        z = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] >= rot[2, 2]:
        s = np.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0
        w = (rot[0, 2] - rot[2, 0]) / s
        x = (rot[0, 1] + rot[1, 0]) / s
        y = 0.25 * s
        z = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = np.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0
        w = (rot[1, 0] - rot[0, 1]) / s
        x = (rot[0, 2] + rot[2, 0]) / s
        y = (rot[1, 2] + rot[2, 1]) / s
        z = 0.25 * s
    q = np.array([x, y, z, w])
    return q / np.linalg.norm(q)


def rotation_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (x, y, z, w); normalizes the input."""
    q = np.asarray(q, dtype=float)
    x, y, z, w = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )

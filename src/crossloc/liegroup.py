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
``so3_log``, ``so3_left_jacobian``) over a (3,) vector or (3, 3) matrix, the
SE(3) maps (``se3_exp``, ``se3_log``) and ``Pose``'s operations over a (6,)
twist or a ``Pose`` of a (3, 3) rotation and a (3,) translation;
``Pose.apply`` applies one pose. Where a caller needs two maps of one
argument, a pair computes them from one angle and one Phi^2:
``so3_exp_and_left_jacobian``, ``so3_exp_and_right_jacobian`` (Exp and
J_r), ``so3_left_and_right_jacobian_inv`` (J_l^-1 and J_r^-1) and
``se3_log_and_right_jacobian_inv`` (the twist of a pose and the SE(3) J_r^-1
of it). The module holds only the maps the package runs; the tests check
them against independent series references in ``tests/oracles.py``. Small
angles switch the trigonometric coefficients to Taylor series against
catastrophic cancellation, below ``SMALL_ANGLE`` (``Q_SERIES_ANGLE`` for the
Q block of the SE(3) Jacobian); ``_by_angle`` is the one switch, and it
picks the branch of each entry of a stack on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SMALL_ANGLE = 1e-6
# below it, the Q block of the SE(3) Jacobian takes its coefficients' series
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
    """``so3_exp`` and J_r of phi, with Exp(phi + d) ~ Exp(phi) Exp(J_r d),
    from one angle and one Phi^2: J_r = I - b*Phi + c*Phi^2 shares Exp's b."""
    p, p2, (a, b, c) = _skew_terms(phi, _exp_coeffs)
    return np.eye(3) + a * p + b * p2, np.eye(3) - b * p + c * p2


def so3_left_and_right_jacobian_inv(phi: np.ndarray):
    """J_l^-1 and J_r^-1 of phi from one angle and one Phi^2: they differ in
    the sign of Phi / 2 only."""
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

    def __getitem__(self, rows) -> "Pose":
        """Rows of a stack: one pose for an integer, a stack for a mask or indices."""
        return Pose(self.rotation[rows], self.translation[rows])

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

    def retract(self, delta: np.ndarray) -> "Pose":
        """Right-multiplicative update P * Exp(delta), re-orthonormalized:
        repeated updates are where rounding accumulates."""
        moved = self.compose(se3_exp(delta))
        return Pose(orthonormalize(moved.rotation), moved.translation)


def se3_exp(xi: np.ndarray) -> Pose:
    """SE(3) exponential of a twist (phi, rho)."""
    xi = np.asarray(xi, dtype=float)
    rot, jac = so3_exp_and_left_jacobian(xi[..., :3])
    return Pose(rot, _matvec(jac, xi[..., 3:]))


def _log_terms(pose: Pose, coeffs):
    """se3_log of pose and the terms of its rotation vector phi that
    J_r^-1 reuses: Phi, Phi^2 and J_l^-1's coefficient, then ``coeffs``
    of phi's angle, each shaped (..., 1, 1)."""
    phi = so3_log(pose.rotation)
    p, p2, (c, *rest) = _skew_terms(phi, lambda t: _inv_jacobian_coeff(t) + coeffs(t))
    rho = _matvec(np.eye(3) - 0.5 * p + c * p2, pose.translation)
    return np.concatenate([phi, rho], axis=-1), p, p2, c, rest


def se3_log(pose: Pose) -> np.ndarray:
    """Inverse of se3_exp; raises AngleNearPiError near antipodal rotations."""
    return _log_terms(pose, lambda t: ())[0]


def se3_log_and_right_jacobian_inv(pose: Pose):
    """``se3_log`` of pose and the SE(3) J_r^-1 of that twist, from one Phi,
    one Phi^2 and one angle: J_r^-1 = [[ji, 0], [-ji Q ji, ji]], where ji =
    I + Phi / 2 + c Phi^2 has J_l^-1's coefficient c and Q, the left
    Jacobian's block in Barfoot's closed form, is taken at (-phi, -rho)."""
    xi, p, p2, c, (c1, c2, c3) = _log_terms(pose, _q_coeffs)
    ji = np.eye(3) + 0.5 * p + c * p2
    f, r = -p, skew(-xi[..., 3:])
    fr, rf = f @ r, r @ f
    frf = fr @ f
    q = 0.5 * r + c1 * (fr + rf + frf) + c2 * (p2 @ r + r @ p2 - 3.0 * frf) + c3 * (fr @ p2 + p2 @ rf)
    jac = np.zeros(ji.shape[:-2] + (6, 6))
    jac[..., :3, :3] = jac[..., 3:, 3:] = ji
    jac[..., 3:, :3] = -ji @ q @ ji
    return xi, jac


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


def rot_z(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

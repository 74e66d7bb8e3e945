import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossloc import liegroup as lg

from oracles import (
    matrix_exp_series,
    numeric_jacobian,
    pose_matrix,
    se3_hat,
    se3_left_jacobian,
    se3_right_jacobian,
    se3_right_jacobian_inv,
    so3_left_jacobian_inv,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)


def random_twist(rng, rot_scale=1.0, trans_scale=1.0):
    phi = rng.normal(size=3)
    phi *= rot_scale * rng.uniform(0, 1) / np.linalg.norm(phi)
    rho = rng.normal(size=3) * trans_scale
    return np.concatenate([phi, rho])


class TestExp:
    def test_zero_twist_is_identity(self):
        p = lg.se3_exp(np.zeros(6))
        assert np.allclose(p.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(p.translation, 0.0, atol=1e-15)

    def test_quarter_turn_about_z(self):
        p = lg.se3_exp(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(p.rotation, expected, atol=1e-12)
        assert np.allclose(p.translation, 0.0, atol=1e-15)

    def test_matches_matrix_exponential_series(self):
        xi = np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0])
        oracle = matrix_exp_series(se3_hat(xi), terms=20)
        assert np.allclose(pose_matrix(lg.se3_exp(xi)), oracle, atol=1e-10)

    def test_small_angle_branch_continuous(self):
        # values straddling the series/trig switch agree
        for theta in (9.9e-7, 1.1e-6):
            xi = np.array([theta, 0.0, 0.0, 0.5, 0.0, 0.0])
            oracle = matrix_exp_series(se3_hat(xi), terms=20)
            assert np.allclose(pose_matrix(lg.se3_exp(xi)), oracle, atol=1e-14)


class TestLog:
    def test_identity(self):
        assert np.allclose(lg.se3_log(lg.Pose.identity()), 0.0, atol=1e-15)

    def test_round_trip_half_radian(self):
        xi = np.array([0.3, -0.4, 0.0, 1.0, -2.0, 0.5])
        xi[:3] *= 0.5 / np.linalg.norm(xi[:3])
        assert np.allclose(lg.se3_log(lg.se3_exp(xi)), xi, atol=1e-9)

    def test_matches_numerical_inversion(self):
        # Gauss-Newton on xi -> vec(exp(xi) - target) with FD Jacobian:
        # inverts exp without touching the closed-form log.
        target = lg.Pose(lg.rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))

        def residual(xi):
            return (pose_matrix(lg.se3_exp(xi)) - pose_matrix(target))[:3, :].ravel()

        xi = np.zeros(6)
        for _ in range(50):
            jac = numeric_jacobian(residual, xi, eps=1e-7)
            step = np.linalg.lstsq(jac, -residual(xi), rcond=None)[0]
            xi = xi + step
            if np.linalg.norm(step) < 1e-12:
                break
        assert np.allclose(lg.se3_log(target), xi, atol=1e-8)

    def test_angle_near_pi_raises(self):
        almost_pi = (np.pi - 1e-9) * np.array([1.0, 0.0, 0.0])
        pose = lg.Pose(lg.so3_exp(almost_pi), np.zeros(3))
        with pytest.raises(lg.AngleNearPiError):
            lg.se3_log(pose)


class TestRightJacobian:
    """``so3_exp_and_right_jacobian``'s J_r and ``so3_left_and_right_jacobian_inv``'s
    J_r^-1, against their definition and each other."""

    def test_zero_angle_is_identity(self):
        _, jac = lg.so3_exp_and_right_jacobian(np.zeros(3))
        assert np.allclose(jac, np.eye(3), atol=1e-15)

    def test_defining_relation_finite_difference(self):
        phi = np.array([0.2, -0.1, 0.3])

        def f(delta):
            # so3_log of Exp(phi)^T Exp(phi + delta) equals J_r @ delta + O(|d|^2)
            return lg.so3_log(lg.so3_exp(phi).T @ lg.so3_exp(phi + delta))

        fd = numeric_jacobian(f, np.zeros(3), eps=1e-6)
        assert np.allclose(lg.so3_exp_and_right_jacobian(phi)[1], fd, atol=1e-6)
        # the reference the tests take J_r from meets the same relation
        assert np.allclose(so3_right_jacobian(phi), fd, atol=1e-6)

    def test_inverse_consistency(self):
        phi = np.array([0.2, -0.1, 0.3])
        prod = lg.so3_exp_and_right_jacobian(phi)[1] @ lg.so3_left_and_right_jacobian_inv(phi)[1]
        assert np.allclose(prod, np.eye(3), atol=1e-10)


class TestSe3Jacobians:
    def test_left_jacobian_defining_relation(self):
        """The series reference for the SE(3) J_l against finite differences
        of ``se3_exp`` and ``se3_log``."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi = random_twist(rng, rot_scale=1.5, trans_scale=2.0)

            def f(delta, xi=xi):
                return lg.se3_log(lg.se3_exp(xi + delta) @ lg.se3_exp(xi).inverse())

            fd = numeric_jacobian(f, np.zeros(6), eps=1e-6)
            assert np.allclose(se3_left_jacobian(xi), fd, atol=5e-5)

    def test_right_jacobian_inverse(self):
        """``se3_log_and_right_jacobian_inv``'s J_r^-1 inverts the series J_r,
        and is the derivative of the twist of P * Exp(d) at d = 0."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            xi = random_twist(rng, rot_scale=1.5, trans_scale=2.0)
            pose = lg.se3_exp(xi)
            twist, jac_inv = lg.se3_log_and_right_jacobian_inv(pose)
            prod = se3_right_jacobian(twist) @ jac_inv
            assert np.allclose(prod, np.eye(6), atol=1e-9)
            fd = numeric_jacobian(lambda d: lg.se3_log(pose @ lg.se3_exp(d)), np.zeros(6), eps=1e-6)
            assert np.allclose(jac_inv, fd, atol=5e-5)


class TestProperties:
    def test_exp_log_round_trip_bulk(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10_000):
            xi = random_twist(rng, rot_scale=3.0, trans_scale=5.0)
            err = np.max(np.abs(lg.se3_log(lg.se3_exp(xi)) - xi))
            worst = max(worst, err)
        assert worst < 1e-8

    def test_group_action_matches_parts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pose = lg.se3_exp(random_twist(rng, 2.0, 3.0))
            pt = rng.normal(size=3)
            assert np.allclose(
                pose.apply(pt), pose.rotation @ pt + pose.translation, atol=1e-12
            )

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        pose = lg.se3_exp(random_twist(rng, 2.0, 4.0))
        ident = pose @ pose.inverse()
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(ident.translation, 0.0, atol=1e-9)

    def test_orthonormal_after_long_composition_chain(self):
        rng = np.random.default_rng(6)
        pose = lg.Pose.identity()
        step = lg.se3_exp(random_twist(rng, 0.01, 0.01))
        for _ in range(10_000):
            pose = pose @ step
        gram = pose.rotation @ pose.rotation.T
        assert np.linalg.norm(gram - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    def test_apply_batch_matches_single(self, vals):
        xi = np.array(vals)
        if np.linalg.norm(xi[:3]) > np.pi - 0.2:
            xi[:3] *= (np.pi - 0.2) / np.linalg.norm(xi[:3])
        pose = lg.se3_exp(xi)
        pts = np.arange(12.0).reshape(4, 3)
        batch = pose.apply(pts)
        for i in range(4):
            assert np.allclose(batch[i], pose.apply(pts[i]), atol=1e-12)


class TestBatchedSo3:
    """Each SO(3) map on one element and on a stack, against independent
    references, with entries on both branches."""

    MAPS = ["skew", "so3_exp", "so3_log", "so3_left_jacobian", "so3_exp_and_left_jacobian",
            "so3_exp_and_right_jacobian", "so3_left_and_right_jacobian_inv"]

    @staticmethod
    def rotation_vectors():
        rng = np.random.default_rng(17)
        axes = rng.normal(size=(12, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.array([0.0, 1e-9, 5e-7, 9.9e-7, 1.1e-6, 1e-3, 0.3, 0.7, 1.0, 2.0, 3.0, 3.1])
        phi = axes * angles[:, None]
        norms = np.linalg.norm(phi, axis=1)
        assert (norms < lg.SMALL_ANGLE).sum() == 4 and (norms > lg.SMALL_ANGLE).sum() == 8
        return phi

    @pytest.mark.parametrize("name", MAPS)
    def test_stack_matches_single_calls(self, name):
        """A stack's rows equal the single-element calls bit for bit, and each
        call has the element's shape, with the stack's length in front."""
        fn = getattr(lg, name)
        phi = self.rotation_vectors()
        args = lg.so3_exp(phi) if name == "so3_log" else phi
        shape = (3,) if name == "so3_log" else (3, 3)

        def outputs(result):
            return result if isinstance(result, tuple) else (result,)

        singles = [outputs(fn(arg)) for arg in args]
        for k, stacked in enumerate(outputs(fn(args))):
            assert stacked.shape == (len(args),) + shape
            for row, single in zip(stacked, singles):
                assert single[k].shape == shape
                np.testing.assert_array_equal(row, single[k])

    def test_exp_matches_the_series(self):
        for phi in self.rotation_vectors():
            want = matrix_exp_series(lg.skew(phi), terms=30)
            # purely relative on the series branch, whose off-diagonal
            # entries are of the size of the angle
            atol = 1e-14 if np.linalg.norm(phi) > lg.SMALL_ANGLE else 0.0
            np.testing.assert_allclose(lg.so3_exp(phi), want, rtol=1e-14, atol=atol)

    def test_left_jacobian_is_the_derivative(self):
        """Exp(phi + d) Exp(phi)^T = Exp(J_l d) to first order in d, with Exp
        the power series and the rotation vector of a small rotation taken
        from its antisymmetric part."""

        def small_log(rot):
            return 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])

        for phi in self.rotation_vectors():
            back = matrix_exp_series(lg.skew(phi), terms=30).T
            fd = numeric_jacobian(
                lambda v: small_log(matrix_exp_series(lg.skew(v), terms=30) @ back), phi
            )
            np.testing.assert_allclose(lg.so3_left_jacobian(phi), fd, rtol=0.0, atol=1e-8)

    def test_left_jacobian_inv_inverts_it(self):
        phi = self.rotation_vectors()
        prod = lg.so3_left_and_right_jacobian_inv(phi)[0] @ lg.so3_left_jacobian(phi)
        # every row, either branch, to the rounding of entries of size 1
        # (at most 4.6e-16, at 3.1 rad; 2.2e-16 at 1.1e-6 rad)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape), rtol=0.0, atol=1e-15)

    def test_log_inverts_exp(self):
        phi = self.rotation_vectors()
        got = lg.so3_log(lg.so3_exp(phi))
        # relative only: the series branch's angles are down to 1e-9
        assert np.all(np.linalg.norm(got - phi, axis=1) <= 1e-12 * np.linalg.norm(phi, axis=1))

    def test_log_near_pi_raises(self):
        near_pi = lg.so3_exp(np.array([0.0, 0.0, np.pi - 1e-8]))
        with pytest.raises(lg.AngleNearPiError):
            lg.so3_log(near_pi)
        with pytest.raises(lg.AngleNearPiError):
            lg.so3_log(np.stack([np.eye(3), near_pi]))

    def test_exp_and_left_jacobian_match_the_separate_maps(self):
        """The fused pair equals the two maps bit for bit: on a stack of both
        branches, on one that takes the closed form only, and on one element
        of each branch."""
        phi = self.rotation_vectors()
        for args in (phi, phi[4:], phi[1], phi[-1]):
            exp, jac = lg.so3_exp_and_left_jacobian(args)
            np.testing.assert_array_equal(exp, lg.so3_exp(args))
            np.testing.assert_array_equal(jac, lg.so3_left_jacobian(args))

    def test_shared_term_pairs_match_the_separate_maps(self):
        """``so3_exp_and_right_jacobian`` and ``so3_left_and_right_jacobian_inv``
        against the separate series references (J_r, and the inverses of J_l
        and J_r) on a stack of both branches; Exp equals ``so3_exp`` bit for
        bit."""
        phi = self.rotation_vectors()
        exp, jac = lg.so3_exp_and_right_jacobian(phi)
        left, right = lg.so3_left_and_right_jacobian_inv(phi)
        np.testing.assert_array_equal(exp, lg.so3_exp(phi))
        for v, *got in zip(phi, jac, left, right):
            want = (so3_right_jacobian(v), so3_left_jacobian_inv(v), so3_right_jacobian_inv(v))
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14)


def pose_row(pose, i):
    return lg.Pose(pose.rotation[i], pose.translation[i])


class TestBatchedSe3:
    """Each SE(3) map and ``Pose`` operation on one element and on a stack,
    with angles on both sides of SMALL_ANGLE and of Q_SERIES_ANGLE."""

    # each takes a twist xi and poses p, q: one of each, or stacks of one length
    OPS = {
        "se3_exp": lambda xi, p, q: lg.se3_exp(xi),
        "se3_log": lambda xi, p, q: lg.se3_log(p),
        "se3_log_and_right_jacobian_inv": lambda xi, p, q: lg.se3_log_and_right_jacobian_inv(p),
        "compose": lambda xi, p, q: p @ q,
        "inverse": lambda xi, p, q: p.inverse(),
        "retract": lambda xi, p, q: q.retract(xi),
    }

    @staticmethod
    def twists():
        rng = np.random.default_rng(29)
        axes = rng.normal(size=(13, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.array([0.0, 1e-9, 5e-7, 9.9e-7, 1.1e-6, 1e-4, 1e-2, 0.19, 0.21, 0.7, 1.0, 2.0, 3.0])
        assert (angles < lg.SMALL_ANGLE).sum() == 4 and (angles > lg.Q_SERIES_ANGLE).sum() == 5
        return np.concatenate([axes * angles[:, None], rng.normal(size=(13, 3)) * 2.0], axis=1)

    @pytest.mark.parametrize("name", OPS)
    def test_stack_matches_single_calls(self, name):
        """A stack's rows equal the single-element calls bit for bit, and each
        call has the element's shape, with the stack's length in front."""
        op = self.OPS[name]
        xi = self.twists()
        p, q = lg.se3_exp(xi), lg.se3_exp(0.5 * xi[::-1])

        def arrays(result):
            if isinstance(result, lg.Pose):
                return result.rotation, result.translation
            return result if isinstance(result, tuple) else (result,)

        stacked = arrays(op(xi, p, q))
        for i in range(len(xi)):
            for s, one in zip(stacked, arrays(op(xi[i], pose_row(p, i), pose_row(q, i)))):
                assert s.shape == (len(xi),) + one.shape
                np.testing.assert_array_equal(s[i], one)

    def test_q_matrix_matches_the_series(self):
        """J_r^-1 of unit-length rho, whose lower-left block holds Q, against
        the inverse of the series J_r, on angles either side of both
        switches: the closed form of Q's coefficients would be off by 4e-10
        at 1e-4 rad."""
        rng = np.random.default_rng(31)
        angles = np.array([0.0, 1e-9, 9.9e-7, 1.1e-6, 2e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.19, 0.21, 0.3])
        assert (angles < lg.SMALL_ANGLE).any() and (angles > lg.Q_SERIES_ANGLE).any()
        axes, rho = rng.normal(size=(2, len(angles), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        rho /= np.linalg.norm(rho, axis=1, keepdims=True)
        xi, jac = lg.se3_log_and_right_jacobian_inv(lg.se3_exp(np.concatenate([axes * angles[:, None], rho], axis=1)))
        for got, twist in zip(jac, xi):
            np.testing.assert_allclose(got, se3_right_jacobian_inv(twist), rtol=0.0, atol=1e-13)

    def test_log_and_right_jacobian_inv_match_the_separate_maps(self):
        """The pair's twist equals ``se3_log`` bit for bit, and its J_r^-1
        the inverse of the series J_r, on a stack with angles either side of
        both switches."""
        p = lg.se3_exp(self.twists())
        xi, jac = lg.se3_log_and_right_jacobian_inv(p)
        np.testing.assert_array_equal(xi, lg.se3_log(p))
        for got, twist in zip(jac, xi):
            np.testing.assert_allclose(got, se3_right_jacobian_inv(twist), rtol=0.0, atol=1e-12)

    def test_retract_orthonormalizes_and_compose_does_not(self):
        """A rotation drifted off orthonormality is composed as it is and
        pulled back by a retraction, even by a zero step."""
        drifted = lg.Pose(lg.rot_z(0.3) * (1.0 + 1e-7), np.zeros(3))
        composed = drifted @ lg.Pose.identity()
        np.testing.assert_array_equal(composed.rotation, drifted.rotation)
        rot = drifted.retract(np.zeros(6)).rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-13

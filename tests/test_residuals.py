import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossloc import imu, residuals as res
from crossloc.liegroup import Pose, se3_exp
from crossloc.solver import FactorBatch

from oracles import (
    POINT_TO_PLANE,
    POINT_TO_POINT,
    BehindCameraError,
    Landmark,
    MapConstraint,
    MetricMismatchError,
    NavState,
    Observation,
    corrected_prediction,
    numeric_jacobian,
    point_to_plane_residual,
    point_to_point_residual,
    pose_numeric_jacobian,
    preintegration_residual,
    relative_error,
    reprojection_residual,
)

GRAVITY = np.array([0.0, 0.0, -9.81])


def default_camera(**kw):
    args = dict(fx=400.0, fy=400.0, cx=320.0, cy=320.0, width=640, height=640)
    args.update(kw)
    return res.CameraModel(**args)


def random_pose(rng, rot=0.5, trans=2.0):
    xi = np.concatenate([rng.normal(size=3) * rot, rng.normal(size=3) * trans])
    return se3_exp(xi)


class TestReprojection:
    def test_principal_point(self):
        cam = default_camera()
        state = NavState()
        lm = Landmark(np.array([0.0, 0.0, 1.0]), 0)
        obs = Observation(0, 0, np.array([320.0, 320.0]))
        r, _, _ = reprojection_residual(state, lm, obs, cam)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_direct_pinhole_arithmetic(self):
        cam = default_camera()
        state = NavState()
        lm = Landmark(np.array([0.1, 0.0, 1.0]), 0)
        obs = Observation(0, 0, np.array([320.0, 320.0]))
        r, _, _ = reprojection_residual(state, lm, obs, cam)
        assert np.allclose(r, [40.0, 0.0], atol=1e-12)

    def test_behind_camera_raises(self):
        cam = default_camera()
        state = NavState()
        lm = Landmark(np.array([0.0, 0.0, -1.0]), 0)
        obs = Observation(0, 0, np.array([320.0, 320.0]))
        with pytest.raises(BehindCameraError):
            reprojection_residual(state, lm, obs, cam)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(0)
        cam = default_camera(body_t_cam=se3_exp(np.array([0.0, -0.1, 0.05, 0.1, 0.0, 0.2])))
        obs = Observation(0, 0, np.array([300.0, 350.0]))
        checked = 0
        while checked < 200:
            pose = random_pose(rng, rot=0.4, trans=1.0)
            p_lm = pose.apply(np.array([rng.normal(0, 1), rng.normal(0, 1), rng.uniform(2, 10)]))
            state = NavState(pose=pose)
            lm = Landmark(p_lm, 0)
            try:
                _, j_pose, j_lm = reprojection_residual(state, lm, obs, cam)
            except BehindCameraError:
                continue
            fd_pose = pose_numeric_jacobian(
                lambda p: reprojection_residual(
                    NavState(pose=p), lm, obs, cam
                )[0],
                pose,
            )
            fd_lm = numeric_jacobian(
                lambda x: reprojection_residual(
                    state, Landmark(x, 0), obs, cam
                )[0],
                p_lm,
            )
            assert relative_error(j_pose, fd_pose, floor=1e-3) < 1e-5
            assert relative_error(j_lm, fd_lm, floor=1e-3) < 1e-5
            checked += 1


def random_nav_state(rng):
    return NavState(
        pose=random_pose(rng, rot=0.6, trans=3.0),
        velocity=rng.normal(size=3),
        accel_bias=rng.normal(size=3) * 0.05,
        gyro_bias=rng.normal(size=3) * 0.005,
    )


def random_preintegration(rng, duration=0.4):
    times = np.arange(int(duration * 200) + 1) / 200.0
    cw = rng.normal(size=(3, 3)) * 0.3
    ca = rng.normal(size=(3, 3)) * 1.0
    samples = np.array([
        [t, *(cw @ np.sin([0.7 * t, 1.3 * t, 2.9 * t])), *(ca @ np.cos([0.7 * t, 1.1 * t, 2.3 * t]))]
        for t in times
    ])
    return imu.integrate(samples, bias=(rng.normal(size=3) * 0.002, rng.normal(size=3) * 0.02))


class TestPreintegrationResidual:
    def test_consistent_prediction_is_zero(self):
        rng = np.random.default_rng(1)
        s_i = random_nav_state(rng)
        pre = random_preintegration(rng)
        s_k_pred = corrected_prediction(s_i, pre, GRAVITY)
        s_k = NavState(
            pose=s_k_pred.pose,
            velocity=s_k_pred.velocity,
            accel_bias=s_i.accel_bias,
            gyro_bias=s_i.gyro_bias,
        )
        e9, eb, _ = preintegration_residual(s_i, s_k, pre, GRAVITY)
        assert np.linalg.norm(e9) < 1e-9
        assert np.linalg.norm(eb) < 1e-15

    def test_position_perturbation_isolated(self):
        rng = np.random.default_rng(2)
        s_i = random_nav_state(rng)
        pre = random_preintegration(rng)
        s_k = corrected_prediction(s_i, pre, GRAVITY)
        e0, _, _ = preintegration_residual(s_i, s_k, pre, GRAVITY)
        shifted = NavState(
            pose=Pose(s_k.pose.rotation, s_k.pose.translation + np.array([0.1, 0, 0])),
            velocity=s_k.velocity,
            accel_bias=s_k.accel_bias,
            gyro_bias=s_k.gyro_bias,
        )
        e1, _, _ = preintegration_residual(s_i, shifted, pre, GRAVITY)
        expected_dp = s_i.pose.rotation.T @ np.array([0.1, 0, 0])
        assert np.allclose(e1[3:6] - e0[3:6], expected_dp, atol=1e-12)
        assert np.allclose(e1[0:3], e0[0:3], atol=1e-15)
        assert np.allclose(e1[6:9], e0[6:9], atol=1e-15)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s_i = random_nav_state(rng)
            s_k = random_nav_state(rng)
            pre = random_preintegration(rng)
            _, _, jac = preintegration_residual(s_i, s_k, pre, GRAVITY)

            def from_states(si, sk):
                return preintegration_residual(si, sk, pre, GRAVITY)[0]

            fd = pose_numeric_jacobian(
                lambda p: from_states(
                    NavState(p, s_i.velocity, s_i.accel_bias, s_i.gyro_bias), s_k
                ),
                s_i.pose,
            )
            assert relative_error(jac["pose_i"], fd, floor=1e-3) < 1e-4
            fd = pose_numeric_jacobian(
                lambda p: from_states(
                    s_i, NavState(p, s_k.velocity, s_k.accel_bias, s_k.gyro_bias)
                ),
                s_k.pose,
            )
            assert relative_error(jac["pose_k"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda v: from_states(
                    NavState(s_i.pose, v, s_i.accel_bias, s_i.gyro_bias), s_k
                ),
                s_i.velocity,
            )
            assert relative_error(jac["vel_i"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda v: from_states(
                    s_i, NavState(s_k.pose, v, s_k.accel_bias, s_k.gyro_bias)
                ),
                s_k.velocity,
            )
            assert relative_error(jac["vel_k"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda b: from_states(
                    NavState(s_i.pose, s_i.velocity, s_i.accel_bias, b), s_k
                ),
                s_i.gyro_bias,
            )
            assert relative_error(jac["gyro_bias_i"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda b: from_states(
                    NavState(s_i.pose, s_i.velocity, b, s_i.gyro_bias), s_k
                ),
                s_i.accel_bias,
            )
            assert relative_error(jac["accel_bias_i"], fd, floor=1e-3) < 1e-4


def plane_constraint(point, normal, sigma=0.05):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return MapConstraint(0, np.asarray(point, dtype=float), n, np.eye(3) / sigma**2, POINT_TO_PLANE)


class TestPointToPlane:
    def test_on_plane_is_zero(self):
        c = plane_constraint([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        anchor = se3_exp(np.array([0, 0, 0.3, 1.0, -0.5, 0.0]))
        # place the landmark so it lands on the plane z=3 after transforming
        target = np.array([5.0, -2.0, 3.0])
        lm = Landmark(anchor.inverse().apply(target), 0)
        r_n, _, _ = point_to_plane_residual(anchor, lm, c)
        assert abs(r_n) < 1e-12

    def test_direct_substitution(self):
        c = plane_constraint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        lm = Landmark(np.array([1.0, 0.0, 0.0]), 0)
        r_n, _, _ = point_to_plane_residual(Pose.identity(), lm, c)
        assert r_n == pytest.approx(-1.0, abs=1e-15)

    def test_gauge_translation_in_plane(self):
        c = plane_constraint([1.0, 2.0, 3.0], [0.2, -0.4, 0.7])
        anchor = se3_exp(np.array([0.1, 0.2, -0.1, 0.5, 1.0, -0.3]))
        lm_pos = np.array([0.3, 0.4, 2.0])
        r0, _, _ = point_to_plane_residual(anchor, Landmark(lm_pos, 0), c)
        # move the landmark so its image slides within the constraint plane
        n = c.normal
        t_map = np.cross(n, [1.0, 0.0, 0.0])
        t_map /= np.linalg.norm(t_map)
        shift_local = anchor.rotation.T @ t_map * 0.37
        r1, _, _ = point_to_plane_residual(anchor, Landmark(lm_pos + shift_local, 0), c)
        assert abs(r1 - r0) < 1e-12

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = plane_constraint(rng.normal(size=3), rng.normal(size=3))
            anchor = random_pose(rng)
            lm_pos = rng.normal(size=3)
            _, j_anchor, j_lm = point_to_plane_residual(anchor, Landmark(lm_pos, 0), c)
            fd_a = pose_numeric_jacobian(
                lambda p: point_to_plane_residual(p, Landmark(lm_pos, 0), c)[0], anchor
            )
            fd_l = numeric_jacobian(
                lambda x: point_to_plane_residual(anchor, Landmark(x, 0), c)[0], lm_pos
            )
            assert np.allclose(j_anchor, fd_a, atol=1e-6)
            assert np.allclose(j_lm, fd_l, atol=1e-6)

    def test_metric_mismatch(self):
        c = MapConstraint(0, np.zeros(3), None, np.eye(3), POINT_TO_POINT)
        with pytest.raises(MetricMismatchError):
            point_to_plane_residual(Pose.identity(), Landmark(np.zeros(3), 0), c)


class TestPointToPoint:
    def test_perfect_match(self):
        anchor = se3_exp(np.array([0.0, 0.0, 0.5, 1.0, 2.0, 3.0]))
        target = np.array([4.0, 5.0, 6.0])
        c = MapConstraint(0, target, None, np.eye(3), POINT_TO_POINT)
        lm = Landmark(anchor.inverse().apply(target), 0)
        r, _, _ = point_to_point_residual(anchor, lm, c)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_direct_subtraction(self):
        c = MapConstraint(0, np.array([1.0, 2.0, 3.0]), None, np.eye(3), POINT_TO_POINT)
        lm = Landmark(np.array([1.0, 2.0, 0.0]), 0)
        r, _, _ = point_to_point_residual(Pose.identity(), lm, c)
        assert np.allclose(r, [0.0, 0.0, 3.0], atol=1e-15)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = MapConstraint(0, rng.normal(size=3), None, np.eye(3), POINT_TO_POINT)
            anchor = random_pose(rng)
            lm_pos = rng.normal(size=3)
            _, j_anchor, j_lm = point_to_point_residual(anchor, Landmark(lm_pos, 0), c)
            fd_a = pose_numeric_jacobian(
                lambda p: point_to_point_residual(p, Landmark(lm_pos, 0), c)[0], anchor
            )
            fd_l = numeric_jacobian(
                lambda x: point_to_point_residual(anchor, Landmark(x, 0), c)[0], lm_pos
            )
            assert np.allclose(j_anchor, fd_a, atol=1e-6)
            assert np.allclose(j_lm, fd_l, atol=1e-6)


class TestAnchorPrior:
    def test_at_mean_is_zero(self):
        prior = se3_exp(np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0]))
        r, _ = res.AnchorPriorFactor.evaluate((prior,), prior)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_local_coordinates(self):
        rng = np.random.default_rng(6)
        prior = random_pose(rng)
        delta = np.array([1e-4, -2e-4, 3e-4, 1e-3, 0.0, -1e-3])
        r, _ = res.AnchorPriorFactor.evaluate((prior @ se3_exp(delta),), prior)
        assert np.allclose(r, delta, atol=1e-8)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prior = random_pose(rng)
            anchor = prior @ se3_exp(rng.normal(size=6) * 0.2)
            _, (jac,) = res.AnchorPriorFactor.evaluate((anchor,), prior)
            fd = pose_numeric_jacobian(
                lambda p: res.AnchorPriorFactor.evaluate((p,), prior)[0], anchor
            )
            assert relative_error(jac, fd, floor=1e-3) < 1e-5


class TestRobustKernel:
    def test_zero_error(self):
        for kernel in (res.RobustKernel("cauchy", 2.0), res.RobustKernel("none")):
            rho, _ = kernel.loss(0.0)
            assert rho == 0.0

    def test_cauchy_closed_form(self):
        rho, drho = res.RobustKernel("cauchy", 1.0).loss(1.0)
        assert rho == pytest.approx(np.log(2.0), abs=1e-12)
        assert drho == pytest.approx(0.5, abs=1e-12)

    def test_derivative_matches_finite_differences(self):
        kernel = res.RobustKernel("cauchy", 1.7)
        for s in (0.1, 1.0, 10.0):
            eps = 1e-6
            fd = (kernel.loss(s + eps)[0] - kernel.loss(s - eps)[0]) / (2 * eps)
            assert kernel.loss(s)[1] == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.1, 10.0))
    def test_monotone_and_concave(self, s1, s2, scale):
        kernel = res.RobustKernel("cauchy", scale)
        lo, hi = sorted((s1, s2))
        rho_lo, drho_lo = kernel.loss(lo)
        rho_hi, drho_hi = kernel.loss(hi)
        assert rho_hi >= rho_lo - 1e-12
        assert drho_hi <= drho_lo + 1e-12  # concavity: derivative non-increasing

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            res.RobustKernel("huber", 1.0)
        with pytest.raises(ValueError):
            res.RobustKernel("cauchy", 0.0)


def group(kind, slots, data, information):
    """One compiled group of ``kind``, as a Problem files it."""
    return FactorBatch(kind, slots, data, information, res.RobustKernel())


def pose_family(poses):
    """The stacked value of a pose family: rotations (n, 3, 3), translations (n, 3)."""
    return np.array([p.rotation for p in poses]), np.array([p.translation for p in poses])


def pose_at(values, family, row):
    rot, trans = values[family]
    return Pose(rot[row], trans[row])


class TestBatchedFactors:
    """``evaluate_batch`` against the one-row references, row by row."""

    @staticmethod
    def assert_close(batch, reference):
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-10)

    def test_stereo_matches_two_reprojections(self):
        rng = np.random.default_rng(8)
        cam_l = default_camera(body_t_cam=se3_exp(np.array([0.0, -0.1, 0.05, 0.1, 0.0, 0.2])))
        cam_r = default_camera(body_t_cam=cam_l.body_t_cam @ Pose(np.eye(3), np.array([0.3, 0.0, 0.0])))
        poses, landmarks, pixels = [], [], rng.uniform(100, 500, size=(40, 4))
        for i in range(40):
            pose = random_pose(rng, rot=0.4, trans=1.0)
            depth = -3.0 if i == 7 else rng.uniform(2, 10)  # landmark 7 is behind both cameras
            p_cam = np.array([rng.normal(0, 1), rng.normal(0, 1), depth])
            poses.append(pose)
            landmarks.append(pose.apply(cam_l.body_t_cam.apply(p_cam)))
        # row i of the group observes landmark i from pose 39 - i
        values = {"pose": pose_family(poses[::-1]), "lm": np.array(landmarks)}
        batch = group(
            res.StereoReprojectionFactor,
            [("pose", np.arange(40)[::-1]), ("lm", np.arange(40))],
            (pixels, cam_l, cam_r),
            res.PIXEL_INFORMATION,
        )

        residual, (j_pose, j_lm) = res.StereoReprojectionFactor.evaluate_batch(batch, values)
        assert residual.shape == (40, 4) and j_pose.shape == (40, 4, 6) and j_lm.shape == (40, 4, 3)
        for i in range(40):
            state = NavState(pose=poses[i])
            lm = Landmark(landmarks[i], i)
            if i == 7:
                with pytest.raises(BehindCameraError):
                    reprojection_residual(state, lm, Observation(0, i, pixels[i, :2]), cam_l)
                assert not residual[i].any() and not j_pose[i].any() and not j_lm[i].any()
                continue
            for c, cam in enumerate((cam_l, cam_r)):
                rows = slice(2 * c, 2 * c + 2)
                obs = Observation(0, i, pixels[i, rows])
                r, jp, jl = reprojection_residual(state, lm, obs, cam)
                self.assert_close(residual[i, rows], r)
                self.assert_close(j_pose[i, rows], jp)
                self.assert_close(j_lm[i, rows], jl)
        no_jac, _ = res.StereoReprojectionFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)

    def map_batch(self, rng, kind, constraints):
        """Values and the group of ``kind`` for one landmark per constraint,
        through row 1 of a two-row anchor family."""
        n = len(constraints)
        values = {"anchor": pose_family([random_pose(rng), random_pose(rng)]),
                  "lm": np.array([rng.normal(size=3) * 3.0 for _ in range(n)])}
        points = np.array([c.point for c in constraints])
        data = (points, np.array([c.normal for c in constraints])) if kind is res.PointToPlaneFactor else (points,)
        return values, group(kind, [("anchor", np.ones(n, int)), ("lm", np.arange(n))], data, np.eye(3))

    def test_point_to_plane_matches_reference(self):
        rng = np.random.default_rng(9)
        constraints = [plane_constraint(rng.normal(size=3) * 3.0, rng.normal(size=3)) for _ in range(30)]
        values, batch = self.map_batch(rng, res.PointToPlaneFactor, constraints)
        residual, (j_anchor, j_lm) = res.PointToPlaneFactor.evaluate_batch(batch, values)
        for i, c in enumerate(constraints):
            r_n, ja, jl = point_to_plane_residual(
                pose_at(values, "anchor", 1), Landmark(values["lm"][i], i), c
            )
            self.assert_close(residual[i], r_n * c.normal)
            self.assert_close(j_anchor[i], np.outer(c.normal, ja))
            self.assert_close(j_lm[i], np.outer(c.normal, jl))
        no_jac, _ = res.PointToPlaneFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)

    def test_point_to_point_matches_reference(self):
        rng = np.random.default_rng(10)
        constraints = [
            MapConstraint(i, rng.normal(size=3) * 3.0, None, np.eye(3), POINT_TO_POINT)
            for i in range(30)
        ]
        values, batch = self.map_batch(rng, res.PointToPointFactor, constraints)
        residual, (j_anchor, j_lm) = res.PointToPointFactor.evaluate_batch(batch, values)
        for i, c in enumerate(constraints):
            r, ja, jl = point_to_point_residual(
                pose_at(values, "anchor", 1), Landmark(values["lm"][i], i), c
            )
            self.assert_close(residual[i], r)
            self.assert_close(j_anchor[i], ja)
            self.assert_close(j_lm[i], jl)
        no_jac, _ = res.PointToPointFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)


class TestInertialBatches:
    """``evaluate_batch`` of the preintegration, bias and prior kinds against
    one-row references, on a chain of keyframes that share blocks."""

    @staticmethod
    def assert_close(batch, reference):
        np.testing.assert_allclose(batch, reference, rtol=1e-10, atol=1e-12)

    @staticmethod
    def chain(rng):
        """Five keyframes' families and the four links between them: the
        preintegrations, then the preintegration and bias slots."""
        pres = [random_preintegration(rng) for _ in range(4)]
        states = []
        state = random_nav_state(rng)
        for i in range(5):
            if i == 1:
                # at the linearization bias, the bias correction rotates by
                # exactly zero: the series branch of its exponential
                b_g, b_a = pres[1].linearization_bias
                state = NavState(state.pose, state.velocity, b_a.copy(), b_g.copy())
            states.append(state)
            if i == 4:
                break
            nxt = corrected_prediction(state, pres[i], GRAVITY)  # rotation error ~0: series branch
            if i % 2 == 0:  # far from the prediction: closed-form branch
                nxt = NavState(
                    nxt.pose.retract(rng.normal(size=6) * 0.1),
                    nxt.velocity + rng.normal(size=3) * 0.1,
                    nxt.accel_bias + rng.normal(size=3) * 0.05,
                    nxt.gyro_bias + rng.normal(size=3) * 0.005,
                )
            state = nxt
        values = {"pose": pose_family([s.pose for s in states]),
                  "vel": np.array([s.velocity for s in states]),
                  "bg": np.array([s.gyro_bias for s in states]),
                  "ba": np.array([s.accel_bias for s in states])}
        prev, curr = np.arange(4), np.arange(1, 5)
        pre_slots = [("pose", prev), ("vel", prev), ("bg", prev), ("ba", prev), ("pose", curr), ("vel", curr)]
        bias_slots = [("ba", prev), ("bg", prev), ("ba", curr), ("bg", curr)]
        return values, pres, pre_slots, bias_slots

    def assert_matches(self, batch, values, reference):
        """``reference(blocks, i)``: row i's residual and Jacobians, from its
        block values ``blocks`` (a ``Pose`` or a vector each, slot by slot)."""
        residual, jacs = batch.kind.evaluate_batch(batch, values)
        assert residual.shape[0] == len(batch)
        for i in range(len(batch)):
            blocks = [
                pose_at(values, family, rows[i]) if isinstance(values[family], tuple) else values[family][rows[i]]
                for family, rows in batch.slots
            ]
            r, js = reference(blocks, i)
            self.assert_close(residual[i], r)
            assert len(jacs) == len(js)
            for j_batch, j in zip(jacs, js):
                self.assert_close(j_batch[i], j)
        no_jac, none = batch.kind.evaluate_batch(batch, values, jacobian=False)
        assert none is None
        np.testing.assert_array_equal(no_jac, residual)
        return residual

    def test_preintegration_matches_evaluate(self):
        values, pres, slots, _ = self.chain(np.random.default_rng(21))
        batch = group(
            res.PreintegrationFactor, slots, res.stack_preintegrations(pres, GRAVITY),
            np.array([pre.information() for pre in pres]),
        )
        names = ("pose_i", "vel_i", "gyro_bias_i", "accel_bias_i", "pose_k", "vel_k")

        def reference(blocks, i):
            pose_i, vel_i, bg_i, ba_i, pose_k, vel_k = blocks
            s_i = NavState(pose=pose_i, velocity=vel_i, accel_bias=ba_i, gyro_bias=bg_i)
            r, _, j = preintegration_residual(s_i, NavState(pose=pose_k, velocity=vel_k), pres[i], GRAVITY)
            return r, [j[name] for name in names]

        residual = self.assert_matches(batch, values, reference)
        e_rot = np.linalg.norm(residual[:, :3], axis=1)
        assert (e_rot < 1e-6).sum() == 2 and (e_rot > 1e-2).sum() == 2
        # the bias correction's rotation: zero at row 1, a closed-form angle elsewhere
        db_g = [values["bg"][i] - pre.linearization_bias[0] for i, pre in enumerate(pres)]
        assert np.linalg.norm(db_g[1]) == 0.0
        assert min(np.linalg.norm(pre.J_g_dR @ d) for pre, d in zip(pres, db_g) if d.any()) > 1e-6

    def test_bias_random_walk_matches_evaluate(self):
        """The residual by direct subtraction; the Jacobians by central
        differences of the kernel on a one-row stack."""
        values, pres, _, slots = self.chain(np.random.default_rng(22))
        information = [imu.bias_information(pre.dt_total) for pre in pres]
        batch = group(res.BiasRandomWalkFactor, slots, None, information)

        def reference(blocks, i):
            ba_i, bg_i, ba_k, bg_k = blocks
            jacs = [
                numeric_jacobian(
                    lambda x: res.BiasRandomWalkFactor.evaluate(
                        [x[None] if b == a else blocks[b][None] for b in range(4)]
                    )[0][0],
                    blocks[a],
                )
                for a in range(4)
            ]
            return np.concatenate([ba_i - ba_k, bg_i - bg_k]), jacs

        self.assert_matches(batch, values, reference)

    def test_anchor_prior_matches_evaluate(self):
        rng = np.random.default_rng(23)
        anchors = [random_pose(rng) for _ in range(2)]
        values = {"anchor": pose_family(anchors)}
        means = [anchors[i % 2] @ se3_exp(rng.normal(size=6) * 0.1) for i in range(3)]
        batch = group(res.AnchorPriorFactor, [("anchor", np.arange(3) % 2)], Pose.stack(means), np.eye(6))
        self.assert_matches(batch, values, lambda blocks, i: res.AnchorPriorFactor.evaluate(blocks, means[i]))

    def test_preintegration_jacobians_match_central_differences(self):
        """The kernel's own Jacobians, on a stack of four rows, against central
        differences of its residual: a pose slot moved by ``Pose.retract`` of
        every row at once, a vector slot by an offset of every row."""
        values, pres, slots, _ = self.chain(np.random.default_rng(24))
        data = res.stack_preintegrations(pres, GRAVITY)
        blocks = [
            Pose(*(part[rows] for part in values[family])) if family == "pose" else values[family][rows]
            for family, rows in slots
        ]
        residual, jacs = res.PreintegrationFactor.evaluate(blocks, data)
        eps = 1e-6

        def moved(slot, step):
            block = blocks[slot]
            block = block.retract(step) if isinstance(block, Pose) else block + step
            return res.PreintegrationFactor.evaluate(blocks[:slot] + [block] + blocks[slot + 1 :], data, False)[0]

        for slot, jac in enumerate(jacs):
            k = jac.shape[2]
            assert jac.shape == (len(residual), 9, k) and k == (6 if slot in (0, 4) else 3)
            numeric = np.zeros_like(jac)
            for c in range(k):
                step = np.zeros((len(residual), k))
                step[:, c] = eps
                numeric[:, :, c] = (moved(slot, step) - moved(slot, -step)) / (2.0 * eps)
            np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-7, err_msg=f"slot {slot}")

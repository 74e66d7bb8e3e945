import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossloc import imu, residuals as res
from crossloc.liegroup import Pose, rot_z, se3_exp
from crossloc.solver import FactorBatch

from oracles import numeric_jacobian, pose_numeric_jacobian, relative_error

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
        state = imu.NavState()
        lm = res.Landmark(np.array([0.0, 0.0, 1.0]), 0)
        obs = res.Observation(0, 0, np.array([320.0, 320.0]))
        r, _, _ = res.reprojection_residual(state, lm, obs, cam)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_direct_pinhole_arithmetic(self):
        cam = default_camera()
        state = imu.NavState()
        lm = res.Landmark(np.array([0.1, 0.0, 1.0]), 0)
        obs = res.Observation(0, 0, np.array([320.0, 320.0]))
        r, _, _ = res.reprojection_residual(state, lm, obs, cam)
        assert np.allclose(r, [40.0, 0.0], atol=1e-12)

    def test_behind_camera_raises(self):
        cam = default_camera()
        state = imu.NavState()
        lm = res.Landmark(np.array([0.0, 0.0, -1.0]), 0)
        obs = res.Observation(0, 0, np.array([320.0, 320.0]))
        with pytest.raises(res.BehindCameraError):
            res.reprojection_residual(state, lm, obs, cam)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(0)
        cam = default_camera(body_t_cam=se3_exp(np.array([0.0, -0.1, 0.05, 0.1, 0.0, 0.2])))
        obs = res.Observation(0, 0, np.array([300.0, 350.0]))
        checked = 0
        while checked < 200:
            pose = random_pose(rng, rot=0.4, trans=1.0)
            p_lm = pose.apply(np.array([rng.normal(0, 1), rng.normal(0, 1), rng.uniform(2, 10)]))
            state = imu.NavState(pose=pose)
            lm = res.Landmark(p_lm, 0)
            try:
                _, j_pose, j_lm = res.reprojection_residual(state, lm, obs, cam)
            except res.BehindCameraError:
                continue
            fd_pose = pose_numeric_jacobian(
                lambda p: res.reprojection_residual(
                    imu.NavState(pose=p), lm, obs, cam
                )[0],
                pose,
            )
            fd_lm = numeric_jacobian(
                lambda x: res.reprojection_residual(
                    state, res.Landmark(x, 0), obs, cam
                )[0],
                p_lm,
            )
            assert relative_error(j_pose, fd_pose, floor=1e-3) < 1e-5
            assert relative_error(j_lm, fd_lm, floor=1e-3) < 1e-5
            checked += 1


def random_nav_state(rng):
    return imu.NavState(
        pose=random_pose(rng, rot=0.6, trans=3.0),
        velocity=rng.normal(size=3),
        accel_bias=rng.normal(size=3) * 0.05,
        gyro_bias=rng.normal(size=3) * 0.005,
    )


def random_preintegration(rng, duration=0.4):
    times = np.arange(int(duration * 200) + 1) / 200.0
    cw = rng.normal(size=(3, 3)) * 0.3
    ca = rng.normal(size=(3, 3)) * 1.0
    samples = [
        imu.ImuSample(t, cw @ np.sin([0.7 * t, 1.3 * t, 2.9 * t]), ca @ np.cos([0.7 * t, 1.1 * t, 2.3 * t]))
        for t in times
    ]
    return imu.integrate(samples, bias=(rng.normal(size=3) * 0.002, rng.normal(size=3) * 0.02))


class TestPreintegrationResidual:
    def test_consistent_prediction_is_zero(self):
        rng = np.random.default_rng(1)
        s_i = random_nav_state(rng)
        pre = random_preintegration(rng)
        s_k_pred = imu.predict_state(s_i, pre, GRAVITY)
        s_k = imu.NavState(
            pose=s_k_pred.pose,
            velocity=s_k_pred.velocity,
            accel_bias=s_i.accel_bias,
            gyro_bias=s_i.gyro_bias,
        )
        e9, eb, _ = res.preintegration_residual(s_i, s_k, pre, GRAVITY)
        assert np.linalg.norm(e9) < 1e-9
        assert np.linalg.norm(eb) < 1e-15

    def test_position_perturbation_isolated(self):
        rng = np.random.default_rng(2)
        s_i = random_nav_state(rng)
        pre = random_preintegration(rng)
        s_k = imu.predict_state(s_i, pre, GRAVITY)
        e0, _, _ = res.preintegration_residual(s_i, s_k, pre, GRAVITY)
        shifted = imu.NavState(
            pose=Pose(s_k.pose.rotation, s_k.pose.translation + np.array([0.1, 0, 0])),
            velocity=s_k.velocity,
            accel_bias=s_k.accel_bias,
            gyro_bias=s_k.gyro_bias,
        )
        e1, _, _ = res.preintegration_residual(s_i, shifted, pre, GRAVITY)
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
            _, _, jac = res.preintegration_residual(s_i, s_k, pre, GRAVITY)

            def from_states(si, sk):
                return res.preintegration_residual(si, sk, pre, GRAVITY)[0]

            fd = pose_numeric_jacobian(
                lambda p: from_states(
                    imu.NavState(p, s_i.velocity, s_i.accel_bias, s_i.gyro_bias), s_k
                ),
                s_i.pose,
            )
            assert relative_error(jac["pose_i"], fd, floor=1e-3) < 1e-4
            fd = pose_numeric_jacobian(
                lambda p: from_states(
                    s_i, imu.NavState(p, s_k.velocity, s_k.accel_bias, s_k.gyro_bias)
                ),
                s_k.pose,
            )
            assert relative_error(jac["pose_k"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda v: from_states(
                    imu.NavState(s_i.pose, v, s_i.accel_bias, s_i.gyro_bias), s_k
                ),
                s_i.velocity,
            )
            assert relative_error(jac["vel_i"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda v: from_states(
                    s_i, imu.NavState(s_k.pose, v, s_k.accel_bias, s_k.gyro_bias)
                ),
                s_k.velocity,
            )
            assert relative_error(jac["vel_k"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda b: from_states(
                    imu.NavState(s_i.pose, s_i.velocity, s_i.accel_bias, b), s_k
                ),
                s_i.gyro_bias,
            )
            assert relative_error(jac["gyro_bias_i"], fd, floor=1e-3) < 1e-4
            fd = numeric_jacobian(
                lambda b: from_states(
                    imu.NavState(s_i.pose, s_i.velocity, b, s_i.gyro_bias), s_k
                ),
                s_i.accel_bias,
            )
            assert relative_error(jac["accel_bias_i"], fd, floor=1e-3) < 1e-4


def plane_constraint(point, normal, sigma=0.05):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return res.MapConstraint(0, np.asarray(point, dtype=float), n, np.eye(3) / sigma**2, res.POINT_TO_PLANE)


class TestPointToPlane:
    def test_on_plane_is_zero(self):
        c = plane_constraint([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        anchor = se3_exp(np.array([0, 0, 0.3, 1.0, -0.5, 0.0]))
        # place the landmark so it lands on the plane z=3 after transforming
        target = np.array([5.0, -2.0, 3.0])
        lm = res.Landmark(anchor.inverse().apply(target), 0)
        r_n, _, _ = res.point_to_plane_residual(anchor, lm, c)
        assert abs(r_n) < 1e-12

    def test_direct_substitution(self):
        c = plane_constraint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        lm = res.Landmark(np.array([1.0, 0.0, 0.0]), 0)
        r_n, _, _ = res.point_to_plane_residual(Pose.identity(), lm, c)
        assert r_n == pytest.approx(-1.0, abs=1e-15)

    def test_gauge_translation_in_plane(self):
        c = plane_constraint([1.0, 2.0, 3.0], [0.2, -0.4, 0.7])
        anchor = se3_exp(np.array([0.1, 0.2, -0.1, 0.5, 1.0, -0.3]))
        lm_pos = np.array([0.3, 0.4, 2.0])
        r0, _, _ = res.point_to_plane_residual(anchor, res.Landmark(lm_pos, 0), c)
        # move the landmark so its image slides within the constraint plane
        n = c.normal
        t_map = np.cross(n, [1.0, 0.0, 0.0])
        t_map /= np.linalg.norm(t_map)
        shift_local = anchor.rotation.T @ t_map * 0.37
        r1, _, _ = res.point_to_plane_residual(anchor, res.Landmark(lm_pos + shift_local, 0), c)
        assert abs(r1 - r0) < 1e-12

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = plane_constraint(rng.normal(size=3), rng.normal(size=3))
            anchor = random_pose(rng)
            lm_pos = rng.normal(size=3)
            _, j_anchor, j_lm = res.point_to_plane_residual(anchor, res.Landmark(lm_pos, 0), c)
            fd_a = pose_numeric_jacobian(
                lambda p: res.point_to_plane_residual(p, res.Landmark(lm_pos, 0), c)[0], anchor
            )
            fd_l = numeric_jacobian(
                lambda x: res.point_to_plane_residual(anchor, res.Landmark(x, 0), c)[0], lm_pos
            )
            assert np.allclose(j_anchor, fd_a, atol=1e-6)
            assert np.allclose(j_lm, fd_l, atol=1e-6)

    def test_metric_mismatch(self):
        c = res.MapConstraint(0, np.zeros(3), None, np.eye(3), res.POINT_TO_POINT)
        with pytest.raises(res.MetricMismatchError):
            res.point_to_plane_residual(Pose.identity(), res.Landmark(np.zeros(3), 0), c)


class TestPointToPoint:
    def test_perfect_match(self):
        anchor = se3_exp(np.array([0.0, 0.0, 0.5, 1.0, 2.0, 3.0]))
        target = np.array([4.0, 5.0, 6.0])
        c = res.MapConstraint(0, target, None, np.eye(3), res.POINT_TO_POINT)
        lm = res.Landmark(anchor.inverse().apply(target), 0)
        r, _, _ = res.point_to_point_residual(anchor, lm, c)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_direct_subtraction(self):
        c = res.MapConstraint(0, np.array([1.0, 2.0, 3.0]), None, np.eye(3), res.POINT_TO_POINT)
        lm = res.Landmark(np.array([1.0, 2.0, 0.0]), 0)
        r, _, _ = res.point_to_point_residual(Pose.identity(), lm, c)
        assert np.allclose(r, [0.0, 0.0, 3.0], atol=1e-15)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = res.MapConstraint(0, rng.normal(size=3), None, np.eye(3), res.POINT_TO_POINT)
            anchor = random_pose(rng)
            lm_pos = rng.normal(size=3)
            _, j_anchor, j_lm = res.point_to_point_residual(anchor, res.Landmark(lm_pos, 0), c)
            fd_a = pose_numeric_jacobian(
                lambda p: res.point_to_point_residual(p, res.Landmark(lm_pos, 0), c)[0], anchor
            )
            fd_l = numeric_jacobian(
                lambda x: res.point_to_point_residual(anchor, res.Landmark(x, 0), c)[0], lm_pos
            )
            assert np.allclose(j_anchor, fd_a, atol=1e-6)
            assert np.allclose(j_lm, fd_l, atol=1e-6)


class TestAnchorPrior:
    def test_at_mean_is_zero(self):
        prior = se3_exp(np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0]))
        r, _ = res.anchor_prior_residual(prior, prior)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_local_coordinates(self):
        rng = np.random.default_rng(6)
        prior = random_pose(rng)
        delta = np.array([1e-4, -2e-4, 3e-4, 1e-3, 0.0, -1e-3])
        r, _ = res.anchor_prior_residual(prior @ se3_exp(delta), prior)
        assert np.allclose(r, delta, atol=1e-8)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prior = random_pose(rng)
            anchor = prior @ se3_exp(rng.normal(size=6) * 0.2)
            _, jac = res.anchor_prior_residual(anchor, prior)
            fd = pose_numeric_jacobian(
                lambda p: res.anchor_prior_residual(p, prior)[0], anchor
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


def group(kind, blocks, data, information):
    """One compiled group of ``kind``, as a Problem files it."""
    return FactorBatch(kind, blocks, data, information, res.RobustKernel())


class TestBatchedFactors:
    """``evaluate_batch`` against the bare residual functions, row by row."""

    @staticmethod
    def assert_close(batch, reference):
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-10)

    def test_stereo_matches_two_reprojections(self):
        rng = np.random.default_rng(8)
        cam_l = default_camera(body_t_cam=se3_exp(np.array([0.0, -0.1, 0.05, 0.1, 0.0, 0.2])))
        cam_r = default_camera(body_t_cam=cam_l.body_t_cam @ Pose(np.eye(3), np.array([0.3, 0.0, 0.0])))
        values, pixels = {}, rng.uniform(100, 500, size=(40, 4))
        for i in range(40):
            pose = random_pose(rng, rot=0.4, trans=1.0)
            depth = -3.0 if i == 7 else rng.uniform(2, 10)  # landmark 7 is behind both cameras
            p_cam = np.array([rng.normal(0, 1), rng.normal(0, 1), depth])
            values[f"pose{i}"] = pose
            values[f"lm{i}"] = pose.apply(cam_l.body_t_cam.apply(p_cam))
        batch = group(
            res.StereoReprojectionFactor,
            [[f"pose{i}" for i in range(40)], [f"lm{i}" for i in range(40)]],
            (pixels, cam_l, cam_r),
            res.PIXEL_INFORMATION,
        )

        residual, (j_pose, j_lm) = res.StereoReprojectionFactor.evaluate_batch(batch, values)
        assert residual.shape == (40, 4) and j_pose.shape == (40, 4, 6) and j_lm.shape == (40, 4, 3)
        for i in range(40):
            state = imu.NavState(pose=values[f"pose{i}"])
            lm = res.Landmark(values[f"lm{i}"], i)
            if i == 7:
                with pytest.raises(res.BehindCameraError):
                    res.reprojection_residual(state, lm, res.Observation(0, i, pixels[i, :2]), cam_l)
                assert not residual[i].any() and not j_pose[i].any() and not j_lm[i].any()
                continue
            for c, cam in enumerate((cam_l, cam_r)):
                rows = slice(2 * c, 2 * c + 2)
                obs = res.Observation(0, i, pixels[i, rows])
                r, jp, jl = res.reprojection_residual(state, lm, obs, cam)
                self.assert_close(residual[i, rows], r)
                self.assert_close(j_pose[i, rows], jp)
                self.assert_close(j_lm[i, rows], jl)
        no_jac, _ = res.StereoReprojectionFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)

    def map_batch(self, rng, kind, constraints):
        """Values and the group of ``kind`` for one landmark per constraint."""
        values = {"anchor": random_pose(rng)}
        for i in range(len(constraints)):
            values[f"lm{i}"] = rng.normal(size=3) * 3.0
        points = np.array([c.point for c in constraints])
        data = (points, np.array([c.normal for c in constraints])) if kind is res.PointToPlaneFactor else (points,)
        blocks = [["anchor"] * len(constraints), [f"lm{i}" for i in range(len(constraints))]]
        return values, group(kind, blocks, data, np.eye(3))

    def test_point_to_plane_matches_reference(self):
        rng = np.random.default_rng(9)
        constraints = [plane_constraint(rng.normal(size=3) * 3.0, rng.normal(size=3)) for _ in range(30)]
        values, batch = self.map_batch(rng, res.PointToPlaneFactor, constraints)
        residual, (j_anchor, j_lm) = res.PointToPlaneFactor.evaluate_batch(batch, values)
        for i, c in enumerate(constraints):
            r_n, ja, jl = res.point_to_plane_residual(
                values["anchor"], res.Landmark(values[f"lm{i}"], i), c
            )
            self.assert_close(residual[i], r_n * c.normal)
            self.assert_close(j_anchor[i], np.outer(c.normal, ja))
            self.assert_close(j_lm[i], np.outer(c.normal, jl))
        no_jac, _ = res.PointToPlaneFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)

    def test_point_to_point_matches_reference(self):
        rng = np.random.default_rng(10)
        constraints = [
            res.MapConstraint(i, rng.normal(size=3) * 3.0, None, np.eye(3), res.POINT_TO_POINT)
            for i in range(30)
        ]
        values, batch = self.map_batch(rng, res.PointToPointFactor, constraints)
        residual, (j_anchor, j_lm) = res.PointToPointFactor.evaluate_batch(batch, values)
        for i, c in enumerate(constraints):
            r, ja, jl = res.point_to_point_residual(
                values["anchor"], res.Landmark(values[f"lm{i}"], i), c
            )
            self.assert_close(residual[i], r)
            self.assert_close(j_anchor[i], ja)
            self.assert_close(j_lm[i], jl)
        no_jac, _ = res.PointToPointFactor.evaluate_batch(batch, values, jacobian=False)
        assert np.array_equal(no_jac, residual)


class TestInertialBatches:
    """``evaluate_batch`` of the preintegration and bias kinds against their
    one-row ``evaluate``, on a chain of keyframes that share blocks."""

    @staticmethod
    def assert_close(batch, reference):
        np.testing.assert_allclose(batch, reference, rtol=1e-10, atol=1e-12)

    @staticmethod
    def chain(rng):
        pres = [random_preintegration(rng) for _ in range(4)]
        values, pre_keys, bias_keys = {}, [], []
        state = random_nav_state(rng)
        for i in range(5):
            if i == 1:
                # at the linearization bias, the bias correction rotates by
                # exactly zero: the series branch of its exponential
                b_g, b_a = pres[1].linearization_bias
                state = imu.NavState(state.pose, state.velocity, b_a.copy(), b_g.copy())
            values.update({f"pose{i}": state.pose, f"vel{i}": state.velocity,
                           f"bg{i}": state.gyro_bias, f"ba{i}": state.accel_bias})
            if i == 4:
                break
            pre_keys.append((f"pose{i}", f"vel{i}", f"bg{i}", f"ba{i}", f"pose{i + 1}", f"vel{i + 1}"))
            bias_keys.append((f"ba{i}", f"bg{i}", f"ba{i + 1}", f"bg{i + 1}"))
            nxt = imu.predict_state(state, pres[i], GRAVITY)  # rotation error ~0: series branch
            if i % 2 == 0:  # far from the prediction: closed-form branch
                nxt = imu.NavState(
                    nxt.pose.retract(rng.normal(size=6) * 0.1),
                    nxt.velocity + rng.normal(size=3) * 0.1,
                    nxt.accel_bias + rng.normal(size=3) * 0.05,
                    nxt.gyro_bias + rng.normal(size=3) * 0.005,
                )
            state = nxt
        return values, pres, pre_keys, bias_keys

    def assert_matches_evaluate(self, batch, values, row_data):
        """``row_data[i]``: what row i's ``evaluate`` takes after its keys."""
        cls = batch.kind
        residual, jacs = cls.evaluate_batch(batch, values)
        assert residual.shape[0] == len(batch) == len(row_data)
        row_keys = zip(*([keys[i] for i in index] for keys, index in zip(batch.keys, batch.index)))
        for i, (keys, data) in enumerate(zip(row_keys, row_data)):
            r, js = cls.evaluate(values, keys, *data)
            self.assert_close(residual[i], r)
            assert len(jacs) == len(js)
            for j_batch, j in zip(jacs, js):
                self.assert_close(j_batch[i], j)
        no_jac, none = cls.evaluate_batch(batch, values, jacobian=False)
        assert none is None
        np.testing.assert_array_equal(no_jac, residual)
        return residual

    def test_preintegration_matches_evaluate(self):
        values, pres, keys, _ = self.chain(np.random.default_rng(21))
        batch = group(
            res.PreintegrationFactor, list(zip(*keys)), res.stack_preintegrations(pres, GRAVITY),
            np.array([pre.information() for pre in pres]),
        )
        residual = self.assert_matches_evaluate(batch, values, [(pre, GRAVITY) for pre in pres])
        e_rot = np.linalg.norm(residual[:, :3], axis=1)
        assert (e_rot < 1e-6).sum() == 2 and (e_rot > 1e-2).sum() == 2
        # the bias correction's rotation: zero at row 1, a closed-form angle elsewhere
        db_g = [values[k[2]] - pre.linearization_bias[0] for k, pre in zip(keys, pres)]
        assert np.linalg.norm(db_g[1]) == 0.0
        assert min(np.linalg.norm(pre.J_g_dR @ d) for pre, d in zip(pres, db_g) if d.any()) > 1e-6

    def test_bias_random_walk_matches_evaluate(self):
        values, pres, _, keys = self.chain(np.random.default_rng(22))
        information = [imu.bias_information(imu.ImuNoiseModel(), pre.dt_total) for pre in pres]
        batch = group(res.BiasRandomWalkFactor, list(zip(*keys)), None, information)
        self.assert_matches_evaluate(batch, values, [()] * len(pres))

    def test_anchor_prior_matches_evaluate(self):
        rng = np.random.default_rng(23)
        values = {f"anchor{i}": random_pose(rng) for i in range(2)}
        means = [values[f"anchor{i % 2}"] @ se3_exp(rng.normal(size=6) * 0.1) for i in range(3)]
        batch = group(
            res.AnchorPriorFactor, [[f"anchor{i % 2}" for i in range(3)]], means, np.eye(6)
        )
        self.assert_matches_evaluate(batch, values, [(mean,) for mean in means])

import numpy as np
import pytest

from crossloc import imu
from crossloc.liegroup import Pose, rot_z, se3_exp, so3_exp, so3_log

from oracles import bias_corrected_delta, integrate_loop, integrate_per_sample

GRAVITY = np.array([0.0, 0.0, -9.81])
ZERO_BIAS = (np.zeros(3), np.zeros(3))


def make_stream(times, gyro_fn, accel_fn):
    """An (N, 7) stream: each row t, gyro_fn(t), accel_fn(t)."""
    return np.array([[t, *gyro_fn(t), *accel_fn(t)] for t in times], dtype=float).reshape(-1, 7)


def wiggly_stream(duration=1.0, rate=200.0, seed=0, scale=1.0):
    """Smooth band-limited signals, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    cw = rng.normal(size=(3, 3)) * 0.3 * scale
    ca = rng.normal(size=(3, 3)) * 1.0 * scale
    freqs = np.array([0.7, 1.3, 2.9])

    def gyro(t):
        return cw @ np.sin(freqs * t + 0.3)

    def accel(t):
        return ca @ np.cos(freqs * t)

    n = int(round(duration * rate))
    times = np.arange(n + 1) / rate
    return make_stream(times, gyro, accel)


def uneven_stream(seed):
    """``wiggly_stream``'s signals at 60 timestamps with uneven gaps of 1 to 12 ms."""
    times = np.cumsum(np.random.default_rng(seed).uniform(0.001, 0.012, 60))
    wiggly = wiggly_stream(duration=1.0, seed=seed)
    return np.column_stack([times, wiggly[:60, 1:]])


class TestIntegrate:
    def test_null_motion(self):
        stream = make_stream(np.linspace(0, 2, 50), lambda t: [0, 0, 0], lambda t: [0, 0, 0])
        pre = imu.integrate(stream)
        assert np.allclose(pre.delta_R, np.eye(3), atol=1e-15)
        assert np.allclose(pre.delta_v, 0, atol=1e-15)
        assert np.allclose(pre.delta_p, 0, atol=1e-15)

    def test_constant_acceleration_closed_form(self):
        times = np.linspace(0.0, 1.0, 100)
        stream = make_stream(times, lambda t: [0, 0, 0], lambda t: [1.0, 0, 0])
        pre = imu.integrate(stream)
        assert np.allclose(pre.delta_v, [1.0, 0, 0], atol=1e-9)
        assert np.allclose(pre.delta_p, [0.5, 0, 0], atol=1e-3)

    def test_constant_rate_rotation_closed_form(self):
        times = np.linspace(0.0, 2.0, 400)
        stream = make_stream(times, lambda t: [0, 0, 0.5], lambda t: [0, 0, 0])
        pre = imu.integrate(stream)
        assert np.allclose(so3_log(pre.delta_R), [0, 0, 1.0], atol=1e-6)

    def test_dt_total_is_sum_of_intervals(self):
        times = np.cumsum(np.abs(np.random.default_rng(1).normal(0.005, 0.001, 300)))
        stream = make_stream(times, lambda t: [0.1, 0, 0], lambda t: [0, 0, 9.81])
        pre = imu.integrate(stream)
        assert abs(pre.dt_total - (times[-1] - times[0])) < 1e-12

    def test_empty_stream_rejected(self):
        with pytest.raises(imu.EmptyStreamError):
            imu.integrate(np.zeros((1, 7)))

    def test_non_monotonic_rejected(self):
        stream = make_stream([0.0, 0.1, 0.1], lambda t: [0, 0, 0], lambda t: [0, 0, 0])
        with pytest.raises(imu.NonMonotonicTimestampsError):
            imu.integrate(stream)

    def test_result_owns_its_linearization_bias(self):
        """Writing into a result's bias changes neither a later default-bias
        integration nor the caller's arrays."""
        stream = wiggly_stream(duration=0.2, seed=4)
        reference = imu.integrate(stream)
        imu.integrate(stream).linearization_bias[0][:] = 0.5
        np.testing.assert_array_equal(imu.integrate(stream).delta_R, reference.delta_R)
        bias = (np.array([0.01, -0.02, 0.03]), np.array([0.1, 0.0, -0.1]))
        given = tuple(b.copy() for b in bias)
        pre = imu.integrate(stream, bias)
        for b in pre.linearization_bias:
            b[:] = 7.0
        np.testing.assert_array_equal(bias, given)

    @pytest.mark.parametrize("gyro_scale", [1.0, 0.0])
    def test_matches_per_sample_loop(self, gyro_scale):
        """The batched per-interval terms give the per-sample loop's result up
        to rounding, on both branches of the SO(3) coefficients: every field
        within 1e-12 relative or 1e-15 absolute."""
        wiggly = wiggly_stream(duration=1.0, seed=31)
        stream = np.column_stack([wiggly[:, 0], gyro_scale * wiggly[:, 1:4], wiggly[:, 4:]])
        bias = (np.array([0.01, -0.02, 0.005]) * gyro_scale, np.array([0.1, 0.0, -0.05]))
        pre = imu.integrate(stream, bias)
        densities = imu.GYRO_NOISE_DENSITY, imu.ACCEL_NOISE_DENSITY
        for name, want in integrate_per_sample(stream, bias, *densities).items():
            np.testing.assert_allclose(getattr(pre, name), want, rtol=1e-12, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize(
        "stream, bias",
        [
            (wiggly_stream(duration=0.005, seed=37), ZERO_BIAS),  # one interval
            (uneven_stream(seed=41), ZERO_BIAS),
            (wiggly_stream(duration=0.3, seed=43), (np.array([0.02, -0.01, 0.03]), np.array([0.2, 0.0, -0.1]))),
            (wiggly_stream(duration=1.0, seed=47), ZERO_BIAS),  # 200 intervals
        ],
        ids=["one-interval", "uneven-dt", "biased", "200-intervals"],
    )
    def test_matches_interval_loop_bitwise(self, stream, bias):
        """The cumulative sums and stacked terms keep the interval loop's
        rounding: every field equal bit for bit."""
        pre = imu.integrate(stream, bias)
        want = integrate_loop(stream, bias, imu.GYRO_NOISE_DENSITY, imu.ACCEL_NOISE_DENSITY)
        assert set(want) == set(imu.PreintegratedImu.__dataclass_fields__) - {"linearization_bias"}
        for name, value in want.items():
            np.testing.assert_array_equal(getattr(pre, name), value, err_msg=name)

    def test_covariance_psd_and_monotone_trace(self):
        stream = wiggly_stream(duration=0.5, seed=3)
        traces = []
        for n in range(2, len(stream) + 1, 10):
            pre = imu.integrate(stream[:n])
            eig = np.linalg.eigvalsh(pre.covariance)
            assert eig.min() > -1e-12
            traces.append(np.trace(pre.covariance))
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_composition_consistency(self):
        stream = wiggly_stream(duration=1.0, rate=200, seed=5)
        half = len(stream) // 2
        state0 = (
            se3_exp(np.array([0.1, -0.2, 0.3, 1.0, 2.0, -1.0])),
            np.array([0.5, -0.3, 0.2]),
        )
        full = imu.predict_state(*state0, imu.integrate(stream), GRAVITY)
        mid = imu.predict_state(*state0, imu.integrate(stream[: half + 1]), GRAVITY)
        chained = imu.predict_state(*mid, imu.integrate(stream[half:]), GRAVITY)
        assert np.allclose(chained[0].translation, full[0].translation, atol=1e-6)
        assert np.allclose(chained[1], full[1], atol=1e-6)
        rel = so3_log(chained[0].rotation.T @ full[0].rotation)
        assert np.linalg.norm(rel) < 1e-6


class TestBiasCorrection:
    def test_zero_correction_is_identity(self):
        stream = wiggly_stream(seed=7)
        bias = (np.array([0.01, -0.02, 0.005]), np.array([0.1, 0.0, -0.05]))
        pre = imu.integrate(stream, bias=bias)
        d_rot, d_p, d_v = bias_corrected_delta(pre, bias)
        assert np.array_equal(d_p, pre.delta_p + 0.0)
        assert np.allclose(d_rot, pre.delta_R, atol=1e-15)
        assert np.allclose(d_v, pre.delta_v, atol=1e-15)

    def test_gyro_correction_matches_reintegration(self):
        stream = wiggly_stream(duration=1.0, seed=11)
        pre = imu.integrate(stream)
        db_g = np.array([1e-3, 0.0, 0.0])
        d_rot, d_p, d_v = bias_corrected_delta(pre, (db_g, np.zeros(3)))
        # re-integration oracle: measured omega with bias b equals raw minus b
        re = imu.integrate(stream, bias=(db_g, np.zeros(3)))
        assert np.linalg.norm(so3_log(d_rot.T @ re.delta_R)) < 1e-5
        assert np.allclose(d_p, re.delta_p, atol=1e-5)
        assert np.allclose(d_v, re.delta_v, atol=1e-5)

    def test_accel_correction_zero_rotation_stream(self):
        times = np.linspace(0, 1, 200)
        stream = make_stream(times, lambda t: [0, 0, 0], lambda t: [np.sin(t), 0.2, 1.0])
        pre = imu.integrate(stream)
        db_a = np.array([0.0, 1e-2, 0.0])
        _, d_p, _ = bias_corrected_delta(pre, (np.zeros(3), db_a))
        assert np.allclose(d_p - pre.delta_p, pre.J_a_dp @ db_a, atol=1e-15)
        re = imu.integrate(stream, bias=(np.zeros(3), db_a))
        assert np.allclose(d_p, re.delta_p, atol=1e-7)

    def test_bias_jacobians_match_finite_differences(self):
        stream = wiggly_stream(duration=0.6, seed=13)
        pre = imu.integrate(stream)
        delta = 1e-5
        for axis in range(3):
            db = np.zeros(3)
            db[axis] = delta
            plus = imu.integrate(stream, bias=(db, np.zeros(3)))
            minus = imu.integrate(stream, bias=(-db, np.zeros(3)))
            fd_dr = so3_log(minus.delta_R.T @ plus.delta_R) / (2 * delta)
            fd_dp = (plus.delta_p - minus.delta_p) / (2 * delta)
            fd_dv = (plus.delta_v - minus.delta_v) / (2 * delta)
            assert np.allclose(fd_dr, pre.J_g_dR[:, axis], rtol=1e-4, atol=1e-8)
            assert np.allclose(fd_dp, pre.J_g_dp[:, axis], rtol=1e-4, atol=1e-8)
            assert np.allclose(fd_dv, pre.J_g_dv[:, axis], rtol=1e-4, atol=1e-8)
            plus = imu.integrate(stream, bias=(np.zeros(3), db))
            minus = imu.integrate(stream, bias=(np.zeros(3), -db))
            fd_dp = (plus.delta_p - minus.delta_p) / (2 * delta)
            fd_dv = (plus.delta_v - minus.delta_v) / (2 * delta)
            assert np.allclose(fd_dp, pre.J_a_dp[:, axis], rtol=1e-4, atol=1e-8)
            assert np.allclose(fd_dv, pre.J_a_dv[:, axis], rtol=1e-4, atol=1e-8)


class TestPredictState:
    def test_free_fall(self):
        times = np.linspace(0, 1, 101)
        stream = make_stream(times, lambda t: [0, 0, 0], lambda t: [0, 0, 0])
        pre = imu.integrate(stream)
        pose, velocity = imu.predict_state(Pose.identity(), np.zeros(3), pre, GRAVITY)
        assert np.allclose(pose.translation, [0, 0, -4.905], atol=1e-9)
        assert np.allclose(velocity, [0, 0, -9.81], atol=1e-9)

    def test_hover_cancels_gravity(self):
        times = np.linspace(0, 1, 101)
        stream = make_stream(times, lambda t: [0, 0, 0], lambda t: [0, 0, 9.81])
        pre = imu.integrate(stream)
        pose, velocity = imu.predict_state(Pose.identity(), np.zeros(3), pre, GRAVITY)
        assert np.allclose(pose.translation, 0, atol=1e-9)
        assert np.allclose(velocity, 0, atol=1e-9)

    def test_matches_oversampled_integration(self):
        # oracle: direct 10x-oversampled mechanization of the same signals
        rng = np.random.default_rng(17)
        cw = rng.normal(size=(3, 3)) * 0.3
        ca = rng.normal(size=(3, 3)) * 1.0
        freqs = np.array([0.7, 1.3, 2.9])
        gyro = lambda t: cw @ np.sin(freqs * t + 0.3)
        accel = lambda t: ca @ np.cos(freqs * t)

        pose0 = Pose(rot_z(0.4), np.array([1.0, -2.0, 0.5]))
        velocity0 = np.array([0.3, 0.1, -0.2])
        base = make_stream(np.arange(201) / 400.0, gyro, accel)
        out, _ = imu.predict_state(pose0, velocity0, imu.integrate(base), GRAVITY)

        rot = pose0.rotation.copy()
        pos = pose0.translation.copy()
        vel = velocity0.copy()
        fine = np.arange(2001) / 4000.0
        for t0, t1 in zip(fine[:-1], fine[1:]):
            dt = t1 - t0
            w = 0.5 * (gyro(t0) + gyro(t1))
            a = 0.5 * (accel(t0) + accel(t1))
            acc_w = rot @ a + GRAVITY
            pos = pos + vel * dt + 0.5 * acc_w * dt * dt
            vel = vel + acc_w * dt
            rot = rot @ so3_exp(w * dt)
        assert np.allclose(out.translation, pos, atol=1e-4)

    def test_prediction_consistent_with_biases(self):
        stream = wiggly_stream(seed=23)
        bias = (np.array([0.002, -0.001, 0.003]), np.array([0.05, -0.02, 0.01]))
        pre = imu.integrate(stream, bias=bias)
        # integrated at the keyframe's biases: deltas used uncorrected
        velocity0 = np.zeros(3)
        pose, velocity = imu.predict_state(Pose.identity(), velocity0, pre, GRAVITY)
        dt = pre.dt_total
        expected_p = velocity0 * dt + 0.5 * GRAVITY * dt * dt + pre.delta_p
        expected_v = velocity0 + GRAVITY * dt + pre.delta_v
        assert np.allclose(pose.translation, expected_p, atol=1e-15)
        assert np.allclose(velocity, expected_v, atol=1e-15)
        assert np.allclose(pose.rotation, pre.delta_R, atol=1e-12)

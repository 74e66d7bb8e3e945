import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from crossloc import imu, simulator as sim
from crossloc.liegroup import Pose, rot_z, so3_exp
from crossloc.session import LaserModel, SensorRig
from crossloc.residuals import CameraModel

GRAVITY = np.array([0.0, 0.0, -9.81])


def static_sampled(n=100, rate=200.0, yaw=0.3, pos=(1.0, 2.0, 0.5)):
    times = np.arange(n) / rate
    return sim.SampledTrajectory(
        imu_times=times,
        positions=np.tile(np.asarray(pos, dtype=float), (n, 1)),
        velocities=np.zeros((n, 3)),
        accelerations=np.zeros((n, 3)),
        yaws=np.full(n, yaw),
        yaw_rates=np.zeros(n),
        stride=20,
    )


class TestTrajectory:
    def test_two_waypoints_straight_line(self):
        spec = sim.TrajectorySpec(np.array([[0.0, 0, 0.5], [10.0, 0, 0.5]]), speed=2.0)
        sampler = sim.generate_trajectory(spec, 200, 10)
        sampled = sampler.sample(5.0)
        assert np.allclose(sampled.velocities, [2.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(sampled.accelerations, 0.0, atol=1e-9)
        assert np.allclose(sampled.yaw_rates, 0.0, atol=1e-12)
        assert np.allclose(sampled.yaws, 0.0, atol=1e-12)
        assert np.allclose(
            sampled.positions[:, 0], 2.0 * sampled.imu_times, atol=1e-9
        )

    def test_circular_ring_centripetal(self):
        radius, speed = 10.0, 2.0
        ang = np.linspace(0, 2 * np.pi, 97)
        wp = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full_like(ang, 0.5)])
        sampler = sim.generate_trajectory(sim.TrajectorySpec(wp, speed=speed), 200, 10)
        sampled = sampler.sample(10.0)
        mags = np.linalg.norm(sampled.accelerations, axis=1)
        expected = speed * speed / radius
        assert np.all(np.abs(mags - expected) / expected < 0.01)

    def test_reverse_is_time_reversed_with_flipped_yaw(self):
        wp = np.array([[0.0, 0, 0.5], [4.0, 1.0, 0.5], [8.0, 0.0, 0.5], [12.0, -1.0, 0.5]])
        fwd = sim.generate_trajectory(sim.TrajectorySpec(wp, speed=2.0), 200, 10)
        rev = sim.generate_trajectory(
            sim.TrajectorySpec(wp, speed=2.0, direction="reverse"), 200, 10
        )
        total = fwd.total_time
        assert rev.total_time == pytest.approx(total, abs=1e-12)
        for t in (0.3, 1.7, total - 0.2):
            pf, _, _, yf, _ = fwd.states_at(t)
            pr, _, _, yr, _ = rev.states_at(total - t)
            assert np.allclose(pf, pr, atol=1e-9)
            dyaw = (yr - yf - np.pi) % (2 * np.pi)
            assert min(dyaw, 2 * np.pi - dyaw) < 1e-9

    def test_ends_half_a_millimetre_apart_stay_open(self):
        """Closing a route takes its ends within 1e-12 m, with no tolerance
        relative to their size: 0.5 mm apart at x = 100 m is an open route,
        and its last waypoint stays where it is."""
        wp = np.array([[100.0, 0, 0.5], [110.0, 8.0, 0.5], [90.0, 8.0, 0.5], [100.0005, 0, 0.5]])
        sampler = sim.generate_trajectory(sim.TrajectorySpec(wp), 200, 10)
        assert not sampler.closed
        np.testing.assert_allclose(sampler.states_at(sampler.total_time)[0], wp[-1], rtol=0, atol=1e-9)
        wp[-1] = wp[0] + 1e-13
        assert sim.generate_trajectory(sim.TrajectorySpec(wp), 200, 10).closed

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            sim.TrajectorySpec(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            sim.TrajectorySpec(np.zeros((3, 3)), speed=-1.0)
        with pytest.raises(ValueError):
            sim.generate_trajectory(
                sim.TrajectorySpec(np.array([[0.0, 0, 0], [1.0, 0, 0]])), 200, 7
            )


def _assert_matches_cubic_spline(spec):
    """The sampler's positions, velocities and accelerations over 1.25 runs
    of the route, and at its knots, against scipy's ``CubicSpline``:
    periodic through a closed route, natural through an open one, whose end
    states hold past its end."""
    sampler = sim.generate_trajectory(spec, 200, 10)
    wp = np.array(spec.waypoints, dtype=float)[:: -1 if spec.direction == "reverse" else 1]
    knots = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1) / spec.speed)])
    closed = bool(np.all(np.abs(wp[0] - wp[-1]) <= 1e-12))
    assert sampler.closed == closed
    spline = CubicSpline(knots, wp, bc_type="periodic" if closed else "natural", axis=0)
    times = np.concatenate([np.linspace(0.0, 1.25 * knots[-1], 1001), knots])
    if not closed:
        times = np.clip(times, knots[0], knots[-1])
    for got, nu in zip(sampler.states_at(times)[:3], (0, 1, 2)):
        np.testing.assert_allclose(got, spline(times, nu), rtol=1e-13, atol=1e-12)


class TestRouteSpline:
    """The route spline against scipy's ``CubicSpline``. Both solve the same
    knot system, each in its own order of arithmetic, so they agree to
    rounding, 1e-13 relative, not bit for bit."""

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_default_routes(self, direction):
        _assert_matches_cubic_spline(sim.default_trajectory_spec(direction))

    def test_three_row_closed_route(self):
        wp = np.array([[0.0, 0, 0.5], [10.0, 4.0, 0.5], [0.0, 0, 0.5]])
        _assert_matches_cubic_spline(sim.TrajectorySpec(wp, speed=1.5))

    def test_random_routes_with_uneven_chords(self):
        """Routes of 2 to 13 waypoints with chords spread over two decades,
        open and closed."""
        rng = np.random.default_rng(5)
        for n in range(2, 14):
            for closed in (False, True):
                if closed and n < 3:
                    continue
                chords = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
                steps = rng.normal(size=(n - 1, 3))
                steps *= (chords / np.linalg.norm(steps, axis=1))[:, None]
                wp = np.cumsum(np.vstack([rng.uniform(-5, 5, (1, 3)), steps]), axis=0)
                if closed:
                    wp[-1] = wp[0]
                spec = sim.TrajectorySpec(wp, speed=float(rng.uniform(0.5, 4.0)))
                _assert_matches_cubic_spline(spec)


class TestSynthesizeImu:
    def test_rest_case(self):
        sampled = static_sampled(yaw=0.4)
        samples = sim.synthesize_imu(sampled, sim.default_rig(), seed=0, noise=False)
        rot = rot_z(0.4)
        expected = rot.T @ (-GRAVITY)
        assert samples.shape == (len(sampled.imu_times), 7)
        assert np.allclose(samples[:, 1:4], 0.0, atol=1e-15)
        assert np.allclose(samples[:, 4:7], expected, atol=1e-12)

    def test_preintegration_round_trip_matches_spline(self):
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        sampler = sim.generate_trajectory(spec, rig.imu_rate, rig.frame_rate)
        sampled = sampler.sample(5.0)
        samples = sim.synthesize_imu(sampled, rig, seed=0, noise=False)
        state = (Pose(rot_z(sampled.yaws[0]), sampled.positions[0]), sampled.velocities[0])
        # chain predict over 0.5 s chunks
        chunk = 100
        for k in range(0, len(samples) - chunk, chunk):
            pre = imu.integrate(samples[k : k + chunk + 1])
            state = imu.predict_state(*state, pre, GRAVITY)
        final_idx = (len(samples) - 1) // chunk * chunk
        assert np.linalg.norm(
            state[0].translation - sampled.positions[final_idx]
        ) < 1e-3

    def test_matches_per_sample_reference(self):
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        sampled = sim.generate_trajectory(spec, rig.imu_rate, rig.frame_rate).sample(10.0)
        samples = sim.synthesize_imu(sampled, rig, seed=0, noise=False)
        assert len(samples) == len(sampled.imu_times)
        for i, s in enumerate(samples):
            force = rot_z(sampled.yaws[i]).T @ (sampled.accelerations[i] - GRAVITY)
            assert s[0] == sampled.imu_times[i]
            assert np.array_equal(s[1:4], [0.0, 0.0, sampled.yaw_rates[i]])
            assert np.allclose(s[4:7], force, rtol=0.0, atol=1e-12)

    def test_fixed_seed_bitwise_identical(self):
        sampled = static_sampled()
        rig = sim.default_rig()
        a = sim.synthesize_imu(sampled, rig, seed=5)
        b = sim.synthesize_imu(sampled, rig, seed=5)
        assert np.array_equal(a, b)


class TestSynthesizeCamera:
    def test_feature_behind_camera_not_observed(self):
        # one wall behind the start pose; camera looks along +x
        world = sim.WorldModel(
            [
                sim.PlanarPatch(
                    0,
                    np.array([-5.0, -2.0, 0.0]),
                    np.array([0.0, 4.0, 0.0]),
                    np.array([0.0, 0.0, 3.0]),
                    feature_density=2.0,
                )
            ],
            seed=1,
        )
        sampled = static_sampled(yaw=0.0, pos=(0.0, 0.0, 0.5))
        frames = sim.synthesize_camera(
            sampled, world, sim.default_rig(), 0, seed=0, n_frames=3, pixel_sigma=0.0
        )
        assert all(len(f.landmark_ids) == 0 for f in frames)

    def test_zero_noise_self_consistency(self):
        world = sim.default_world()
        rig = sim.default_rig()
        sampler = sim.generate_trajectory(sim.default_trajectory_spec(), rig.imu_rate, rig.frame_rate)
        sampled = sampler.sample(3.0)
        frames = sim.synthesize_camera(
            sampled, world, rig, 0, seed=0, n_frames=30, pixel_sigma=0.0, outlier_fraction=0.0
        )
        ids, positions, _ = world.feature_points()
        pos_by_id = dict(zip(ids, positions))
        cams = (rig.camera, rig.right_camera())
        checked = 0
        for k, frame in enumerate(frames):
            body = Pose(rot_z(sampled.yaws[k * sampled.stride]), sampled.positions[k * sampled.stride])
            for lm_id, px in zip(frame.landmark_ids, frame.pixels):
                for c, cam in enumerate(cams):
                    world_t_cam = body @ cam.body_t_cam
                    p_cam = world_t_cam.inverse().apply(pos_by_id[lm_id])
                    uv = cam.project(p_cam)
                    assert np.allclose(uv, px[2 * c : 2 * c + 2], atol=1e-9)
                    checked += 1
        assert checked > 100

    def test_outlier_fraction_binomial(self):
        world = sim.default_world()
        rig = sim.default_rig()
        sampler = sim.generate_trajectory(sim.default_trajectory_spec(), rig.imu_rate, rig.frame_rate)
        sampled = sampler.sample(5.0)
        clean = sim.synthesize_camera(sampled, world, rig, 0, seed=3, n_frames=50, pixel_sigma=0.0)
        dirty = sim.synthesize_camera(
            sampled, world, rig, 0, seed=3, n_frames=50, pixel_sigma=0.0, outlier_fraction=0.1
        )
        total, outliers = 0, 0
        for fc, fd in zip(clean, dirty):
            changed = np.any(np.abs(fc.pixels - fd.pixels) > 1e-9, axis=1)
            outliers += int(changed.sum())
            total += len(changed)
            if total >= 1000:
                break
        frac_expected = 0.1 * min(total, total)
        assert abs(outliers - 0.1 * total) <= 2 * math.sqrt(total * 0.1 * 0.9)

    def test_semi_static_features_absent_outside_sessions(self):
        world = sim.default_world(car_sessions=(1, 2))
        rig = sim.default_rig()
        car_ids = {
            e.elem_id for e in world.elements if e.kind == sim.KIND_SEMI_STATIC
        }
        ids0, _, elems0 = world.features_for_session(0)
        ids1, _, elems1 = world.features_for_session(1)
        assert not any(e in car_ids for e in elems0)
        assert any(e in car_ids for e in elems1)


def simple_rig(laser: LaserModel) -> SensorRig:
    cam = CameraModel(fx=400, fy=400, cx=320, cy=240, width=640, height=480)
    return SensorRig(
        camera=cam, laser=laser, stereo_baseline=0.4, cam_t_laser=Pose.identity(), laser_height=0.5
    )


def brute_force_ray_cast(origin, directions, world, session_id, t_scan):
    """Scalar, per-element reimplementation of the nearest-hit query.

    Returns (t, id) per direction. Each bush's sphere centres are drawn once
    per call, not once per ray.
    """
    bushes = {
        elem.elem_id: world.scatter_points(elem)
        for elem in world.elements
        if isinstance(elem, sim.ScatterCluster)
    }
    return [_nearest_hit(origin, d, world, session_id, t_scan, bushes) for d in directions]


def _nearest_hit(origin, direction, world, session_id, t_scan, bushes):
    """One ray of ``brute_force_ray_cast``; ``bushes``: sphere centres by element id."""
    best_t, best_id = np.inf, -1

    def consider(t, eid):
        nonlocal best_t, best_id
        if 1e-9 < t < best_t:
            best_t, best_id = t, eid

    for elem in world.elements:
        if not world.element_present(elem, session_id):
            continue
        if isinstance(elem, sim.PlanarPatch):
            n = elem.normal
            denom = float(direction @ n)
            if abs(denom) < 1e-12:
                continue
            t = float((elem.origin - origin) @ n) / denom
            p = origin + t * direction
            a = float((p - elem.origin) @ elem.edge_u) / float(elem.edge_u @ elem.edge_u)
            b = float((p - elem.origin) @ elem.edge_v) / float(elem.edge_v @ elem.edge_v)
            if 0 <= a <= 1 and 0 <= b <= 1:
                consider(t, elem.elem_id)
        elif isinstance(elem, sim.Pole):
            axis = elem.tip - elem.base
            length = np.linalg.norm(axis)
            axis = axis / length
            oc = origin - elem.base
            d_perp = direction - (direction @ axis) * axis
            o_perp = oc - (oc @ axis) * axis
            a = float(d_perp @ d_perp)
            if a < 1e-12:
                continue
            b = 2.0 * float(d_perp @ o_perp)
            c = float(o_perp @ o_perp) - elem.radius**2
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            for t in sorted([(-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)]):
                s = float((origin + t * direction - elem.base) @ axis)
                if t > 1e-9 and 0 <= s <= length:
                    consider(t, elem.elem_id)
                    break
        elif isinstance(elem, sim.Box):
            center = elem.center_at(t_scan)
            half = elem.size / 2.0
            # six faces as planes with inside checks
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    if abs(direction[axis]) < 1e-12:
                        continue
                    plane = center[axis] + sign * half[axis]
                    t = (plane - origin[axis]) / direction[axis]
                    p = origin + t * direction
                    others = [i for i in range(3) if i != axis]
                    if all(abs(p[i] - center[i]) <= half[i] + 1e-12 for i in others):
                        consider(t, elem.elem_id)
        elif isinstance(elem, sim.ScatterCluster):
            for ctr in bushes[elem.elem_id]:
                oc = origin - ctr
                b = 2.0 * float(direction @ oc)
                c = float(oc @ oc) - elem.point_radius**2
                disc = b * b - 4 * c
                if disc < 0:
                    continue
                t = (-b - math.sqrt(disc)) / 2.0
                if t <= 1e-9:
                    t = (-b + math.sqrt(disc)) / 2.0
                consider(t, elem.elem_id)
    return best_t, best_id


def _unit_rows(vectors):
    v = np.asarray(vectors, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _oracle_targets(world, origin, session_id, t_scan):
    """Points on every present element where a cull could lose a true hit.

    Patch corners are approached a hair inside and a hair outside, so the
    edge tests decide them rather than rounding between coincident faces.
    Pole rims at both ends and sphere silhouettes are where the exact tests
    come closest to a miss.
    """
    targets = []
    for elem in world.elements:
        if not world.element_present(elem, session_id):
            continue
        if isinstance(elem, sim.PlanarPatch):
            centre = elem.origin + 0.5 * (elem.edge_u + elem.edge_v)
            for a in (0.0, 1.0):
                for b in (0.0, 1.0):
                    corner = elem.origin + a * elem.edge_u + b * elem.edge_v
                    inward = _unit_rows(centre - corner)
                    targets += [corner + 1e-6 * inward, corner - 1e-6 * inward]
        elif isinstance(elem, sim.Pole):
            axis = elem.tip - elem.base
            e1 = _unit_rows(np.cross(axis, [1.0, 0.0, 0.0]))
            e2 = _unit_rows(np.cross(axis, e1))
            targets.append(elem.base + 0.5 * axis)
            for s in (0.002, 0.998):
                for ang in np.arange(4) * (np.pi / 2) + 0.3:
                    rim = np.cos(ang) * e1 + np.sin(ang) * e2
                    targets.append(elem.base + s * axis + 0.99 * elem.radius * rim)
        elif isinstance(elem, sim.Box):
            center = elem.center_at(t_scan)
            half = np.diag(elem.size / 2)
            targets += list(center + half) + list(center - half)
        elif isinstance(elem, sim.ScatterCluster):
            centres = world.scatter_points(elem)
            # graze each sphere: aim beside its centre, across the line of sight
            side = _unit_rows(np.cross(centres - origin, [0.0, 0.0, 1.0]))
            targets += list(centres) + list(centres + 0.99 * elem.point_radius * side)
    return np.asarray(targets)


def _assert_rays_match_oracle(world, origin, dirs, session_id, t_scan):
    """``cast_rays`` of one scan against ``brute_force_ray_cast``; returns the labels."""
    t_fast, id_fast = sim.cast_rays(origin, dirs, world, session_id, t_scan)
    hits = brute_force_ray_cast(origin, dirs, world, session_id, t_scan)
    for i, (t_slow, id_slow) in enumerate(hits):
        assert id_fast[i] == id_slow, (i, dirs[i])
        if np.isinf(t_slow):
            assert np.isinf(t_fast[i])
        else:
            assert abs(t_fast[i] - t_slow) < 1e-9, (i, dirs[i])
    return id_fast


def _assert_matches_oracle(world, origin, targets, session_id, t_scan, must_hit=None):
    dirs = _unit_rows(np.asarray(targets) - origin)
    labels = _assert_rays_match_oracle(world, origin, dirs, session_id, t_scan)
    if must_hit is not None:
        assert np.all(labels == must_hit)


class TestSynthesizeLaser:
    def test_single_wall_at_range_five(self):
        wall = sim.PlanarPatch(
            0,
            np.array([5.0, -10.0, -5.0]),
            np.array([0.0, 20.0, 0.0]),
            np.array([0.0, 0.0, 10.0]),
        )
        world = sim.WorldModel([wall], seed=0)
        laser = LaserModel(channels=1, elevation_min_deg=0.0, elevation_max_deg=0.0,
                           azimuth_step_deg=90.0, max_range=50.0, range_noise=0.0)
        rig = simple_rig(laser)
        sampled = static_sampled(yaw=0.0, pos=(0.0, 0.0, 0.0))
        scans = sim.synthesize_laser(sampled, world, rig, 0, seed=0, n_frames=1, noise=False)
        points, labels = scans[0]
        # the laser sits at body + body_t_laser; only the +x ray hits
        assert len(points) == 1
        origin_offset = rig.body_t_laser.translation[0]
        assert np.allclose(np.linalg.norm(points[0]), 5.0 - origin_offset, atol=1e-12)
        assert labels[0] == 0

    def test_semi_static_absent_in_other_sessions(self):
        world = sim.default_world(car_sessions=(1, 2))
        rig = sim.default_rig()
        sampler = sim.generate_trajectory(sim.default_trajectory_spec(), rig.imu_rate, rig.frame_rate)
        sampled = sampler.sample(8.0)
        car_ids = {e.elem_id for e in world.elements if e.kind == sim.KIND_SEMI_STATIC}
        scans0 = sim.synthesize_laser(sampled, world, rig, 0, seed=0, n_frames=40, noise=False)
        scans1 = sim.synthesize_laser(sampled, world, rig, 1, seed=0, n_frames=40, noise=False)
        hits0 = set(np.concatenate([lab for _, lab in scans0]).tolist())
        hits1 = set(np.concatenate([lab for _, lab in scans1]).tolist())
        assert not (hits0 & car_ids)
        assert hits1 & car_ids

    def test_matches_brute_force_oracle(self):
        # next to the default scene: a tilted pole exercises the general axis,
        # and bushes of 7 and 0 spheres differ from the default 25
        extras = (
            sim.Pole(100, np.array([2.0, -4.0, 0.0]), np.array([3.0, -3.2, 3.0]), radius=0.2),
            sim.ScatterCluster(101, np.array([-3.0, 3.0, 0.6]), np.full(3, 0.8), count=7),
            sim.ScatterCluster(102, np.array([3.0, 3.0, 0.6]), np.full(3, 0.8), count=0),
        )
        world = sim.WorldModel(sim.default_world().elements + extras, seed=7)
        bush = next(e for e in world.elements if isinstance(e, sim.ScatterCluster))
        rng = np.random.default_rng(9)
        cases = [
            (np.array([-3.0, -2.0, 0.8]), 0, 2.0),
            (np.array([6.0, 4.5, 0.8]), 3, 11.0),
            # inside the bush's box: rays leaving it in every direction must
            # still find the spheres behind the centre
            (bush.center + np.array([0.1, -0.05, 0.05]), 0, 7.5),
        ]
        for origin, session_id, t_scan in cases:
            random_dirs = rng.normal(size=(40, 3))
            targets = np.concatenate(
                [_oracle_targets(world, origin, session_id, t_scan), origin + random_dirs]
            )
            _assert_matches_oracle(world, origin, targets, session_id, t_scan)

    def test_moving_box_matches_oracle(self):
        world = sim.default_world()
        box = next(e for e in world.elements if e.kind == sim.KIND_DYNAMIC)
        # in front of the box's lane, close enough that nothing occludes it
        origin = np.array([0.0, -8.0, 0.8])
        for t_scan in (0.0, 0.5, 1.0, 7.0, 14.0):
            center = box.center_at(t_scan)
            faces = center + np.vstack([np.diag(box.size / 2), -np.diag(box.size / 2)])
            corners = center + (box.size / 2) * 0.999 * np.array(
                [[sx, sy, 1.0] for sx in (-1, 1) for sy in (-1, 1)]
            )
            _assert_matches_oracle(
                world, origin, np.concatenate([faces, corners]), 0, t_scan, must_hit=box.elem_id
            )

    def test_equal_distances_keep_the_earlier_element(self):
        def wall(elem_id, **kw):
            return sim.PlanarPatch(
                elem_id, np.array([5.0, -10.0, -5.0]), np.array([0.0, 20.0, 0.0]),
                np.array([0.0, 0.0, 10.0]), **kw,
            )

        world = sim.WorldModel([wall(5), wall(2, kind=sim.KIND_SEMI_STATIC, sessions=(1,))])
        dirs = _unit_rows([[1.0, 0.0, 0.0], [1.0, 0.3, 0.2], [-1.0, 0.0, 0.0]])
        t, labels = sim.cast_rays(np.zeros(3), dirs, world, 1, 0.0)
        assert labels.tolist() == [5, 5, -1]
        assert np.isclose(t[0], 5.0) and np.isinf(t[2])
        # a session with nothing present misses everywhere
        lone = sim.WorldModel([wall(2, kind=sim.KIND_SEMI_STATIC, sessions=(1,))])
        t, labels = sim.cast_rays(np.zeros(3), dirs, lone, 0, 0.0)
        assert labels.tolist() == [-1, -1, -1] and np.all(np.isinf(t))

    def test_geometry_cache_keyed_by_session(self):
        world = sim.default_world(car_sessions=(0, 1))
        cars = [e for e in world.elements if e.kind == sim.KIND_SEMI_STATIC]
        car_ids = {e.elem_id for e in cars}
        origin = np.array([0.0, 0.0, 0.8])
        dirs = np.array([c.center for c in cars]) - origin
        dirs = np.concatenate([dirs, np.random.default_rng(4).normal(size=(200, 3))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for session_id in (0, 3, 0):
            t, labels = sim.cast_rays(origin, dirs, world, session_id, 1.0)
            fresh = sim.default_world(car_sessions=(0, 1))
            t_ref, labels_ref = sim.cast_rays(origin, dirs, fresh, session_id, 1.0)
            assert np.array_equal(t, t_ref)
            assert np.array_equal(labels, labels_ref)
            hit_cars = set(labels.tolist()) & car_ids
            assert hit_cars == (car_ids if session_id == 0 else set())

    def test_dynamic_box_moves_between_scans(self):
        box = next(e for e in sim.default_world().elements if e.kind == sim.KIND_DYNAMIC)
        c0 = box.center_at(0.0)
        c1 = box.center_at(box.motion_period / 4.0)
        assert np.linalg.norm(c1 - c0) > 1.0


# straight up, straight down, and up with a last-bit tilt: their azimuths say
# nothing of where they go
VERTICAL_RAYS = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-12, 0.0, 1.0]])


def _probe_dirs(rng, n):
    return np.concatenate([VERTICAL_RAYS, _unit_rows(rng.normal(size=(n, 3)))])


def _assert_probes_match_oracle(world, origin, session_id, t_scan, rng, extra=()):
    """Vertical, random and ``_oracle_targets`` rays from ``origin`` against the oracle."""
    targets = _oracle_targets(world, origin, session_id, t_scan)
    dirs = [_probe_dirs(rng, 40), _unit_rows(targets - origin)] + [np.reshape(extra, (-1, 3))]
    return _assert_rays_match_oracle(world, origin, np.concatenate(dirs), session_id, t_scan)


class TestAzimuthCull:
    """``cast_rays`` tests an element only on the rays whose azimuth lies in
    the element's window; these cases sit where a window could lose a hit."""

    def test_stacked_cast_equals_one_scan_casts(self):
        world = sim.default_world()
        bush = next(e for e in world.elements if isinstance(e, sim.ScatterCluster))
        rng = np.random.default_rng(12)
        origins = np.column_stack(
            [rng.uniform(-20, 20, 6), rng.uniform(-12, 12, 6), rng.uniform(0.3, 3.0, 6)]
        )
        # inside a bush's box, and beside the moving box's lane
        origins[:2] = [bush.center + [0.1, -0.05, 0.05], [0.0, -8.0, 0.8]]
        times = np.array([0.0, 3.0, 4.5, 7.5, 11.0, 14.0])
        dirs = [_probe_dirs(rng, 120) for _ in origins]
        for session_id in (0, 3):
            t, labels = sim.cast_rays(origins, np.concatenate(dirs), world, session_id, times)
            n = len(dirs[0])
            for s, (origin, d, t_scan) in enumerate(zip(origins, dirs, times)):
                t_one, labels_one = sim.cast_rays(origin, d, world, session_id, t_scan)
                assert np.array_equal(t[s * n : (s + 1) * n], t_one)
                assert np.array_equal(labels[s * n : (s + 1) * n], labels_one)
        assert (labels >= 0).sum() > 300

    def test_origin_inside_a_box_or_a_bush_box(self):
        # boxes off the ground, so that no wall lies on another element
        crate = sim.Box(100, np.array([5.0, 3.0, 1.6]), np.array([1.2, 0.8, 0.6]))
        mover = sim.Box(101, np.array([2.0, -3.0, 1.5]), np.ones(3), kind=sim.KIND_DYNAMIC,
                        motion_direction=np.array([0.6, 0.8, 0.0]), motion_amplitude=3.0,
                        motion_period=10.0)
        world = sim.WorldModel(sim.default_world().elements + (crate, mover), seed=7)
        bush = next(e for e in world.elements if isinstance(e, sim.ScatterCluster))
        rng = np.random.default_rng(13)
        for origin, t_scan, box in (
            (crate.center + [0.3, -0.2, 0.1], 1.0, crate),
            (mover.center_at(4.0) + [0.1, 0.2, -0.1], 4.0, mover),
        ):
            labels = _assert_probes_match_oracle(world, origin, 0, t_scan, rng)
            # from inside, every ray meets the box's walls first
            assert np.all(labels == box.elem_id)
        # between the spheres of a bush: some rays meet them, in every direction
        labels = _assert_probes_match_oracle(world, bush.center + [0.3, 0.3, 0.2], 0, 2.0, rng)
        assert (labels == bush.elem_id).sum() > 10

    def test_origin_straight_above_a_patch_edge_or_corner_or_a_pole_tip(self):
        rng = np.random.default_rng(14)
        # roofs that lie towards -x from an origin above their edge: a
        # vertical ray's azimuth (0) is then half a turn from the window,
        # yet it lands on the edge
        roofs = []
        for i in range(12):
            x0, y0, z = rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0.2, 2.0)
            width, depth = rng.uniform(0.5, 6.0, size=2)
            roofs.append(
                sim.PlanarPatch(i, np.array([x0, y0, z]), np.array([-width, 0.0, 0.0]),
                                np.array([0.0, depth, 0.0]))
            )
        for roof in roofs:
            world = sim.WorldModel([roof])
            for f in (0.1, 0.5, 0.9):
                origin = roof.origin + f * roof.edge_v + [0.0, 0.0, 1.0]
                labels = _assert_probes_match_oracle(world, origin, 0, 0.0, rng)
                assert labels[1] == roof.elem_id  # straight down
        # above the corner of a roof that lies towards +x and +y: straight
        # down with signed zeros, a ray's azimuth can be pi or -pi, outside
        # the roof's quarter of azimuths, yet it lands on the corner
        down = np.array([[0.0, 0.0, -1.0], [-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -1.0]])
        for roof in roofs[:4]:
            table = replace(roof, edge_u=-roof.edge_u)
            world = sim.WorldModel([table])
            origin = table.origin + [0.0, 0.0, 1.0]
            labels = _assert_probes_match_oracle(world, origin, 0, 0.0, rng, extra=down)
            assert np.all(labels[-4:] == table.elem_id)
        world = sim.default_world()
        ground = world.elements[0]
        # above the ground's far edge (x = 30), where a = 1 exactly
        origin = ground.origin + ground.edge_u + [0.0, 18.0, 1.0]
        labels = _assert_probes_match_oracle(world, origin, 0, 0.0, rng)
        assert labels[1] == ground.elem_id
        # above a pole's tip: rays falling steeply meet its side from within
        pole = next(e for e in world.elements if isinstance(e, sim.Pole))
        ang = np.arange(12) * (np.pi / 6)
        steep = np.column_stack([0.1 * np.cos(ang), 0.1 * np.sin(ang), -np.ones(12)])
        labels = _assert_probes_match_oracle(
            world, pole.tip + [0.0, 0.0, 0.5], 0, 0.0, rng, extra=_unit_rows(steep)
        )
        assert np.all(labels[-12:] == pole.elem_id)

    def test_rays_along_a_box_silhouette(self):
        # power-of-two components make the slab test exact: each ray meets
        # the box on the vertical edge that bounds its window, at t = 1
        for a in range(4):
            for b in range(4):
                x1, x2, y1, y2 = 2.0**a, 2.0 ** (a + 1), 2.0 ** (b - 1), 3 * 2.0 ** (b - 1)
                for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    origin = np.array([-3.0, 5.0, 0.0])
                    center = origin + [sx * (x1 + x2) / 2, sy * (y1 + y2) / 2, 0.0]
                    world = sim.WorldModel([sim.Box(0, center, np.array([x2 - x1, y2 - y1, 2.0]))])
                    dirs = np.array([[sx * x2, sy * y1, 0.0], [sx * x1, sy * y2, 0.0]])
                    t, labels = sim.cast_rays(origin, dirs, world, 0, 0.0)
                    assert labels.tolist() == [0, 0] and t.tolist() == [1.0, 1.0]
                    _assert_rays_match_oracle(world, origin, dirs, 0, 0.0)

    def test_worlds_without_bushes_or_boxes(self):
        base = sim.default_world()
        rng = np.random.default_rng(15)
        for kind in (sim.ScatterCluster, sim.Box):
            world = sim.WorldModel([e for e in base.elements if not isinstance(e, kind)], seed=7)
            for origin in (np.array([-3.0, -2.0, 0.8]), np.array([11.0, 9.0, 1.2])):
                _assert_probes_match_oracle(world, origin, 0, 5.0, rng)
            sampled = static_sampled(n=40, pos=(2.0, -1.0, 0.5))
            scans = sim.synthesize_laser(sampled, world, sim.default_rig(), 0, seed=0, n_frames=2)
            assert all(len(points) > 0 for points, _ in scans)

    def test_pitched_laser_matches_oracle(self):
        # no ray is level: the windows cannot lean on the laser's own azimuths
        laser = LaserModel(channels=3, elevation_min_deg=-12.0, elevation_max_deg=6.0,
                           azimuth_step_deg=24.0, max_range=40.0, range_noise=0.0)
        pitch = Pose(so3_exp(np.array([0.0, np.deg2rad(10.0), 0.0])), np.array([0.2, 0.0, 0.3]))
        rig = replace(simple_rig(laser), cam_t_laser=pitch)
        world = sim.default_world()
        spec = sim.default_trajectory_spec()
        sampled = sim.generate_trajectory(spec, rig.imu_rate, rig.frame_rate).sample(2.0)
        n_frames = 18  # one chunk of 16 scans and one of 2
        scans = sim.synthesize_laser(sampled, world, rig, 0, seed=0, n_frames=n_frames, noise=False)
        dirs_f = sim.laser_ray_directions(laser)
        for k, (points, labels) in zip(sampled.frame_indices(n_frames), scans):
            world_t_laser = sampled.pose_at(k) @ rig.body_t_laser
            hits = brute_force_ray_cast(world_t_laser.translation, dirs_f @ world_t_laser.rotation.T,
                                        world, 0, float(sampled.imu_times[k]))
            t_ref = np.array([t for t, _ in hits])
            keep = t_ref <= laser.max_range
            assert labels.tolist() == [i for (_, i), kept in zip(hits, keep) if kept]
            np.testing.assert_allclose(np.linalg.norm(points, axis=1), t_ref[keep], rtol=0, atol=1e-9)


class TestGenerateSession:
    def test_stream_lengths_exact(self):
        world = sim.default_world()
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        session = sim.generate_session(world, spec, rig, session_id=0, seed=1, duration=60.0)
        assert len(session.frames) == 600
        assert len(session.scans) == 600
        assert len(session.imu_samples) == 12000
        assert len(session.gt_times) == 600

    def test_determinism_bitwise(self):
        """Two sessions of one (world, session, seed) are equal bit for bit in
        every field."""
        world = sim.default_world()
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        a, b = (sim.generate_session(world, spec, rig, session_id=2, seed=7, duration=5.0) for _ in range(2))
        np.testing.assert_array_equal(a.gt_times, b.gt_times)
        assert len(a.gt_poses) == len(b.gt_poses) == len(a.gt_times)
        for pa, pb in zip(a.gt_poses, b.gt_poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)
        np.testing.assert_array_equal(a.imu_samples, b.imu_samples)
        assert len(a.frames) == len(b.frames) == len(a.gt_times)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.landmark_ids, fb.landmark_ids)
            np.testing.assert_array_equal(fa.pixels, fb.pixels)
        assert len(a.scans) == len(b.scans) == len(a.gt_times)
        for (pa, la), (pb, lb) in zip(a.scans, b.scans):
            np.testing.assert_array_equal(pa, pb)
            np.testing.assert_array_equal(la, lb)

    def test_element_kinds_mark_semi_static_sessions(self):
        """Each car is semi-static in the sessions that see it, and the
        session's scans hold returns labelled with a car's id."""
        world = sim.default_world(car_sessions=(1, 2))
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        session = sim.generate_session(world, spec, rig, session_id=1, seed=3, duration=4.0)
        cars = [e for e in world.elements if e.kind == sim.KIND_SEMI_STATIC]
        assert cars
        assert all(car.sessions == (1, 2) for car in cars)
        car_ids = [car.elem_id for car in cars]
        scan_labels = set(np.concatenate([lab for _, lab in session.scans]).tolist())
        assert set(car_ids) & scan_labels


class TestWorldMapSampling:
    def test_ground_truth_map_has_analytic_normals(self):
        world = sim.default_world()
        cloud = sim.sample_world_map(world, spacing=0.5)
        assert len(cloud) > 1000
        walls = cloud.labels is not None
        assert walls
        # ground points flagged and with +z normals
        g = cloud.ground
        assert g.any()
        assert np.allclose(cloud.normals[g], [0.0, 0.0, 1.0], atol=1e-12)

    def test_semi_static_included_only_with_session(self):
        world = sim.default_world(car_sessions=(0, 1))
        car_ids = {e.elem_id for e in world.elements if e.kind == sim.KIND_SEMI_STATIC}
        base = sim.sample_world_map(world, spacing=0.5, session_id=None)
        with_cars = sim.sample_world_map(world, spacing=0.5, session_id=0)
        assert not (set(base.labels.tolist()) & car_ids)
        assert set(with_cars.labels.tolist()) & car_ids

import filecmp
import math
import os

import numpy as np
import pytest

from crossloc import imu, simulator as sim
from crossloc.liegroup import Pose, rot_z
from crossloc.session import LaserModel, SensorRig, load_session, save_session
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

    def test_speed_profile_per_waypoint(self):
        wp = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        sampler = sim.generate_trajectory(
            sim.TrajectorySpec(wp, speed=np.array([1.0, 2.0, 1.0])), 200, 10
        )
        # segment times: 10/1.5 each
        assert sampler.total_time == pytest.approx(2 * 10 / 1.5, abs=1e-9)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            sim.TrajectorySpec(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            sim.TrajectorySpec(np.zeros((3, 3)), speed=-1.0)
        with pytest.raises(ValueError):
            sim.generate_trajectory(
                sim.TrajectorySpec(np.array([[0.0, 0, 0], [1.0, 0, 0]])), 200, 7
            )


class TestSynthesizeImu:
    def test_rest_case(self):
        sampled = static_sampled(yaw=0.4)
        samples, _, _ = sim.synthesize_imu(sampled, sim.default_rig(), seed=0, noise=False)
        rot = rot_z(0.4)
        expected = rot.T @ (-GRAVITY)
        for s in samples:
            assert np.allclose(s.angular_velocity, 0.0, atol=1e-15)
            assert np.allclose(s.linear_acceleration, expected, atol=1e-12)

    def test_preintegration_round_trip_matches_spline(self):
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        sampler = sim.generate_trajectory(spec, rig.imu_rate, rig.frame_rate)
        sampled = sampler.sample(5.0)
        samples, _, _ = sim.synthesize_imu(sampled, rig, seed=0, noise=False)
        state = imu.NavState(
            pose=Pose(rot_z(sampled.yaws[0]), sampled.positions[0]),
            velocity=sampled.velocities[0],
        )
        # chain predict over 0.5 s chunks
        chunk = 100
        for k in range(0, len(samples) - chunk, chunk):
            pre = imu.integrate(samples[k : k + chunk + 1])
            state = imu.predict_state(state, pre, GRAVITY)
        final_idx = (len(samples) - 1) // chunk * chunk
        assert np.linalg.norm(
            state.pose.translation - sampled.positions[final_idx]
        ) < 1e-3

    def test_matches_per_sample_reference(self):
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        sampled = sim.generate_trajectory(spec, rig.imu_rate, rig.frame_rate).sample(10.0)
        samples, _, _ = sim.synthesize_imu(sampled, rig, seed=0, noise=False)
        assert len(samples) == len(sampled.imu_times)
        for i, s in enumerate(samples):
            force = rot_z(sampled.yaws[i]).T @ (sampled.accelerations[i] - GRAVITY)
            assert s.timestamp == sampled.imu_times[i]
            assert np.array_equal(s.angular_velocity, [0.0, 0.0, sampled.yaw_rates[i]])
            assert np.allclose(s.linear_acceleration, force, rtol=0.0, atol=1e-12)

    def test_fixed_seed_bitwise_identical(self):
        sampled = static_sampled()
        rig = sim.default_rig()
        a, _, _ = sim.synthesize_imu(sampled, rig, seed=5)
        b, _, _ = sim.synthesize_imu(sampled, rig, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.angular_velocity, y.angular_velocity)
            assert np.array_equal(x.linear_acceleration, y.linear_acceleration)


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
    return SensorRig(camera=cam, laser=laser, cam_t_laser=Pose.identity(), laser_height=0.5)


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
    Pole rims at both ends and sphere silhouettes lie near the edge of the
    bounding spheres the cast culls by.
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


def _assert_matches_oracle(world, origin, targets, session_id, t_scan, must_hit=None):
    dirs = _unit_rows(np.asarray(targets) - origin)
    t_fast, id_fast = sim.cast_rays(origin, dirs, world, session_id, t_scan)
    hits = brute_force_ray_cast(origin, dirs, world, session_id, t_scan)
    for i, (t_slow, id_slow) in enumerate(hits):
        assert id_fast[i] == id_slow, (i, targets[i])
        if np.isinf(t_slow):
            assert np.isinf(t_fast[i])
        else:
            assert abs(t_fast[i] - t_slow) < 1e-9, (i, targets[i])
    if must_hit is not None:
        assert np.all(id_fast == must_hit)


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
            # inside the bush's bounding sphere: rays leaving it in every
            # direction must still find the spheres behind the centre
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

    def test_determinism_identical_files(self, tmp_path):
        world = sim.default_world()
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        dirs = []
        for name in ("a", "b"):
            session = sim.generate_session(world, spec, rig, session_id=2, seed=7, duration=5.0)
            d = tmp_path / name
            save_session(d, session)
            dirs.append(d)
        cmp = filecmp.dircmp(dirs[0], dirs[1])

        def assert_same(dc):
            assert not dc.diff_files, dc.diff_files
            assert not dc.left_only and not dc.right_only
            for sub in dc.subdirs.values():
                assert_same(sub)

        assert_same(cmp)

    def test_label_sidecar_marks_semi_static_sessions(self, tmp_path):
        world = sim.default_world(car_sessions=(1, 2))
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        session = sim.generate_session(world, spec, rig, session_id=1, seed=3, duration=4.0)
        save_session(tmp_path / "s", session)
        back = load_session(tmp_path / "s", session_id=1)
        car_ids = [e.elem_id for e in world.elements if e.kind == sim.KIND_SEMI_STATIC]
        for cid in car_ids:
            kind, sessions = back.element_kinds[cid]
            assert kind == sim.KIND_SEMI_STATIC
            assert sessions == (1, 2)
        scan_labels = set(np.concatenate([lab for _, lab in back.scans]).tolist())
        assert set(car_ids) & scan_labels

    def test_session_round_trip(self, tmp_path):
        world = sim.default_world()
        rig = sim.default_rig()
        spec = sim.default_trajectory_spec()
        session = sim.generate_session(world, spec, rig, session_id=0, seed=1, duration=3.0)
        save_session(tmp_path / "s", session)
        back = load_session(tmp_path / "s")
        assert len(back.frames) == len(session.frames)
        assert len(back.imu_samples) == len(session.imu_samples)
        assert np.allclose(back.gt_times, session.gt_times, atol=1e-9)
        for a, b in zip(session.frames, back.frames):
            assert np.array_equal(a.landmark_ids, b.landmark_ids)
            assert np.array_equal(a.pixels, b.pixels)
        for (pa, la), (pb, lb) in zip(session.scans, back.scans):
            assert np.array_equal(pa, pb)
            assert np.array_equal(la, lb)
        # rig survives the round trip
        assert back.rig.camera.fx == rig.camera.fx
        assert np.allclose(back.rig.body_t_laser.matrix(), rig.body_t_laser.matrix(), atol=1e-12)


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

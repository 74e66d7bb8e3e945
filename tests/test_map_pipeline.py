import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crossloc import map_pipeline as mp
from crossloc import simulator as sim
from crossloc.laser_map import PointCloudMap
from crossloc.liegroup import Pose, rot_z
from crossloc.session import FrameObservations, SessionData

from oracles import (
    first_come_thin,
    near_feature_returns,
    voxel_cells,
)


@pytest.fixture(scope="module")
def short_session():
    world = sim.default_world()
    rig = sim.default_rig()
    spec = sim.default_trajectory_spec()
    return sim.generate_session(world, spec, rig, session_id=0, seed=11, duration=6.0)


class TestVisionTransform:
    def test_no_features_keeps_nothing(self, short_session):
        s = short_session
        empty_frames = [FrameObservations(f.timestamp, np.zeros(0, int), np.zeros((0, 4))) for f in s.frames]
        clone = SessionData(
            s.session_id, s.rig, s.gt_times, s.gt_poses, s.imu_samples, empty_frames, s.scans
        )
        cloud = mp.vision_transform_session(clone)
        assert len(cloud) == 0

    def test_exact_pixel_match_kept(self):
        # laser point straight ahead of the camera; one feature at its pixel
        rig = sim.default_rig()
        pose = Pose.identity()
        p_world = np.array([6.0, 0.15, 0.6])  # in front of the camera
        cam_t_world = rig.camera.body_t_cam.inverse()
        p_cam = cam_t_world.apply(p_world)
        uv = rig.camera.project(p_cam)
        p_laser = rig.body_t_laser.inverse().apply(p_world)
        session = SessionData(
            0,
            rig,
            np.array([0.0]),
            [pose],
            [],
            [FrameObservations(0.0, np.array([1]), np.array([[uv[0], uv[1], uv[0] - 40, uv[1]]]))],
            [(p_laser[None, :], np.array([5]))],
        )
        cloud = mp.vision_transform_session(session)
        assert len(cloud) == 1
        assert np.allclose(cloud.positions[0], p_world, atol=1e-9)
        assert cloud.labels[0] == 5

    def test_matches_brute_force_oracle(self, short_session, monkeypatch):
        # three gates put the coarse cells' edges at three spacings across
        # the same features
        for gate in (1.1, mp.PIXEL_GATE, 7.3):
            monkeypatch.setattr(mp, "PIXEL_GATE", gate)
            session, inside = edge_case_session(short_session, gate, empty=(3, 4))
            got = mp.vision_transform_session(session)

            kept = near_feature_returns(session, gate)
            for k, idx in inside.items():
                assert set(idx) <= set(kept[k].tolist())
            assert len(kept[len(kept) // 2]) == 0  # the frame without features
            for k in inside:  # the return a quarter pixel outside the image
                assert len(session.scans[k][0]) - 1 not in kept[k]
            body_t_laser = session.rig.body_t_laser
            want = np.concatenate(
                [np.zeros((0, 3))]
                + [
                    (session.gt_poses[k] @ body_t_laser).apply(session.scans[k][0][idx])
                    for k, idx in enumerate(kept)
                ]
            )
            labels = np.concatenate([session.scans[k][1][idx] for k, idx in enumerate(kept)])
            assert len(want) > 0
            np.testing.assert_allclose(got.positions, want, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(got.labels, labels)

    def test_chunks_leave_the_bits(self, short_session, monkeypatch):
        # a chunk of 1 return is one scan, 2,000 returns are three scans, and
        # the default holds the whole session, its featureless frame mid-chunk;
        # scans 3, 4 and 20 have no returns
        session, _ = edge_case_session(
            short_session, mp.PIXEL_GATE, n_scans=len(short_session.scans), empty=(3, 4, 20)
        )
        clouds = []
        for chunk in (1, 2_000, mp._CHUNK_POINTS):
            monkeypatch.setattr(mp, "_CHUNK_POINTS", chunk)
            clouds.append(mp.vision_transform_session(session))
        assert len(clouds[0]) > 0
        for cloud in clouds[1:]:
            assert cloud.positions.dtype == clouds[0].positions.dtype
            np.testing.assert_array_equal(cloud.positions, clouds[0].positions)
            assert cloud.labels.dtype == clouds[0].labels.dtype
            np.testing.assert_array_equal(cloud.labels, clouds[0].labels)

    def test_scans_past_the_last_frame_keep_nothing(self, short_session):
        s = short_session
        m = 10
        no_features = [FrameObservations(float(t), np.zeros(0, int), np.zeros((0, 4))) for t in s.gt_times[m:]]
        cut = replace(s, frames=s.frames[:m])
        padded = replace(s, frames=s.frames[:m] + no_features)
        got, want = (mp.vision_transform_session(x) for x in (cut, padded))
        assert len(got) > 0
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.labels, want.labels)


def edge_case_session(session, gate, n_scans=12, seed=0, empty=()):
    """The first ``n_scans`` scans of ``session`` with returns and features
    added at the edges of the vision gate, of its coarse cells and of the
    image. The middle scan's frame has no features, and the scans ``empty``
    names have no returns, though their frames keep their features.

    Per scan, three returns get a feature just inside ``gate`` of their
    pixel and three just outside. Returns are added 5 m in front of the
    camera, labelled -1:
    - four on cell edges, each with a feature 0.995 gates away across the
      edge, one from each side in u and in v;
    - four a quarter pixel inside each border of the image, each with a
      feature half a gate further out, and one a quarter pixel outside the
      left border with a feature a tenth of a pixel away.

    Returns the session and, per scan with features and returns, the
    indices of the returns that a feature lies within the gate of by
    construction.
    """
    rng = np.random.default_rng(seed)
    rig, cam = session.rig, session.rig.camera
    right, bottom = cam.width - 1.0, cam.height - 1.0
    cell = mp._CELL_GATES * gate
    edge_u, edge_v = cell * np.floor(0.5 * right / cell), cell * np.floor(0.5 * bottom / cell)
    frames, scans, inside = [], [], {}
    for k in range(n_scans):
        points_f, labels = session.scans[k]
        p_cam = rig.cam_t_laser.apply(points_f)
        front = np.flatnonzero(p_cam[:, 2] > 1e-6)
        uv = cam.project(p_cam[front])
        seen = cam.in_image(uv)
        rows, uv = front[seen], uv[seen]
        pick = rng.choice(len(uv), 6, replace=False)
        angle = rng.uniform(0.0, 2.0 * np.pi, 6)
        step = gate * np.array([1.0 - 1e-9] * 3 + [1.0 + 1e-9] * 3)
        near_gate = uv[pick] + step[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])

        x, y = rng.uniform([0.0, 0.0], [right, bottom], (9, 2)).T
        added = np.array(
            [[edge_u, y[0]], [edge_u, y[1]], [x[2], edge_v], [x[3], edge_v],
             [0.25, y[4]], [right - 0.25, y[5]], [x[6], 0.25], [x[7], bottom - 0.25],
             [-0.25, y[8]]]
        )
        beyond = added + np.array(
            [[-0.995 * gate, 0.0], [0.995 * gate, 0.0], [0.0, -0.995 * gate], [0.0, 0.995 * gate],
             [-0.5 * gate, 0.0], [0.5 * gate, 0.0], [0.0, -0.5 * gate], [0.0, 0.5 * gate],
             [0.1, 0.0]]
        )
        rays = np.column_stack([(added - [cam.cx, cam.cy]) / [cam.fx, cam.fy], np.ones(len(added))])
        inside[k] = np.concatenate([rows[pick[:3]], len(points_f) + np.arange(8)])
        points_f = np.concatenate([points_f, rig.cam_t_laser.inverse().apply(5.0 * rays)])
        scans.append((points_f, np.concatenate([labels, np.full(len(added), -1)])))

        pixels = np.concatenate([session.frames[k].pixels[:, :2], near_gate, beyond])
        stereo = np.column_stack([pixels, pixels])
        frames.append(FrameObservations(session.frames[k].timestamp, np.arange(len(pixels)), stereo))
    mid = n_scans // 2
    frames[mid] = FrameObservations(frames[mid].timestamp, np.zeros(0, int), np.zeros((0, 4)))
    for k in (mid, *empty):
        inside.pop(k)
    for k in empty:
        scans[k] = (scans[k][0][:0], scans[k][1][:0])
    cut = replace(
        session,
        gt_times=session.gt_times[:n_scans],
        gt_poses=session.gt_poses[:n_scans],
        frames=frames,
        scans=scans,
    )
    return cut, inside


class TestScanPoses:
    """Scan k is placed by ground-truth row k; scans past the last row are skipped."""

    def test_scans_beyond_ground_truth_are_skipped(self, short_session):
        s = short_session
        m = len(s.scans) // 2
        rows = (s.session_id, s.rig, s.gt_times[:m], s.gt_poses[:m], s.imu_samples)
        cut_truth = SessionData(*rows, s.frames, s.scans)
        cut_all = SessionData(*rows, s.frames[:m], s.scans[:m])
        params = mp.MapFilterParams()
        for build in (
            mp.vision_transform_session,
            lambda session: mp.extract_ground([session], params),
            mp.build_full_map,
        ):
            got, want = build(cut_truth), build(cut_all)
            assert len(got) > 0
            np.testing.assert_array_equal(got.positions, want.positions)
            np.testing.assert_array_equal(got.labels, want.labels)

    def test_full_map_places_scan_k_by_row_k(self, short_session):
        s = short_session
        pts = np.concatenate(
            [(s.gt_poses[k] @ s.rig.body_t_laser).apply(points) for k, (points, _) in enumerate(s.scans)]
        )
        _, _, centroids = voxel_cells(pts, 0.3)
        np.testing.assert_array_equal(mp.build_full_map(s, voxel=0.3).positions, centroids)

    def test_session_without_returns_gives_an_empty_labelled_cloud(self):
        rig = sim.default_rig()
        session = SessionData(
            0,
            rig,
            np.array([0.0]),
            [Pose.identity()],
            np.zeros((0, 7)),
            [FrameObservations(0.0, np.zeros(0, int), np.zeros((0, 4)))],
            [(np.zeros((0, 3)), np.zeros(0, int))],
        )
        for cloud in (mp.build_full_map(session), mp.extract_ground([session], mp.MapFilterParams())):
            assert len(cloud) == 0
            assert cloud.labels is not None and cloud.labels.shape == (0,)


def cloud_of(points, labels=None):
    points = np.asarray(points, dtype=float)
    return PointCloudMap(points, labels=labels)


class TestMergeSessions:
    def test_single_session_counts_one(self):
        rng = np.random.default_rng(0)
        cloud = cloud_of(rng.uniform(-5, 5, (200, 3)))
        merged = mp.merge_sessions([cloud])
        assert np.all(merged.counts == 1)

    def test_identical_sessions_count_two(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, (100, 3))
        # spread out so within-session thinning keeps everything
        pts = pts * 10.0
        merged = mp.merge_sessions([cloud_of(pts), cloud_of(pts.copy())])
        assert len(merged) == len(pts)
        assert np.all(merged.counts == 2)

    def test_object_in_single_session_counts_one(self):
        # straight pass in front of a wall; car parked by it in session 3 only
        world = sim.WorldModel(
            [
                sim.PlanarPatch(
                    0,
                    np.array([-12.0, -8.0, 0.0]),
                    np.array([24.0, 0.0, 0.0]),
                    np.array([0.0, 16.0, 0.0]),
                    kind=sim.KIND_GROUND,
                ),
                sim.PlanarPatch(
                    1,
                    np.array([-10.0, 6.0, 0.0]),
                    np.array([20.0, 0.0, 0.0]),
                    np.array([0.0, 0.0, 4.0]),
                    feature_density=1.0,
                ),
                sim.Box(
                    2,
                    np.array([4.0, 4.3, 0.7]),
                    np.array([3.5, 1.8, 1.4]),
                    feature_density=2.0,
                    kind=sim.KIND_SEMI_STATIC,
                    sessions=(3,),
                ),
            ],
            seed=5,
        )
        rig = sim.default_rig()
        spec = sim.TrajectorySpec(
            np.array([[-8.0, 0.0, sim.BODY_HEIGHT], [8.0, 0.0, sim.BODY_HEIGHT]]), speed=2.0
        )
        clouds = []
        for sid in range(5):
            session = sim.generate_session(
                world, spec, rig, session_id=sid, seed=2, duration=8.0, noise=False
            )
            clouds.append(mp.vision_transform_session(session))
        merged = mp.merge_sessions(clouds)
        car_mask = merged.labels == 2
        assert car_mask.any()
        assert np.all(merged.counts[car_mask] == 1)
        wall_mask = merged.labels == 1
        assert np.median(merged.counts[wall_mask]) == 5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        r = mp.NEWNESS_RADIUS
        clouds = [cloud_of(rng.uniform(-2, 2, (rng.integers(30, 80), 3))) for _ in range(4)]
        merged = mp.merge_sessions(clouds)

        # oracle: same documented rule, plain loops
        base, counts = [], []
        for i, cloud in enumerate(clouds):
            kept = list(cloud.positions[first_come_thin(cloud.positions, r)])
            if i == 0:
                base = [p.copy() for p in kept]
                counts = [1] * len(base)
                continue
            matched = set()
            new_pts = []
            for p in kept:
                dists = [np.linalg.norm(p - q) for q in base]
                j = int(np.argmin(dists))
                if dists[j] > r:
                    new_pts.append(p)
                else:
                    matched.add(j)
            for j in matched:
                counts[j] += 1
            base.extend(new_pts)
            counts.extend([1] * len(new_pts))
        assert len(merged) == len(base)
        assert np.allclose(merged.positions, np.asarray(base), atol=1e-12)
        assert np.array_equal(merged.counts, np.asarray(counts))


class TestSequentialThin:
    """``sequential_thin`` against the point-by-point first-come loop."""

    @pytest.mark.parametrize("n, radius", [(0, 0.2), (1, 0.2), (400, 0.25), (2_000, 0.2), (2_000, 0.6)])
    def test_matches_first_come_loop(self, n, radius):
        rng = np.random.default_rng(n)
        points = rng.uniform(-2.0, 2.0, (n, 3))
        points[n // 2 :: 7] = points[: len(points[n // 2 :: 7])]  # repeated points
        got = mp.sequential_thin(points, radius)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, first_come_thin(points, radius))

    def test_lattice_at_the_radius_drops_neighbours(self):
        # spacing and radius are both 0.25, exact in binary: a neighbour lies
        # at exactly the radius, and <= drops it
        side = np.arange(6) * 0.25
        points = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1).reshape(-1, 3)
        got = mp.sequential_thin(points, 0.25)
        np.testing.assert_array_equal(got, first_come_thin(points, 0.25))
        # the kept points are those with an even index sum: a checkerboard
        even = np.flatnonzero(np.round(points / 0.25).sum(axis=1) % 2 == 0)
        np.testing.assert_array_equal(got, even)
        line = np.column_stack([np.arange(9) * 0.25, np.zeros(9), np.zeros(9)])
        np.testing.assert_array_equal(mp.sequential_thin(line, 0.25), [0, 2, 4, 6, 8])


class TestClassifyErodeExpand:
    def test_uniform_counts_all_static(self):
        cloud = PointCloudMap(np.random.default_rng(0).uniform(size=(50, 3)),
                              counts=np.full(50, 8))
        static, dynamic = mp.classify_static(cloud, mp.MapFilterParams(static_threshold=4))
        assert len(static) == 50 and len(dynamic) == 0

    def test_below_threshold_dynamic(self):
        cloud = PointCloudMap(np.zeros((1, 3)), counts=np.array([1]))
        static, dynamic = mp.classify_static(cloud, mp.MapFilterParams(static_threshold=3))
        assert len(static) == 0 and len(dynamic) == 1

    def test_erosion_both_conditions(self):
        params = mp.MapFilterParams(erosion_count=4)
        static = PointCloudMap(
            np.array([[0.0, 0, 0], [5.0, 0, 0]]), counts=np.array([3, 3])
        )
        dynamic = PointCloudMap(np.array([[0.25, 0, 0]]), counts=np.array([1]))
        static2, dynamic2 = mp.erode_static(static, dynamic, params)
        assert len(static2) == 1 and np.allclose(static2.positions[0], [5, 0, 0])
        assert len(dynamic2) == 2

    def test_erosion_empty_dynamic_is_noop(self):
        params = mp.MapFilterParams()
        static = cloud_of(np.random.default_rng(1).uniform(size=(20, 3)))
        empty = PointCloudMap(np.zeros((0, 3)))
        static2, _ = mp.erode_static(static, empty, params)
        assert len(static2) == 20

    def test_expansion_both_conditions(self):
        params = mp.MapFilterParams(expansion_count=2)
        static = PointCloudMap(np.array([[0.0, 0, 0]]), counts=np.array([8]))
        dynamic = PointCloudMap(
            np.array([[0.1, 0, 0], [0.15, 0, 0], [3.0, 0, 0]]),
            counts=np.array([3, 1, 5]),
        )
        static2, dynamic2 = mp.expand_static(static, dynamic, params)
        assert len(static2) == 2  # original + the close high-count point
        assert len(dynamic2) == 2

    def test_randomized_match_brute_force(self, monkeypatch):
        rng = np.random.default_rng(4)
        for _ in range(20):
            erosion_radius = float(rng.uniform(0.1, 0.6))
            erosion_count = int(rng.integers(2, 6))
            expansion_radius = float(rng.uniform(0.1, 0.6))
            params = mp.MapFilterParams(erosion_count=erosion_count, expansion_count=int(rng.integers(1, 5)))
            monkeypatch.setattr(mp, "EROSION_RADIUS", erosion_radius)
            monkeypatch.setattr(mp, "EXPANSION_RADIUS", expansion_radius)
            ns, nd = int(rng.integers(5, 60)), int(rng.integers(5, 60))
            static = PointCloudMap(
                rng.uniform(-1.5, 1.5, (ns, 3)), counts=rng.integers(1, 9, ns)
            )
            dynamic = PointCloudMap(
                rng.uniform(-1.5, 1.5, (nd, 3)), counts=rng.integers(1, 9, nd)
            )
            s2, d2 = mp.erode_static(static, dynamic, params)
            move = np.array(
                [
                    min(np.linalg.norm(p - q) for q in dynamic.positions) < erosion_radius
                    and c < params.erosion_count
                    for p, c in zip(static.positions, static.counts)
                ]
            )
            assert len(s2) == int((~move).sum())
            assert np.allclose(s2.positions, static.positions[~move])
            assert len(d2) == nd + int(move.sum())

            s3, d3 = mp.expand_static(s2, d2, params)
            move2 = np.array(
                [
                    min(np.linalg.norm(p - q) for q in s2.positions) < expansion_radius
                    and c > params.expansion_count
                    for p, c in zip(d2.positions, d2.counts)
                ]
            ) if len(s2) else np.zeros(len(d2), dtype=bool)
            assert len(s3) == len(s2) + int(move2.sum())
            assert len(d3) == len(d2) - int(move2.sum())

    def test_conservation_and_monotonicity(self):
        rng = np.random.default_rng(5)
        cloud = PointCloudMap(
            rng.uniform(-3, 3, (300, 3)), counts=rng.integers(1, 9, 300)
        )
        sizes = []
        for beta in range(1, 9):
            static, dynamic = mp.classify_static(cloud, mp.MapFilterParams(static_threshold=beta))
            sizes.append(len(static))
            params = mp.MapFilterParams(static_threshold=beta)
            s2, d2 = mp.erode_static(static, dynamic, params)
            assert len(s2) + len(d2) == 300
            s3, d3 = mp.expand_static(s2, d2, params)
            assert len(s3) + len(d3) == 300
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def fake_ground_session(slope=0.0, rig=None, n_scans=5, seed=0):
    """Hand-built session whose scans sample a (possibly sloped) plane."""
    rig = rig or sim.default_rig()
    rng = np.random.default_rng(seed)
    gt_times = np.arange(n_scans) * 0.1
    gt_poses = [Pose(rot_z(0.0), np.array([2.0 * k, 0.0, sim.BODY_HEIGHT])) for k in range(n_scans)]
    scans = []
    for k in range(n_scans):
        # points in the laser frame: scatter around the ground plane
        xy = rng.uniform(-4, 4, size=(200, 2))
        z_world = slope * (xy[:, 0] + 2.0 * k) + rng.normal(0, 0.05, 200)
        z_laser = z_world - rig.laser_height
        pts = np.column_stack([xy, z_laser])
        scans.append((pts, np.zeros(200, dtype=int)))
    frames = [FrameObservations(float(t), np.zeros(0, int), np.zeros((0, 4))) for t in gt_times]
    return SessionData(0, rig, gt_times, gt_poses, [], frames, scans)


def voxel_centroids(points, voxel, chunk=None):
    """``_VoxelGrid``'s (centroids, first point) of ``points``, filed
    ``chunk`` points at a time (all at once by default), each point's index
    as its payload."""
    grid = mp._VoxelGrid(voxel)
    step = chunk or max(len(points), 1)
    for start in range(0, len(points), step):
        grid.add(points[start : start + step], np.arange(start, min(start + step, len(points))))
    return grid.centroids()


class TestVoxelCentroids:
    """``_VoxelGrid`` against a dict of cells: lexicographic cell order, each
    cell's first point, and centroids summed in point order, whether the
    points are filed at once or in chunks."""

    @staticmethod
    def assert_matches_oracle(points, voxel):
        keys, want_first, want = voxel_cells(points, voxel)
        for chunk in (None, 7):
            centroids, first = voxel_centroids(points, voxel, chunk)
            got_keys = [tuple(int(c) for c in np.floor(points[i] / voxel)) for i in first]
            assert got_keys == keys
            np.testing.assert_array_equal(first, want_first)
            np.testing.assert_array_equal(centroids, want)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(-3.0, 2.0, size=(600, 3))
        self.assert_matches_oracle(points, 0.4)

    def test_points_on_cell_faces_and_single_point_cells(self):
        rng = np.random.default_rng(22)
        voxel = 0.25
        # multiples of the voxel lie on cell faces, edges and corners
        faces = voxel * rng.integers(-8, 8, size=(40, 3)).astype(float)
        mixed = faces.copy()
        mixed[::2, 1] += rng.uniform(0.0, voxel, size=20)
        lonely = np.array([[-9.9, 7.3, -4.4], [6.1, -8.8, 9.05]])
        points = np.concatenate([faces, mixed, lonely, faces[:5]])
        self.assert_matches_oracle(points, voxel)
        centroids, _ = voxel_centroids(points, voxel)
        for p in lonely:
            assert (centroids == p).all(axis=1).sum() == 1
        # a point on a face belongs to the cell above it
        xs = np.array([0.49, 0.5, 0.51, -0.51, -0.5, -0.49])
        centroids, first = voxel_centroids(np.column_stack([xs, 0 * xs, 0 * xs]), voxel)
        np.testing.assert_array_equal(first, [3, 4, 0, 1])
        np.testing.assert_array_equal(
            centroids[:, 0], [-0.51, (-0.5 + -0.49) / 2, 0.49, (0.5 + 0.51) / 2]
        )

    def test_empty_input(self):
        centroids, first = voxel_centroids(np.zeros((0, 3)), 0.5)
        assert centroids.shape == (0, 3)
        assert first.shape == (0,) and first.dtype.kind == "i"

    def test_extent_at_the_int64_limit(self):
        # spans of 2**31 x (2**32 - 1) x 1 cells: 2**63 - 2**31 keys, which fit
        near = np.array([[0.0, 0.0, 0.0], [2.0**31 - 1, 2.0**32 - 2, 0.0], [1.0, 0.0, 0.0]])
        self.assert_matches_oracle(near, 1.0)
        # one more y cell makes 2**63 keys, one too many
        beyond = near.copy()
        beyond[1, 1] += 1.0
        with pytest.raises(ValueError, match="int64"):
            voxel_centroids(beyond, 1.0)
        far = np.array([[0.0, 0.0, 0.0], [1.0e7, -1.0e7, 1.0e7]])
        with pytest.raises(ValueError, match="int64"):
            voxel_centroids(far, 1.0e-3)
        # a small extent far from the origin fits: keys are offset before packing
        # (unoffset, x = 2**62 would pack past 2**63 and sort first)
        remote = np.array([[2.0**62, 0.0, 0.0], [2.0**62 - 1024, 1.0, 0.0], [2.0**62, 1.0, 0.0]])
        self.assert_matches_oracle(remote, 1.0)


class TestExtractGround:
    def test_flat_ground_band(self):
        session = fake_ground_session(slope=0.0)
        params = mp.MapFilterParams(ground_voxel=0.5)
        ground = mp.extract_ground([session], params)
        assert len(ground) > 0
        assert np.all(np.abs(ground.positions[:, 2]) < mp.GROUND_BAND + 1e-9)
        assert np.all(ground.ground)
        assert np.allclose(ground.normals, [0, 0, 1.0])

    def test_voxel_uniqueness(self):
        session = fake_ground_session(slope=0.0, seed=3)
        params = mp.MapFilterParams(ground_voxel=0.5)
        ground = mp.extract_ground([session], params)
        cells = np.floor(ground.positions / params.ground_voxel).astype(int)
        assert len(np.unique(cells, axis=0)) == len(cells)

    def test_sloped_scene_matches_brute_force(self):
        session = fake_ground_session(slope=0.08, seed=4)
        params = mp.MapFilterParams(ground_voxel=0.4)
        ground = mp.extract_ground([session], params)

        pts = []
        for k, (points_f, _) in enumerate(session.scans):
            keep = np.abs(points_f[:, 2] + session.rig.laser_height) <= mp.GROUND_BAND
            pose = session.gt_poses[k] @ session.rig.body_t_laser
            for p in points_f[keep]:
                pts.append(pose.apply(p))
        pts = np.asarray(pts)
        cells = {}
        for i, p in enumerate(pts):
            key = tuple(np.floor(p / params.ground_voxel).astype(int))
            cells.setdefault(key, []).append(i)
        assert len(ground) == len(cells)
        expected = sorted(tuple(np.mean(pts[v], axis=0)) for v in cells.values())
        got = sorted(tuple(p) for p in ground.positions)
        assert np.allclose(np.asarray(got), np.asarray(expected), atol=1e-9)


class TestStreamedGround:
    """``extract_ground`` files its returns a chunk of scans at a time."""

    @staticmethod
    def sessions(n_sessions, n_scans=5, slope=0.05):
        out = []
        for seed in range(n_sessions):
            session = fake_ground_session(slope=slope, n_scans=n_scans, seed=seed)
            rng = np.random.default_rng(100 + seed)
            scans = [(pts, rng.integers(0, 50, len(pts))) for pts, _ in session.scans]
            out.append(replace(session, session_id=seed, scans=scans))
        return out

    @staticmethod
    def in_band_points(sessions):
        pts, labels = [np.zeros((0, 3))], [np.zeros(0, int)]
        for session in sessions:
            for k, (points_f, scan_labels) in enumerate(session.scans):
                keep = np.abs(points_f[:, 2] + session.rig.laser_height) <= mp.GROUND_BAND
                pose = session.gt_poses[k] @ session.rig.body_t_laser
                pts.append(pose.apply(points_f[keep]))
                labels.append(scan_labels[keep])
        return np.concatenate(pts), np.concatenate(labels)

    @pytest.mark.parametrize("chunk", [5, 450])
    def test_equals_one_shot_centroids(self, chunk, monkeypatch):
        # a chunk of 5 points is one scan; 450 points are two or three scans.
        # Scans 2 m apart and sessions on one route share cells, so cells
        # are split across chunk and session boundaries
        monkeypatch.setattr(mp, "_CHUNK_POINTS", chunk)
        params = mp.MapFilterParams(ground_voxel=0.5)
        no_returns = self.sessions(1)[0]
        no_returns.scans = [(pts + [0.0, 0.0, 5.0], labels) for pts, labels in no_returns.scans]
        # scans 0 and 3 of 5 hold no returns at all
        gaps = self.sessions(1)[0]
        gaps.scans = [
            (pts[:0], labels[:0]) if k in (0, 3) else (pts, labels) for k, (pts, labels) in enumerate(gaps.scans)
        ]
        for sessions in ([], self.sessions(3), self.sessions(3)[:1] + [no_returns, gaps] + self.sessions(2)):
            ground = mp.extract_ground(sessions, params)
            pts, labels = self.in_band_points(sessions)
            _, first, centroids = voxel_cells(pts, params.ground_voxel)
            assert ground.positions.dtype == centroids.dtype == np.float64
            np.testing.assert_array_equal(ground.positions, centroids)
            assert ground.labels.dtype == labels.dtype
            np.testing.assert_array_equal(ground.labels, labels[first])
        assert len(mp.extract_ground([no_returns], params)) == 0

    def test_peak_memory_is_bounded_by_the_cells(self, monkeypatch):
        # four sessions over the same ground: four times the returns of one
        # in nearly the same cells (736 against 715)
        monkeypatch.setattr(mp, "_CHUNK_POINTS", 300)
        params = mp.MapFilterParams(ground_voxel=1.0)
        peaks = []
        for n_sessions in (1, 4):
            sessions = self.sessions(n_sessions, n_scans=20, slope=0.0)
            tracemalloc.start()
            try:
                mp.extract_ground(sessions, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestBuildFinalMap:
    def test_empty_ground(self):
        rng = np.random.default_rng(6)
        static = cloud_of(np.column_stack([rng.uniform(-3, 3, (80, 2)), np.zeros(80)]))
        empty = PointCloudMap(np.zeros((0, 3)))
        final = mp.build_final_map(static, empty)
        assert len(final) == 80
        assert final.has_normal().mean() > 0.9

    def test_ground_only_map_all_point_to_plane(self):
        session = fake_ground_session()
        ground = mp.extract_ground([session], mp.MapFilterParams())
        empty = PointCloudMap(np.zeros((0, 3)))
        final = mp.build_final_map(empty, ground)
        assert np.all(final.ground)
        assert np.all(final.has_normal())
        assert np.allclose(final.normals, [0, 0, 1.0])

    def test_count_bookkeeping(self):
        rng = np.random.default_rng(7)
        static = cloud_of(rng.uniform(-3, 3, (120, 3)))
        session = fake_ground_session(seed=8)
        ground = mp.extract_ground([session], mp.MapFilterParams())
        final = mp.build_final_map(static, ground)
        assert len(final) == len(static) + len(ground)


def test_filter_params():
    """``for_sessions`` scales the counts to the session count, the ground
    band is the module's, and a ground voxel must be positive."""
    params = mp.MapFilterParams.for_sessions(3)
    assert (params.static_threshold, params.erosion_count, params.expansion_count) == (2, 3, 2)
    assert params.ground_band == mp.GROUND_BAND
    for voxel in (0.0, -0.5):
        with pytest.raises(ValueError, match="ground_voxel"):
            mp.MapFilterParams(ground_voxel=voxel)


class TestPipelineDriver:
    def test_deterministic_and_stats(self, short_session):
        sessions = [short_session]
        params = mp.MapFilterParams.for_sessions(1)
        final1, stats1 = mp.run_map_pipeline(sessions, params)
        final2, stats2 = mp.run_map_pipeline(sessions, params)
        assert stats1 == stats2
        assert np.array_equal(final1.positions, final2.positions)
        labels = [s[0] for s in stats1]
        assert "merged" in labels and "final" in labels

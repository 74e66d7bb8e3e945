import numpy as np
import pytest

from crossloc import laser_map as lm
from crossloc.liegroup import so3_exp

from oracles import brute_force_knn


def random_cloud(rng, n=100):
    return lm.PointCloudMap(
        rng.uniform(-10, 10, size=(n, 3)),
        counts=rng.integers(1, 9, size=n),
        ground=rng.uniform(size=n) < 0.2,
    )


class TestKnn:
    def test_singleton_map(self):
        cloud = lm.PointCloudMap(np.array([[1.0, 2.0, 3.0]]))
        idx, dist = cloud.knn([1.0, 2.0, 0.0], k=1)
        assert list(idx) == [0]
        assert dist[0] == pytest.approx(3.0, abs=1e-15)

    def test_exact_hit_first(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 50)
        q = cloud.positions[17]
        idx, dist = cloud.knn(q, k=3)
        assert idx[0] == 17
        assert dist[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 10_000)
        for _ in range(100):
            q = rng.uniform(-11, 11, size=3)
            idx, dist = cloud.knn(q, k=5)
            bf_idx, bf_dist = brute_force_knn(cloud.positions, q, 5)
            assert np.array_equal(idx, bf_idx)
            assert np.array_equal(dist, bf_dist)

    def test_ties_broken_by_insertion_order(self):
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        cloud = lm.PointCloudMap(pts)
        idx, dist = cloud.knn([0.0, 0.0, 0.0], k=3)
        assert list(idx) == [0, 1, 2]
        assert np.allclose(dist, 1.0)

    def test_empty_map_raises(self):
        cloud = lm.PointCloudMap(np.zeros((0, 3)))
        with pytest.raises(lm.EmptyMapError):
            cloud.knn([0, 0, 0], k=1)

    def test_k_larger_than_map(self):
        cloud = lm.PointCloudMap(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        idx, _ = cloud.knn([0, 0, 0], k=10)
        assert len(idx) == 2

    def test_randomized_exactness_various_k(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            cloud = random_cloud(rng, int(rng.integers(5, 300)))
            q = rng.uniform(-12, 12, size=3)
            for k in (1, 3, 5, 10):
                idx, dist = cloud.knn(q, k=k)
                bf_idx, bf_dist = brute_force_knn(cloud.positions, q, k)
                assert np.array_equal(idx, bf_idx)
                assert np.array_equal(dist, bf_dist)


    def test_batch_matches_brute_force_row_by_row(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 10_000)
        queries = rng.uniform(-11, 11, size=(100, 3))
        for k in (1, 3, 5, 10):
            idx, dist = cloud.knn(queries, k=k)
            assert idx.shape == dist.shape == (100, k)
            for q, row_idx, row_dist in zip(queries, idx, dist):
                bf_idx, bf_dist = brute_force_knn(cloud.positions, q, k)
                assert np.array_equal(row_idx, bf_idx)
                assert np.array_equal(row_dist, bf_dist)

    def test_batch_tie_at_the_kth_boundary(self):
        # the middle query is 1 from points 1, 2 and 3 and 2 from point 4:
        # with k = 2 its 2nd and 3rd neighbours tie, and the lower index wins
        pts = np.array([[2.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [9.0, 9, 9]])
        cloud = lm.PointCloudMap(pts[[4, 3, 2, 1, 0]])
        queries = np.array([[8.0, 9, 9], [0.0, 0, 0], [3.0, 0, 0]])
        idx, dist = cloud.knn(queries, k=2)
        for q, row_idx, row_dist in zip(queries, idx, dist):
            bf_idx, bf_dist = brute_force_knn(cloud.positions, q, 2)
            assert np.array_equal(row_idx, bf_idx)
            assert np.array_equal(row_dist, bf_dist)
        assert idx[1].tolist() == [1, 2]

    def test_batch_tie_inside_the_k_nearest(self):
        # both neighbours are 1 away and the third is far: no boundary tie,
        # and the pair still comes back in insertion order
        cloud = lm.PointCloudMap(np.array([[1.0, 0, 0], [-1.0, 0, 0], [5.0, 5, 5]]))
        idx, dist = cloud.knn(np.zeros((2, 3)), k=2)
        assert idx.tolist() == [[0, 1], [0, 1]]
        assert dist.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("n, k", [(30, 5), (30, 1), (5, 5), (3, 10), (1, 1)])
    def test_empty_batch(self, n, k):
        cloud = random_cloud(np.random.default_rng(8), n)
        idx, dist = cloud.knn(np.zeros((0, 3)), k)
        assert idx.shape == dist.shape == (0, min(k, n))
        assert idx.dtype.kind == "i" and dist.dtype == float

    def test_single_point_keeps_1d_shapes(self):
        cloud = random_cloud(np.random.default_rng(7), 50)
        q = np.array([0.5, -0.5, 1.0])
        idx, dist = cloud.knn(q, k=4)
        assert idx.shape == dist.shape == (4,)
        batch_idx, batch_dist = cloud.knn(q[None], k=4)
        assert np.array_equal(idx, batch_idx[0]) and np.array_equal(dist, batch_dist[0])


class TestEstimateNormals:
    def test_planar_cloud(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-5, 5, 400), rng.uniform(-5, 5, 400), np.zeros(400)])
        cloud = lm.estimate_normals(lm.PointCloudMap(pts), neighborhood_k=10)
        assert np.all(cloud.has_normal())
        assert np.allclose(cloud.normals, [0, 0, 1.0], atol=1e-6)

    def test_thin_pole_degenerate(self):
        z = np.linspace(0, 3, 60)
        pts = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
        cloud = lm.estimate_normals(lm.PointCloudMap(pts), neighborhood_k=8)
        assert not np.any(cloud.has_normal())

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3000, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        cloud = lm.estimate_normals(lm.PointCloudMap(pts), neighborhood_k=12)
        ok = cloud.has_normal()
        assert ok.mean() > 0.99
        cosang = np.abs(np.sum(cloud.normals[ok] * pts[ok], axis=1))
        frac_within = np.mean(cosang >= np.cos(np.deg2rad(5.0)))
        assert frac_within >= 0.99

    def test_rotation_equivariance_on_the_line(self):
        rng = np.random.default_rng(5)
        base = np.column_stack(
            [rng.uniform(-3, 3, 500), rng.uniform(-3, 3, 500), 0.05 * rng.normal(size=500)]
        )
        rot = so3_exp(np.array([0.4, -0.3, 0.8]))
        a = lm.estimate_normals(lm.PointCloudMap(base), neighborhood_k=10)
        b = lm.estimate_normals(lm.PointCloudMap(base @ rot.T), neighborhood_k=10)
        ok = a.has_normal() & b.has_normal()
        rotated = a.normals[ok] @ rot.T
        cosang = np.abs(np.sum(rotated * b.normals[ok], axis=1))
        assert np.all(cosang > 1.0 - 1e-6)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            lm.estimate_normals(lm.PointCloudMap(np.zeros((4, 3))), neighborhood_k=2)


class TestNormalConsistency:
    def test_identical_normals(self):
        n = np.array([0.0, 0.0, 1.0])
        assert lm.normal_consistency([[n, n, n]], angle_threshold=1e-6).tolist() == [True]

    def test_orthogonal_normals(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([1.0, 0.0, 0.0])
        assert lm.normal_consistency([[a, b]], angle_threshold=np.deg2rad(30)).tolist() == [False]

    def test_cone_within_threshold_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            normals = []
            for _ in range(5):
                tilt = rng.uniform(0, np.deg2rad(10) / 2)
                perp = np.cross(axis, rng.normal(size=3))
                perp /= np.linalg.norm(perp)
                normals.append(so3_exp(perp * tilt) @ axis)
            threshold = np.deg2rad(15)
            got = lm.normal_consistency([normals], threshold)
            worst = max(
                np.arccos(np.clip(a @ b, -1, 1))
                for i, a in enumerate(normals)
                for b in normals[i + 1 :]
            )
            assert got.tolist() == [worst <= threshold + 1e-12]

    def test_absent_normal_inconsistent(self):
        # an absent normal is a NaN row, as PointCloudMap stores it
        n = np.array([0.0, 0.0, 1.0])
        absent = np.full(3, np.nan)
        assert lm.normal_consistency([[n, absent]], angle_threshold=1.0).tolist() == [False]
        assert lm.normal_consistency([[absent, n]], angle_threshold=1.0).tolist() == [False]

    def test_stacked_rows_judged_independently(self):
        z = np.array([0.0, 0.0, 1.0])
        tilted = so3_exp(np.array([np.deg2rad(5.0), 0.0, 0.0])) @ z
        x = np.array([1.0, 0.0, 0.0])
        absent = np.full(3, np.nan)
        rows = [
            [z, tilted, z],  # within 10 degrees
            [z, x, z],  # 90 degrees apart
            [z, z, absent],  # one normal absent
            [tilted, z, tilted],  # within 10 degrees
            [absent, absent, absent],
        ]
        got = lm.normal_consistency(rows, angle_threshold=np.deg2rad(10))
        assert got.dtype == bool and got.shape == (5,)
        assert got.tolist() == [True, False, False, True, False]

    def test_fewer_than_two_normals_rejected(self):
        with pytest.raises(ValueError):
            lm.normal_consistency(np.zeros((3, 1, 3)), angle_threshold=1.0)


class TestMapIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 200)
        cloud = lm.estimate_normals(cloud, neighborhood_k=10)
        path = tmp_path / "map.txt"
        lm.save_map(cloud, path)
        back = lm.load_map(path)
        assert path.read_text().splitlines()[0] == "crossloc-map v1 map"
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.counts, cloud.counts)
        assert np.array_equal(back.ground, cloud.ground)
        nan_a, nan_b = np.isnan(cloud.normals), np.isnan(back.normals)
        assert np.array_equal(nan_a, nan_b)
        assert np.array_equal(cloud.normals[~nan_a], back.normals[~nan_b])

    def test_missing_normal_columns(self, tmp_path):
        # save_map writes "-" for a missing normal; a row with no normal
        # column at all is no layout it writes
        path = tmp_path / "map.txt"
        path.write_text("crossloc-map v1 map\n5 6 7 - 2 0\n1 2 3 - 4 1\n")
        cloud = lm.load_map(path)
        assert len(cloud) == 2
        assert not np.any(cloud.has_normal())
        assert list(cloud.counts) == [2, 4]
        assert list(cloud.ground) == [False, True]
        path.write_text("crossloc-map v1 map\n1 2 3 4 1\n5 6 7 - 2 0\n")
        with pytest.raises(lm.ParseError, match="got 5") as exc:
            lm.load_map(path)
        assert exc.value.line == 2

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "map.txt"
        lines = ["crossloc-map v1 map"] + ["0 0 %d - 1 0" % i for i in range(5)]
        lines.insert(6, "0 0 zap - 1 0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(lm.ParseError) as exc:
            lm.load_map(path)
        assert exc.value.line == 7

    def test_bad_header(self, tmp_path):
        # every map is in the map frame: a header naming another is malformed
        path = tmp_path / "map.txt"
        for header in ("not-a-map", "crossloc-map v1 local", "crossloc-map v2 map"):
            path.write_text(header + "\n0 0 0 - 1 0\n")
            with pytest.raises(lm.ParseError) as exc:
                lm.load_map(path)
            assert exc.value.line == 1

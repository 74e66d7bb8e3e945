import math

import numpy as np
import pytest

from crossloc import laser_map as lm
from crossloc.liegroup import se3_exp, so3_exp

from oracles import association_per_point, brute_force_knn


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


class TestMatch:
    """``PointCloudMap.match`` against a row-by-row reference on
    ``brute_force_knn``: the nearest point within the gate, point-to-plane
    where all k nearest normals are present and pairwise within
    ``NORMAL_CONSISTENCY_ANGLE``."""

    @staticmethod
    def cloud(rng):
        ground = np.column_stack([rng.uniform(-6, 6, 600), rng.uniform(-6, 6, 600), np.zeros(600)])
        wall = np.column_stack([np.full(300, 5.0), rng.uniform(-6, 6, 300), rng.uniform(0, 3, 300)])
        scatter = rng.uniform(-6, 6, size=(100, 3))
        return lm.estimate_normals(lm.PointCloudMap(np.vstack([ground, wall, scatter])))

    @staticmethod
    def reference(cloud, query, k, gate):
        rows, nearest, plane = [], [], []
        for row, q in enumerate(query):
            idx, dist = brute_force_knn(cloud.positions, q, k)
            if dist[0] > gate:
                continue
            normals = cloud.normals[idx]
            angles = np.arccos(np.clip(normals @ normals.T, -1.0, 1.0))
            consistent = len(idx) >= 2 and not np.isnan(normals).any()
            rows.append(row)
            nearest.append(idx[0])
            plane.append(bool(consistent and np.all(angles <= lm.NORMAL_CONSISTENCY_ANGLE + 1e-12)))
        return rows, nearest, plane

    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_brute_force_row_by_row(self, k):
        rng = np.random.default_rng(12)
        cloud = self.cloud(rng)
        assert 0 < cloud.has_normal().sum() < len(cloud)
        query = rng.uniform([-8, -8, -1], [8, 8, 4], size=(200, 3))
        got = cloud.match(query, k, 1.0)
        rows, nearest, plane = self.reference(cloud, query, k, 1.0)
        assert 0 < len(rows) < len(query)
        assert len(got) == len(rows)
        assert got.rows.tolist() == rows
        assert got.plane.tolist() == plane
        # both metrics with k = 5; with k = 1 every row is point-to-point
        assert set(plane) == ({True, False} if k > 1 else {False})
        np.testing.assert_array_equal(got.points, cloud.positions[nearest])
        np.testing.assert_array_equal(got.normals, cloud.normals[nearest])

    def test_empty_map_or_query_matches_nothing(self):
        """No ``EmptyMapError``: the empty record, and a NaN mean distance."""
        cloud = random_cloud(np.random.default_rng(14), 30)
        for source, query in ((lm.PointCloudMap(np.zeros((0, 3))), np.ones((4, 3))), (cloud, np.zeros((0, 3)))):
            got = source.match(query, 5, 1.0)
            assert len(got) == 0 and got.rows.dtype.kind == "i"
            assert got.points.shape == got.normals.shape == (0, 3)
            assert math.isnan(got.mean_distance(np.zeros((0, 3))))

    def test_mean_distance_of_moved_points(self):
        """Points moved off their query rows, against a row-by-row sum of
        plane distances on point-to-plane rows and point distances on the rest."""
        rng = np.random.default_rng(15)
        cloud = self.cloud(rng)
        got = cloud.match(rng.uniform([-8, -8, -1], [8, 8, 4], size=(200, 3)), 5, 1.0)
        assert 0 < got.plane.sum() < len(got)
        moved = rng.normal(scale=0.3, size=(len(got), 3)) + got.points
        total = 0.0
        for point, normal, plane, p in zip(got.points, got.normals, got.plane, moved):
            offset = point - p
            total += abs(float(normal @ offset)) if plane else float(np.linalg.norm(offset))
        assert got.mean_distance(moved) == pytest.approx(total / len(got), rel=1e-12)


class TestEstimateNormals:
    def test_planar_cloud(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-5, 5, 400), rng.uniform(-5, 5, 400), np.zeros(400)])
        cloud = lm.estimate_normals(lm.PointCloudMap(pts))
        assert np.all(cloud.has_normal())
        assert np.allclose(cloud.normals, [0, 0, 1.0], atol=1e-6)

    def test_thin_pole_degenerate(self):
        z = np.linspace(0, 3, 60)
        pts = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
        cloud = lm.estimate_normals(lm.PointCloudMap(pts))
        assert not np.any(cloud.has_normal())

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3000, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        cloud = lm.estimate_normals(lm.PointCloudMap(pts))
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
        a = lm.estimate_normals(lm.PointCloudMap(base))
        b = lm.estimate_normals(lm.PointCloudMap(base @ rot.T))
        ok = a.has_normal() & b.has_normal()
        rotated = a.normals[ok] @ rot.T
        cosang = np.abs(np.sum(rotated * b.normals[ok], axis=1))
        assert np.all(cosang > 1.0 - 1e-6)


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


class TestAssociationDiagnostics:
    def test_single_candidate_probability_one(self):
        cloud = lm.PointCloudMap(np.array([[1.0, 2.0, 3.0]]))
        candidates = cloud.knn([1.1, 2.0, 3.0], k=20)
        assert list(candidates.indices) == [0]
        assert candidates.posterior(0.1)[0] == pytest.approx(1.0)

    def test_two_equidistant_candidates(self):
        cloud = lm.PointCloudMap(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        assert np.allclose(cloud.knn(np.zeros(3), k=20).posterior(0.3), 0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        cloud = lm.PointCloudMap(rng.uniform(-2, 2, (200, 3)))
        p_map = rng.uniform(-1, 1, 3)
        candidates = cloud.knn(p_map, k=20)
        lik = np.array(
            [
                math.exp(-np.dot(p_map - cloud.positions[j], p_map - cloud.positions[j]) / (2 * 0.25**2))
                for j in candidates.indices
            ]
        )
        assert np.allclose(candidates.posterior(0.25), lik / lik.sum(), atol=1e-12)

    def test_stack_matches_single_points(self):
        """The record of a stack, from one ``knn`` call, equals each point's
        own record row by row, and so do its posterior and log likelihood."""
        rng = np.random.default_rng(15)
        cloud = lm.PointCloudMap(rng.uniform(-2, 2, (200, 3)))
        points = rng.uniform(-1, 1, (6, 3))
        stack = cloud.knn(points, k=12)
        probs, log_likelihood = stack.posterior(0.25), stack.log_likelihood(0.25)
        assert isinstance(stack, lm.Candidates)
        assert stack.indices.shape == probs.shape == (6, 12) and log_likelihood.shape == (6,)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        for p_map, row_idx, row_probs, row_ll in zip(points, stack.indices, probs, log_likelihood):
            one = cloud.knn(p_map, k=12)
            np.testing.assert_array_equal(row_idx, one.indices)
            np.testing.assert_allclose(row_probs, one.posterior(0.25), rtol=1e-14, atol=0.0)
            assert row_ll == pytest.approx(one.log_likelihood(0.25), rel=1e-14)
            d2 = np.sum((cloud.positions[row_idx] - p_map) ** 2, axis=1)
            lik = np.exp(-(d2 - d2.min()) / (2 * 0.25**2))
            np.testing.assert_allclose(row_probs, lik / lik.sum(), rtol=1e-12, atol=0.0)

    def test_likelihood_matches_per_point_loop(self):
        """Each point's log likelihood equals the one-point-at-a-time
        reference over brute-force candidates, to 1e-12 relative."""
        rng = np.random.default_rng(14)
        cloud = lm.PointCloudMap(rng.uniform(-2, 2, (200, 3)))
        transform = se3_exp(rng.normal(size=6) * 0.2)
        pts = rng.uniform(-2, 2, (60, 3))
        want = association_per_point(pts, cloud.positions, transform, 0.15, 12)
        got = cloud.knn(transform.apply(pts), k=12).log_likelihood(0.15)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert cloud.knn(pts[:0], k=12).log_likelihood(0.15).shape == (0,)

    def test_kld_identical_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert lm.association_kld(p, p.copy()) == pytest.approx(0.0, abs=1e-15)

    def test_kld_closed_form(self):
        kld = lm.association_kld(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert kld == pytest.approx(expected, abs=1e-12)
        assert kld == pytest.approx(0.5108, abs=1e-4)

    def test_kld_support_mismatch(self):
        with pytest.raises(lm.MismatchedSupportError):
            lm.association_kld(np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(lm.MismatchedSupportError):
            lm.association_kld(
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
                candidates_posterior=np.array([1, 2]),
                candidates_gt=np.array([1, 3]),
            )

    def test_kld_infinite_flagged(self):
        kld = lm.association_kld(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert math.isinf(kld)

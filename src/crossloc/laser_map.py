"""Prior laser map storage: spatial index, normals, consistency.

A PointCloudMap is an immutable cloud held as one array per field:
positions, optional unit normals (NaN rows mean "absent"), per-point
observation counts, ground flags, and an optional integer label channel used
only as ground-truth metadata by the simulator and tests. Every cloud is in
the map frame.

k-NN queries are exact: candidates come from a kd-tree, then distances are
recomputed in double precision and sorted by (distance, insertion index) so
results match a brute-force scan even under ties. A query returns the
association record ``Candidates``, ascending in distance with ties by
insertion order, and its methods state the paper's association model once:
each query point is drawn from an isotropic Gaussian of ``sigma`` around one
of its k candidates, under a uniform prior over the k. They reduce over the
last axis, so one point (k,) and a stack (n, k) take one path.

The localization's hard association is made here too: ``PointCloudMap.match``
keeps each query row's nearest map point within a gate, by one ``knn`` call,
as the record ``Matches``, whose ``rows`` index the query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

NORMAL_NEIGHBORHOOD = 10  # points per normal estimate, the point itself included
# k normals pairwise this close pick point-to-plane, anything else point-to-point
NORMAL_CONSISTENCY_ANGLE = math.radians(20.0)


class EmptyMapError(ValueError):
    """Query against a map with no points."""


class MismatchedSupportError(ValueError):
    """KLD of distributions over different candidate sets."""


class Candidates(NamedTuple):
    """The k nearest map points of one query point (k,) or of each row of a
    stack (n, k): map ``indices`` and Euclidean ``distances``, ascending."""

    indices: np.ndarray
    distances: np.ndarray

    def log_joint(self, sigma: float) -> np.ndarray:
        """Log of each candidate's Gaussian density of ``sigma`` at the query
        point, times the uniform prior 1/k."""
        norm = 1.5 * math.log(2.0 * math.pi * sigma**2) + math.log(self.indices.shape[-1])
        return -0.5 * (self.distances / sigma) ** 2 - norm

    def posterior(self, sigma: float) -> np.ndarray:
        """Each query point's distribution over its candidates."""
        log_joint = self.log_joint(sigma)
        w = np.exp(log_joint - log_joint.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def log_likelihood(self, sigma: float) -> np.ndarray:
        """Each query point's log likelihood, marginalized over its candidates."""
        log_joint = self.log_joint(sigma)
        top = log_joint.max(axis=-1)
        return top + np.log(np.exp(log_joint - top[..., None]).sum(axis=-1))


@dataclass(frozen=True)
class Matches:
    """The hard association, one row per query row kept: ``rows`` (m,), the
    query's rows, ascending; ``points`` and ``normals`` (m, 3) of each row's
    nearest map point (NaN normals where the map has none); ``plane`` (m,),
    point-to-plane, else point-to-point."""

    rows: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    plane: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, mask) -> "Matches":
        return Matches(*(column[mask] for column in vars(self).values()))

    def mean_distance(self, points) -> float:
        """Mean distance of ``points`` (m, 3), one per row, to their matches:
        to the plane on point-to-plane rows, to the point on the others; NaN
        with no rows."""
        if not len(self):
            return float("nan")
        offset = self.points - points
        dist = np.linalg.norm(offset, axis=1)
        dist[self.plane] = np.abs(np.einsum("ni,ni->n", self.normals[self.plane], offset[self.plane]))
        return float(dist.mean())


NO_MATCHES = Matches(np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=bool))


class PointCloudMap:
    """Point cloud with per-point metadata and an exact spatial index."""

    def __init__(self, positions, normals=None, counts=None, ground=None, labels=None):
        positions = np.asarray(positions, dtype=float)
        if positions.size == 0:
            positions = positions.reshape(0, 3)
        self.positions = np.atleast_2d(positions)
        n = len(self.positions)
        if self.positions.shape != (n, 3):
            raise ValueError("positions must be (N, 3)")
        if normals is None:
            normals = np.full((n, 3), np.nan)
        self.normals = np.asarray(normals, dtype=float).reshape(n, 3)
        self.counts = (
            np.ones(n, dtype=int) if counts is None else np.asarray(counts, dtype=int).reshape(n)
        )
        self.ground = (
            np.zeros(n, dtype=bool) if ground is None else np.asarray(ground, dtype=bool).reshape(n)
        )
        self.labels = None if labels is None else np.asarray(labels, dtype=int).reshape(n)
        self._tree = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.positions)
        return self._tree

    def has_normal(self) -> np.ndarray:
        return ~np.isnan(self.normals[:, 0])

    def subset(self, index) -> "PointCloudMap":
        index = np.asarray(index)
        return PointCloudMap(
            self.positions[index],
            self.normals[index],
            self.counts[index],
            self.ground[index],
            None if self.labels is None else self.labels[index],
        )

    def knn(self, query, k: int) -> Candidates:
        """Exact k nearest neighbors of one (3,) point or each row of an (n, 3) batch.

        Returns the association record ``Candidates(indices, distances)``,
        ascending: 1-D for one point, (n, k) for a batch, with k capped at the
        map size. Ties are broken by insertion order; distances are
        recomputed with numpy so they are bit-identical to a brute-force scan.
        The kd-tree proposes k + 1 candidates per row; a row whose (k+1)-th
        candidate ties its k-th within rounding is redone over every point
        within that radius.
        """
        n = len(self)
        if n == 0:
            raise EmptyMapError("knn on empty map")
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=float)
        points = query.reshape(-1, 3)
        kk = min(k, n)
        n_tree = min(kk + 1, n)
        d_tree, i_tree = self.tree.query(points, k=n_tree)
        d_tree = d_tree.reshape(len(points), n_tree)
        idx = i_tree.reshape(len(points), n_tree)[:, :kk].copy()
        if kk < n:
            radius = d_tree[:, kk - 1] * (1.0 + 1e-9) + 1e-12
            for row in np.nonzero(d_tree[:, kk] <= radius)[0]:
                candidates = np.asarray(
                    sorted(self.tree.query_ball_point(points[row], radius[row])), dtype=int
                )
                dists = np.linalg.norm(self.positions[candidates] - points[row], axis=1)
                idx[row] = candidates[np.lexsort((candidates, dists))[:kk]]
        dists = np.linalg.norm(self.positions[idx] - points[:, None, :], axis=2)
        order = np.lexsort((idx, dists))
        idx = np.take_along_axis(idx, order, axis=1)
        dists = np.take_along_axis(dists, order, axis=1)
        if query.ndim == 1:
            return Candidates(idx[0], dists[0])
        return Candidates(idx, dists)

    def match(self, query, k: int, gate: float) -> Matches:
        """Each row of ``query`` (n, 3) against its nearest map point.

        One ``knn`` call of k over all rows. Consistent normals among a row's
        k nearest points pick point-to-plane, anything else (and k = 1)
        point-to-point; rows whose nearest point is beyond ``gate`` are
        dropped. An empty map or query matches nothing.
        """
        if len(self) == 0 or len(query) == 0:
            return NO_MATCHES
        idx, dist = self.knn(query, k)
        if idx.shape[1] >= 2:
            plane = normal_consistency(self.normals[idx], NORMAL_CONSISTENCY_ANGLE)
        else:
            plane = np.zeros(len(idx), dtype=bool)
        rows = np.flatnonzero(dist[:, 0] <= gate)
        nearest = idx[rows, 0]
        return Matches(rows, self.positions[nearest], self.normals[nearest], plane[rows])


def canonical_sign(normals: np.ndarray) -> np.ndarray:
    """Orient toward the +z hemisphere; ties toward +x, then +y."""
    out = normals.copy()
    tol = 1e-12
    nz, nx, ny = out[:, 2], out[:, 0], out[:, 1]
    flip = (nz < -tol) | ((np.abs(nz) <= tol) & (nx < -tol)) | (
        (np.abs(nz) <= tol) & (np.abs(nx) <= tol) & (ny < 0)
    )
    out[flip] *= -1.0
    return out


def estimate_normals(cloud: PointCloudMap) -> PointCloudMap:
    """Per-point normals from the smallest covariance eigenvector of each
    point's ``NORMAL_NEIGHBORHOOD`` nearest points.

    A normal is left absent when the neighborhood is degenerate: the
    smallest-to-middle eigenvalue ratio exceeds 0.5 (no dominant plane), or
    the middle eigenvalue itself vanishes (points on a line).
    """
    n = len(cloud)
    if n == 0:
        return cloud
    kk = min(NORMAL_NEIGHBORHOOD, n)
    _, idx = cloud.tree.query(cloud.positions, k=kk)
    idx = np.atleast_2d(idx)
    if idx.shape[0] != n:  # kk == 1 collapses the axis
        idx = idx.reshape(n, -1)
    neigh = cloud.positions[idx]  # (n, kk, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / kk
    eigval, eigvec = np.linalg.eigh(cov)
    normals = eigvec[:, :, 0]
    scale = np.maximum(eigval[:, 2], 1e-300)
    mid_ok = eigval[:, 1] > 1e-9 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eigval[:, 0] / eigval[:, 1]
    planar = mid_ok & (ratio <= 0.5) & (kk >= 3)
    normals = canonical_sign(normals / np.linalg.norm(normals, axis=1, keepdims=True))
    normals[~planar] = np.nan
    return PointCloudMap(
        cloud.positions, normals, cloud.counts, cloud.ground, cloud.labels
    )


def normal_consistency(normals, angle_threshold: float) -> np.ndarray:
    """Per row of ``normals`` (n, k, 3), k >= 2: all present and pairwise within the angle.

    Returns (n,) bool. A row holding an absent (NaN) normal is inconsistent:
    its angles are NaN and fail the comparison.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 3 or normals.shape[1] < 2:
        raise ValueError("need (n, k, 3) normals with k >= 2")
    dots = np.clip(normals @ normals.transpose(0, 2, 1), -1.0, 1.0)
    return np.all(np.arccos(dots) <= angle_threshold + 1e-12, axis=(1, 2))


def association_kld(
    posterior: np.ndarray,
    gt_distribution: np.ndarray,
    candidates_posterior: np.ndarray | None = None,
    candidates_gt: np.ndarray | None = None,
) -> float:
    """KL(posterior || gt) over a shared candidate set.

    Candidates where both distributions fall below 1e-12 are ignored;
    remaining zero-gt mass under positive posterior yields +inf.
    """
    p = np.asarray(posterior, dtype=float)
    g = np.asarray(gt_distribution, dtype=float)
    if p.shape != g.shape:
        raise MismatchedSupportError("distributions have different lengths")
    if candidates_posterior is not None and candidates_gt is not None:
        if not np.array_equal(candidates_posterior, candidates_gt):
            raise MismatchedSupportError("distributions over different candidates")
    keep = ~((p < 1e-12) & (g < 1e-12))
    p, g = p[keep], g[keep]
    if np.any((g <= 0.0) & (p > 0.0)):
        return float("inf")
    pos = p > 0.0
    return float(np.sum(p[pos] * np.log(p[pos] / g[pos])))

"""Prior laser map storage: spatial index, normals, consistency, file IO.

A PointCloudMap is an immutable array-of-structs cloud: positions, optional
unit normals (NaN rows mean "absent"), per-point observation counts, ground
flags, and an optional integer label channel used only as ground-truth
metadata by the simulator and tests (never serialized). Every cloud is in
the map frame, and a map file says so in its ``crossloc-map v1 map`` header.

k-NN queries are exact: candidates come from a kd-tree, then distances are
recomputed in double precision and sorted by (distance, insertion index) so
results match a brute-force scan even under ties.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# the file format's header; its last word names the map frame, the one frame
# every cloud is in
_HEADER = "crossloc-map v1 map"


class EmptyMapError(ValueError):
    """Query against a map with no points."""


class ParseError(ValueError):
    """Malformed map file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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

    def knn(self, query, k: int):
        """Exact k nearest neighbors of one (3,) point or each row of an (n, 3) batch.

        Returns (indices, distances), ascending: 1-D for one point, (n, k) for a
        batch, with k capped at the map size. Ties are broken by insertion
        order; distances are recomputed with numpy so they are bit-identical to
        a brute-force scan. The kd-tree proposes k + 1 candidates per row; a
        row whose (k+1)-th candidate ties its k-th within rounding is redone
        over every point within that radius.
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
            return idx[0], dists[0]
        return idx, dists


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


def estimate_normals(cloud: PointCloudMap, neighborhood_k: int = 10) -> PointCloudMap:
    """Per-point normals from the smallest covariance eigenvector.

    A normal is left absent when the neighborhood is degenerate: the
    smallest-to-middle eigenvalue ratio exceeds 0.5 (no dominant plane), or
    the middle eigenvalue itself vanishes (points on a line).
    """
    if neighborhood_k < 3:
        raise ValueError("neighborhood_k must be >= 3")
    n = len(cloud)
    if n == 0:
        return cloud
    kk = min(neighborhood_k, n)
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


# ---------------------------------------------------------------------------
# file IO: a `crossloc-map v1 map` header, then one point per line


def save_map(cloud: PointCloudMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER}\n")
        has_n = cloud.has_normal()
        for i in range(len(cloud)):
            p = cloud.positions[i]
            if has_n[i]:
                nrm = cloud.normals[i]
                mid = f"{nrm[0]:.17g} {nrm[1]:.17g} {nrm[2]:.17g}"
            else:
                mid = "-"
            fh.write(
                f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {mid} "
                f"{int(cloud.counts[i])} {int(cloud.ground[i])}\n"
            )


def load_map(path) -> PointCloudMap:
    positions, normals, counts, ground = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.split() != _HEADER.split():
            raise ParseError(1, f"bad header {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            try:
                if len(tok) == 8:
                    normal = [float(tok[3]), float(tok[4]), float(tok[5])]
                    rest = tok[6:]
                elif len(tok) == 6 and tok[3] == "-":
                    normal = [np.nan] * 3
                    rest = tok[4:]
                else:
                    raise ValueError(f"expected 8 fields, or 6 with '-' for the normal, got {len(tok)}")
                positions.append([float(tok[0]), float(tok[1]), float(tok[2])])
                normals.append(normal)
                counts.append(int(rest[0]))
                ground.append(bool(int(rest[1])))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
    return PointCloudMap(positions, normals, counts, ground)

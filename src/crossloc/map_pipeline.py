"""Offline construction of the stable localization map from multi-session data.

Stages, in order: per-session vision transformation (keep laser points that
project near visual features), sequential merge with observation counting,
static/dynamic classification by count, erosion and expansion post-filters,
ground extraction with voxel thinning, and the final union. The module also
provides the probabilistic association diagnostics (candidate posterior,
ground-truth association distribution, KL divergence, EM lower bound) used
to quantify how much a map edit improves data association.

Merge semantics (the documented rule all oracles follow): each session's
cloud is first thinned sequentially so no two kept points lie within the
newness radius; each base point's count increases at most once per session;
unmatched points join the base with count 1 after the session's pass.

Memory: the ground stage places and files its height-band returns a chunk of
scans at a time, so its working set is one chunk (``_CHUNK_POINTS``) plus
the table of occupied cells, however many raw returns the sessions hold.
The other stages hold only the points that vision transformation keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .laser_map import FRAME_MAP, PointCloudMap, estimate_normals
from .liegroup import Pose
from .session import SessionData


class MismatchedSupportError(ValueError):
    """KLD of distributions over different candidate sets."""


@dataclass(frozen=True)
class MapFilterParams:
    """All knobs of the map pipeline, as absolute values."""

    pixel_gate: float = 3.0  # max pixel distance laser-to-feature
    newness_radius: float = 0.2  # merge radius d_alpha (m)
    static_threshold: int = 2  # min observation count beta
    erosion_radius: float = 0.3
    erosion_count: int = 3
    expansion_radius: float = 0.2
    expansion_count: int = 2
    ground_band: float = 0.15  # half-width of the ground height slab (m)
    ground_voxel: float = 0.5

    def __post_init__(self):
        for name in (
            "pixel_gate",
            "newness_radius",
            "erosion_radius",
            "expansion_radius",
            "ground_band",
            "ground_voxel",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @staticmethod
    def for_sessions(n_sessions: int, **overrides) -> "MapFilterParams":
        """Defaults with count thresholds scaled to the session count."""
        params = MapFilterParams(
            static_threshold=math.ceil(0.5 * n_sessions),
            erosion_count=math.ceil(0.7 * n_sessions),
            expansion_count=math.ceil(0.6 * n_sessions),
        )
        return replace(params, **overrides) if overrides else params


# ---------------------------------------------------------------------------
# stage 1: vision transformation


def vision_transform_session(session: SessionData, params: MapFilterParams) -> PointCloudMap:
    """Keep laser points whose image projection lands near a visual feature.

    Scan points are projected into the (left) camera through the
    laser-to-camera extrinsic; points within ``pixel_gate`` of any feature
    pixel of the scan's frame are transformed into the map frame via the
    ground-truth pose and accumulated (counts 1, labels carried). Scan,
    frame and ground-truth row k share one timestamp, so scan k takes
    ``gt_poses[k]``; scans beyond the last ground-truth row are skipped.
    """
    def near_feature(session, k, points_f):
        cam = session.rig.camera
        keep = np.zeros(len(points_f), dtype=bool)
        p_cam = session.rig.cam_t_laser.apply(points_f)
        front = np.flatnonzero(p_cam[:, 2] > 1e-6)
        uv = cam.project(p_cam[front])
        seen = cam.in_image(uv)
        features = session.frames[k].pixels[:, :2]
        if len(features) and seen.any():
            dist, _ = cKDTree(features).query(uv[seen])
            keep[front[seen]] = dist <= params.pixel_gate
        return keep

    pts, labels = _concatenated(_placed_scans([session], near_feature))
    return PointCloudMap(pts, frame=FRAME_MAP, labels=labels)


# ---------------------------------------------------------------------------
# stage 2: merge with observation counting


def sequential_thin(points: np.ndarray, radius: float) -> np.ndarray:
    """Indices of a first-come thinning: drop points within radius of a keep."""
    kept: list[int] = []
    cells: dict[tuple, list[int]] = {}
    inv = 1.0 / radius
    r2 = radius * radius
    for i, p in enumerate(points):
        key = (int(math.floor(p[0] * inv)), int(math.floor(p[1] * inv)), int(math.floor(p[2] * inv)))
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for j in cells.get((key[0] + dx, key[1] + dy, key[2] + dz), ()):
                        d = points[j] - p
                        if d @ d <= r2:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            cells.setdefault(key, []).append(i)
    return np.asarray(kept, dtype=int)


def merge_sessions(transformed: list[PointCloudMap], params: MapFilterParams) -> PointCloudMap:
    """Sequential merge: count re-observations, insert genuinely new points."""
    if not transformed:
        raise ValueError("need at least one session")
    base_pts: np.ndarray | None = None
    base_counts: np.ndarray | None = None
    base_labels: np.ndarray | None = None
    have_labels = all(c.labels is not None for c in transformed)
    for i, cloud in enumerate(transformed):
        keep = sequential_thin(cloud.positions, params.newness_radius)
        pts = cloud.positions[keep]
        labels = cloud.labels[keep] if have_labels else None
        if i == 0 or base_pts is None or len(base_pts) == 0:
            base_pts = pts.copy()
            base_counts = np.ones(len(pts), dtype=int)
            base_labels = labels.copy() if have_labels else None
            continue
        if len(pts) == 0:
            continue
        tree = cKDTree(base_pts)
        dist, idx = tree.query(pts)
        is_new = dist > params.newness_radius
        matched = np.unique(idx[~is_new])
        base_counts[matched] += 1
        if is_new.any():
            base_pts = np.concatenate([base_pts, pts[is_new]])
            base_counts = np.concatenate([base_counts, np.ones(int(is_new.sum()), dtype=int)])
            if have_labels:
                base_labels = np.concatenate([base_labels, labels[is_new]])
    return PointCloudMap(base_pts, counts=base_counts, frame=FRAME_MAP, labels=base_labels)


# ---------------------------------------------------------------------------
# stage 3: static classification with erosion/expansion


def classify_static(merged: PointCloudMap, params: MapFilterParams):
    """Partition by observation count: (static, dynamic)."""
    static_mask = merged.counts >= params.static_threshold
    return merged.subset(static_mask), merged.subset(~static_mask)


def concat_clouds(a: PointCloudMap, b: PointCloudMap) -> PointCloudMap:
    if a.frame != b.frame:
        raise ValueError("cannot concatenate clouds in different frames")
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = np.concatenate([a.labels, b.labels])
    return PointCloudMap(
        np.concatenate([a.positions, b.positions]),
        np.concatenate([a.normals, b.normals]),
        np.concatenate([a.counts, b.counts]),
        np.concatenate([a.ground, b.ground]),
        a.frame,
        labels,
    )


def erode_static(static: PointCloudMap, dynamic: PointCloudMap, params: MapFilterParams):
    """Move low-count static points that hug the dynamic set into dynamic.

    Distances are taken against the dynamic set as it was on entry
    (simultaneous semantics), so the result is order-independent.
    """
    if len(static) == 0 or len(dynamic) == 0:
        return static, dynamic
    dist, _ = dynamic.tree.query(static.positions)
    move = (dist < params.erosion_radius) & (static.counts < params.erosion_count)
    return static.subset(~move), concat_clouds(dynamic, static.subset(move))


def expand_static(static: PointCloudMap, dynamic: PointCloudMap, params: MapFilterParams):
    """Recover high-count dynamic points adjacent to the static surface."""
    if len(static) == 0 or len(dynamic) == 0:
        return static, dynamic
    dist, _ = static.tree.query(dynamic.positions)
    move = (dist < params.expansion_radius) & (dynamic.counts > params.expansion_count)
    return concat_clouds(static, dynamic.subset(move)), dynamic.subset(~move)


# ---------------------------------------------------------------------------
# stage 4: ground modification


# Ground returns filed per chunk, chosen from measurements on the
# loop-reverse bench map (0.9 M in-band returns, 14.6 k cells; 2-core VM).
# Chunks of 10 k, 20 k, 40 k, 80 k and 160 k points built its ground in 0.27,
# 0.24, 0.23, 0.21 and 0.23 s, with tracemalloc peaks of 2.5, 3.8, 6.6, 12.2
# and 23.2 MB. Smaller chunks also cost the localization that follows in the
# same process: glibc sets its heap trim threshold to twice the largest block
# it has unmapped, and a chunk's (n, 3) array is the map build's largest, so
# below about 50 k points the threshold stays under the 2 MB or so by which
# each LM iteration grows and frees the heap top, and every bench
# localization takes 57 k to 131 k minor page faults; from 80 k, a few hundred.
_CHUNK_POINTS = 80_000


class _VoxelGrid:
    """Running per-cell sums of points filed chunk by chunk into voxels of
    side ``voxel``.

    Cells stay in lexicographic order of their integer keys
    ``floor(points / voxel)`` (x, then y, then z, signed); a chunk's cells
    are found or inserted by binary search, so known cells are never sorted
    again. Each cell keeps its coordinate sum, added point by point in input
    order, its count and its first point's ``payload``, so any split into
    chunks gives the bits of one chunk. Keys are compared packed into one
    int64, ``(kx * span_y + ky) * span_z + kz`` after offsetting by the
    minimum of the extent seen so far, so that extent may hold at most
    2**63 - 1 cells; the chunk that grows it past that raises ``ValueError``.
    """

    def __init__(self, voxel: float):
        self.voxel = voxel
        # one row per cell, in key order: the integer key and the coordinate
        # sum by axis, the point count, the first point's payload
        self.keys = [np.zeros(0, dtype=np.int64)] * 3
        self.sums = [np.zeros(0)] * 3
        self.counts = np.zeros(0, dtype=np.int64)
        self.first = np.zeros(0, dtype=int)
        self.lo = self.hi = None

    def add(self, points: np.ndarray, payload: np.ndarray) -> None:
        """File a chunk of points (n, 3); ``payload[i]`` belongs to ``points[i]``."""
        if len(points) == 0:
            return
        keys = [np.floor(points[:, i] / self.voxel).astype(np.int64) for i in range(3)]
        lo, hi = [int(k.min()) for k in keys], [int(k.max()) for k in keys]
        if self.lo is not None:
            lo, hi = list(map(min, lo, self.lo)), list(map(max, hi, self.hi))
        spans = [b - a + 1 for a, b in zip(lo, hi)]
        if math.prod(spans) > np.iinfo(np.int64).max:
            extent = " x ".join(map(str, spans))
            raise ValueError(
                f"points span {extent} cells of {self.voxel:g} m, too many for int64 keys"
            )
        self.lo, self.hi = lo, hi

        def pack(kx, ky, kz):
            return ((kx - lo[0]) * spans[1] + (ky - lo[1])) * spans[2] + (kz - lo[2])

        cells, inverse, counts = np.unique(pack(*keys), return_inverse=True, return_counts=True)
        # each cell's first point: the least index among its points
        first = np.full(len(cells), len(points))
        np.minimum.at(first, inverse, np.arange(len(points)))
        known = pack(*self.keys)
        at = np.searchsorted(known, cells)
        new = np.append(known, -1)[at] != cells  # packed keys are >= 0
        # rows in the grown table: each cell moves down by the new cells before it
        rows = at + np.cumsum(new) - new
        added = rows[new]
        kept = np.ones(len(known) + len(added), dtype=bool)
        kept[added] = False

        def grow(column, fill):
            out = np.empty(len(kept), dtype=column.dtype)
            out[kept] = column
            out[added] = fill
            return out

        first_new = first[new]
        self.keys = [grow(column, k[first_new]) for column, k in zip(self.keys, keys)]
        self.sums = [grow(column, 0.0) for column in self.sums]
        self.counts = grow(self.counts, 0)
        self.first = grow(self.first, payload[first_new])
        # bincount adds in index order: each touched cell's running sum
        # first, then its points in input order, as one pass over them all
        index = np.concatenate([np.arange(len(rows)), inverse])
        for axis, column in enumerate(self.sums):
            weights = np.concatenate([column[rows], points[:, axis]])
            column[rows] = np.bincount(index, weights, minlength=len(rows))
        self.counts[rows] += counts

    def centroids(self):
        """``(centroids, first payloads)``, one row per occupied cell."""
        return np.stack(self.sums, axis=1) / self.counts[:, None], self.first


def voxel_centroids(points: np.ndarray, voxel: float):
    """One centroid per occupied voxel of side ``voxel``.

    Returns ``(centroids, first)``. Cells come in lexicographic order of
    their integer keys ``floor(points / voxel)`` (x, then y, then z, signed);
    ``first[c]`` is the index of the first input point in cell c. Each
    centroid is its cell's coordinate sum, taken in point order, over its
    count. The occupied extent may hold at most 2**63 - 1 cells; a larger one
    raises ``ValueError`` (see ``_VoxelGrid``).
    """
    grid = _VoxelGrid(voxel)
    grid.add(points, np.arange(len(points)))
    return grid.centroids()


def _placed_scans(sessions: list[SessionData], select=None):
    """Each scan's points in the map frame with their labels, scan by scan.

    Scan k is placed by ``gt_poses[k] @ body_t_laser``; empty scans and scans
    past the last ground-truth row are skipped. ``select(session, k, points)``,
    when given, masks scan k's laser-frame points first.
    """
    for session in sessions:
        body_t_laser = session.rig.body_t_laser
        for k, (points_f, labels) in enumerate(session.scans):
            if len(points_f) == 0 or k >= len(session.gt_poses):
                continue
            if select is not None:
                keep = select(session, k, points_f)
                points_f, labels = points_f[keep], labels[keep]
            yield (session.gt_poses[k] @ body_t_laser).apply(points_f), labels


def _concatenated(scans):
    """(points, labels) of the given scans in one pair of arrays."""
    pts, labels = [np.zeros((0, 3))], [np.zeros(0, int)]
    for scan_pts, scan_labels in scans:
        pts.append(scan_pts)
        labels.append(scan_labels)
    return np.concatenate(pts), np.concatenate(labels)


def _chunks(scans):
    """Consecutive scans concatenated into chunks of about ``_CHUNK_POINTS``."""
    pending, size = [], 0
    for scan in scans:
        pending.append(scan)
        size += len(scan[0])
        if size >= _CHUNK_POINTS:
            yield _concatenated(pending)
            pending, size = [], 0
    if pending:
        yield _concatenated(pending)


def extract_ground(sessions: list[SessionData], params: MapFilterParams) -> PointCloudMap:
    """Height-band ground points from every scan, merged and voxel-thinned.

    Returns are placed and filed a chunk of scans at a time, so the peak
    memory is one chunk (``_CHUNK_POINTS`` points) plus the cells, not the
    sessions' returns. The ground equals ``voxel_centroids`` over all the
    returns at once, bit for bit, each cell labelled by its first return.
    """
    grid = _VoxelGrid(params.ground_voxel)
    in_band = lambda session, k, points_f: (  # noqa: E731
        np.abs(points_f[:, 2] + session.rig.laser_height) <= params.ground_band
    )
    for pts, labels in _chunks(_placed_scans(sessions, in_band)):
        grid.add(pts, labels)
    centroids, labels = grid.centroids()
    normals = np.tile([0.0, 0.0, 1.0], (len(centroids), 1))
    return PointCloudMap(
        centroids,
        normals,
        np.full(len(centroids), max(len(sessions), 1), dtype=int),
        np.ones(len(centroids), dtype=bool),
        FRAME_MAP,
        labels,
    )


def build_final_map(static: PointCloudMap, ground: PointCloudMap) -> PointCloudMap:
    """Union of the static set (normals re-estimated) and the ground set.

    Ground normals stay forced to +z so ground association always takes the
    point-to-plane branch.
    """
    static_n = estimate_normals(static) if len(static) else static
    if len(ground) == 0:
        return static_n
    return concat_clouds(static_n, ground)


def build_full_map(session: SessionData, voxel: float = 0.3) -> PointCloudMap:
    """Unfiltered baseline: every laser return of one session, voxel-thinned."""
    pts, labels = _concatenated(_placed_scans([session]))
    centroids, first = voxel_centroids(pts, voxel)
    cloud = PointCloudMap(centroids, frame=FRAME_MAP, labels=labels[first])
    return estimate_normals(cloud)


# ---------------------------------------------------------------------------
# association diagnostics (EM view of the localization likelihood)


def _gaussian_log_weights(p_query: np.ndarray, candidates: np.ndarray, sigma: float):
    d2 = np.sum((candidates - p_query) ** 2, axis=1)
    return -0.5 * d2 / (sigma * sigma)


def association_posterior(
    p_v: np.ndarray,
    cloud: PointCloudMap,
    transform: Pose,
    sigma: float,
    k: int = 20,
):
    """Posterior over the k nearest map candidates of a transformed point.

    ``transform`` maps the visual point into the map frame. Returns
    (candidate indices, probabilities); probabilities sum to one.
    """
    p_map = transform.apply(np.asarray(p_v, dtype=float))
    idx, _ = cloud.knn(p_map, k)
    logw = _gaussian_log_weights(p_map, cloud.positions[idx], sigma)
    logw -= logw.max()
    w = np.exp(logw)
    return idx, w / w.sum()


def association_kld(
    posterior: np.ndarray,
    gt_distribution: np.ndarray,
    candidates_posterior: np.ndarray | None = None,
    candidates_gt: np.ndarray | None = None,
    drop_eps: float = 1e-12,
) -> float:
    """KL(posterior || gt) over a shared candidate set.

    Candidates where both distributions fall below ``drop_eps`` are ignored;
    remaining zero-gt mass under positive posterior yields +inf.
    """
    p = np.asarray(posterior, dtype=float)
    g = np.asarray(gt_distribution, dtype=float)
    if p.shape != g.shape:
        raise MismatchedSupportError("distributions have different lengths")
    if candidates_posterior is not None and candidates_gt is not None:
        if not np.array_equal(candidates_posterior, candidates_gt):
            raise MismatchedSupportError("distributions over different candidates")
    keep = ~((p < drop_eps) & (g < drop_eps))
    p, g = p[keep], g[keep]
    if np.any((g <= 0.0) & (p > 0.0)):
        return float("inf")
    pos = p > 0.0
    return float(np.sum(p[pos] * np.log(p[pos] / g[pos])))


def _candidate_log_joint(points, cloud: PointCloudMap, transform: Pose, sigma: float, k: int):
    """Per point (n, 3), the log joint of each of its k nearest map candidates
    under a Gaussian of ``sigma`` and a uniform matching prior: (n, k), by
    one batched ``knn``."""
    p_map = transform.apply(np.asarray(points, dtype=float).reshape(-1, 3))
    idx, _ = cloud.knn(p_map, k)
    d2 = np.sum((cloud.positions[idx] - p_map[:, None, :]) ** 2, axis=2)
    norm = -1.5 * math.log(2.0 * math.pi * sigma * sigma)
    return -0.5 * d2 / (sigma * sigma) + norm - math.log(idx.shape[1])


def association_log_likelihood(
    points: np.ndarray, cloud: PointCloudMap, transform: Pose, sigma: float, k: int = 20
) -> float:
    """Candidate-marginalized log likelihood with a uniform matching prior."""
    log_joint = _candidate_log_joint(points, cloud, transform, sigma, k)
    m = log_joint.max(axis=1, keepdims=True)
    return float(np.sum(m[:, 0] + np.log(np.exp(log_joint - m).sum(axis=1))))


def em_lower_bound(
    points: np.ndarray,
    cloud: PointCloudMap,
    transform: Pose,
    sigma: float,
    k: int = 20,
    q_distributions: list[np.ndarray] | None = None,
) -> float:
    """Jensen lower bound on the marginal log likelihood.

    With ``q_distributions`` omitted, the posterior is used and the bound is
    tight (equals the log likelihood).
    """
    log_joint = _candidate_log_joint(points, cloud, transform, sigma, k)
    if q_distributions is None:
        w = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        q = w / w.sum(axis=1, keepdims=True)
    else:
        q = np.asarray(q_distributions, dtype=float).reshape(log_joint.shape)
    pos = q > 0.0
    return float(np.sum(q[pos] * (log_joint[pos] - np.log(q[pos]))))


# ---------------------------------------------------------------------------
# pipeline driver


def run_map_pipeline(sessions: list[SessionData], params: MapFilterParams | None = None):
    """All stages end to end; returns (final map, per-stage statistics).

    Statistics are (stage label, point count) rows, CSV-ready.
    """
    if params is None:
        params = MapFilterParams.for_sessions(len(sessions))
    stats = []
    transformed = []
    for session in sessions:
        cloud = vision_transform_session(session, params)
        transformed.append(cloud)
        stats.append((f"vision_transform_session_{session.session_id}", len(cloud)))
    merged = merge_sessions(transformed, params)
    stats.append(("merged", len(merged)))
    static, dynamic = classify_static(merged, params)
    stats.append(("classified_static", len(static)))
    stats.append(("classified_dynamic", len(dynamic)))
    static, dynamic = erode_static(static, dynamic, params)
    stats.append(("eroded_static", len(static)))
    static, dynamic = expand_static(static, dynamic, params)
    stats.append(("expanded_static", len(static)))
    ground = extract_ground(sessions, params)
    stats.append(("ground_voxels", len(ground)))
    final = build_final_map(static, ground)
    stats.append(("final", len(final)))
    return final, stats

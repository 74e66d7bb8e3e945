"""Offline construction of the stable localization map from multi-session data.

Stages, in order: per-session vision transformation (keep laser points that
project near visual features), sequential merge with observation counting,
static/dynamic classification by count, erosion and expansion post-filters,
ground extraction with voxel thinning, and the final union.

The pixel gate, the newness radius d_alpha, the erosion and expansion radii
and the ground band are module constants; ``MapFilterParams`` holds the
count thresholds, scaled to the session count, and the ground voxel.

Merge semantics (the documented rule all oracles follow): the base starts
empty, and each session's cloud is first thinned sequentially so no two kept
points lie within the newness radius; each base point's count increases at
most once per session; unmatched points join the base after the session's
pass. The merged cloud's columns are the joined points' positions and
labels, their counts, no normals and no ground flags.

Memory: the vision transformation and the ground stage read the scans a
chunk of consecutive scans at a time, so each holds one chunk of raw returns
(``_CHUNK_POINTS``) at once, however many the sessions hold: the vision
transformation with the chunk's feature pixels and the points it keeps, the
ground stage with the table of occupied cells. The other stages hold only
the points that vision transformation keeps. The ground's cells, filed chunk
by chunk, are checked bit for bit against a reference that files all the
in-band returns one at a time (``voxel_cells`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .laser_map import PointCloudMap, estimate_normals
from .session import SessionData


PIXEL_GATE = 3.0  # max pixel distance laser-to-feature
NEWNESS_RADIUS = 0.2  # merge radius d_alpha (m)
EROSION_RADIUS = 0.3  # m
EXPANSION_RADIUS = 0.2  # m
GROUND_BAND = 0.15  # half-width of the ground height slab (m)


@dataclass(frozen=True)
class MapFilterParams:
    """The count thresholds (beta, erosion, expansion) and the ground voxel."""

    static_threshold: int = 2  # min observation count beta
    erosion_count: int = 3
    expansion_count: int = 2
    ground_voxel: float = 0.5
    ground_band = GROUND_BAND  # not a field: the bench's ground check reads it here

    def __post_init__(self):
        if self.ground_voxel <= 0:
            raise ValueError("ground_voxel must be positive")

    @staticmethod
    def for_sessions(n_sessions: int) -> "MapFilterParams":
        """Defaults with count thresholds scaled to the session count."""
        return MapFilterParams(
            static_threshold=math.ceil(0.5 * n_sessions),
            erosion_count=math.ceil(0.7 * n_sessions),
            expansion_count=math.ceil(0.6 * n_sessions),
        )


# ---------------------------------------------------------------------------
# scans in chunks


# Raw returns per chunk of scans, for the vision transformation and the
# ground stage alike. Chosen on the loop-reverse bench map (1.3 M returns in
# 1,641 scans; 2-core VM): chunks of 10 k, 20 k, 40 k, 80 k and 160 k returns
# built the map equally fast within the machine's swing, at peak RSS of 144,
# 144, 146, 151 and 159 MB. Smaller chunks cost the localization that
# follows in the same process: glibc sets its heap trim threshold to twice
# the largest block it has unmapped, and a chunk's (n, 3) arrays are the map
# build's largest, so below 80 k returns (1.9 MB) the threshold stays under
# the 2 MB or so by which each LM iteration grows and frees the heap top.
# Localization then took 33 k to 97 k minor page faults; from 80 k, a few
# hundred.
_CHUNK_POINTS = 80_000


class _ScanChunk(NamedTuple):
    """Consecutive scans of one session: scan numbers ``ks``, and their
    laser-frame returns and labels concatenated; scan ``ks[i]``'s returns
    are rows ``starts[i]:starts[i + 1]``."""

    ks: list
    starts: np.ndarray
    points: np.ndarray
    labels: np.ndarray


def _scan_chunks(session: SessionData):
    """The session's scans in chunks of consecutive scans, each of at least
    ``_CHUNK_POINTS`` raw returns but the last. Empty scans and scans past
    the last ground-truth row are left out."""

    def chunk(ks):
        scans = [session.scans[k] for k in ks]
        starts = np.cumsum([0] + [len(points) for points, _ in scans])
        return _ScanChunk(
            ks,
            starts,
            np.concatenate([points for points, _ in scans]),
            np.concatenate([labels for _, labels in scans]),
        )

    pending, size = [], 0
    for k, (points, _) in enumerate(session.scans[: len(session.gt_poses)]):
        if len(points) == 0:
            continue
        pending.append(k)
        size += len(points)
        if size >= _CHUNK_POINTS:
            yield chunk(pending)
            pending, size = [], 0
    if pending:
        yield chunk(pending)


def _placed(session: SessionData, chunk: _ScanChunk, keep: np.ndarray | None = None):
    """The chunk's returns, or those ``keep`` selects, in the map frame:
    scan k's by ``gt_poses[k] @ body_t_laser``, one scan at a time."""
    points, starts = chunk.points, chunk.starts
    if keep is not None:
        kept_before = np.concatenate([[0], np.cumsum(keep)])  # kept rows before each row
        points, starts = points[keep], kept_before[starts]
    body_t_laser = session.rig.body_t_laser
    placed = [np.zeros((0, 3))]
    for k, a, b in zip(chunk.ks, starts[:-1].tolist(), starts[1:].tolist()):
        if b > a:
            placed.append((session.gt_poses[k] @ body_t_laser).apply(points[a:b]))
    return np.concatenate(placed)


# ---------------------------------------------------------------------------
# stage 1: vision transformation


# Width of the vision gate's coarse cells, in gates: more than two, so that
# one feature's gate box touches at most 2 x 2 cells.
_CELL_GATES = 2.5


def vision_transform_session(session: SessionData) -> PointCloudMap:
    """Keep laser points whose image projection lands near a visual feature.

    Scan points are projected into the (left) camera through the
    laser-to-camera extrinsic; points within ``PIXEL_GATE`` of any feature
    pixel of the scan's frame are transformed into the map frame via the
    ground-truth pose and accumulated (counts 1, labels carried). Scan,
    frame and ground-truth row k share one timestamp, so scan k takes
    ``gt_poses[k]``; scans beyond the last ground-truth row are skipped, and
    a scan beyond the last frame has no features, so it keeps nothing.
    Scans are gated a chunk at a time (``_scan_chunks``).
    """
    pts, labels = [np.zeros((0, 3))], [np.zeros(0, int)]
    for chunk in _scan_chunks(session):
        keep = _near_features(session, chunk, PIXEL_GATE)
        pts.append(_placed(session, chunk, keep))
        labels.append(chunk.labels[keep])
    return PointCloudMap(np.concatenate(pts), labels=np.concatenate(labels))


def _near_features(session: SessionData, chunk: _ScanChunk, gate: float) -> np.ndarray:
    """Mask of the chunk's returns that project in front of the camera,
    inside the image and within ``gate`` pixels of a feature of their own
    scan's frame.

    A coarse table of cells wider than ``2 * gate`` lists, frame by frame,
    the cells that some feature's gate box touches; only returns in a listed
    cell of their frame reach the exact test. That test is one k-d tree over
    the chunk's feature pixels, with the frame as a third coordinate spaced
    beyond the query bound, so returns pair only with their own frame's
    features.
    """
    cam = session.rig.camera
    keep = np.zeros(len(chunk.points), dtype=bool)
    p_cam = session.rig.cam_t_laser.apply(chunk.points)
    front = np.flatnonzero(p_cam[:, 2] > 1e-6)
    uv = cam.project(p_cam[front])
    seen = cam.in_image(uv)
    rows, uv = front[seen], uv[seen]
    scan = np.searchsorted(chunk.starts, rows, side="right") - 1
    frames = [
        session.frames[k].pixels[:, :2] if k < len(session.frames) else np.zeros((0, 2))
        for k in chunk.ks
    ]
    feature_scan = np.repeat(np.arange(len(frames)), [len(f) for f in frames])
    features = np.concatenate(frames)

    # the gate box's half-width, widened past any rounding of a distance at
    # the gate
    reach = gate * (1.0 + 1e-6)
    cell = _CELL_GATES * gate
    n_cells = np.floor(np.array([cam.width - 1, cam.height - 1]) / cell) + 1

    def cell_keys(scan, cx, cy):
        # float keys: far-off features cannot overflow. A cell outside the
        # image may share its key with one inside, which only sends that
        # cell's returns on to the exact test
        return (scan * n_cells[1] + cy) * n_cells[0] + cx

    lo, hi = np.floor((features - reach) / cell), np.floor((features + reach) / cell)
    corners = [cell_keys(feature_scan, x[:, 0], y[:, 1]) for x in (lo, hi) for y in (lo, hi)]
    # sorted, with a last key above every return's
    table = np.sort(np.concatenate(corners + [[np.inf]]))
    keys = cell_keys(scan, *np.floor(uv / cell).T)
    near = np.flatnonzero(table[np.searchsorted(table, keys)] == keys)

    bound = 2.0 * gate
    spacing = 2.0 * bound
    tree = cKDTree(
        np.column_stack([features, spacing * feature_scan]),
        balanced_tree=False,
        compact_nodes=False,
    )
    dist, _ = tree.query(np.column_stack([uv[near], spacing * scan[near]]), distance_upper_bound=bound)
    keep[rows[near[dist <= gate]]] = True
    return keep


# ---------------------------------------------------------------------------
# stage 2: merge with observation counting


def sequential_thin(points: np.ndarray, radius: float) -> np.ndarray:
    """Indices of a first-come thinning, in input order.

    Point i is kept unless an earlier kept point lies at a distance of at
    most ``radius`` (``<=``) from it; so the result depends on the order.
    """
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")  # i < j
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    # a point's fate is settled before its own pairs come: its earlier
    # partners all have lower first indices
    kept = [True] * len(points)
    for i, j in pairs.tolist():
        if kept[i]:
            kept[j] = False
    return np.flatnonzero(kept)


def concat_clouds(a: PointCloudMap, b: PointCloudMap) -> PointCloudMap:
    """The points of ``a``, then those of ``b``, with every column."""
    b_columns = b.columns()
    return PointCloudMap(
        **{name: np.concatenate([column, b_columns[name]]) for name, column in a.columns().items()}
    )


def merge_sessions(transformed: list[PointCloudMap]) -> PointCloudMap:
    """Sequential merge: count re-observations, insert genuinely new points."""
    base = PointCloudMap(np.zeros((0, 3)))
    for cloud in transformed:
        cloud = cloud.subset(sequential_thin(cloud.positions, NEWNESS_RADIUS))
        dist, idx = base.tree.query(cloud.positions)  # inf against an empty base
        is_new = dist > NEWNESS_RADIUS
        # a base point counts once per session, however many points match it
        matched = np.bincount(idx[~is_new], minlength=len(base)) > 0
        new = PointCloudMap(cloud.positions[is_new], labels=cloud.labels[is_new])
        base = concat_clouds(base.replace(counts=base.counts + matched), new)
    return base


# ---------------------------------------------------------------------------
# stage 3: static classification with erosion/expansion


def classify_static(merged: PointCloudMap, params: MapFilterParams):
    """Partition by observation count: (static, dynamic)."""
    static_mask = merged.counts >= params.static_threshold
    return merged.subset(static_mask), merged.subset(~static_mask)


def erode_static(static: PointCloudMap, dynamic: PointCloudMap, params: MapFilterParams):
    """Move low-count static points that hug the dynamic set into dynamic.

    Distances are taken against the dynamic set as it was on entry
    (simultaneous semantics), so the result is order-independent.
    """
    dist, _ = dynamic.tree.query(static.positions)
    move = (dist < EROSION_RADIUS) & (static.counts < params.erosion_count)
    return static.subset(~move), concat_clouds(dynamic, static.subset(move))


def expand_static(static: PointCloudMap, dynamic: PointCloudMap, params: MapFilterParams):
    """Recover high-count dynamic points adjacent to the static surface."""
    dist, _ = static.tree.query(dynamic.positions)
    move = (dist < EXPANSION_RADIUS) & (dynamic.counts > params.expansion_count)
    return concat_clouds(static, dynamic.subset(move)), dynamic.subset(~move)


# ---------------------------------------------------------------------------
# stage 4: ground modification


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


def extract_ground(sessions: list[SessionData], params: MapFilterParams) -> PointCloudMap:
    """Height-band ground points from every scan, merged and voxel-thinned.

    Returns are placed and filed a chunk of scans at a time, so the peak
    memory is one chunk (``_CHUNK_POINTS`` returns) plus the cells, not the
    sessions' returns. Each cell's centroid is the sum of its in-band
    returns, taken in scan order, over their count, and the cell is labelled
    by its first return, however the scans fall into chunks; the tests check
    this bit for bit against a cell-by-cell reference over all the returns.
    """
    grid = _VoxelGrid(params.ground_voxel)
    for session in sessions:
        for chunk in _scan_chunks(session):
            in_band = np.abs(chunk.points[:, 2] + session.rig.laser_height) <= GROUND_BAND
            grid.add(_placed(session, chunk, in_band), chunk.labels[in_band])
    centroids, labels = grid.centroids()
    normals = np.tile([0.0, 0.0, 1.0], (len(centroids), 1))
    return PointCloudMap(
        centroids,
        normals,
        np.full(len(centroids), max(len(sessions), 1), dtype=int),
        np.ones(len(centroids), dtype=bool),
        labels,
    )


def build_final_map(static: PointCloudMap, ground: PointCloudMap) -> PointCloudMap:
    """Union of the static set (normals re-estimated) and the ground set.

    Ground normals stay forced to +z so ground association always takes the
    point-to-plane branch.
    """
    return concat_clouds(estimate_normals(static), ground)


def build_full_map(session: SessionData, voxel: float = 0.3) -> PointCloudMap:
    """Unfiltered baseline: every laser return of one session, voxel-thinned."""
    grid = _VoxelGrid(voxel)
    for chunk in _scan_chunks(session):
        grid.add(_placed(session, chunk), chunk.labels)
    centroids, labels = grid.centroids()
    cloud = PointCloudMap(centroids, labels=labels)
    return estimate_normals(cloud)


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
        cloud = vision_transform_session(session)
        transformed.append(cloud)
        stats.append((f"vision_transform_session_{session.session_id}", len(cloud)))
    merged = merge_sessions(transformed)
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

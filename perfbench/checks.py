"""Accuracy and the properties every correct run must have.

The checks test what the method guarantees, not today's numbers: a run
that violates one is counted as incorrect.
"""

from __future__ import annotations

import numpy as np

from crossloc.map_pipeline import MapFilterParams


def ate(estimated: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Absolute trajectory error (RMSE, max) of matched (n, 3) positions.

    Both trajectories are in the map frame, which the anchor fixes, so no
    alignment is applied.
    """
    estimated = np.asarray(estimated, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimated.shape != truth.shape or estimated.ndim != 2 or len(estimated) == 0:
        raise ValueError("need two non-empty (n, 3) position arrays of the same shape")
    err = np.linalg.norm(estimated - truth, axis=1)
    return float(np.sqrt(np.mean(err**2))), float(err.max())


def keyframe_errors(result, query) -> tuple[float, float]:
    """ATE of the localized keyframes against the simulator's ground truth."""
    est = np.array([p.translation for p in result.poses_map])
    truth = np.array([query.gt_poses[r.keyframe_id].translation for r in result.records])
    return ate(est, truth)


def anchor_offset(inputs) -> float:
    """Translation error of the anchor guess, 0.37 m for every seed."""
    return float(
        np.linalg.norm(inputs.anchor_guess.translation - inputs.query.gt_poses[0].translation)
    )


def check_round(inputs, cloud, stats, result, keyframes_inserted: int, steps: int) -> list:
    """Return the violated properties of one round, as messages."""
    failures = []
    query = inputs.query
    if result.diverged:
        failures.append(f"diverged: {result.divergence_reason}")
    # initialize() inserts two keyframes before the first step; every later
    # keyframe gets exactly one step
    if steps != len(result.records) or steps != keyframes_inserted - 1:
        failures.append(
            f"{steps} steps for {keyframes_inserted} keyframes and {len(result.records)} records"
        )
    ids = [r.keyframe_id for r in result.records]
    if ids != sorted(set(ids)):
        failures.append("keyframe ids are not strictly increasing")
    # at 2 m/s the 0.5 m translation rule fires every 0.25 s
    if ids and query.gt_times[-1] - query.gt_times[ids[-1]] > 1.0:
        failures.append("localization stopped before the end of the query")

    # Accuracy is reported (estimator.ate_rmse_m), not checked: on about one
    # query seed in sixteen the first step pulls the anchor away from the truth
    # and the run ends with an ATE RMSE above the anchor guess's offset, and a
    # check that fails on some seeds only cannot gate every run.
    for r in result.records:
        # a step's report is that of its last action
        if r.actions[-1] == "non_rigid" and not r.final_cost <= r.initial_cost:
            failures.append(f"non-rigid step at keyframe {r.keyframe_id} raised its cost")

    counts = dict(stats)
    if counts["classified_static"] + counts["classified_dynamic"] != counts["merged"]:
        failures.append("static and dynamic counts do not sum to the merged count")
    if counts["final"] != len(cloud) or counts["final"] != (
        counts["expanded_static"] + counts["ground_voxels"]
    ):
        failures.append("final map is not the static set plus the ground voxels")
    band = MapFilterParams.for_sessions(len(inputs.map_sessions)).ground_band
    if np.any(np.abs(cloud.positions[cloud.ground, 2]) > band):
        failures.append("a ground point lies outside the ground band")
    present = cloud.has_normal()
    if np.any(np.isnan(cloud.normals[present])):
        failures.append("a normal is partly absent")
    if np.any(np.abs(np.linalg.norm(cloud.normals[present], axis=1) - 1.0) > 1e-9):
        failures.append("a map normal is not unit length")
    return failures

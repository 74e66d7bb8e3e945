"""Digests of the localization's outputs, to compare two commits bitwise.

    python3 tools/output_digest.py

Run from the repository root. For each benchmark workload (imported from
``perfbench/workloads.py``) and seeds 1 and 2, it synthesizes the inputs
at full length, builds the map and localizes the query as one benchmark
round does, then prints one line: the step count, sha256 prefixes of the
map-frame keyframe poses, of the ``StepRecord``s and of the final map's
arrays, and the keyframes' ATE RMSE and max (``perfbench/checks.py``'s
``keyframe_errors``). Two commits whose lines are equal gave bitwise-equal
outputs; where they differ, the ATE shows how far accuracy moved.
"""

import os

# one BLAS thread, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from crossloc import estimator, map_pipeline  # noqa: E402
from checks import keyframe_errors  # noqa: E402
from workloads import WORKLOADS, synthesize  # noqa: E402

SEEDS = (1, 2)


def _sha(chunks) -> str:
    """The first 16 hex digits of the sha256 of ``chunks``: arrays (by
    dtype, shape and bytes) or strings."""
    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            h.update(chunk.encode())
        else:
            chunk = np.ascontiguousarray(chunk)
            h.update(f"{chunk.dtype}{chunk.shape}".encode())
            h.update(chunk.tobytes())
    return h.hexdigest()[:16]


def digest(workload: str, seed: int) -> str:
    inputs = synthesize(WORKLOADS[workload], seed, 1.0)
    cloud, _ = map_pipeline.run_map_pipeline(inputs.map_sessions)
    schedule = estimator.BaSchedule(inputs.workload.schedule)
    result = estimator.run_localization(inputs.query, cloud, inputs.anchor_guess, schedule)
    poses = _sha(a for p in result.poses_map for a in (p.rotation, p.translation))
    # repr round-trips every float exactly
    records = _sha(repr(astuple(r)) for r in result.records)
    arrays = [cloud.positions, cloud.normals, cloud.counts, cloud.ground]
    final_map = _sha(arrays + ([] if cloud.labels is None else [cloud.labels]))
    rmse, worst = keyframe_errors(result, inputs.query)
    return (
        f"{workload} seed {seed}: {len(result.records)} steps, poses {poses},"
        f" records {records}, map {final_map}, ATE RMSE {rmse:.4f} m, max {worst:.4f} m"
        + (f", diverged: {result.divergence_reason}" if result.diverged else "")
    )


def main() -> None:
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(digest(workload, seed), flush=True)


if __name__ == "__main__":
    main()

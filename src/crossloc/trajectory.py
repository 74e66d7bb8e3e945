"""Timestamped pose sequences and their `t tx ty tz qx qy qz qw` file form.

Quaternions appear only here; everything else in the package works with
rotation matrices.
"""

from __future__ import annotations

import numpy as np

from .liegroup import Pose, quat_from_rotation, rotation_from_quat


def save_trajectory(path, times, poses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t tx ty tz qx qy qz qw\n")
        for t, pose in zip(times, poses):
            tr = pose.translation
            q = quat_from_rotation(pose.rotation)
            fh.write(
                f"{t:.9f} {tr[0]:.17g} {tr[1]:.17g} {tr[2]:.17g} "
                f"{q[0]:.17g} {q[1]:.17g} {q[2]:.17g} {q[3]:.17g}\n"
            )


def load_trajectory(path):
    """Return (times (N,), list of Pose)."""
    times, poses = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(tok)}")
            vals = [float(x) for x in tok]
            times.append(vals[0])
            poses.append(Pose(rotation_from_quat(np.array(vals[4:8])), np.array(vals[1:4])))
    return np.asarray(times), poses


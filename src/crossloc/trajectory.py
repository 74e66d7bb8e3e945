"""Pose rows `tx ty tz qx qy qz qw`, and timestamped pose sequences as
`t tx ty tz qx qy qz qw` files.

Quaternions appear only in these rows, converted by scipy's ``Rotation``
(scalar last, as in the rows); everything else in the package works with
rotation matrices.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from .liegroup import Pose


def pose_to_row(pose: Pose) -> str:
    """The pose as `tx ty tz qx qy qz qw`, each to 17 significant digits."""
    q = Rotation.from_matrix(pose.rotation).as_quat()
    return " ".join(f"{v:.17g}" for v in (*pose.translation, *q))


def pose_from_row(fields) -> Pose:
    """The pose of seven fields `tx ty tz qx qy qz qw` (strings or numbers)."""
    vals = [float(v) for v in fields]
    return Pose(Rotation.from_quat(vals[3:7]).as_matrix(), np.array(vals[0:3]))


def save_trajectory(path, times, poses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t tx ty tz qx qy qz qw\n")
        for t, pose in zip(times, poses):
            fh.write(f"{t:.9f} {pose_to_row(pose)}\n")


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
            times.append(float(tok[0]))
            poses.append(pose_from_row(tok[1:]))
    return np.asarray(times), poses


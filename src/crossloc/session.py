"""Recorded traversal data: the sensor rig and one session's streams.

A ``SessionData`` holds, for one traversal:

    gt_times      (K,) frame timestamps: frame k is taken at gt_times[k]
    gt_poses      K ground-truth body poses, one per frame
    imu_samples   (N, 7) IMU stream, a row per sample: t wx wy wz ax ay az
    frames        K stereo observations: timestamp, landmark ids and (ul vl ur vr)
    scans         per frame, laser points in the sensor frame and their labels

Scans share the frame clock: scan k is taken at gt_times[k].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import Pose
from .residuals import CameraModel

GRAVITY = 9.81  # m/s^2


@dataclass(frozen=True)
class LaserModel:
    channels: int
    elevation_min_deg: float
    elevation_max_deg: float
    azimuth_step_deg: float
    max_range: float
    range_noise: float


@dataclass(frozen=True)
class SensorRig:
    """Cameras, IMU and laser with their body-frame extrinsics."""

    camera: CameraModel
    laser: LaserModel
    stereo_baseline: float
    cam_t_laser: Pose  # laser -> camera
    laser_height: float
    # not fields: every rig samples at these rates, and the bench reads them here
    imu_rate = 200.0  # Hz
    frame_rate = 10.0  # Hz

    @property
    def body_t_laser(self) -> Pose:
        return self.camera.body_t_cam @ self.cam_t_laser

    def right_camera(self) -> CameraModel:
        """Right stereo camera: left shifted along the camera x-axis."""
        offset = Pose(np.eye(3), np.array([self.stereo_baseline, 0.0, 0.0]))
        cam = self.camera
        return CameraModel(
            cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height,
            body_t_cam=cam.body_t_cam @ offset,
        )

    def gravity_vector(self) -> np.ndarray:
        return np.array([0.0, 0.0, -GRAVITY])


@dataclass
class FrameObservations:
    """Stereo feature observations of one frame, taken at ``timestamp`` (s): ids plus (ul vl ur vr)."""

    timestamp: float
    landmark_ids: np.ndarray
    pixels: np.ndarray  # (n, 4)


@dataclass
class SessionData:
    session_id: int
    rig: SensorRig
    gt_times: np.ndarray
    gt_poses: list
    imu_samples: np.ndarray  # (N, 7): t wx wy wz ax ay az
    frames: list  # list[FrameObservations]
    scans: list  # list of (points (n,3) in laser frame, labels (n,))

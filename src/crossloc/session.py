"""Recorded traversal data: sensor rig description and session directory IO.

A session directory holds:

    imu.txt          one IMU sample per line: t wx wy wz ax ay az
    frames/NNNN.obs  per-frame stereo observations: lm_id ul vl ur vr
    scans/NNNN.txt   per-frame laser points in the sensor frame: x y z label
    gt.txt           ground-truth body trajectory: t tx ty tz qx qy qz qw
    rig.cfg          flat key = value description of the sensor rig
    labels.txt       optional element-id sidecar: id kind [session ids...]

Frame k's timestamp is row k of gt.txt; scans share the frame clock.
Frame and scan k load from the files numbered k; a number without a file
loads as an empty frame or scan, and files with another extension are
ignored.
``SessionData.imu_samples`` holds the rows of imu.txt as one (N, 7) array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .imu import ImuNoiseModel, load_imu_stream, save_imu_stream
from .liegroup import Pose
from .residuals import CameraModel
from .trajectory import load_trajectory, pose_from_row, pose_to_row, save_trajectory


@dataclass(frozen=True)
class LaserModel:
    channels: int = 8
    elevation_min_deg: float = -16.0
    elevation_max_deg: float = 8.0
    azimuth_step_deg: float = 3.0
    max_range: float = 40.0
    range_noise: float = 0.02


@dataclass(frozen=True)
class SensorRig:
    """Cameras, IMU and laser with their body-frame extrinsics."""

    camera: CameraModel
    stereo_baseline: float = 0.4
    imu_noise: ImuNoiseModel = field(default_factory=ImuNoiseModel)
    laser: LaserModel = field(default_factory=LaserModel)
    cam_t_laser: Pose = field(default_factory=Pose.identity)  # laser -> camera
    laser_height: float = 0.8
    imu_rate: float = 200.0
    frame_rate: float = 10.0
    gravity: float = 9.81

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
        return np.array([0.0, 0.0, -self.gravity])


@dataclass
class FrameObservations:
    """Stereo feature observations of one frame: ids plus (ul vl ur vr)."""

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
    element_kinds: dict | None = None  # id -> (kind, sessions tuple or None)


def save_rig(path, rig: SensorRig) -> None:
    cam = rig.camera
    lines = {
        "cam_fx": cam.fx,
        "cam_fy": cam.fy,
        "cam_cx": cam.cx,
        "cam_cy": cam.cy,
        "cam_width": cam.width,
        "cam_height": cam.height,
        "stereo_baseline": rig.stereo_baseline,
        "body_t_cam": pose_to_row(cam.body_t_cam),
        "cam_t_laser": pose_to_row(rig.cam_t_laser),
        "laser_channels": rig.laser.channels,
        "laser_elevation_min_deg": rig.laser.elevation_min_deg,
        "laser_elevation_max_deg": rig.laser.elevation_max_deg,
        "laser_azimuth_step_deg": rig.laser.azimuth_step_deg,
        "laser_max_range": rig.laser.max_range,
        "laser_range_noise": rig.laser.range_noise,
        "laser_height": rig.laser_height,
        "gyro_noise_density": rig.imu_noise.gyro_noise_density,
        "accel_noise_density": rig.imu_noise.accel_noise_density,
        "gyro_bias_walk": rig.imu_noise.gyro_bias_walk,
        "accel_bias_walk": rig.imu_noise.accel_bias_walk,
        "imu_rate": rig.imu_rate,
        "frame_rate": rig.frame_rate,
        "gravity": rig.gravity,
    }
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")


def load_rig(path) -> SensorRig:
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    cam = CameraModel(
        fx=float(raw["cam_fx"]),
        fy=float(raw["cam_fy"]),
        cx=float(raw["cam_cx"]),
        cy=float(raw["cam_cy"]),
        width=int(raw["cam_width"]),
        height=int(raw["cam_height"]),
        body_t_cam=pose_from_row(raw["body_t_cam"].split()),
    )
    return SensorRig(
        camera=cam,
        stereo_baseline=float(raw["stereo_baseline"]),
        imu_noise=ImuNoiseModel(
            gyro_noise_density=float(raw["gyro_noise_density"]),
            accel_noise_density=float(raw["accel_noise_density"]),
            gyro_bias_walk=float(raw["gyro_bias_walk"]),
            accel_bias_walk=float(raw["accel_bias_walk"]),
        ),
        laser=LaserModel(
            channels=int(raw["laser_channels"]),
            elevation_min_deg=float(raw["laser_elevation_min_deg"]),
            elevation_max_deg=float(raw["laser_elevation_max_deg"]),
            azimuth_step_deg=float(raw["laser_azimuth_step_deg"]),
            max_range=float(raw["laser_max_range"]),
            range_noise=float(raw["laser_range_noise"]),
        ),
        cam_t_laser=pose_from_row(raw["cam_t_laser"].split()),
        laser_height=float(raw["laser_height"]),
        imu_rate=float(raw["imu_rate"]),
        frame_rate=float(raw["frame_rate"]),
        gravity=float(raw["gravity"]),
    )


def save_session(directory, session: SessionData) -> None:
    directory = str(directory)
    os.makedirs(os.path.join(directory, "frames"), exist_ok=True)
    os.makedirs(os.path.join(directory, "scans"), exist_ok=True)
    save_rig(os.path.join(directory, "rig.cfg"), session.rig)
    save_imu_stream(os.path.join(directory, "imu.txt"), session.imu_samples)
    save_trajectory(os.path.join(directory, "gt.txt"), session.gt_times, session.gt_poses)
    for k, frame in enumerate(session.frames):
        with open(os.path.join(directory, "frames", f"{k:04d}.obs"), "w", encoding="utf-8") as fh:
            for lm_id, px in zip(frame.landmark_ids, frame.pixels):
                fh.write(
                    f"{int(lm_id)} {px[0]:.17g} {px[1]:.17g} {px[2]:.17g} {px[3]:.17g}\n"
                )
    for k, (points, labels) in enumerate(session.scans):
        with open(os.path.join(directory, "scans", f"{k:04d}.txt"), "w", encoding="utf-8") as fh:
            for p, lab in zip(points, labels):
                fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {int(lab)}\n")
    if session.element_kinds is not None:
        with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
            for elem_id in sorted(session.element_kinds):
                kind, sessions = session.element_kinds[elem_id]
                tail = "" if sessions is None else " " + " ".join(str(s) for s in sessions)
                fh.write(f"{elem_id} {kind}{tail}\n")


def _by_index(directory: str, extension: str) -> list:
    """Paths of the files of ``directory`` named ``<number><extension>``, at
    their numbers: entry k is the file numbered k, None where no file has
    that number. Files with another extension (``.DS_Store``, an editor's
    ``0001.obs~``) are not read. ``save_session`` pads numbers to four
    digits, so ``10000`` follows ``9999``; a name with the extension and a
    stem that is no integer, or a number given by two files (``0002.txt``
    and ``2.txt``), raises ``ValueError``."""
    paths = {}
    for name in os.listdir(directory):
        stem, ext = os.path.splitext(name)
        if ext != extension:
            continue
        try:
            k = int(stem)
        except ValueError:
            raise ValueError(f"{os.path.join(directory, name)}: stem {stem!r} is not an integer") from None
        if k in paths:
            raise ValueError(f"{directory}: {paths[k]} and {name} both hold index {k}")
        paths[k] = os.path.join(directory, name)
    return [paths.get(k) for k in range(max(paths, default=-1) + 1)]


def _load_frame(path) -> FrameObservations:
    """One frame's observations; no file (None) is a frame without any."""
    ids, pixels = [], []
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                tok = line.split()
                if not tok:
                    continue
                ids.append(int(tok[0]))
                pixels.append([float(v) for v in tok[1:5]])
    return FrameObservations(
        np.asarray(ids, dtype=int), np.asarray(pixels, dtype=float).reshape(len(ids), 4)
    )


def _load_scan(path):
    """One scan's (points, labels); no file (None) is a scan without returns."""
    data = np.zeros((0, 4)) if path is None else np.loadtxt(path, ndmin=2)
    if data.size == 0:
        return np.zeros((0, 3)), np.zeros(0, dtype=int)
    return data[:, :3], data[:, 3].astype(int)


def load_session(directory, session_id: int = 0) -> SessionData:
    """Read a session directory; a missing frame or scan file leaves every
    other one at its ground-truth row."""
    directory = str(directory)
    rig = load_rig(os.path.join(directory, "rig.cfg"))
    imu_samples = load_imu_stream(os.path.join(directory, "imu.txt"))
    gt_times, gt_poses = load_trajectory(os.path.join(directory, "gt.txt"))
    frames = [_load_frame(path) for path in _by_index(os.path.join(directory, "frames"), ".obs")]
    scans = [_load_scan(path) for path in _by_index(os.path.join(directory, "scans"), ".txt")]

    element_kinds = None
    labels_path = os.path.join(directory, "labels.txt")
    if os.path.exists(labels_path):
        element_kinds = {}
        with open(labels_path, "r", encoding="utf-8") as fh:
            for line in fh:
                tok = line.split()
                if not tok:
                    continue
                sessions = tuple(int(s) for s in tok[2:]) if len(tok) > 2 else None
                element_kinds[int(tok[0])] = (tok[1], sessions)

    return SessionData(
        session_id=session_id,
        rig=rig,
        gt_times=gt_times,
        gt_poses=gt_poses,
        imu_samples=imu_samples,
        frames=frames,
        scans=scans,
        element_kinds=element_kinds,
    )

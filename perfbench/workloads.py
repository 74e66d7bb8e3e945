"""The benchmark's workloads and the simulated inputs they run on.

Every workload uses ``default_world()`` and ``default_rig()``. Map sessions
are 0, 1 and 2, synthesized with the run's seed; the query is session 3,
synthesized with seed + 1. The default world parks its two semi-static cars
in sessions 0 and 1 only, so they are in two of the three map sessions and
gone from the query. The program receives only these generated sessions and
the anchor guess; ground truth stays with the benchmark's checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crossloc import simulator as sim
from crossloc.liegroup import Pose, se3_exp
from crossloc.session import SessionData

MAP_SESSIONS = (0, 1, 2)
QUERY_SESSION = 3
# (phi, rho): 0.02 rad of yaw and about 0.37 m of translation off the truth
ANCHOR_PERTURBATION = np.array([0.0, 0.0, 0.02, 0.3, -0.2, 0.1])


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: str  # estimator.BaSchedule mode
    map_seconds: float | None  # None: each map session drives the whole loop once
    query_seconds: float
    query_direction: str


WORKLOADS = {
    w.name: w
    for w in (
        # no ICP stage: normal-equation assembly and the Schur solve dominate
        Workload("loc-nonrigid", "non_rigid_only", 20.0, 20.0, "forward"),
        # the paper's bi-directional case under its hybrid 1:3 schedule: the
        # rigid ICP stage, k-NN association, and the heaviest set-up
        Workload("loop-reverse", "hybrid", None, 10.0, "reverse"),
    )
}


@dataclass
class Inputs:
    workload: Workload
    map_sessions: list
    query: SessionData
    anchor_guess: Pose


def loop_seconds() -> float:
    """Time the default trajectory takes to drive its closed loop once."""
    rig = sim.default_rig()
    return sim.generate_trajectory(
        sim.default_trajectory_spec(), rig.imu_rate, rig.frame_rate
    ).total_time


def synthesize(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Simulate the map sessions and the query; ``scale`` shortens every session."""
    world = sim.default_world()
    rig = sim.default_rig()
    map_seconds = workload.map_seconds or loop_seconds()
    forward = sim.default_trajectory_spec("forward")
    maps = [
        sim.generate_session(world, forward, rig, sid, seed, duration=map_seconds * scale)
        for sid in MAP_SESSIONS
    ]
    query = sim.generate_session(
        world,
        sim.default_trajectory_spec(workload.query_direction),
        rig,
        QUERY_SESSION,
        seed + 1,
        duration=workload.query_seconds * scale,
    )
    guess = query.gt_poses[0] @ se3_exp(ANCHOR_PERTURBATION)
    return Inputs(workload, maps, query, guess)

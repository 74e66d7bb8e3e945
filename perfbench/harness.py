"""One benchmark run: set up a workload, measure whole rounds, check outputs.

Set-up synthesizes every session. A round builds the map from the map
sessions and localizes the query against it; rounds repeat until the run
has measured for the requested seconds and done at least MIN_ROUNDS. Every
round does the same work, so the operations attempted and failed keep the
same proportion however long the run is. End-to-end figures are medians
over rounds. A traced run pairs an untraced round with a traced one, so
that it can report its own overhead, and gives the per-layer figures.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from crossloc import estimator, map_pipeline

import checks
from spans import Tracer, instrument
from workloads import WORKLOADS, synthesize

# The machine's speed swings by a fifth between consecutive rounds of the
# same process. Two rounds per run average the end-to-end figures over
# twice the time: step latencies are pooled and the map is built four times.
MIN_ROUNDS = 2


@dataclass
class Round:
    map_build_s: list
    loc_s: float
    tracer: Tracer
    result: estimator.LocalizationResult
    stats: list
    failures: list


def run_round(inputs, traced: bool) -> Round:
    tracer = Tracer()
    schedule = estimator.BaSchedule(inputs.workload.schedule)
    map_build_s = []

    def build_map():
        t0 = time.perf_counter()
        built = map_pipeline.run_map_pipeline(inputs.map_sessions)
        map_build_s.append(time.perf_counter() - t0)
        return built

    with instrument(tracer, layers=traced):
        cloud, stats = build_map()
        t1 = time.perf_counter()
        result = estimator.run_localization(inputs.query, cloud, inputs.anchor_guess, schedule)
        t2 = time.perf_counter()
        # One build takes one or two seconds and swings by a third with the
        # machine's load; a second build after localization samples the
        # machine at both ends of the round. A traced round builds once, so
        # its layer figures are per build.
        if not traced:
            build_map()
    failures = checks.check_round(
        inputs,
        cloud,
        stats,
        result,
        tracer.counts["estimator.keyframes_inserted"],
        len(tracer.durations("estimator.step")),
    )
    return Round(map_build_s, t2 - t1, tracer, result, stats, failures)


def end_to_end(setup_s: float, rounds: list) -> dict:
    steps_ms = [1e3 * d for r in rounds for d in r.tracer.durations("estimator.step")]
    return {
        "setup_s": (setup_s, "s"),
        "map_build_s": (statistics.median(s for r in rounds for s in r.map_build_s), "s"),
        "loc_s_per_kf": (
            statistics.median(r.loc_s / len(r.result.records) for r in rounds), "s"
        ),
        "step_p50_ms": (float(np.percentile(steps_ms, 50)), "ms"),
        "step_p80_ms": (float(np.percentile(steps_ms, 80)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(setup: Tracer, traced: Round, untraced: Round, inputs) -> dict:
    """Layer figures of one traced round (simulator figures from set-up)."""
    t, c = traced.tracer, traced.tracer.counts
    stats = dict(traced.stats)
    query_intervals = len(inputs.query.imu_samples) - 1
    keyframes = len(traced.result.records)
    rmse, worst = checks.keyframe_errors(traced.result, inputs.query)
    traced_per_kf = traced.loc_s / keyframes
    untraced_per_kf = untraced.loc_s / len(untraced.result.records)
    return {
        "simulator.generate_session_s": (setup.total("simulator.generate_session"), "s"),
        "simulator.cast_rays_s": (setup.total("simulator.cast_rays"), "s"),
        "simulator.rays_cast": (setup.counts["simulator.rays_cast"], "count"),
        "map_pipeline.vision_transform_s": (t.total("map_pipeline.vision_transform"), "s"),
        "map_pipeline.merge_s": (t.total("map_pipeline.merge"), "s"),
        "map_pipeline.filter_s": (t.total("map_pipeline.filter"), "s"),
        "map_pipeline.ground_s": (t.total("map_pipeline.ground"), "s"),
        "map_pipeline.final_s": (t.total("map_pipeline.final"), "s"),
        "map_pipeline.points_final": (stats["final"], "count"),
        "map_pipeline.points_ground": (stats["ground_voxels"], "count"),
        "laser_map.knn_calls": (c["laser_map.knn_calls"], "count"),
        "laser_map.knn_s": (t.total("laser_map.knn"), "s"),
        "laser_map.estimate_normals_s": (t.total("laser_map.estimate_normals"), "s"),
        "imu.integrate_calls": (c["imu.integrate_calls"], "count"),
        "imu.integrate_s": (t.total("imu.integrate"), "s"),
        "imu.reintegration_ratio": (c["imu.intervals_integrated"] / query_intervals, "ratio"),
        "residuals.evaluate_batch_s": (t.total("residuals.evaluate_batch"), "s"),
        "residuals.factor_evals": (c["residuals.factor_evals"], "count"),
        "residuals.evaluate_single_s": (t.total("residuals.evaluate"), "s"),
        "solver.solve_calls": (c["solver.solve_calls"], "count"),
        "solver.solve_s": (t.total("solver.solve"), "s"),
        "solver.lm_iterations": (c["solver.lm_iterations"], "count"),
        "solver.max_iter_stops": (c["solver.max_iter_stops"], "count"),
        "solver.evaluate_cost_s": (t.total("solver.evaluate_cost"), "s"),
        "solver.self_s": (t.self_total("solver.solve"), "s"),
        "estimator.step_s": (t.total("estimator.step"), "s"),
        "estimator.associate_s": (t.total("estimator.associate"), "s"),
        "estimator.associate_calls": (c["estimator.associate_calls"], "count"),
        "estimator.gate_pass_ratio": (
            c["estimator.constraints"] / max(c["estimator.landmarks_queried"], 1), "ratio"
        ),
        "estimator.rigid_ba_s": (t.total("estimator.rigid_ba"), "s"),
        "estimator.icp_solves": (
            t.children_of("solver.solve", "estimator.rigid_ba")
            - len(t.durations("estimator.rigid_ba")),
            "count",
        ),
        "estimator.non_rigid_ba_s": (t.total("estimator.non_rigid_ba"), "s"),
        "estimator.ate_rmse_m": (rmse, "m"),
        "estimator.ate_max_m": (worst, "m"),
        "trace.loc_s_per_kf_traced": (traced_per_kf, "s"),
        "trace.loc_s_per_kf_untraced": (untraced_per_kf, "s"),
        "trace.overhead_ratio": (traced_per_kf / untraced_per_kf, "ratio"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, started: float, scale=1.0):
    """Set up, measure, check; returns the result object the benchmark prints."""
    setup = Tracer()
    with instrument(setup, layers=trace):
        inputs = synthesize(WORKLOADS[workload], seed, scale)
    setup_s = time.perf_counter() - started

    rounds, pairs = [], []
    t0 = time.perf_counter()
    while len(rounds) < (1 if trace else MIN_ROUNDS) or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(inputs, traced=False))
        if trace:
            pairs.append((rounds[-1], run_round(inputs, traced=True)))
    measured = rounds + [traced for _, traced in pairs]

    if trace:
        layer_rows = [per_layer(setup, traced, untraced, inputs) for untraced, traced in pairs]
        metrics = {
            name: (statistics.median(row[name][0] for row in layer_rows), unit)
            for name, (_, unit) in layer_rows[0].items()
        }
    else:
        metrics = end_to_end(setup_s, rounds)

    rmse, worst = checks.keyframe_errors(rounds[0].result, inputs.query)
    print(
        f"ATE RMSE {rmse:.3f} m, max {worst:.3f} m;"
        f" the anchor guess is {checks.anchor_offset(inputs):.3f} m off",
        file=sys.stderr,
    )
    failures = [msg for r in measured for msg in r.failures]
    records = [rec for r in measured for rec in r.result.records]
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(rec.termination == "failure" for rec in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, failures

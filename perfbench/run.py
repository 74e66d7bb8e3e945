"""Localization benchmark entry point.

    python3 perfbench/run.py --workload loc-hybrid --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted`` (keyframe steps), ``failed`` (steps whose
solve failed) and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

import os
import time

STARTED = time.perf_counter()

# Pin the BLAS and OpenMP pools before numpy is imported: on a 2-core
# machine OpenBLAS's default pool doubles the CPU time of localization and
# makes its wall time swing by a third between identical runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "crossloc")):
        print(f"no crossloc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, failures = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), STARTED
    )
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

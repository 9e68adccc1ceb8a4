"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep|tune|fields|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``); the lines
before it name every metric with its unit and sample count.  The full
record of the run (every op, the environment, the spans of a traced run)
is written under ``.perfbench_out/``.

``--workload all`` runs the three workloads one after the other, each in
its own process, and ends with one JSON object whose metric names carry the
workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep", "tune", "fields")


def _fix_blas_threads() -> None:
    """Pin the BLAS pool to min(2, cpus) threads before numpy is imported."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input for smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times set-up)")
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process; combined final line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _fix_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.setup_only:
        harness.setup_only(args.workload, args.seed, args.scale)
        return 0
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.scale)
    path = harness.write_result(result)
    print("\n".join(harness.summary_lines(result)))
    print(f"record {path.relative_to(ROOT)}")
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

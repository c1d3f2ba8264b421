#!/usr/bin/env python3
"""TensorKMC benchmark entry point.

One workload, as the benchmark contract runs it (from the repository root)::

    python3 perfbench/run.py --workload dilute-short-cutoff --seed 1 \\
        --seconds 20 --trace 0

prints a machine fingerprint line, then the result as the last line: a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Every workload, each in its own process, with a readable table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

exits non-zero when any correctness check failed.  See README.md in this
directory for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import os
import sys

#: BLAS/OpenMP thread pools are pinned to one thread before NumPy loads, so
#: a run uses no more threads than it has cores and its timing and memory
#: cover one workload alone.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Spans of traced runs are written here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = (
    "dilute-short-cutoff", "paper-cutoff", "campaign-sweep", "sublattice-8rank",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    """Machine and library facts recorded next to every result."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # NumPy < 1.25 prints instead
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import bench

    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        if args.trace:
            metrics, checks, info = bench.traced(
                args.workload, args.seed, tmp_dir, OUT_DIR
            )
        else:
            metrics, checks, info = bench.measure(
                args.workload, args.seed, args.seconds, tmp_dir
            )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps({"fingerprint": fingerprint(), "workload": args.workload,
                      "seed": args.seed, **info}))
    print(bench.result_line(metrics, checks))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table; non-zero on failures."""
    status = 0
    print(f"{'workload':22s} {'metric':32s} {'value':>14s}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:22s} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:22s} {metric:32s} {entry['value']:14.6g}  "
                  f"{entry['unit']}")
        failed_frac = result["failed"] / result["attempted"]
        print(f"{name:22s} {'failed_frac':32s} {failed_frac:14.6g}  "
              f"({result['failed']}/{result['attempted']} checks)")
        if result["failed"]:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

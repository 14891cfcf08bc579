"""Run one workload of the end-to-end benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload shift-vqe12 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the provenance header.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Output-check failures go to
standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
NAMES = ("shift-vqe12", "stream-vqe6", "jobs-mix", "grad-vqe12")


def source_hash() -> str:
    """Hash of the benchmark's own sources (its ``.py`` and ``.json`` files)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(HERE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith((".py", ".json")):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, HERE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bench_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stop_helper_processes() -> None:
    """Stop and reap every process the run started.

    Pool workers are normally reaped by the engine's teardown; any still
    alive are stopped here.  The shared-memory resource tracker is a
    separate process that would otherwise outlive the run, so it is
    stopped last, once no finalizer is left to talk to it.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds of timed ops, split across the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="store this default-seed run's pinned history and "
                             "timeline in expected.json instead of checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found beside perfbench/; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import metrics, workloads

    try:
        run = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        stop_helper_processes()
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    if args.record_expected and args.seed == workloads.DEFAULT_SEED:
        expected[run.name] = run.observed
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
    run.failed += workloads.pinned_failures(run, expected)
    if run.attempted == 0:
        run.errors.append("no op was attempted")
        run.attempted = run.failed = 1
    values = metrics.per_layer(run) if args.trace else metrics.end_to_end(run)
    for error in run.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared harness of the benches that write a ``BENCH_<name>.json`` artifact.

A bench supplies a ``run(config) -> result`` function, a report printer
and a gate list; this module owns everything else: the ``--smoke`` flag,
the host fingerprint, the timer, gate evaluation and the artifact.

Artifact layout (full runs only; smoke runs write nothing)::

    {"header": {"host": {...}, "mode": "full", "source_hash": "..."},
     "gates": [{"name", "path", "op", "threshold", "value",
                "passed": bool | "skipped": "<host reason>"}, ...],
     "result": {...}}

``source_hash`` is a blake2b of the bench script plus this file, so
``python -m benchmarks.check`` can tell when a committed artifact no
longer matches the code that wrote it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import operator
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Union

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Gate operators, by the symbol recorded in the artifact.
OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


def host() -> Dict[str, object]:
    """The host a measurement ran on: usable CPUs (the affinity mask,
    not the machine's core count), Python and numpy versions."""
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def source_hash(bench_path: str) -> str:
    """blake2b of a bench script plus the ``harness.py`` beside it."""
    digest = hashlib.blake2b(digest_size=16)
    for path in (bench_path, os.path.join(os.path.dirname(bench_path), "harness.py")):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# timer
# ----------------------------------------------------------------------
class Clock:
    """Accumulates the wall-clock spent inside ``with clock:`` blocks, so
    a path times only its measured region, not its set-up."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._start


class Timed(NamedTuple):
    seconds: float          #: fastest run's time per call
    output: object          #: last output of the fastest run
    outputs: List[object]   #: every call's output, warm-up first


def best_of(
    paths: Mapping[str, Callable[[Clock], object]],
    rounds: int,
    inner: Union[int, Mapping[str, int]] = 1,
) -> Dict[str, Timed]:
    """Min-of-``rounds`` timing of each path, interleaved.

    Each path runs once untimed as a warm-up (imports, caches, pools).
    Then each round runs every path, the order reversed on odd rounds
    (ABBA), so drift in a shared host's load lands on all paths alike.
    A run calls its path ``inner`` times (per path, when a mapping) on
    one :class:`Clock` after a ``gc.collect()``; repeating the same
    work lengthens a short region until scheduler noise is a small
    share of it.
    """
    outputs: Dict[str, List[object]] = {name: [run(Clock())] for name, run in paths.items()}
    best: Dict[str, tuple] = {}
    names = list(paths)
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else names[::-1]:
            calls = inner[name] if isinstance(inner, Mapping) else inner
            gc.collect()  # no run pays for its predecessor's garbage
            clock = Clock()
            for _ in range(calls):
                output = paths[name](clock)
                outputs[name].append(output)
            seconds = clock.seconds / calls
            if name not in best or seconds < best[name][0]:
                best[name] = (seconds, output)
    return {name: Timed(*best[name], outputs[name]) for name in names}


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
class Gate(NamedTuple):
    """``value at path <op> threshold``; ``skipped`` names the host
    reason a gate cannot be judged here (it then records no verdict)."""

    path: str
    op: str
    threshold: object
    skipped: Optional[str] = None


def lookup(doc: object, path: str) -> object:
    """Value at a dotted ``path``: list items by index, and a key that
    itself contains dots (a counter name) matched whole.  ``None`` when
    the path does not exist."""
    if isinstance(doc, dict) and path in doc:
        return doc[path]
    head, _, rest = path.partition(".")
    try:
        child = doc[int(head)] if isinstance(doc, list) else doc[head]
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return lookup(child, rest) if rest else child


def passes(value: object, op: str, threshold: object) -> bool:
    return value is not None and bool(OPS[op](value, threshold))


def evaluate(gates: List[Gate], result: Dict[str, object]) -> List[Dict[str, object]]:
    records = []
    for gate in gates:
        value = lookup(result, gate.path)
        record = {"name": gate.path, "path": gate.path, "op": gate.op,
                  "threshold": gate.threshold, "value": value}
        if gate.skipped:
            record["skipped"] = gate.skipped
        else:
            record["passed"] = passes(value, gate.op, gate.threshold)
        records.append(record)
    return records


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(
    bench_file: str,
    run: Callable[[Dict[str, object]], Dict[str, object]],
    report: Callable[[str, Dict[str, object]], None],
    gates: Callable[[Dict[str, object], bool], List[Gate]],
    full: Dict[str, object],
    smoke: Dict[str, object],
    argv: Optional[List[str]] = None,
) -> int:
    """Run a bench, print its report and one line per gate, write the
    artifact on full runs; returns 1 when a gate failed.

    ``gates(host, smoke)`` builds the gate list: thresholds may depend
    on the host (usable CPUs) and, where a bench says so, on the mode.
    """
    bench_path = os.path.abspath(bench_file)
    name = os.path.basename(bench_path)[len("bench_"):-len(".py")]
    parser = argparse.ArgumentParser(description=f"bench_{name}")
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration under the same gates; writes no artifact",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    machine = host()
    result = run(smoke if args.smoke else full)
    report(mode, result)
    records = evaluate(gates(machine, args.smoke), result)
    for record in records:
        verdict = (
            f"SKIPPED ({record['skipped']})" if "skipped" in record
            else "ok" if record["passed"] else "FAILED"
        )
        value = record["value"]
        shown = f"{value:.4g}" if isinstance(value, float) else repr(value)
        print(f"  gate {record['name']}: {shown} {record['op']} "
              f"{record['threshold']!r} {verdict}")
    failed = [record["name"] for record in records if record.get("passed") is False]
    print(f"bench_{name} gates FAILED: {', '.join(failed)}" if failed
          else f"bench_{name} gates passed")

    if not args.smoke:
        artifact = {
            "header": {"host": machine, "mode": mode,
                       "source_hash": source_hash(bench_path)},
            "gates": records,
            "result": result,
        }
        path = os.path.join(ROOT, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded -> {path}")
    return 1 if failed else 0

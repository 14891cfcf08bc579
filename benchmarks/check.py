"""Check every committed ``BENCH_*.json`` against its bench and its gates.

Usage (from the repository root)::

    python -m benchmarks.check

Fails when an artifact has no header, when its source hash differs from
the current bench script plus ``harness.py`` (re-record it with a full
run of the bench), when a gate's value is not the number at its path in
the recorded result, when a gate's verdict does not recompute from its
value, operator and threshold, or when a gate is recorded as failed.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import List

from benchmarks.harness import ROOT, lookup, passes, source_hash


def problems(root: str = ROOT) -> List[str]:
    """Every way the artifacts under ``root`` disagree with their
    benches; empty when all of them check out."""
    found: List[str] = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        artifact_name = os.path.basename(path)
        name = artifact_name[len("BENCH_"):-len(".json")]
        with open(path) as handle:
            artifact = json.load(handle)
        header = artifact.get("header")
        if not header:
            found.append(f"{artifact_name}: no header")
            continue
        bench = os.path.join(root, "benchmarks", f"bench_{name}.py")
        if not os.path.exists(bench):
            found.append(f"{artifact_name}: no bench script bench_{name}.py")
        elif header.get("source_hash") != source_hash(bench):
            found.append(
                f"{artifact_name}: stale source hash (re-record with a full "
                f"run of benchmarks/bench_{name}.py)"
            )
        for gate in artifact.get("gates", []):
            label = f"{artifact_name}: gate {gate['name']}"
            if lookup(artifact["result"], gate["path"]) != gate["value"]:
                found.append(f"{label}: value {gate['value']!r} is not the "
                             f"recorded result at {gate['path']}")
            if "skipped" in gate:
                continue
            if passes(gate["value"], gate["op"], gate["threshold"]) != gate.get("passed"):
                found.append(f"{label}: 'passed' does not recompute from "
                             f"{gate['value']!r} {gate['op']} {gate['threshold']!r}")
            if not gate.get("passed"):
                found.append(f"{label}: recorded as failed ({gate['value']!r} "
                             f"{gate['op']} {gate['threshold']!r})")
    return found


def main() -> int:
    found = problems()
    for problem in found:
        print(problem)
    print(f"benchmarks.check: {len(found)} problem(s)" if found
          else "benchmarks.check: every artifact matches its bench")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

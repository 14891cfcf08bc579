"""``python -m benchmarks.check``: committed artifacts match their benches.

The committed ``BENCH_*.json`` files must pass; a scratch copy of the
artifacts and bench scripts must fail once a gate value is tampered
with, a bench script is edited, an artifact loses its header, or a
gate is recorded as failed.
"""

import json
import shutil
from pathlib import Path

import pytest

from benchmarks.check import problems

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def scratch(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    for artifact in ROOT.glob("BENCH_*.json"):
        shutil.copy(artifact, tmp_path / artifact.name)
    return tmp_path


def _edit_artifact(root, name, edit):
    path = root / f"BENCH_{name}.json"
    artifact = json.loads(path.read_text())
    edit(artifact)
    path.write_text(json.dumps(artifact))


def test_committed_artifacts_pass():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == [
        f"BENCH_{name}.json"
        for name in ("adjoint", "cluster", "faults", "kernels", "planner",
                     "runtime", "service", "sessions", "telemetry")
    ]
    assert problems(str(ROOT)) == []


def test_scratch_copy_passes_untouched(scratch):
    assert problems(str(scratch)) == []


def test_tampered_gate_value_fails(scratch):
    def tamper(artifact):
        artifact["gates"][0]["value"] = 1e9

    _edit_artifact(scratch, "kernels", tamper)
    assert any("BENCH_kernels.json: gate" in p and "not the recorded result" in p
               for p in problems(str(scratch)))


def test_edited_bench_script_fails(scratch):
    bench = scratch / "benchmarks" / "bench_planner.py"
    bench.write_text(bench.read_text() + "\n# edited\n")
    assert problems(str(scratch)) == [
        "BENCH_planner.json: stale source hash (re-record with a full run "
        "of benchmarks/bench_planner.py)"
    ]


def test_artifact_without_header_fails(scratch):
    _edit_artifact(scratch, "faults", lambda artifact: artifact.pop("header"))
    assert problems(str(scratch)) == ["BENCH_faults.json: no header"]


def test_gate_recorded_as_failed_fails(scratch):
    def fail_first_gate(artifact):
        gate = artifact["gates"][0]
        gate["op"] = "<" if gate["op"] == ">=" else gate["op"]
        gate["threshold"] = gate["value"]
        gate["passed"] = False

    _edit_artifact(scratch, "service", fail_first_gate)
    assert any("BENCH_service.json: gate" in p and "recorded as failed" in p
               for p in problems(str(scratch)))

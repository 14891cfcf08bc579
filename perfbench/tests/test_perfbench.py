"""Tests of the benchmark itself, at tiny sizes.

From the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import metrics, workloads  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from perfbench.spans import INCL_NS, LAYERS, PARENT, SELF_NS, WORKER  # noqa: E402
from repro.quantum.kernels import CompiledProgram  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A layer each workload must spend time in.
BUSY_LAYER = {
    "shift-vqe12": "kernel",
    "stream-vqe6": "wire",
    "jobs-mix": "lower",
    "grad-vqe12": "adjoint",
}
SINGLE_CLIENT = ("shift-vqe12", "grad-vqe12")


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_and_reports_every_end_to_end_metric(name):
    run = workloads.run_workload(name, seed=3, seconds=0.5, size="tiny", rounds=1)
    assert run.errors == []
    assert run.failed == 0 and run.attempted >= 1
    values = metrics.end_to_end(run)
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _unit in values.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_self_times(name):
    run = workloads.run_workload(name, seed=4, seconds=0.8, trace=True, size="tiny", rounds=2)
    assert run.errors == [] and run.failed == 0
    assert run.latencies and run.traced_latencies
    for layer in LAYERS:
        for region in (PARENT, WORKER):
            self_ns = run.layers.get(layer, SELF_NS, region)
            assert 0 <= self_ns <= run.layers.get(layer, INCL_NS, region), layer
    assert run.layers.get(BUSY_LAYER[name], SELF_NS) > 0
    if name in SINGLE_CLIENT:
        assert metrics.attributed_seconds(run) <= sum(run.traced_latencies)
    values = metrics.per_layer(run)
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[key] == unit for key, (_value, unit) in values.items())
    # Every wrapper is gone once the run is over.
    assert not hasattr(CompiledProgram.__dict__["execute"], "__wrapped__")


def test_perturbed_outputs_count_as_failed_ops(monkeypatch):
    serial = workloads.evaluate_spec_batch
    monkeypatch.setattr(
        workloads, "evaluate_spec_batch",
        lambda *args: [value + 1e-9 for value in serial(*args)],
    )
    run = workloads.run_workload("shift-vqe12", seed=3, seconds=0.4, size="tiny", rounds=1)
    assert run.failed > 0


def test_perturbed_pinned_history_or_timeline_counts_as_failed_ops():
    run = workloads.Run("grad-vqe12", workloads.DEFAULT_SEED, "full", None)
    run.observed = {"history": "abc", "timeline": {"end_to_end_ps": 10, "quantum": 4}}
    pinned = {"grad-vqe12": json.loads(json.dumps(run.observed))}
    assert workloads.pinned_failures(run, pinned) == 0
    for field, value in (("history", "abd"), ("timeline", {"end_to_end_ps": 11, "quantum": 4})):
        perturbed = {"grad-vqe12": dict(pinned["grad-vqe12"], **{field: value})}
        assert workloads.pinned_failures(run, perturbed) == workloads.PINNED_OPS["grad-vqe12"]


def test_committed_pins_cover_every_workload():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert sorted(expected) == sorted(NAMES)
    assert expected["jobs-mix"]["timeline"] is None
    assert all(expected[name]["timeline"] for name in NAMES if name != "jobs-mix")


def test_helper_processes_are_stopped_and_reaped():
    # A shared-memory segment starts the resource tracker, which Python
    # lets outlive the process unless it is stopped.
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    bench_run.stop_helper_processes()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jobs-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

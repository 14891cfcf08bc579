"""Golden digests of the modelled Qtenon timeline.

Each scenario drives a :class:`QtenonSystem` through a fixed sequence
of evaluations and hashes everything the timing model produces: the
full :class:`ExecutionReport` and the controller, pipeline, SLT,
QSpace and barrier statistics.  The digests were recorded from the
straightforward per-entry, per-batch replay; the precomputed plans,
timelines and address constants must reproduce them bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import QtenonFeatures, QtenonSystem
from repro.core.config import QtenonConfig
from repro.core.scheduler import shot_record_bytes
from repro.core.system import HOST_RESULT_BASE
from repro.faults import FaultInjector, FaultPlan, MeasurementFaults
from repro.host import ROCKET
from repro.host.workloads import DEFAULT_COSTS
from repro.vqa import vqe_workload


def _shift_vectors(n_params: int, rng) -> list:
    """One parameter-shift gradient step: the base point and 2P probes."""
    base = rng.uniform(-1.0, 1.0, size=n_params)
    vectors = [base]
    for index in range(n_params):
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[index] += sign * math.pi / 2
            vectors.append(probe)
    return vectors


def _spsa_vectors(n_params: int, rng, steps: int) -> list:
    """SPSA-shaped probes: ±c·Δ around a drifting point."""
    point = rng.uniform(-1.0, 1.0, size=n_params)
    vectors = []
    for _ in range(steps):
        delta = rng.choice([-1.0, 1.0], size=n_params)
        vectors += [point + 0.1 * delta, point - 0.1 * delta]
        point = point - 0.05 * delta * rng.uniform(0.0, 1.0)
    return vectors


def _state(system: QtenonSystem, result_bytes: int) -> dict:
    report = system.finish()
    controller = system.controller
    barrier = controller.barrier
    state = {
        "report": dataclasses.asdict(report),
        "controller": controller.stats.as_dict(),
        "pipeline": controller.pipeline.stats.as_dict(),
        "slt": [slt.stats.as_dict() for slt in controller.slts],
        "qspace": controller.qspace.stats.as_dict(),
        "barrier": barrier.stats.as_dict(),
        "barrier_ranges": len(barrier),
        "barrier_fence": barrier.fence(0),
        "program": sorted(
            (qubit, index, entry.pack())
            for (qubit, index), entry in controller.qcc._program.items()
        ),
        "pulses_allocated": controller.qcc._pulse_next,
        "host_memory": sorted(system.hierarchy.image._words.items()),
    }
    # When each result byte becomes readable (queried after the stats
    # above were captured).
    state["barrier_ready"] = [
        barrier.query(HOST_RESULT_BASE + offset, 0) for offset in range(result_bytes)
    ]
    if system.trace is not None:
        state["trace"] = system.trace.to_chrome_trace()
    return state


def _run(qubits, shots, vectors_of, alternate=False, **kwargs) -> dict:
    """``alternate`` toggles timing-only mode every evaluation, the way
    the evaluation engine replays timing on a functional platform."""
    workload = vqe_workload(qubits)
    system = QtenonSystem(qubits, seed=5, **kwargs)
    system.prepare(workload.ansatz, workload.observable)
    rng = np.random.default_rng(11)
    for number, vector in enumerate(vectors_of(workload.n_parameters, rng)):
        if alternate:
            system.timing_only = number % 2 == 1
        system.evaluate(
            {p: float(v) for p, v in zip(workload.parameters, vector)}, shots
        )
    return _state(system, shots * shot_record_bytes(qubits) + 8)


def _faults(**fields) -> FaultInjector:
    return FaultInjector(FaultPlan(seed=3, measurement=MeasurementFaults(**fields)))


SCENARIOS = {
    "shift-12q": lambda: _run(12, 1000, _shift_vectors, timing_only=True),
    "spsa-6q": lambda: _run(
        6, 200, lambda n, rng: _spsa_vectors(n, rng, 20),
        timing_only=True, trace_events=True,
    ),
    # A slow host with costly parity evaluation: post-processing
    # outlasts the run, so the overlap's host-done time (which depends
    # on each group's term count) reaches the timeline.
    "slow-host": lambda: _run(
        6, 200, lambda n, rng: _spsa_vectors(n, rng, 3),
        core=ROCKET, timing_only=True,
        costs=dataclasses.replace(DEFAULT_COSTS, expectation_ops_per_term_shot=5000.0),
    ),
    "hardware-only": lambda: _run(
        6, 64, lambda n, rng: _spsa_vectors(n, rng, 2),
        features=QtenonFeatures.hardware_only(), trace_events=True,
    ),
    "hardware-only-timing": lambda: _run(
        5, 100, lambda n, rng: _spsa_vectors(n, rng, 3),
        features=QtenonFeatures.hardware_only(), timing_only=True,
    ),
    "slt-disabled": lambda: _run(
        6, 200, lambda n, rng: _spsa_vectors(n, rng, 5),
        config=QtenonConfig(n_qubits=6, slt_enabled=False), timing_only=True,
    ),
    "full-compile": lambda: _run(
        6, 200, lambda n, rng: _spsa_vectors(n, rng, 3),
        features=QtenonFeatures(incremental_compile=False), timing_only=True,
    ),
    "alternating-modes": lambda: _run(
        5, 100, lambda n, rng: _spsa_vectors(n, rng, 3), alternate=True,
    ),
    "measurement-faults": lambda: _run(
        5, 100, lambda n, rng: _spsa_vectors(n, rng, 3),
        fault_injector=_faults(drop_p=0.2, corrupt_p=0.1),
    ),
    "measurement-faults-fence": lambda: _run(
        4, 40, lambda n, rng: _spsa_vectors(n, rng, 2),
        features=QtenonFeatures.hardware_only(),
        fault_injector=_faults(drop_p=0.1, corrupt_p=0.1, stuck_acquire_p=0.3),
    ),
}

#: sha256 prefixes recorded from the per-entry, per-batch replay.  The
#: four scenarios with functional evaluations (alternating-modes,
#: hardware-only, measurement-faults, measurement-faults-fence) hash
#: sampled energies and the delivered shot records too; they were
#: re-recorded when bare platforms began drawing shots on the spec path
#: with content-derived seeds, after checking that their states without
#: ``report.energies`` and ``host_memory`` hash as before.
GOLDEN = {
    "alternating-modes": "ae9ee41cb72911f1",
    "full-compile": "7e19e90f22355335",
    "hardware-only": "27b0a4fa64e8d366",
    "hardware-only-timing": "23b8e7a87903995e",
    "measurement-faults": "18740e57bdc33d74",
    "measurement-faults-fence": "1b62dfb32e23dc1a",
    "shift-12q": "3e29c48e9985d6cf",
    "slow-host": "b6c209618c572dbb",
    "slt-disabled": "30e1d3af00f77732",
    "spsa-6q": "9b5b64803ed8740f",
}


def digest(state: dict) -> str:
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_matches_golden_digest(name):
    assert digest(SCENARIOS[name]()) == GOLDEN[name]

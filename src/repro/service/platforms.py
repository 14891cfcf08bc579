"""Shared platform/engine construction and job run for job execution.

Both executors of a :class:`~repro.service.jobs.JobSpec` — the job
service's in-process worker slots and the cluster worker nodes — build
the same stack: a platform (Qtenon or the decoupled baseline) wrapped
in an :class:`~repro.runtime.engine.EvaluationEngine`, and run the same
hybrid loop on it (:func:`run_spec`).  Keeping both here guarantees the
two tiers run *the same computation* for the same spec, which is what
makes cluster re-execution after a node failure bit-identical to a
single-process run.
"""

from __future__ import annotations

from typing import Optional

from repro.baseline.system import DecoupledSystem
from repro.core.config import QtenonConfig
from repro.core.system import QtenonSystem
from repro.host import core_by_name
from repro.quantum.noise import ReadoutNoise
from repro.runtime.cache import EvalCache
from repro.runtime.engine import EvaluationEngine
from repro.service.jobs import JobSpec
from repro.vqa import (
    ghz_workload,
    make_optimizer,
    qaoa_workload,
    qnn_workload,
    vqe_workload,
)
from repro.vqa.runner import HybridResult, HybridRunner

#: Workload builders by :attr:`JobSpec.workload` name.
WORKLOADS = {
    "qaoa": qaoa_workload,
    "vqe": vqe_workload,
    "qnn": qnn_workload,
    "ghz": ghz_workload,
}


def build_platform(
    spec: JobSpec,
    *,
    core: str = "boom-large",
    timing_only: bool = False,
    trace_events: bool = False,
    readout_noise: Optional[ReadoutNoise] = None,
):
    """The bare platform a spec describes (no engine wrapper).

    ``auto`` leaves the platform sampler unforced so the execution
    planner routes the job from its gate census; anything else is
    threaded to ``Sampler.force_backend`` and wins unconditionally.
    """
    backend = None if spec.backend == "auto" else spec.backend
    if spec.platform == "qtenon":
        return QtenonSystem(
            spec.n_qubits,
            core=core_by_name(core),
            seed=spec.seed,
            backend=backend,
            timing_only=timing_only,
            trace_events=trace_events,
            readout_noise=readout_noise,
            config=QtenonConfig(
                n_qubits=spec.n_qubits,
                regfile_entries=max(1024, 8 * spec.n_qubits),
            ),
        )
    return DecoupledSystem(
        spec.n_qubits,
        seed=spec.seed,
        backend=backend,
        timing_only=timing_only,
        readout_noise=readout_noise,
    )


def build_engine(
    spec: JobSpec,
    *,
    core: str = "boom-large",
    timing_only: bool = False,
    trace_events: bool = False,
    cache: Optional[EvalCache] = None,
    engine_workers: int = 1,
    readout_noise: Optional[ReadoutNoise] = None,
) -> EvaluationEngine:
    """Platform + engine for one job.

    ``engine_workers > 1`` puts the engine behind its own
    :class:`~repro.runtime.workers.SharedMemoryPool` — the cluster
    worker's intra-node parallelism; the service keeps 1 because its
    parallelism lives in the worker slots and its reuse in the shared
    cache.  Content-derived sampler seeds make both paths bit-identical.
    """
    platform = build_platform(
        spec,
        core=core,
        timing_only=timing_only,
        trace_events=trace_events,
        readout_noise=readout_noise,
    )
    return EvaluationEngine(
        platform, max_workers=engine_workers, cache=cache, seed=spec.seed
    )


def run_spec(spec: JobSpec, platform) -> HybridResult:
    """Run a spec's hybrid optimisation loop on ``platform``."""
    workload = WORKLOADS[spec.workload](spec.n_qubits)
    runner = HybridRunner(
        platform,
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer(spec.optimizer, seed=spec.seed),
        shots=spec.shots,
        iterations=spec.iterations,
    )
    return runner.run(seed=spec.seed)

"""Evaluation logic shared by the two platform models.

:class:`~repro.core.system.QtenonSystem` and
:class:`~repro.baseline.system.DecoupledSystem` differ in how a sampled
evaluation is compiled, transmitted and timed, but not in what they
evaluate: the same measurement-group circuits, the same ``shots=0``
analytic path, the same adjoint-gradient and optimiser charges, the
same calibration drift and the same timing-only surrogate objective.
:class:`PlatformModel` holds that common part once, plus the
sequential-phase accounting both use.  Subclasses supply ``_extras()``
(their own report counters).
Functional energies and shot outcomes come from the spec path under
content-derived seeds, so a bare platform and an
:class:`~repro.runtime.engine.EvaluationEngine` agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.breakdown import ExecutionReport
from repro.compiler.transpile import transpile
from repro.host.cores import CoreModel
from repro.host.workloads import HostWorkloadModel, WorkloadCosts
from repro.planner import derive_backend_id
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import QuantumDevice
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import MeasurementGroup, PauliSum, measurement_circuits
from repro.quantum.sampler import Sampler
from repro.runtime import engine as runtime_engine
from repro.runtime.cache import evaluation_keys
from repro.telemetry.tracing import Tracer

#: Chrome-trace track of each breakdown category.
_TRACE_TRACK = {
    "quantum": "quantum",
    "pulse_gen": "controller",
    "host_compute": "host",
    "comm": "bus",
}


class PlatformModel:
    """Workload state and evaluation logic common to both platforms."""

    def __init__(
        self,
        name: str,
        n_qubits: int,
        device_qubits: int,
        core: CoreModel,
        costs: WorkloadCosts,
        seed: int,
        exact_limit: int,
        backend: Optional[str],
        timing_only: bool,
        readout_noise,
        fault_injector,
    ) -> None:
        self.n_qubits = n_qubits
        self.core = core
        self.workload = HostWorkloadModel(core, costs)
        #: timing-only mode: full architectural timeline, no quantum
        #: state — large sweep benches (Fig. 11/12/17) use this; the
        #: objective seen by the optimizer is a smooth deterministic
        #: surrogate so parameter trajectories stay realistic.
        self.timing_only = timing_only
        self.fault_injector = fault_injector
        self.seed = seed
        self.device = QuantumDevice(device_qubits, readout_noise=readout_noise)
        #: routing settings the spec is built from (never drawn from)
        self.sampler = Sampler(
            seed=seed,
            exact_limit=exact_limit,
            force_backend=backend,
            readout_noise=self.device.readout_noise,
        )
        self._base_readout = self.device.readout_noise
        self.report = ExecutionReport(platform=f"{name}-{core.name}")
        #: optional sim-time Chrome-trace timeline (see
        #: repro.telemetry.tracing)
        self.trace: Optional[Tracer] = None
        self.now: int = 0
        self._groups: List[MeasurementGroup] = []
        #: one transpiled measurement circuit per group
        self._group_circuits: List[QuantumCircuit] = []
        self._observable: Optional[PauliSum] = None
        self._surrogate_scale = 1.0
        self._ansatz: Optional[QuantumCircuit] = None
        self._ansatz_gates = 0
        self._spec: Optional["runtime_engine.EvaluationSpec"] = None
        self._prepared = False

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _bind_workload(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        """Record the workload and its transpiled group circuits.

        The platform stays unprepared until the subclass's ``prepare``
        finishes, so one that raises part-way leaves nothing of the
        previous workload to evaluate.
        """
        self._prepared = False
        self._spec = None
        if ansatz.n_qubits != self.n_qubits:
            raise ValueError(
                f"ansatz has {ansatz.n_qubits} qubits, system built for {self.n_qubits}"
            )
        self._observable = observable
        #: the timing-only surrogate's amplitude: the observable's
        #: coefficient mass, fixed per workload
        self._surrogate_scale = sum(abs(coeff) for coeff, _ in observable.terms) or 1.0
        self._ansatz = ansatz.copy()
        self._ansatz_gates = ansatz.gate_count(include_measure=False)
        # An observable with only a constant still runs and measures.
        self._groups = observable.grouped_qubitwise() or [MeasurementGroup()]
        self._group_circuits = [
            transpile(circuit)
            for circuit in measurement_circuits(ansatz, self._groups)
        ]

    @property
    def spec(self) -> "runtime_engine.EvaluationSpec":
        """The workload's functional-evaluation spec, built on first use
        after each ``prepare`` from the sampler's routing settings (an
        engine wrapping this platform adopts it)."""
        if self._spec is None:
            if not self._prepared:
                raise RuntimeError("call prepare() before reading the spec")
            # Called through the module, so a wrapper installed on
            # repro.runtime.engine.build_spec (a profiler's) sees it.
            self._spec = runtime_engine.build_spec(
                self._ansatz,
                self._observable,
                exact_limit=self.sampler.exact_limit,
                force_backend=self.sampler.force_backend,
                readout_noise=self.sampler.readout_noise,
                groups=self._groups,
                group_circuits=self._group_circuits,
            )
        return self._spec

    @property
    def drifts_readout(self) -> bool:
        """Whether sampled evaluations see calibration drift."""
        return (
            self.fault_injector is not None
            and self._base_readout is not None
            and self.fault_injector.plan.readout.rate_per_evaluation != 0.0
        )

    def _begin_sampled(
        self, values: Dict[Parameter, float], shots: int
    ) -> Tuple[float, list]:
        """Open one sampled evaluation: its energy and group draws (the
        surrogate and no draws in timing-only mode)."""
        readout = self._base_readout
        if self.fault_injector is not None and readout is not None:
            # Calibration drift: assignment errors grow with the
            # evaluation index until the next (modelled) recalibration.
            readout = self.fault_injector.drifted_readout(
                readout, self.report.evaluations
            )
        self.report.evaluations += 1
        self.report.total_shots += shots * len(self._groups)
        if self.timing_only:
            return self._surrogate_energy(values), [None] * len(self._groups)
        return self._spec_energy(values, shots, readout)

    def _spec_energy(
        self, values: Dict[Parameter, float], shots: int, readout
    ) -> Tuple[float, list]:
        """One evaluation on the spec path, seeded and summed as an
        engine does: its energy and its group draws.  A drifted
        ``readout`` channel runs on a spec copy carrying it."""
        spec = self.spec
        if readout != spec.readout_noise:
            spec = dataclasses.replace(
                spec,
                readout_noise=readout,
                backend_id=derive_backend_id(spec.force_backend, readout),
            )
        vector = np.array([values[p] for p in spec.parameters], dtype=np.float64)
        seed = evaluation_keys(
            spec.structure_hash, [vector], shots, self.seed, spec.backend_id
        )[0].sampler_seed
        energy = float(spec.constant)
        draws = []
        for _, value, draw in runtime_engine._group_draws(spec, [vector], shots, [seed]):
            if value is not None:
                energy += value
            draws.append(draw)
        return energy, draws

    def _evaluate_analytic(self, values: Dict[Parameter, float]) -> float:
        """``shots=0``: exact ⟨observable⟩ as a host-side simulation.

        Bypasses the device round trip entirely — there is nothing to
        stream, batch or post-process — and charges the statevector
        pass as host compute instead.
        """
        if self.timing_only:
            value = self._surrogate_energy(values)
        else:
            value, _ = self._spec_energy(values, 0, self._base_readout)
        self.report.evaluations += 1
        self._charge(
            "host_compute",
            self.workload.analytic_expectation_ps(
                self._ansatz_gates, len(self._observable.terms), self.n_qubits
            ),
        )
        self.report.energies.append(float(value))
        return float(value)

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def charge_optimizer_step(self, n_params: int, method: str) -> None:
        """Host-side optimiser update between evaluations."""
        self._charge("host_compute", self.workload.optimizer_step_ps(n_params, method))

    def charge_adjoint_gradient(self, n_params: int, energy: float) -> None:
        """Account one adjoint-mode gradient evaluation.

        The adjoint pass is pure host compute — one forward simulation
        plus one reverse sweep, no quantum shots — so the charge is
        independent of ``n_params`` and no device phases are touched.
        The analytic energy from the forward pass lands in the report
        exactly like a sampled evaluation's would.
        """
        self.report.evaluations += 1
        self._charge(
            "host_compute",
            self.workload.adjoint_gradient_ps(self._ansatz_gates, self.n_qubits),
        )
        self.report.energies.append(float(energy))

    def finish(self) -> ExecutionReport:
        self.report.end_to_end_ps = self.now
        for name, value in self._extras().items():
            self.report.extra.setdefault(name, value)
        if self._base_readout is not None:
            self.report.extra.setdefault("readout_p01", self._base_readout.p01)
            self.report.extra.setdefault("readout_p10", self._base_readout.p10)
        return self.report

    def _charge(
        self, category: str, duration_ps: int, instr_kind: Optional[str] = None
    ) -> None:
        """Sequential phase: exposed == busy; advances the cursor."""
        self.report.breakdown.add(category, duration_ps)
        self.report.busy.add(category, duration_ps)
        if self.trace is not None:
            self.trace.record(
                _TRACE_TRACK[category],
                instr_kind or category,
                self.now,
                self.now + duration_ps,
            )
        if instr_kind is not None:
            self.report.comm_by_instruction[instr_kind] = (
                self.report.comm_by_instruction.get(instr_kind, 0) + duration_ps
            )
        self.now += duration_ps

    def _count_instr(self, mnemonic: str, n: int) -> None:
        self.report.instruction_counts[mnemonic] = (
            self.report.instruction_counts.get(mnemonic, 0) + n
        )

    def _surrogate_energy(self, values: Dict[Parameter, float]) -> float:
        """Smooth deterministic stand-in objective for timing-only mode.

        Keeps optimizer trajectories (and hence SLT reuse patterns)
        realistic without simulating quantum state: a separable cosine
        landscape scaled to the observable's coefficient mass.
        """
        phase = sum(
            math.cos(value + 0.37 * i) for i, value in enumerate(values.values())
        )
        n = max(1, len(values))
        return self._observable.constant - self._surrogate_scale * phase / n

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
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.analysis.breakdown import ExecutionReport
from repro.analysis.trace import TraceRecorder
from repro.compiler.transpile import transpile
from repro.host.cores import CoreModel
from repro.host.workloads import HostWorkloadModel, WorkloadCosts
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import QuantumDevice
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import MeasurementGroup, PauliSum, measurement_circuits
from repro.quantum.sampler import Sampler

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
        self.device = QuantumDevice(device_qubits, readout_noise=readout_noise)
        self.sampler = Sampler(
            seed=seed,
            exact_limit=exact_limit,
            force_backend=backend,
            readout_noise=self.device.readout_noise,
        )
        self._base_readout = self.device.readout_noise
        self.report = ExecutionReport(platform=f"{name}-{core.name}")
        #: optional Chrome-trace timeline (see repro.analysis.trace)
        self.trace: Optional[TraceRecorder] = None
        self.now: int = 0
        self._groups: List[MeasurementGroup] = []
        self._observable: Optional[PauliSum] = None
        self._ansatz: Optional[QuantumCircuit] = None
        self._ansatz_gates = 0
        self._prepared = False

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _bind_workload(
        self, ansatz: QuantumCircuit, observable: PauliSum
    ) -> List[QuantumCircuit]:
        """Record the workload; return its transpiled group circuits."""
        if ansatz.n_qubits != self.n_qubits:
            raise ValueError(
                f"ansatz has {ansatz.n_qubits} qubits, system built for {self.n_qubits}"
            )
        self._observable = observable
        self._ansatz = ansatz.copy()
        self._ansatz_gates = ansatz.gate_count(include_measure=False)
        # An observable with only a constant still runs and measures.
        self._groups = observable.grouped_qubitwise() or [MeasurementGroup()]
        return [
            transpile(circuit)
            for circuit in measurement_circuits(ansatz, self._groups)
        ]

    def _begin_sampled(self, shots: int) -> None:
        """Open one sampled evaluation: calibration drift, then counts."""
        if self.fault_injector is not None and self._base_readout is not None:
            # Calibration drift: assignment errors grow with the
            # evaluation index until the next (modelled) recalibration.
            self.sampler.readout_noise = self.fault_injector.drifted_readout(
                self._base_readout, self.report.evaluations
            )
        self.report.evaluations += 1
        self.report.total_shots += shots * len(self._groups)

    def _evaluate_analytic(self, values: Dict[Parameter, float]) -> float:
        """``shots=0``: exact ⟨observable⟩ as a host-side simulation.

        Bypasses the device round trip entirely — there is nothing to
        stream, batch or post-process — and charges the statevector
        pass as host compute instead.
        """
        self.report.evaluations += 1
        if self.timing_only:
            value = self._surrogate_energy(values)
        else:
            value, _ = self.sampler.expectation(
                self._ansatz.bind(values), self._observable, 0
            )
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
        observable = self._observable
        scale = sum(abs(coeff) for coeff, _ in observable.terms) or 1.0
        phase = sum(
            math.cos(value + 0.37 * i) for i, value in enumerate(values.values())
        )
        n = max(1, len(values))
        return observable.constant - scale * phase / n

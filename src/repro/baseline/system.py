"""The decoupled baseline platform (paper §7.1 baseline configuration).

An i9 host talks to an FPGA quantum controller over a network link;
execution is strictly sequential (Table 1 "Execution: Sequential"):

  compile (full JIT) → upload binary → FPGA pulse generation →
  quantum shots (with ADI crossings) → download results → host
  post-processing

No overlap, no incremental compilation, no pulse reuse.  The class
implements the same platform protocol as
:class:`repro.core.system.QtenonSystem`, so the benchmark harness and
the :class:`~repro.vqa.runner.HybridRunner` drive both identically.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baseline.fpga import FpgaConfig, FpgaController
from repro.baseline.jit import JitCompiler
from repro.baseline.network import LinkModel, LinkTracker, UDP_100GBE
from repro.core.platform import PlatformModel
from repro.core.scheduler import shot_record_bytes
from repro.host.cores import CoreModel, INTEL_I9
from repro.host.workloads import DEFAULT_COSTS, WorkloadCosts
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.pauli import MeasurementGroup, PauliSum
from repro.quantum.parameters import Parameter


class DecoupledSystem(PlatformModel):
    """Decoupled host + FPGA + quantum chip platform model."""

    def __init__(
        self,
        n_qubits: int,
        core: CoreModel = INTEL_I9,
        link: LinkModel = UDP_100GBE,
        fpga_config: FpgaConfig = FpgaConfig(),
        seed: int = 0,
        costs: WorkloadCosts = DEFAULT_COSTS,
        exact_limit: int = 14,
        backend: Optional[str] = None,
        timing_only: bool = False,
        readout_noise=None,
        fault_injector=None,
    ) -> None:
        super().__init__(
            "decoupled", n_qubits, n_qubits, core, costs, seed,
            exact_limit, backend, timing_only, readout_noise, fault_injector,
        )
        self.link = LinkTracker(link, fault_injector=fault_injector)
        self.fpga = FpgaController(fpga_config)
        self.jit = JitCompiler(self.workload)

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        """Store templates; decoupled stacks compile at evaluate time."""
        self._bind_workload(ansatz, observable)
        self._prepared = True

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float:
        if not self._prepared:
            raise RuntimeError("call prepare() before evaluate()")
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if shots == 0:
            return self._evaluate_analytic(values)
        value, _ = self._begin_sampled(values, shots)
        for group, template in zip(self._groups, self._group_circuits):
            self._run_group(group, template, shots)
        self.report.energies.append(float(value))
        return float(value)

    def _extras(self) -> Dict[str, float]:
        extras = {
            "link_messages": float(self.link.messages),
            "jit_compilations": float(self.jit.compilations),
        }
        if self.fault_injector is not None:
            extras["link_retransmits"] = float(self.link.retransmits)
            extras["link_recovery_ps"] = float(self.link.recovery_ps)
        return extras

    # ------------------------------------------------------------------
    def _run_group(
        self, group: MeasurementGroup, template: QuantumCircuit, shots: int
    ) -> None:
        """Charge one group's sequential round trip."""
        # 1. full JIT recompilation on the host.
        output = self.jit.compile(template)
        self._charge("host_compute", output.compile_time_ps)
        self._count_instr("static_quantum", output.instruction_count)

        # 2. binary upload over the link.
        self._charge("comm", self.link.send(output.binary_bytes), instr_kind="upload")

        # 3. FPGA regenerates every pulse (no reuse).
        pulses = output.circuit.gate_count(include_measure=False)
        self._charge("pulse_gen", self.fpga.pulse_generation_ps(pulses))
        self.report.pulses_generated += pulses
        self.report.pulse_entries_processed += pulses

        # 4. quantum execution: shots x (circuit + ADI round trip).
        shot_ps = self.device.shot_duration_ps(output.circuit)
        shot_ps += self.fpga.adi_round_trip_ps()
        self._charge("quantum", shots * shot_ps)

        # 5. results travel back in one message.
        result_bytes = shots * shot_record_bytes(self.n_qubits)
        self._charge("comm", self.link.send(result_bytes), instr_kind="download")

        # 6. host post-processing.
        post = self.workload.post_process_ps(shots, self.n_qubits)
        post += self.workload.expectation_ps(len(group.members), shots)
        self._charge("host_compute", post)

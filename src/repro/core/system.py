"""The Qtenon system: host + controller + device on one timeline.

:class:`QtenonSystem` is the tightly coupled *platform* the paper
proposes.  It implements the platform protocol shared with the
decoupled baseline (:mod:`repro.baseline.system`):

* ``prepare(ansatz, observable)`` — transpile, lower, upload;
* ``evaluate(values, shots)`` — one circuit evaluation: incremental
  compile → ``q_update`` stream → ``q_gen`` → per-measurement-group
  ``q_run`` with overlapped result streaming → host post-processing;
* ``finish()`` — the :class:`~repro.analysis.breakdown.ExecutionReport`.

Three feature flags map to the paper's ablations:

=====================  ==============================================
``incremental_compile``  §6.1 dynamic incremental compilation; off →
                         full re-lowering + re-upload each evaluation
``fine_grained_sync``    §6.2 soft memory barrier; off → FENCE-style
                         pull (`q_acquire`) after the run completes
``batched_transmission`` §6.3 Algorithm 1; off → one PUT per shot
=====================  ==============================================

``QtenonFeatures.hardware_only()`` (all off) is the paper's
"Qtenon w/o software" configuration (Fig. 13b).

Timing is *exposed-time* accounting: each phase contributes its
critical-path share, so the breakdown sums to the end-to-end time.
The run/post-processing overlap can be computed analytically or by
scheduling events on the DES kernel (``overlap_mode``); the two agree
exactly and tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.trace import TraceRecorder
from repro.compiler.incremental import IncrementalCompiler, UpdatePlan
from repro.compiler.lowering import QtenonProgram, WORDS_PER_ENTRY, lower
from repro.compiler.optimize import optimize as peephole_optimize
from repro.core.config import QtenonConfig
from repro.core.controller import QuantumController, RunResult
from repro.core.platform import PlatformModel
from repro.host.cores import BOOM_LARGE, CoreModel
from repro.host.workloads import WorkloadCosts, DEFAULT_COSTS
from repro.isa.instructions import QAcquire
from repro.memory.hierarchy import MemoryHierarchy
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.pauli import MeasurementGroup, PauliSum
from repro.quantum.parameters import Parameter
from repro.sim.clock import HOST_CLOCK
from repro.sim.kernel import Simulator

#: Host memory layout for the reproduction's workloads.
HOST_PROGRAM_BASE = 0x1000_0000
HOST_RESULT_BASE = 0x2000_0000


@dataclass(frozen=True)
class QtenonFeatures:
    """Software-stack feature flags (the paper's ablation axes)."""

    incremental_compile: bool = True
    fine_grained_sync: bool = True
    batched_transmission: bool = True

    @classmethod
    def full(cls) -> "QtenonFeatures":
        return cls()

    @classmethod
    def hardware_only(cls) -> "QtenonFeatures":
        """Fig. 13(b) "Qtenon w/o software": hardware plus the bare ISA.

        The ablated pieces are the §6.2 memory-consistency model and
        the §6.3 scheduling; incremental compilation stays on because
        it is inherent to the ISA's program-as-data encoding (the
        paper's Fig. 13b host-computation share — ~160 us/evaluation —
        is only reachable with it; a full per-evaluation recompile on a
        1 GHz in-order host would dwarf the baseline).  Use
        ``QtenonFeatures(incremental_compile=False)`` to model JIT
        recompilation on the Qtenon host explicitly.
        """
        return cls(
            incremental_compile=True,
            fine_grained_sync=False,
            batched_transmission=False,
        )


class QtenonSystem(PlatformModel):
    """Tightly coupled platform model."""

    def __init__(
        self,
        n_qubits: int,
        core: CoreModel = BOOM_LARGE,
        features: QtenonFeatures = QtenonFeatures(),
        seed: int = 0,
        config: Optional[QtenonConfig] = None,
        costs: WorkloadCosts = DEFAULT_COSTS,
        exact_limit: int = 14,
        overlap_mode: str = "analytic",
        backend: Optional[str] = None,
        timing_only: bool = False,
        optimize_circuits: bool = False,
        trace_events: bool = False,
        readout_noise=None,
        fault_injector=None,
    ) -> None:
        if overlap_mode not in ("analytic", "event"):
            raise ValueError(f"overlap_mode must be 'analytic' or 'event', got {overlap_mode!r}")
        self.config = config or QtenonConfig(n_qubits=n_qubits)
        if self.config.n_qubits < n_qubits:
            raise ValueError(
                f"config supports {self.config.n_qubits} qubits, workload needs {n_qubits}"
            )
        super().__init__(
            "qtenon", n_qubits, self.config.n_qubits, core, costs, seed,
            exact_limit, backend, timing_only, readout_noise, fault_injector,
        )
        self.features = features
        self.overlap_mode = overlap_mode
        #: run the peephole optimiser before lowering (off by default so
        #: reported entry counts match the raw workload definitions).
        self.optimize_circuits = optimize_circuits
        self.clock = HOST_CLOCK

        self.hierarchy = MemoryHierarchy()
        self.controller = QuantumController(
            self.config,
            self.hierarchy,
            self.device,
            self.sampler,
            fault_injector=fault_injector,
        )
        if trace_events:
            self.trace = TraceRecorder(f"qtenon-{core.name}")
        self._program: Optional[QtenonProgram] = None
        self._incremental: Optional[IncrementalCompiler] = None

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        """Transpile + lower the workload and upload it once."""
        group_circuits = self._bind_workload(ansatz, observable)
        if self.optimize_circuits:
            group_circuits = [peephole_optimize(c) for c in group_circuits]
        self._program = lower(group_circuits, self.config)
        self.controller.attach_program(self._program)
        self._incremental = IncrementalCompiler(self._program)

        # Host: one-time lowering cost.
        self._charge("host_compute", self.workload.initial_lowering_ps(
            self._program.total_entries
        ))
        # Stage packed entries in host memory and upload via q_set.
        self._stage_and_upload()
        self._prepared = True

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float:
        """One circuit evaluation of ⟨observable⟩ at ``values``."""
        if not self._prepared:
            raise RuntimeError("call prepare() before evaluate()")
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if shots == 0:
            # Analytic path: no device run, no RNG consumption — the
            # exact expectation is pure host compute.
            return self._evaluate_analytic(values)
        self._begin_sampled(shots)

        plan = self._compile_step(values)
        self._issue_updates(plan)
        self._run_pulse_generation()

        value = self._observable.constant
        for index, group in enumerate(self._groups):
            if self.timing_only:
                # Gate durations do not depend on parameter values, so
                # the unbound group circuit carries the full timing.
                circuit = self._program.group_circuits[index]
            else:
                circuit = self._program.bind_group(index, values)
            run = self.controller.execute_q_run(
                circuit,
                shots,
                self.now,
                HOST_RESULT_BASE,
                batched=self.features.batched_transmission,
                functional=not self.timing_only,
            )
            if group.members and not self.timing_only:
                value += group.expectation_from_counts(run.counts)
            self._account_run(run, shots, group)
        if self.timing_only:
            value = self._surrogate_energy(values)
        self.report.energies.append(float(value))
        return float(value)

    def _extras(self) -> Dict[str, float]:
        extras = {"slt_hit_rate": self._slt_hit_rate()}
        if self.fault_injector is not None:
            stats = self.controller.stats
            extras["put_retransmits"] = float(stats.counter("put_retransmits").value)
            extras["acquire_watchdog_fires"] = float(
                stats.counter("acquire_watchdog_fires").value
            )
        return extras

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _compile_step(self, values: Dict[Parameter, float]) -> UpdatePlan:
        if self.features.incremental_compile:
            plan = self._incremental.plan(values)
            self._charge(
                "host_compute", self.workload.incremental_update_ps(max(1, plan.n_updates))
            )
            return plan
        # Software disabled: the host recompiles the whole program and
        # re-uploads it, exactly like a decoupled stack would — except
        # the transfer still rides the fast unified-memory path.
        plan = self._incremental.initial_plan(values)
        self._charge(
            "host_compute", self.workload.full_compile_ps(self._program.total_entries)
        )
        self._stage_and_upload()
        return plan

    def _issue_updates(self, plan: UpdatePlan) -> None:
        cursor = self.now
        for instr in plan.instructions:
            cursor = self.controller.execute_q_update(instr, cursor)
        self._count_instr("q_update", len(plan.instructions))
        self._charge("comm", cursor - self.now, instr_kind="q_update")
        self.controller.mark_gates_dirty(plan.invalidated_gates)

    def _run_pulse_generation(self) -> None:
        pipeline_report = self.controller.execute_q_gen(self.now)
        self._count_instr("q_gen", 1)
        self.report.pulses_generated += pipeline_report.pulses_generated
        self.report.pulse_entries_processed += pipeline_report.entries_processed
        self.report.slt_hits += pipeline_report.slt_hits
        self._charge("pulse_gen", pipeline_report.duration_ps)

    def _stage_and_upload(self) -> None:
        """Write packed entries to host memory; q_set each qubit chunk."""
        cursor_addr = HOST_PROGRAM_BASE
        per_qubit_entries: Dict[int, List[int]] = {}
        for gate in self._program.gates:
            per_qubit_entries.setdefault(gate.qubit, []).append(
                gate.program_entry().pack()
            )
        for qubit in sorted(per_qubit_entries):
            for raw in per_qubit_entries[qubit]:
                self.hierarchy.image.write_bytes(
                    cursor_addr, raw.to_bytes(WORDS_PER_ENTRY * 4, "little")
                )
                cursor_addr += WORDS_PER_ENTRY * 4

        cursor = self.now
        stream = self._program.upload_instructions(HOST_PROGRAM_BASE)
        for instr in stream:
            transfer = self.controller.execute_q_set(instr, cursor)
            cursor = transfer.end_ps
        self._count_instr("q_set", len(stream))
        self._charge("comm", cursor - self.now, instr_kind="q_set")

    # ------------------------------------------------------------------
    # run/post-processing overlap
    # ------------------------------------------------------------------
    def _account_run(self, run: RunResult, shots: int, group: MeasurementGroup) -> None:
        timeline = run.timeline
        self._count_instr("q_run", 1)
        post_total = self.workload.post_process_ps(shots, self.n_qubits)
        post_total += self.workload.expectation_ps(len(group.members), shots)
        batch_fixed = self.workload.batch_handling_ps()
        per_batch_host = post_total // run.n_batches + batch_fixed

        quantum_exposed = timeline.quantum_end_ps - timeline.start_ps
        if self.features.fine_grained_sync:
            host_done = self._overlapped_host_done(timeline, per_batch_host)
            end = max(timeline.quantum_end_ps, host_done, timeline.last_put_response_ps)
            comm_exposed = max(
                0, timeline.last_put_response_ps - timeline.quantum_end_ps
            )
            host_exposed = max(
                0, end - max(timeline.quantum_end_ps, timeline.last_put_response_ps)
            )
            comm_busy = sum(
                response - issue
                for issue, response in zip(
                    timeline.put_issue_times, timeline.put_response_times
                )
            )
            host_busy = post_total + run.n_batches * batch_fixed
            self._count_instr("q_acquire", 1)  # the streamed acquire
        else:
            # FENCE path: wait for the run, pull .measure, post-process.
            acquire = self.controller.execute_q_acquire(
                QAcquire(
                    classical_addr=HOST_RESULT_BASE,
                    quantum_addr=self.config.measure_qaddr(0),
                    length=max(1, shots * max(1, -(-self.n_qubits // 64)) * 2),
                ),
                timeline.quantum_end_ps,
            )
            self._count_instr("q_acquire", 1)
            comm_exposed = acquire.duration_ps
            host_exposed = post_total + run.n_batches * batch_fixed
            end = acquire.end_ps + host_exposed
            comm_busy = comm_exposed
            host_busy = host_exposed

        self._charge_at("quantum", quantum_exposed)
        self._charge_at("comm", comm_exposed, instr_kind="q_acquire")
        self._charge_at("host_compute", host_exposed)
        self.report.busy.add("quantum", quantum_exposed)
        self.report.busy.add("comm", comm_busy)
        self.report.busy.add("host_compute", host_busy)
        if self.trace is not None:
            self.trace.record(
                "quantum", "q_run", timeline.start_ps, timeline.quantum_end_ps
            )
            for batch_no, (issue, response) in enumerate(
                zip(timeline.put_issue_times, timeline.put_response_times)
            ):
                self.trace.record("bus", f"put[{batch_no}]", issue, response)
            if host_exposed:
                self.trace.record(
                    "host", "post-process", end - host_exposed, end
                )
        self.now = end

    def _overlapped_host_done(self, timeline, per_batch_host: int) -> int:
        if self.overlap_mode == "event":
            return self._overlapped_host_done_event(timeline, per_batch_host)
        host_free = timeline.start_ps
        for response in timeline.put_response_times:
            ready = response + self.clock.period_ps  # barrier query
            host_free = max(host_free, ready) + per_batch_host
        return host_free

    def _overlapped_host_done_event(self, timeline, per_batch_host: int) -> int:
        """Same computation, driven through the DES kernel: each batch
        response schedules a host-processing event on a serial host."""
        sim = Simulator()
        state = {"host_free": timeline.start_ps}

        def process(ready: int) -> None:
            begin = max(ready, state["host_free"])
            state["host_free"] = begin + per_batch_host

        for response in timeline.put_response_times:
            ready = response + self.clock.period_ps
            sim.schedule_at(ready, lambda r=ready: process(r))
        sim.run()
        return state["host_free"]

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _charge_at(self, category: str, duration_ps: int, instr_kind: Optional[str] = None) -> None:
        """Bucket accounting without advancing the cursor (the caller
        sets ``self.now`` from the overlap computation)."""
        self.report.breakdown.add(category, duration_ps)
        if instr_kind is not None:
            self.report.comm_by_instruction[instr_kind] = (
                self.report.comm_by_instruction.get(instr_kind, 0) + duration_ps
            )

    def _slt_hit_rate(self) -> float:
        hits = sum(slt.hits for slt in self.controller.slts)
        misses = sum(slt.misses for slt in self.controller.slts)
        total = hits + misses
        return hits / total if total else 0.0


"""The quantum controller (paper §5.2): executes Qtenon instructions.

Owns the QCC, the per-qubit SLTs + QSpace, the pulse pipeline, the
RoCC/QCC interfaces and the memory barrier.  Each ``execute_*`` method
performs the instruction *functionally* (moving real data between the
host memory image and the QCC) and returns its *timing* so the system
model can place it on the global timeline.  ``q_run`` moves the
measurement outcomes its caller passes; it does not produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple


from repro.compiler.lowering import LoweredGate, QtenonProgram, WORDS_PER_ENTRY
from repro.core.barrier import MemoryBarrier
from repro.core.config import QtenonConfig
from repro.core.interfaces import BulkTransfer, QccInterface, RoccInterface
from repro.core.pipeline import PipelineReport, PipelineWorkItem, PulsePipeline
from repro.core.qcc import (
    PrivateSegmentError,
    QccAddressError,
    QuantumControllerCache,
)
from repro.core.scheduler import (
    RunTimeline,
    TransmissionBatch,
    compute_run_timeline,
    plan_transmissions,
    shot_record_bytes,
)
from repro.core.slt import QSpace, SkipLookupTable
from repro.faults.protocol import PutFramer, PutVerifier
from repro.isa.instructions import QAcquire, QSet, QUpdate
from repro.memory.hierarchy import MemoryHierarchy
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import QuantumDevice
from repro.sim.clock import HOST_CLOCK
from repro.sim.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.faults.injector import FaultInjector

#: (n_qubits, shots, host_addr, batched): what a transmission plan
#: depends on.
PlanKey = Tuple[int, int, int, bool]
#: A transmission plan: its PUT batches and their (addr, size) ranges.
Plan = Tuple[List[TransmissionBatch], Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one q_run: the overlap timeline and its PUT batches."""

    timeline: RunTimeline
    n_batches: int
    #: the key the run's start-0 timeline is kept under; runs with the
    #: same key have the same timeline up to a shift.  None when the
    #: timeline depends on fault decisions and was not kept.
    timeline_key: Optional[Tuple] = None


class QuantumController:
    """Instruction-level model of the Qtenon controller."""

    def __init__(
        self,
        config: QtenonConfig,
        hierarchy: MemoryHierarchy,
        device: QuantumDevice,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.device = device
        self.fault_injector = fault_injector
        self.clock = HOST_CLOCK

        self.qcc = QuantumControllerCache(config)
        self.qspace = QSpace(config.n_qubits, config)
        self.slts = [
            SkipLookupTable(qubit, config, self.qspace) for qubit in range(config.n_qubits)
        ]
        self.pipeline = PulsePipeline(config, self.qcc, self.slts)
        self.rocc = RoccInterface(self.clock)
        self.qcc_if = QccInterface(hierarchy.bus, self.clock)
        self.barrier = MemoryBarrier(self.clock)

        self.stats = StatGroup("controller")
        self._dirty: List[PipelineWorkItem] = []  # work list for the next q_gen
        # Value-independent q_run work, derived once per distinct key:
        # the transmission plan (batches, barrier ranges) per
        # (n_qubits, shots, host_addr, batched), and the fault-free run
        # timeline relative to start 0 per (plan key, shot duration,
        # PUT response latency).
        self._plans: Dict[PlanKey, Plan] = {}
        self._timelines: Dict[Tuple[PlanKey, int, int], RunTimeline] = {}
        self._program: Optional[QtenonProgram] = None
        # End-to-end protection of the measurement path (sequence
        # numbers + checksums); only consulted under fault injection.
        self.put_framer = PutFramer()
        self.put_verifier = PutVerifier()
        self._run_sequence = 0
        self._acquire_sequence = 0

    # ------------------------------------------------------------------
    # program registration
    # ------------------------------------------------------------------
    def attach_program(self, program: QtenonProgram) -> None:
        """Bind a lowered program; subsequent q_set/q_update/q_gen act on it."""
        self._program = program
        self._dirty.clear()

    @property
    def program(self) -> QtenonProgram:
        if self._program is None:
            raise RuntimeError("no program attached; call attach_program() first")
        return self._program

    # ------------------------------------------------------------------
    # q_set: host memory -> .program (data path ❷)
    # ------------------------------------------------------------------
    def execute_q_set(self, instr: QSet, now_ps: int) -> BulkTransfer:
        n_bytes = instr.length * 4
        # Functional copy: packed entries travel from the host image.
        where = self.qcc.resolve(instr.quantum_addr)
        if where.segment == ".program":
            entry_bytes = WORDS_PER_ENTRY * 4
            n_entries = instr.length // WORDS_PER_ENTRY
            chunk = self.hierarchy.image.read_bytes(
                instr.classical_addr, n_entries * entry_bytes
            )
            for i in range(n_entries):
                raw = int.from_bytes(
                    chunk[i * entry_bytes:(i + 1) * entry_bytes], "little"
                )
                self.qcc.host_write(instr.quantum_addr + i, raw)
        target_latency = self.hierarchy.l2_access_latency(
            instr.classical_addr, min(n_bytes, 64), is_write=False, now_ps=now_ps
        )
        transfer = self.qcc_if.bulk_transfer(
            now_ps, n_bytes, target_latency, is_put=False
        )
        # Everything just uploaded needs pulse generation.
        self._mark_uploaded_dirty(instr)
        return transfer

    def _mark_uploaded_dirty(self, instr: QSet) -> None:
        if self._program is None:
            return
        where = self.qcc.resolve(instr.quantum_addr)
        if where.segment != ".program":
            return
        n_entries = instr.length // WORDS_PER_ENTRY
        self.mark_gates_dirty(
            gate
            for gate in self._program.gates
            if gate.qubit == where.qubit
            and where.index <= gate.index < where.index + n_entries
        )

    # ------------------------------------------------------------------
    # q_update: host register -> public QCC (data path ❶)
    # ------------------------------------------------------------------
    def execute_q_update(self, instr: QUpdate, now_ps: int) -> int:
        """Returns the completion time (one RoCC cycle)."""
        self.qcc.host_write(instr.quantum_addr, instr.value)
        return self.rocc.transfer(now_ps)

    def mark_gates_dirty(self, gates: Iterable[LoweredGate]) -> None:
        """Register pulses invalidated by regfile updates (for q_gen)."""
        self._dirty.extend(
            PipelineWorkItem(
                gate.qubit, gate.index, gate.gate_type, self._resolve_data(gate)
            )
            for gate in gates
        )

    def _resolve_data(self, gate: LoweredGate) -> int:
        if gate.slot is not None:
            return self.qcc.regfile_read(gate.slot)
        return gate.static_data

    # ------------------------------------------------------------------
    # q_gen: pulse pipeline sweep
    # ------------------------------------------------------------------
    def execute_q_gen(self, now_ps: int) -> PipelineReport:
        items, self._dirty = self._dirty, []
        return self.pipeline.sweep(items, now_ps)

    # ------------------------------------------------------------------
    # q_run: execute the program, stream results (Algorithm 1)
    # ------------------------------------------------------------------
    def execute_q_run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        now_ps: int,
        host_addr: int,
        batched: bool,
        shot_ps: Optional[int] = None,
        outcomes: Optional[Sequence[int]] = None,
    ) -> RunResult:
        """Run ``shots`` shots of ``circuit``.

        ``outcomes`` are the measurement words the device produced, one
        per shot in record order.  They are packed into ``.measure``
        and pushed to ``host_addr`` via TileLink PUTs according to the
        transmission policy, updating the memory barrier per batch.

        Without ``outcomes`` the run is timing-only (the large sweep
        benches and the engine's timing replay): the full timeline
        (shots, batches, PUTs, barrier updates) is computed, but no
        measurement data moves.

        ``shot_ps`` is the circuit's one-shot duration when the caller
        has it: gate durations do not depend on parameter values, so a
        platform computes it once per measurement group at ``prepare``.
        For the same reason the transmission plan and, without fault
        injection, the timeline from start 0 are derived once per key
        and shifted to ``now_ps``; only the L2 access is per run.
        """
        record = shot_record_bytes(circuit.n_qubits)
        if outcomes is not None:
            if len(outcomes) != shots:
                raise ValueError(f"got {len(outcomes)} outcomes for {shots} shots")
            # .measure segment fill (wrapping like the circular HW buffer):
            # each outcome as ``words_per_shot`` little-endian 64-bit words.
            words_per_shot = max(1, -(-record // 8))
            for shot, outcome in enumerate(outcomes):
                base = shot * words_per_shot
                for word in range(words_per_shot):
                    self.qcc.measure_write(
                        (base + word) % self.config.measure_entries,
                        outcome >> (64 * word),
                    )

        if shot_ps is None:
            shot_ps = self.device.shot_duration_ps(circuit)
        plan_key = (circuit.n_qubits, shots, host_addr, batched)
        plan = self._plans.get(plan_key)
        if plan is None:
            batches = plan_transmissions(circuit.n_qubits, shots, host_addr, batched)
            ranges = tuple((batch.host_addr, batch.n_bytes) for batch in batches)
            plan = self._plans[plan_key] = (batches, ranges)
        batches, ranges = plan
        # The L2 model is stateful: its latency is charged every run.
        put_latency = self._put_response_latency(host_addr, record, now_ps)

        run_index = self._run_sequence
        self._run_sequence += 1
        if self.fault_injector is None:
            decisions = None
            timeline_key: Optional[Tuple] = (plan_key, shot_ps, put_latency)
            relative = self._timelines.get(timeline_key)
            if relative is None:
                relative = self._timelines[timeline_key] = self._relative_timeline(
                    batches, shot_ps, put_latency
                )
        else:
            # Fault layer: decide per-batch PUT attempts up front so the
            # retransmission serialisation enters the overlap timeline.
            # These timelines depend on the decisions and are not kept.
            timeline_key = None
            decisions = [
                self.fault_injector.measurement_put(run_index, i)
                for i in range(len(batches))
            ]
            # Counted here, not at delivery: a timing-only run makes
            # (and pays for) the same decisions without moving bytes.
            retransmits = sum(d.attempts - 1 for d in decisions)
            if retransmits:
                self.stats.counter("put_retransmits").increment(retransmits)
            # A failed attempt costs detection (watchdog / checksum
            # NACK) plus the re-send occupying the output port.
            relative = self._relative_timeline(
                batches,
                shot_ps,
                put_latency,
                attempts_per_batch=[d.attempts for d in decisions],
                retry_penalty_ps=(
                    self.fault_injector.plan.measurement.retry_timeout_ps + put_latency
                ),
            )
        timeline = relative.shifted(now_ps)

        if outcomes is not None:
            for index, batch in enumerate(batches):
                payload = bytearray()
                for shot in range(batch.first_shot, batch.first_shot + batch.n_shots):
                    payload += outcomes[shot].to_bytes(record, "little")
                self._deliver_batch_payload(
                    batch.host_addr,
                    bytes(payload),
                    decisions[index] if decisions else None,
                )
        self.barrier.mark_puts(ranges, timeline.put_issue_times)
        return RunResult(
            timeline=timeline,
            n_batches=len(batches),
            timeline_key=timeline_key,
        )

    def _relative_timeline(
        self, batches, shot_ps: int, put_latency: int, **faults
    ) -> RunTimeline:
        """The run's timeline from start 0 (shifted to the run's start
        by the caller); ``faults`` are the retransmission arguments of
        :func:`compute_run_timeline`."""
        return compute_run_timeline(
            batches,
            start_ps=0,
            shot_duration_ps=shot_ps,
            put_issue_overhead_ps=self.clock.period_ps,
            put_response_latency_ps=put_latency,
            **faults,
        )

    def _deliver_batch_payload(self, host_addr, payload, decision=None) -> None:
        """Move one batch's bytes to host memory through the framing
        layer.

        Fault-free runs take the straight path.  Under injection the
        batch is framed (sequence number + Adler-32 checksum); each
        corrupted attempt is *delivered and rejected* by the receiver's
        real checksum verification, each dropped attempt never arrives
        (the sender's watchdog retransmits), and the final good attempt
        lands the payload at its original address — downstream parsing
        (barrier ranges, q_acquire offsets) is unchanged.
        """
        if decision is None or (
            decision.dropped_attempts == 0 and decision.corrupted_attempts == 0
        ):
            self.hierarchy.image.write_bytes(host_addr, payload)
            if decision is not None:
                frame = self.put_framer.frame(payload)
                accepted = self.put_verifier.deliver(frame)
                if not accepted:  # pragma: no cover - sequence is monotonic
                    raise RuntimeError("clean PUT frame rejected")
            return
        frame = self.put_framer.frame(payload)
        for _ in range(decision.corrupted_attempts):
            if self.put_verifier.deliver(frame, corrupted=True):
                raise RuntimeError("corrupted PUT frame accepted")
        if not self.put_verifier.deliver(frame):
            raise RuntimeError("retransmitted PUT frame rejected")
        self.hierarchy.image.write_bytes(host_addr, payload)

    def _put_response_latency(self, host_addr: int, n_bytes: int, now_ps: int) -> int:
        l2 = self.hierarchy.l2_access_latency(host_addr, max(n_bytes, 8), True, now_ps)
        return self.clock.period_ps + l2  # one bus beat + L2 service

    # ------------------------------------------------------------------
    # q_acquire: .measure -> host memory (pull path, data path ❷)
    # ------------------------------------------------------------------
    def execute_q_acquire(self, instr: QAcquire, now_ps: int) -> BulkTransfer:
        n_bytes = instr.length * 4
        words = -(-n_bytes // 8)
        where = self.qcc.resolve(instr.quantum_addr)
        if where.segment in self.qcc.PRIVATE_SEGMENTS:
            raise PrivateSegmentError(
                f"host read of private segment {where.segment} "
                f"at {instr.quantum_addr:#x}"
            )
        if where.segment != ".measure":
            raise QccAddressError(
                f"q_acquire reads .measure, not {where.segment} "
                f"at {instr.quantum_addr:#x}"
            )
        for i in range(words):
            value = self.qcc.measure_read((where.index + i) % self.config.measure_entries)
            self.hierarchy.image.write_u64(instr.classical_addr + 8 * i, value)
        # Controller watchdog: a stuck acquisition (the .measure read
        # port wedged mid-burst) is detected after retry_timeout_ps and
        # the pull reissued; each firing delays the transfer start.
        if self.fault_injector is not None:
            acquire_index = self._acquire_sequence
            self._acquire_sequence += 1
            fires = self.fault_injector.acquire_stuck(acquire_index)
            if fires:
                timeout = self.fault_injector.plan.measurement.retry_timeout_ps
                now_ps += fires * timeout
                self.stats.counter("acquire_watchdog_fires").increment(fires)
        target_latency = self.hierarchy.l2_access_latency(
            instr.classical_addr, min(n_bytes, 64), is_write=True, now_ps=now_ps
        )
        return self.qcc_if.bulk_transfer(now_ps, n_bytes, target_latency, is_put=True)

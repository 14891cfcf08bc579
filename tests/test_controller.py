"""Tests for the quantum controller's instruction execution."""

import pytest

from repro.compiler import lower, transpile
from repro.core import QtenonConfig, QuantumController, HOST_RESULT_BASE
from repro.core.qcc import PrivateSegmentError, QccAddressError
from repro.isa import ProgramEntry, QAcquire, QSet, QUpdate, encode_angle
from repro.memory import MemoryHierarchy
from repro.quantum import Parameter, QuantumCircuit, QuantumDevice, Sampler
from repro.quantum.draw import shot_words


def _outcomes(bound, shots):
    """The shots the device would measure on ``bound``."""
    return shot_words(Sampler(seed=0).run(bound, shots).counts)


@pytest.fixture
def setup():
    config = QtenonConfig(n_qubits=4)
    hierarchy = MemoryHierarchy()
    controller = QuantumController(config, hierarchy, QuantumDevice(4))
    theta = Parameter("theta")
    circuit = QuantumCircuit(4)
    for q in range(4):
        circuit.ry(theta, q)
    circuit.cz(0, 1).cz(2, 3)
    circuit.measure_all()
    program = lower([transpile(circuit)], config)
    controller.attach_program(program)
    return config, hierarchy, controller, program, theta


class TestQSet:
    def test_functional_copy_into_program_segment(self, setup):
        config, hierarchy, controller, program, _ = setup
        # stage one qubit's packed entries in host memory
        entries = [g.program_entry().pack() for g in program.gates if g.qubit == 0]
        addr = 0x1000
        for i, raw in enumerate(entries):
            hierarchy.image.write_bytes(addr + i * 12, raw.to_bytes(12, "little"))
        instr = QSet(classical_addr=addr, quantum_addr=config.program_qaddr(0, 0),
                     length=len(entries) * 3)
        controller.execute_q_set(instr, 0)
        loaded = [controller.qcc.program_entry(0, i) for i in range(len(entries))]
        assert loaded == [ProgramEntry.unpack(raw) for raw in entries]
        assert controller.qcc.program_entry(0, len(entries)) is None

    def test_upload_marks_entries_dirty(self, setup):
        config, hierarchy, controller, program, _ = setup
        entries = [g.program_entry().pack() for g in program.gates if g.qubit == 1]
        addr = 0x2000
        for i, raw in enumerate(entries):
            hierarchy.image.write_bytes(addr + i * 12, raw.to_bytes(12, "little"))
        controller.execute_q_gen(0)  # drain anything already dirty
        controller.execute_q_set(
            QSet(addr, config.program_qaddr(1, 0), len(entries) * 3), 0
        )
        assert controller.execute_q_gen(0).entries_processed == len(entries)

    def test_transfer_timing_positive(self, setup):
        config, hierarchy, controller, program, _ = setup
        transfer = controller.execute_q_set(
            QSet(0x1000, config.program_qaddr(0, 0), 6), now_ps=100
        )
        assert transfer.end_ps > 100
        assert transfer.transactions >= 1


class TestQUpdate:
    def test_writes_regfile_in_one_cycle(self, setup):
        config, _, controller, _, _ = setup
        done = controller.execute_q_update(
            QUpdate(config.regfile_qaddr(0), encode_angle(0.5)), now_ps=1000
        )
        assert done == 1000 + 1000  # one 1 GHz cycle
        assert controller.qcc.regfile_read(0) == encode_angle(0.5)

    def test_mark_gates_dirty_resolves_regfile_data(self, setup):
        config, _, controller, program, theta = setup
        slot = program.slots[0]
        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.7)), 0
        )
        controller.mark_gates_dirty(program.gates_for_slot(slot.index))
        report = controller.execute_q_gen(0)
        assert report.entries_processed == len(program.gates_for_slot(slot.index))


class TestQGen:
    def test_generates_pulses_for_dirty_entries(self, setup):
        config, _, controller, program, theta = setup
        slot = program.slots[0]
        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.3)), 0
        )
        controller.mark_gates_dirty(program.gates_for_slot(slot.index))
        report = controller.execute_q_gen(0)
        assert report.pulses_generated > 0
        assert controller.execute_q_gen(0).entries_processed == 0  # drained

    def test_second_gen_with_same_angle_hits_slt(self, setup):
        config, _, controller, program, _ = setup
        slot = program.slots[0]
        gates = program.gates_for_slot(slot.index)
        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.3)), 0
        )
        controller.mark_gates_dirty(gates)
        controller.execute_q_gen(0)
        controller.mark_gates_dirty(gates)
        second = controller.execute_q_gen(0)
        assert second.pulses_generated == 0
        assert second.slt_hits == len(gates)


class TestQRun:
    def test_functional_run_writes_measure_segment(self, setup):
        config, _, controller, program, theta = setup
        bound = program.bind_group(0, {theta: 0.4})
        outcomes = _outcomes(bound, 20)
        controller.execute_q_run(
            bound, shots=20, now_ps=0, host_addr=HOST_RESULT_BASE, batched=True,
            outcomes=outcomes,
        )
        # 4 qubits: one .measure word per shot
        assert [controller.qcc.measure_read(i) for i in range(20)] == outcomes

    def test_outcomes_must_cover_every_shot(self, setup):
        config, _, controller, program, theta = setup
        bound = program.bind_group(0, {theta: 0.4})
        with pytest.raises(ValueError, match="outcomes"):
            controller.execute_q_run(
                bound, shots=20, now_ps=0, host_addr=HOST_RESULT_BASE,
                batched=True, outcomes=_outcomes(bound, 19),
            )

    def test_results_streamed_to_host_memory(self, setup):
        config, hierarchy, controller, program, theta = setup
        bound = program.bind_group(0, {theta: 3.14159})  # ry(pi): all ones
        controller.execute_q_run(
            bound, shots=8, now_ps=0, host_addr=HOST_RESULT_BASE, batched=True,
            outcomes=_outcomes(bound, 8),
        )
        # every shot is 0b1111 on 4 qubits -> first byte 0x0F
        assert hierarchy.image.read_bytes(HOST_RESULT_BASE, 1) == b"\x0f"

    def test_barrier_marked_per_batch(self, setup):
        config, _, controller, program, theta = setup
        bound = program.bind_group(0, {theta: 0.4})
        result = controller.execute_q_run(
            bound, shots=64, now_ps=0, host_addr=HOST_RESULT_BASE, batched=True,
            outcomes=_outcomes(bound, 64),
        )
        assert len(controller.barrier) == result.n_batches
        assert controller.barrier.fence(0) == max(result.timeline.put_issue_times)

    def test_repeated_evaluations_keep_one_run_of_barrier_ranges(self):
        """Every q_run streams into the same result buffer, so each
        run's PUT ranges replace the previous run's: N evaluations of a
        three-group workload leave exactly one run's worth in the
        barrier table instead of 3N runs' worth."""
        from repro import QtenonSystem
        from repro.vqa import vqe_workload

        workload = vqe_workload(4)
        system = QtenonSystem(4, seed=1)
        system.prepare(workload.ansatz, workload.observable)
        values = dict(zip(workload.parameters, [0.1] * len(workload.parameters)))
        barrier = system.controller.barrier
        system.evaluate(values, 200)
        one_run = len(barrier)
        assert one_run > 1
        for _ in range(5):
            system.evaluate(values, 200)
        assert len(barrier) == one_run

    def test_superseded_range_keeps_fence_and_query_answers(self):
        from repro.core import MemoryBarrier
        from repro.sim.clock import ns

        barrier = MemoryBarrier()
        barrier.mark_puts(((0x1000, 64),), (ns(500),))
        barrier.mark_puts(((0x2000, 64),), (ns(900),))
        barrier.mark_puts(((0x1000, 64),), (ns(300),))  # re-PUT, earlier ready
        assert len(barrier) == 2
        assert barrier.query(0x1000, 0) == ns(300)  # latest PUT wins
        assert barrier.fence(0) == ns(900)

    def test_timing_only_run_skips_function(self, setup):
        config, hierarchy, controller, program, theta = setup
        result = controller.execute_q_run(
            program.group_circuits[0],  # no outcomes: timing only
            shots=16,
            now_ps=0,
            host_addr=HOST_RESULT_BASE,
            batched=True,
        )
        assert controller.qcc.measure_read(0) == 0
        assert hierarchy.image.read_u64(HOST_RESULT_BASE) == 0
        assert result.timeline.quantum_end_ps > 0

    def test_batched_fewer_puts_than_immediate(self, setup):
        config, _, controller, program, theta = setup
        bound = program.bind_group(0, {theta: 0.4})
        outcomes = _outcomes(bound, 64)
        batched = controller.execute_q_run(
            bound, 64, 0, HOST_RESULT_BASE, batched=True, outcomes=outcomes
        )
        immediate = controller.execute_q_run(
            bound, 64, 0, HOST_RESULT_BASE, batched=False, outcomes=outcomes
        )
        assert immediate.n_batches > batched.n_batches


class TestQAcquire:
    def test_pulls_measure_words_into_host_memory(self, setup):
        config, hierarchy, controller, program, theta = setup
        controller.qcc.measure_write(0, 0xABCD)
        controller.qcc.measure_write(1, 0x1234)
        transfer = controller.execute_q_acquire(
            QAcquire(classical_addr=0x3000, quantum_addr=config.measure_qaddr(0), length=4),
            now_ps=0,
        )
        assert hierarchy.image.read_u64(0x3000) == 0xABCD
        assert hierarchy.image.read_u64(0x3008) == 0x1234
        assert transfer.end_ps > 0

    def _acquire_from(self, setup, quantum_addr, error, match):
        config, hierarchy, controller, _, _ = setup
        controller.qcc.measure_write(0, 0xFACE)
        hierarchy.image.write_u64(0x3000, 0x5A5A)
        with pytest.raises(error, match=match):
            controller.execute_q_acquire(
                QAcquire(classical_addr=0x3000, quantum_addr=quantum_addr, length=2),
                now_ps=0,
            )
        # nothing was copied out of .measure
        assert hierarchy.image.read_u64(0x3000) == 0x5A5A

    def test_pulse_segment_is_private(self, setup):
        config = setup[0]
        self._acquire_from(
            setup, config.pulse_chunk(0)[0], PrivateSegmentError, "private segment .pulse"
        )

    def test_regfile_is_not_acquirable(self, setup):
        config = setup[0]
        self._acquire_from(
            setup, config.regfile_qaddr(0), QccAddressError, "q_acquire reads .measure"
        )

    def test_program_is_not_acquirable(self, setup):
        config = setup[0]
        self._acquire_from(
            setup, config.program_qaddr(0, 0), QccAddressError, "q_acquire reads .measure"
        )

    def test_no_program_attached_raises(self):
        config = QtenonConfig(n_qubits=2)
        controller = QuantumController(config, MemoryHierarchy(), QuantumDevice(2))
        with pytest.raises(RuntimeError, match="no program"):
            _ = controller.program

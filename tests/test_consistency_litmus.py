"""Litmus tests for the §6.2 memory-consistency races.

The paper identifies two data races in the tightly coupled design and
resolves them with a hardware barrier (race 1) and the soft memory
barrier / FENCE (race 2).  These tests *construct* each race against
the functional models and verify that the provided ordering mechanism
makes the racy read return fresh data — and that the unprotected
ordering really would observe stale state, i.e. the race is real.
"""

import pytest

from repro.compiler import lower, transpile
from repro.core import (
    HOST_RESULT_BASE,
    MemoryBarrier,
    QtenonConfig,
    QuantumController,
)
from repro.isa import QUpdate, encode_angle
from repro.memory import MemoryHierarchy
from repro.quantum import Parameter, QuantumCircuit, QuantumDevice, Sampler
from repro.quantum.draw import shot_words
from repro.sim.clock import ns


@pytest.fixture
def rig():
    config = QtenonConfig(n_qubits=2)
    hierarchy = MemoryHierarchy()
    controller = QuantumController(config, hierarchy, QuantumDevice(2))
    theta = Parameter("theta")
    circuit = QuantumCircuit(2).ry(theta, 0).ry(theta, 1).measure_all()
    program = lower([transpile(circuit)], config)
    controller.attach_program(program)
    # install the program entries as a q_set upload would
    for gate in program.gates:
        controller.qcc.host_write(
            config.program_qaddr(gate.qubit, gate.index), gate.program_entry().pack()
        )
    return config, hierarchy, controller, program, theta


class TestRace1UpdateVsGen:
    """q_update/q_set vs q_gen: generation must see the new parameter.

    The hardware barrier in the QCC orders the write before the
    pipeline's regfile read; in the model, q_update commits to the
    regfile before q_gen resolves work-item data — the litmus verifies
    the generated pulse really carries the *new* angle.
    """

    def test_gen_after_update_uses_fresh_parameter(self, rig):
        config, _, controller, program, theta = rig
        slot = program.slots[0]
        gates = program.gates_for_slot(slot.index)

        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.25)), 0
        )
        controller.mark_gates_dirty(gates)
        controller.execute_q_gen(0)

        # new value arrives before the second generation
        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(1.75)), 0
        )
        controller.mark_gates_dirty(gates)
        controller.execute_q_gen(0)

        entry = controller.qcc.program_entry(gates[0].qubit, gates[0].index)
        record = controller.qcc.pulse_record(
            config.pulse_chunk(gates[0].qubit)[0] + entry.qaddr
        )
        assert record.data == encode_angle(1.75), "pulse generated from stale angle"

    def test_stale_ordering_observable_without_barrier(self, rig):
        """The race is real: generating *before* the update produces a
        pulse with the old angle."""
        config, _, controller, program, theta = rig
        slot = program.slots[0]
        gates = program.gates_for_slot(slot.index)

        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.25)), 0
        )
        controller.mark_gates_dirty(gates)  # resolves data = old angle
        # racy write lands after the pipeline already latched its data
        controller.execute_q_update(
            QUpdate(config.regfile_qaddr(slot.index), encode_angle(1.75)), 0
        )
        controller.execute_q_gen(0)
        entry = controller.qcc.program_entry(gates[0].qubit, gates[0].index)
        record = controller.qcc.pulse_record(
            config.pulse_chunk(gates[0].qubit)[0] + entry.qaddr
        )
        assert record.data == encode_angle(0.25)


class TestRace2RunVsHostRead:
    """q_run/q_acquire vs host post-processing (Fig. 9).

    The controller streams result batches to host memory; a host read
    of a batch's address is only safe after that batch's PUT issued.
    The soft barrier returns the earliest safe time per address; FENCE
    returns the completion of *everything*.
    """

    # 2 qubits -> K = 128 shots/batch; 300 shots gives three batches,
    # so early batches complete well before the run does.
    def _run(self, rig, shots=300):
        config, hierarchy, controller, program, theta = rig
        bound = program.bind_group(0, {theta: 0.7})
        result = controller.execute_q_run(
            bound, shots, now_ps=0, host_addr=HOST_RESULT_BASE, batched=True,
            outcomes=shot_words(Sampler(seed=0).run(bound, shots).counts),
        )
        return controller, result

    def test_barrier_orders_read_after_put(self, rig):
        controller, result = self._run(rig)
        timeline = result.timeline
        first_batch_issue = timeline.put_issue_times[0]
        # a read attempted long before the PUT is held until it issued
        ready = controller.barrier.query(HOST_RESULT_BASE, now_ps=ns(1))
        assert ready >= first_batch_issue

    def test_barrier_releases_early_batches_before_run_completes(self, rig):
        """The §6.2 win: the first batch is consumable while later
        shots are still executing."""
        controller, result = self._run(rig)
        timeline = result.timeline
        ready_first = controller.barrier.query(HOST_RESULT_BASE, timeline.start_ps)
        assert ready_first < timeline.quantum_end_ps

    def test_fence_waits_for_every_batch(self, rig):
        controller, result = self._run(rig)
        timeline = result.timeline
        fence_release = controller.barrier.fence(timeline.start_ps)
        assert fence_release >= timeline.last_put_issue_ps
        # strictly later than the fine-grained release of batch 0
        ready_first = controller.barrier.query(HOST_RESULT_BASE, timeline.start_ps)
        assert fence_release > ready_first

    def test_data_at_released_address_is_final(self, rig):
        """Once the barrier releases an address, the bytes there match
        the shot records the run produced (no torn/stale data)."""
        config, hierarchy, controller, program, theta = rig
        bound = program.bind_group(0, {theta: 3.14159})  # all-ones shots
        result = controller.execute_q_run(
            bound, 8, now_ps=0, host_addr=HOST_RESULT_BASE, batched=True,
            outcomes=shot_words(Sampler(seed=0).run(bound, 8).counts),
        )
        controller.barrier.query(HOST_RESULT_BASE, result.timeline.quantum_end_ps)
        data = hierarchy.image.read_bytes(HOST_RESULT_BASE, 1)
        assert data == b"\x03"  # both qubits read 1

    def test_unrelated_address_never_blocks(self, rig):
        controller, result = self._run(rig)
        ready = controller.barrier.query(0x7000_0000, now_ps=ns(3))
        assert ready == ns(3) + ns(1)  # just the query cycle


class TestBarrierMonotonicity:
    def test_release_times_follow_batch_order(self):
        barrier = MemoryBarrier()
        for batch, ready in enumerate([ns(100), ns(200), ns(300)]):
            barrier.mark_puts(((0x1000 + 32 * batch, 32),), (ready,))
        releases = [barrier.query(0x1000 + 32 * b, 0) for b in range(3)]
        assert releases == sorted(releases)

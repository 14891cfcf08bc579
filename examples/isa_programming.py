#!/usr/bin/env python
"""Programming the Qtenon controller directly through its ISA.

Everything the high-level platform does can be written by hand: this
example assembles a Qtenon instruction stream from text (the
reproduction's stand-in for the modified RISC-V GNU toolchain of
§7.1), executes it against a bare controller through the RoCC-dispatch
model (:class:`~repro.core.StreamExecutor`), and inspects the
architectural state it leaves behind — program entries, regfile
contents, generated pulses, measurement records.

Run with:  python examples/isa_programming.py
"""

from repro.compiler import lower, transpile
from repro.core import QtenonConfig, QuantumController, StreamExecutor
from repro.isa import (
    QAcquire,
    QUpdate,
    assemble,
    disassemble,
    emit,
    encode_angle,
    RoccWord,
)
from repro.memory import MemoryHierarchy
from repro.quantum import Parameter, QuantumCircuit, QuantumDevice, Sampler
from repro.sim.clock import to_ns

SHOTS = 32


def main():
    config = QtenonConfig(n_qubits=4)
    hierarchy = MemoryHierarchy()
    controller = QuantumController(config, hierarchy, QuantumDevice(4))

    # ------------------------------------------------------------------
    # 1. write a 4-qubit GHZ-flavoured parameterised circuit and lower it
    # ------------------------------------------------------------------
    theta = Parameter("theta")
    circuit = QuantumCircuit(4).h(0)
    for q in range(3):
        circuit.cx(q, q + 1)
    circuit.ry(theta, 0)
    circuit.measure_all()
    program = lower([transpile(circuit)], config)
    controller.attach_program(program)
    print(f"lowered: {program.total_entries} program entries over "
          f"{sum(1 for c in program.entries_per_qubit if c)} qubit chunks, "
          f"{program.n_parameter_slots} regfile slot(s)\n")

    # stage packed entries in host memory for the q_set uploads
    addr = 0x1000_0000
    cursor = addr
    per_qubit = {}
    for gate in program.gates:
        per_qubit.setdefault(gate.qubit, []).append(gate.program_entry().pack())
    for qubit in sorted(per_qubit):
        for raw in per_qubit[qubit]:
            hierarchy.image.write_bytes(cursor, raw.to_bytes(12, "little"))
            cursor += 12

    # ------------------------------------------------------------------
    # 2. hand-write the instruction stream as assembly text
    # ------------------------------------------------------------------
    stream = program.upload_instructions(addr)
    slot = program.slots[0]
    stream.append(QUpdate(config.regfile_qaddr(slot.index), encode_angle(0.785398)))
    source = emit(stream) + f"\nq_gen\nq_run {SHOTS}\n" + emit(
        [QAcquire(0x2000_0000, config.measure_qaddr(0), length=8)]
    )
    print("assembly source:")
    for line in source.splitlines():
        print(f"    {line}")

    triples = assemble(source)
    print(f"\nassembled {len(triples)} machine triples; first word: "
          f"{triples[0].word:#010x} "
          f"({RoccWord.decode(triples[0].word).mnemonic})")
    assert disassemble(triples).splitlines()[0] == source.splitlines()[0]

    # ------------------------------------------------------------------
    # 3. execute the stream instruction by instruction; q_run executes
    #    the bound circuit of the measurement group, whose shots the
    #    executor's sampler draws in place of the device
    # ------------------------------------------------------------------
    executor = StreamExecutor(controller, Sampler(seed=0), result_addr=0x2000_0000)
    executor.bind_circuit(program.bind_group(0, {theta: 0.785398}))
    log = executor.execute(triples)
    print("\nexecution log (ps):")
    for entry in log.entries:
        print(f"    {entry}")
    pipeline = controller.pipeline.stats
    print(f"\nq_gen: {pipeline.counter('pulses_generated').value} pulses "
          f"generated, {pipeline.counter('slt_hits').value} SLT hits")
    run = log.runs[0]
    print(f"q_run: {SHOTS} shots in "
          f"{to_ns(run.timeline.quantum_duration_ps):.0f} ns, "
          f"{run.n_batches} batched PUTs "
          f"(K = {SHOTS // run.n_batches} shots/PUT)")

    # ------------------------------------------------------------------
    # 4. inspect architectural state
    # ------------------------------------------------------------------
    print(f"\nregfile[{slot.index}] = {controller.qcc.regfile_read(slot.index):#x} "
          f"(encoded 0.7854 rad)")
    print(f"pulse segment holds {controller.qcc.pulses_generated} pulses")
    entry = controller.qcc.program_entry(0, 0)
    print(f"program[qubit 0][0]: type={entry.gate_type:#x} "
          f"pulse_valid={entry.has_valid_pulse} qaddr={entry.qaddr:#x}")
    words = hierarchy.image.read_u64_array(0x2000_0000, 4)
    print(f"first measurement records in host memory: "
          f"{[f'{w:04b}' for w in words]}")
    print(f"total simulated time: {to_ns(log.end_ps):.0f} ns")


if __name__ == "__main__":
    main()

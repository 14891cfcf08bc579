"""Quantum device timing model.

The paper standardises quantum execution time analytically (§7.1):
20 ns single-qubit gates, 40 ns two-qubit gates, and a 600 ns
measurement pulse "followed by an equivalent duration to process the
measurement result".  :class:`QuantumDevice` turns a circuit into a
duration using per-qubit track (ASAP) scheduling — gates on disjoint
qubits overlap, exactly as on a real superconducting chip where every
qubit has its own control line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import MEASUREMENT_NS, ONE_QUBIT_NS, TWO_QUBIT_NS
from repro.quantum.noise import ReadoutNoise
from repro.sim.clock import ns


@dataclass(frozen=True)
class DeviceTiming:
    """Gate/measurement timing constants in nanoseconds."""

    one_qubit_gate_ns: float = ONE_QUBIT_NS
    two_qubit_gate_ns: float = TWO_QUBIT_NS
    measurement_ns: float = MEASUREMENT_NS
    #: "...followed by an equivalent duration to process the
    #: measurement result" (§7.1) — readout processing mirrors the pulse.
    readout_processing_ns: float = MEASUREMENT_NS


@dataclass
class QuantumDevice:
    """A fixed-width chip with uniform gate timing.

    Parameters
    ----------
    n_qubits:
        Chip width; circuits wider than this are rejected.
    timing:
        Gate duration constants.
    dacs_per_qubit / dac_bits / dac_freq_hz:
        The analog front end of §5.2: two 16-bit 2 GHz DACs per qubit,
        which sets the 64 bit/ns (8 GB/s) per-qubit pulse bandwidth the
        controller's ``.pulse`` segment must sustain.
    readout_noise:
        The chip's readout calibration — the assignment-error channel
        samplers apply post-measurement.  ``None`` models an ideal
        readout chain (the paper's configuration).
    """

    n_qubits: int
    timing: DeviceTiming = field(default_factory=DeviceTiming)
    dacs_per_qubit: int = 2
    dac_bits: int = 16
    dac_freq_hz: int = 2_000_000_000
    readout_noise: Optional[ReadoutNoise] = None

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError(f"device needs at least one qubit, got {self.n_qubits}")

    # ------------------------------------------------------------------
    # circuit timing
    # ------------------------------------------------------------------
    def gate_duration_ns(self, gate_name: str, n_qubits: int) -> float:
        if gate_name == "measure":
            return self.timing.measurement_ns
        if n_qubits == 1:
            return self.timing.one_qubit_gate_ns
        return self.timing.two_qubit_gate_ns

    def circuit_duration_ps(self, circuit: QuantumCircuit) -> int:
        """Critical-path duration of the *gate* portion plus the final
        measurement and readout processing, in picoseconds."""
        if circuit.n_qubits > self.n_qubits:
            raise ValueError(
                f"circuit needs {circuit.n_qubits} qubits, device has {self.n_qubits}"
            )
        track: Dict[int, int] = {}
        has_measure = False
        for op in circuit.operations:
            if op.is_measurement:
                has_measure = True
                continue  # measurement modelled as a trailing block below
            duration = ns(self.gate_duration_ns(op.name, op.spec.n_qubits))
            start = max((track.get(q, 0) for q in op.qubits), default=0)
            finish = start + duration
            for q in op.qubits:
                track[q] = finish
        gate_time = max(track.values(), default=0)
        if has_measure:
            gate_time += ns(self.timing.measurement_ns)
            gate_time += ns(self.timing.readout_processing_ns)
        return gate_time

    def shot_duration_ps(self, circuit: QuantumCircuit) -> int:
        """Duration of one shot (circuit always ends in measurement for
        sampling workloads, so add it when the circuit lacks explicit
        measure operations)."""
        duration = self.circuit_duration_ps(circuit)
        if not any(op.is_measurement for op in circuit.operations):
            duration += ns(self.timing.measurement_ns)
            duration += ns(self.timing.readout_processing_ns)
        return duration

"""Shot sampling of bound circuits.

The :class:`Sampler` picks a backend for one bound circuit (exact
statevector when feasible, mean-field product state otherwise — see
DESIGN.md substitutions) and draws seeded shot counts.  The spec path
uses one per row on specs without compiled programs, and the
instruction-stream executor draws its q_run shots with one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import ReadoutNoise
from repro.quantum.product_state import ProductStateBackend
from repro.quantum.stabilizer import StabilizerBackend, is_clifford_circuit
from repro.quantum.statevector import StatevectorBackend
from repro.quantum.stub import StubBackend

#: Default crossover width between exact and product-state simulation.
DEFAULT_EXACT_LIMIT = 14


@dataclass
class SampleResult:
    """Counts from one circuit execution plus bookkeeping."""

    counts: Dict[int, int]
    shots: int
    n_qubits: int
    backend_name: str

    def expectation_z_product(self, qubits: Tuple[int, ...]) -> float:
        """⟨Z...Z⟩ over ``qubits`` directly from counts."""
        total = 0
        for bitstring, count in self.counts.items():
            parity = 1
            for qubit in qubits:
                if (bitstring >> qubit) & 1:
                    parity = -parity
            total += parity * count
        return total / self.shots


class Sampler:
    """Seeded, width-adaptive shot sampler."""

    def __init__(
        self,
        seed: int = 0,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        force_backend: Optional[str] = None,
        readout_noise: Optional["ReadoutNoise"] = None,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.exact_limit = exact_limit
        self.force_backend = force_backend
        self.readout_noise = readout_noise
        self._exact = StatevectorBackend()
        self._product = ProductStateBackend()
        self._stabilizer = StabilizerBackend()
        self._stub = StubBackend()

    def backend_for(self, circuit: QuantumCircuit):
        """Pick the execution backend for one circuit.

        An explicit ``force_backend`` always wins — that is how the
        execution planner's per-job decision (threaded through
        ``EvaluationSpec.force_backend``) reaches the workers.  The
        fallback for samplers driven outside the planner mirrors its
        routing: exact statevector below the width limit, the exact
        stabilizer tableau for wide Clifford circuits, and only then
        the approximate product state.
        """
        if self.force_backend == "statevector":
            return self._exact
        if self.force_backend == "product":
            return self._product
        if self.force_backend == "stabilizer":
            return self._stabilizer
        if self.force_backend == "stub":
            return self._stub
        if circuit.n_qubits <= self.exact_limit:
            return self._exact
        if is_clifford_circuit(circuit):
            return self._stabilizer
        return self._product

    def run(self, circuit: QuantumCircuit, shots: int) -> SampleResult:
        """Sample a bound circuit (readout noise applied when set)."""
        backend = self.backend_for(circuit)
        counts = backend.sample(circuit, shots, self.rng)
        if self.readout_noise is not None and not self.readout_noise.is_ideal:
            measured = circuit.measured_qubits() or list(range(circuit.n_qubits))
            counts = self.readout_noise.apply_to_counts(
                counts, len(set(measured)), self.rng
            )
        return SampleResult(
            counts=counts,
            shots=shots,
            n_qubits=circuit.n_qubits,
            backend_name=backend.name,
        )

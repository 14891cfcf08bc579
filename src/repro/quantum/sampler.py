"""Shot sampling and expectation estimation.

The :class:`Sampler` is the functional interface every platform model
(Qtenon and the decoupled baseline) uses to obtain measurement data:
it picks a backend by circuit width (exact statevector when feasible,
mean-field product state otherwise — see DESIGN.md substitutions),
draws seeded shot counts, and estimates Pauli-sum expectations via the
qubit-wise-commuting measurement groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.kernels import CompiledProgram
from repro.quantum.noise import ReadoutNoise
from repro.quantum.pauli import PauliSum, measurement_circuits
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

    def frequency(self, bitstring: int) -> float:
        return self.counts.get(bitstring, 0) / self.shots

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
        self.executions = 0
        self.total_shots = 0

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
        self.executions += 1
        self.total_shots += shots
        return SampleResult(
            counts=counts,
            shots=shots,
            n_qubits=circuit.n_qubits,
            backend_name=backend.name,
        )

    def run_program_batch(
        self,
        program: "CompiledProgram",
        vectors: np.ndarray,
        shots: int,
        rngs: Optional[List[np.random.Generator]] = None,
    ) -> List[SampleResult]:
        """Replay a compiled program over a ``(K, n_slots)`` batch and sample.

        The fast-path twin of :meth:`run` for the evaluation runtime:
        one :meth:`~repro.quantum.kernels.CompiledProgram.execute_batch`
        pass produces all K states, then each row is sampled with its
        own generator (``rngs[k]``; defaults to the sampler's shared
        stream) in row order — shot draw first, readout corruption
        second, the same consumption order as :meth:`run`, so row
        ``k``'s counts match the circuit path bound at ``vectors[k]``
        draw for draw under the same generator state.
        """
        if shots <= 0:
            raise ValueError(f"shots must be positive, got {shots}")
        states = program.execute_batch(vectors)
        if rngs is not None and len(rngs) != len(states):
            raise ValueError(
                f"got {len(rngs)} generators for {len(states)} batch rows"
            )
        measured = program.measured_qubits() or list(range(program.n_qubits))
        n_measured = len(set(measured))
        noisy = self.readout_noise is not None and not self.readout_noise.is_ideal
        results: List[SampleResult] = []
        for k, state in enumerate(states):
            rng = self.rng if rngs is None else rngs[k]
            counts = state.sample_counts(shots, rng, qubits=measured)
            if noisy:
                counts = self.readout_noise.apply_to_counts(counts, n_measured, rng)
            results.append(
                SampleResult(
                    counts=counts,
                    shots=shots,
                    n_qubits=program.n_qubits,
                    backend_name=self._exact.name,
                )
            )
        self.executions += len(states)
        self.total_shots += shots * len(states)
        return results

    # ------------------------------------------------------------------
    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: PauliSum,
        shots: int,
    ) -> Tuple[float, List[SampleResult]]:
        """Estimate ⟨observable⟩ on the state prepared by ``circuit``.

        One execution per qubit-wise-commuting measurement group; the
        returned :class:`SampleResult` list lets the timing models
        charge the right number of circuit runs.

        ``shots=0`` selects the analytic path: the exact statevector
        expectation of the bare bound circuit, no sampling, no RNG
        consumption (the empty result list signals "no device runs" to
        the timing models).
        """
        if not circuit.is_bound:
            raise ValueError("bind the circuit before sampling")
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if shots == 0:
            state = self._exact.run(circuit)
            return float(observable.expectation_statevector(state)), []
        groups = observable.grouped_qubitwise()
        value = observable.constant
        results: List[SampleResult] = []
        for group, prepared in zip(groups, measurement_circuits(circuit, groups)):
            result = self.run(prepared, shots)
            results.append(result)
            value += group.expectation_from_counts(result.counts)
        return float(value), results

    def circuit_executions_for(self, observable: PauliSum) -> int:
        """How many circuit executions one expectation estimate costs."""
        return max(1, len(observable.grouped_qubitwise()))

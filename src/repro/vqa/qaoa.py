"""QAOA benchmark workload (MAX-CUT, standard alternating ansatz).

Paper §7.1: "QAOA is set to solve the MAX-CUT problem on n_q number
of nodes using the standard alternating ansatz with five layers."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import PauliSum
from repro.vqa.ansatz import qaoa_ansatz
from repro.vqa.hamiltonians import maxcut_hamiltonian, random_regular_graph


@dataclass
class VqaWorkload:
    """A benchmark instance: ansatz + parameters + cost observable."""

    name: str
    n_qubits: int
    ansatz: QuantumCircuit
    parameters: List[Parameter]
    observable: PauliSum

    @property
    def n_parameters(self) -> int:
        return len(self.parameters)

    @property
    def measurement_groups(self) -> int:
        return max(1, len(self.observable.grouped_qubitwise()))


def qaoa_workload(
    n_qubits: int,
    n_layers: int = 5,
    seed: int = 0,
    graph: Optional[nx.Graph] = None,
) -> VqaWorkload:
    """Build the paper's QAOA benchmark instance."""
    if graph is None:
        graph = random_regular_graph(n_qubits, degree=3, seed=seed)
    if graph.number_of_nodes() != n_qubits:
        raise ValueError(
            f"graph has {graph.number_of_nodes()} nodes, expected {n_qubits}"
        )
    circuit, parameters = qaoa_ansatz(graph, n_layers)
    return VqaWorkload(
        name="qaoa",
        n_qubits=n_qubits,
        ansatz=circuit,
        parameters=parameters,
        observable=maxcut_hamiltonian(graph),
    )

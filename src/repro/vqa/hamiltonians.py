"""Workload Hamiltonians for the paper's three VQA benchmarks.

* **QAOA** solves MAX-CUT on ``n_q``-node graphs (§7.1) — a diagonal
  (all-Z) Hamiltonian built from the graph's edges;
* **VQE** targets molecular ground states where "the number of qubits
  corresponds to the number of molecular spin-orbitals".  Real
  molecular Hamiltonians for 8–64 spin-orbitals are not available
  offline, so :func:`molecular_hamiltonian` synthesises a chemically
  shaped Pauli sum (one- and two-body ZZ/XX terms with decaying
  coefficients) with the same measurement-group structure — the
  property the architecture evaluation depends on (see DESIGN.md);
* **QNN** trains with a label-alignment cost: ⟨Z⟩ on a readout subset.

All builders are deterministic given a seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.quantum.pauli import PauliString, PauliSum


def maxcut_hamiltonian(graph: nx.Graph) -> PauliSum:
    """MAX-CUT cost: ``C = sum_{(i,j) in E} (Z_i Z_j - 1) / 2``.

    Minimising ⟨C⟩ maximises the cut; the constant keeps the optimum
    at ``-|cut|``.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    terms: List[Tuple[float, PauliString]] = []
    constant = 0.0
    for u, v, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        terms.append((0.5 * weight, PauliString({int(u): "Z", int(v): "Z"})))
        constant -= 0.5 * weight
    return PauliSum(terms, constant=constant)


def random_regular_graph(n_nodes: int, degree: int = 3, seed: int = 0) -> nx.Graph:
    """The standard QAOA benchmark graph family (3-regular by default)."""
    if n_nodes <= degree:
        raise ValueError(f"need more than {degree} nodes, got {n_nodes}")
    if (n_nodes * degree) % 2:
        # regular graphs need an even degree sum; nudge the degree down.
        degree -= 1
    return nx.random_regular_graph(degree, n_nodes, seed=seed)


def molecular_hamiltonian(
    n_spin_orbitals: int,
    seed: int = 0,
    interaction_range: int = 3,
) -> PauliSum:
    """A synthetic molecular-style Hamiltonian on ``n_spin_orbitals``.

    Shape mirrors Jordan-Wigner-mapped electronic structure problems:

    * one-body ``Z_i`` terms (orbital energies);
    * two-body ``Z_i Z_j`` terms (Coulomb/exchange, all diagonal);
    * hopping ``X_i X_j`` + ``Y_i Y_j`` pairs on nearby orbitals with
      1/|i-j| decay.

    The X/Y terms force multiple measurement groups — the structural
    property that distinguishes VQE's communication pattern from
    QAOA's in the paper's evaluation.
    """
    if n_spin_orbitals < 2:
        raise ValueError(f"need at least 2 spin orbitals, got {n_spin_orbitals}")
    rng = np.random.default_rng(seed)
    terms: List[Tuple[float, PauliString]] = []
    for i in range(n_spin_orbitals):
        terms.append((float(rng.normal(-1.0, 0.3)), PauliString({i: "Z"})))
    for i in range(n_spin_orbitals):
        for j in range(i + 1, min(i + 1 + interaction_range, n_spin_orbitals)):
            decay = 1.0 / (j - i)
            terms.append(
                (float(rng.normal(0.25, 0.05)) * decay, PauliString({i: "Z", j: "Z"}))
            )
            hop = float(rng.normal(0.15, 0.05)) * decay
            terms.append((hop, PauliString({i: "X", j: "X"})))
            terms.append((hop, PauliString({i: "Y", j: "Y"})))
    return PauliSum(terms, constant=float(rng.normal(0.0, 0.1)))


def h2_minimal_hamiltonian() -> PauliSum:
    """The textbook 2-qubit H2 Hamiltonian (STO-3G, Bravyi-Kitaev
    reduction, R = 0.7414 A; coefficients from O'Malley et al. 2016).
    Electronic ground energy ~ -1.851 Ha.  Used by the VQE validation
    tests and the quickstart example."""
    return PauliSum(
        [
            (0.3435, PauliString({0: "Z"})),
            (-0.4347, PauliString({1: "Z"})),
            (0.5716, PauliString({0: "Z", 1: "Z"})),
            (0.0910, PauliString({0: "X", 1: "X"})),
            (0.0910, PauliString({0: "Y", 1: "Y"})),
        ],
        constant=-0.4804,
    )


def qnn_readout_observable(n_qubits: int, n_readout: Optional[int] = None) -> PauliSum:
    """QNN cost observable: mean ⟨Z⟩ over a readout-qubit subset."""
    n_readout = n_readout or max(1, n_qubits // 4)
    if n_readout > n_qubits:
        raise ValueError("more readout qubits than qubits")
    terms = [
        (1.0 / n_readout, PauliString({q: "Z"})) for q in range(n_readout)
    ]
    return PauliSum(terms)

"""Hybrid quantum-classical algorithms: ansätze, Hamiltonians,
optimizers, workloads and the hybrid runner."""

from repro.vqa.ansatz import (
    hardware_efficient_ansatz,
    qaoa_ansatz,
    qnn_ansatz,
    vqe_ansatz,
)
from repro.vqa.hamiltonians import (
    h2_minimal_hamiltonian,
    maxcut_hamiltonian,
    molecular_hamiltonian,
    qnn_readout_observable,
    random_regular_graph,
)
from repro.vqa.optimizers import (
    GradientDescent,
    IterationResult,
    Optimizer,
    Spsa,
    make_optimizer,
)
from repro.vqa.ghz import ghz_circuit, ghz_observable, ghz_workload
from repro.vqa.qaoa import VqaWorkload, qaoa_workload
from repro.vqa.qnn import qnn_workload
from repro.vqa.runner import HybridResult, HybridRunner, Platform
from repro.vqa.vqe import h2_workload, vqe_workload

__all__ = [
    "qaoa_ansatz",
    "vqe_ansatz",
    "qnn_ansatz",
    "hardware_efficient_ansatz",
    "maxcut_hamiltonian",
    "molecular_hamiltonian",
    "h2_minimal_hamiltonian",
    "qnn_readout_observable",
    "random_regular_graph",
    "GradientDescent",
    "Spsa",
    "Optimizer",
    "IterationResult",
    "make_optimizer",
    "VqaWorkload",
    "qaoa_workload",
    "vqe_workload",
    "h2_workload",
    "qnn_workload",
    "ghz_workload",
    "ghz_circuit",
    "ghz_observable",
    "HybridRunner",
    "HybridResult",
    "Platform",
]

"""Decoupled-system variants: eQASM- and HiSEP-Q-style stacks (Table 1).

The paper's motivational comparison covers two published decoupled
control processors besides its own baseline:

* **eQASM** (Fu et al., HPCA'19) — USB-class control link (~1 ms per
  message), 7-qubit-era ISA where every instruction statically encodes
  its operands *and* explicit timing instructions interleave with
  gates (roughly one timing word per gate bundle);
* **HiSEP-Q** (Guo et al., ICCD'23) — commodity-Ethernet link
  (~10 ms), a more efficient qubit-encoding that packs multi-qubit
  masks into single instructions, cutting the static stream roughly in
  half versus eQASM-style emission.

Both share the decoupled execution model (JIT recompile each
iteration, sequential run) and differ in link latency and instruction
density — which is exactly what Table 1 contrasts.  The factories
below configure :class:`~repro.baseline.system.DecoupledSystem`
accordingly and attach the variant's instruction-density model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baseline.network import ETHERNET_1GBE, LinkModel, USB
from repro.baseline.system import DecoupledSystem
from repro.host.cores import CoreModel, INTEL_I9
from repro.quantum.circuit import QuantumCircuit


@dataclass(frozen=True)
class DecoupledVariant:
    """A named decoupled-system configuration from the literature."""

    name: str
    link: LinkModel
    #: static instructions emitted per circuit operation (gate words +
    #: timing/wait words for the timing-queue microarchitectures).
    instructions_per_operation: float
    #: maximum qubit count the published ISA supports.
    max_qubits: int

    def static_instruction_count(self, circuit: QuantumCircuit) -> int:
        """Instructions this variant's ISA needs for one execution."""
        return int(round(len(circuit.operations) * self.instructions_per_operation))

    def build(
        self,
        n_qubits: int,
        core: CoreModel = INTEL_I9,
        seed: int = 0,
        timing_only: bool = False,
    ) -> DecoupledSystem:
        if n_qubits > self.max_qubits:
            raise ValueError(
                f"{self.name} supports at most {self.max_qubits} qubits "
                f"(requested {n_qubits})"
            )
        return DecoupledSystem(
            n_qubits,
            core=core,
            link=self.link,
            seed=seed,
            timing_only=timing_only,
        )


#: eQASM: USB link, explicit timing words double the stream, 7 qubits.
EQASM = DecoupledVariant(
    name="eqasm",
    link=USB,
    instructions_per_operation=2.0,
    max_qubits=7,
)

#: HiSEP-Q: Ethernet link, efficient qubit encoding, 128 qubits.
HISEPQ = DecoupledVariant(
    name="hisep-q",
    link=ETHERNET_1GBE,
    instructions_per_operation=1.0,
    max_qubits=128,
)

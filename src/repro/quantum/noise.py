"""Readout noise model.

NISQ measurements misread qubits: a prepared |0> is reported as 1 with
probability ``p01`` and a prepared |1> as 0 with probability ``p10``
(asymmetric on real superconducting chips — relaxation during the
600 ns readout makes ``p10`` the larger).  The paper's evaluation
does not inject noise (chip I/O comes from an ideal simulator), so
this is an *extension* feature: it lets the reproduction's VQA stack
be exercised under realistic measurement statistics, e.g. to study
how shot batching interacts with error mitigation.

Applied post-sampling, per shot and per qubit, with a seeded RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class ReadoutNoise:
    """Independent per-qubit assignment-error channel."""

    p01: float = 0.01  #: P(read 1 | prepared 0)
    p10: float = 0.03  #: P(read 0 | prepared 1)

    def __post_init__(self) -> None:
        for name, value in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} is not a probability")

    @property
    def is_ideal(self) -> bool:
        return self.p01 == 0.0 and self.p10 == 0.0

    # ------------------------------------------------------------------
    def apply_to_counts(
        self,
        counts: Dict[int, int],
        n_qubits: int,
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """Corrupt a counts histogram shot by shot."""
        if self.is_ideal:
            return dict(counts)
        noisy: Dict[int, int] = {}
        for bitstring, count in counts.items():
            for _ in range(count):
                corrupted = self.apply_to_shot(bitstring, n_qubits, rng)
                noisy[corrupted] = noisy.get(corrupted, 0) + 1
        return noisy

    def apply_to_shot(self, bitstring: int, n_qubits: int, rng: np.random.Generator) -> int:
        """Corrupt one shot word."""
        if self.is_ideal:
            return bitstring
        draws = rng.random(n_qubits)
        out = bitstring
        for qubit in range(n_qubits):
            bit = (bitstring >> qubit) & 1
            flip_p = self.p10 if bit else self.p01
            if draws[qubit] < flip_p:
                out ^= 1 << qubit
        return out

    # ------------------------------------------------------------------
    def expected_z_attenuation(self) -> float:
        """⟨Z⟩'s contraction factor ``1 - p01 - p10``.  The full affine
        channel is ``<Z>_noisy = factor * <Z>_true + offset`` with
        :meth:`expected_z_offset` — the offset vanishes for symmetric
        noise but not for the relaxation-dominated asymmetric case."""
        return 1.0 - self.p01 - self.p10

    def expected_z_offset(self) -> float:
        """The affine offset ``p10 - p01`` of the ⟨Z⟩ channel."""
        return self.p10 - self.p01


def mitigate_single_qubit_expectation(value: float, noise: ReadoutNoise) -> float:
    """Invert the affine readout channel on a ⟨Z⟩-type expectation:
    ``<Z>_true = (<Z>_noisy - (p10 - p01)) / (1 - p01 - p10)``."""
    factor = noise.expected_z_attenuation()
    if factor <= 0.0:
        raise ValueError("noise channel is not invertible (p01 + p10 >= 1)")
    return (value - noise.expected_z_offset()) / factor

"""The hybrid quantum-classical driver.

:class:`HybridRunner` is the algorithm-level loop of Fig. 2: it feeds
circuit evaluations to a *platform* (Qtenon or the decoupled baseline
— anything implementing ``prepare`` / ``evaluate`` /
``charge_optimizer_step`` / ``finish``) under an optimizer, and
returns both the optimisation trace and the platform's timing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.analysis.breakdown import ExecutionReport
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import PauliSum
from repro.vqa.optimizers import (
    BatchEvaluateFn,
    EvaluateFn,
    GradientEvaluateFn,
    Optimizer,
)


class Platform(Protocol):
    """What a hybrid execution platform must provide.

    Platforms *may* additionally expose the slot-vector batch form
    ``evaluate_vectors(parameters, vectors, shots) -> List[float]``
    (see :class:`repro.runtime.EvaluationEngine`); the runner
    feature-detects it and routes the optimizers' independent probe
    batches through it as raw vectors.  Without it every probe is one
    ``evaluate`` call.
    """

    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None: ...

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float: ...

    def charge_optimizer_step(self, n_params: int, method: str) -> None: ...

    def finish(self) -> ExecutionReport: ...


@dataclass
class HybridResult:
    """Optimisation trace plus the platform's execution report."""

    report: ExecutionReport
    final_params: np.ndarray
    final_cost: float
    cost_history: List[float]

    @property
    def best_cost(self) -> float:
        return min(self.cost_history) if self.cost_history else float("nan")


class HybridRunner:
    """Runs ``iterations`` optimizer steps of a VQA on a platform."""

    def __init__(
        self,
        platform: Platform,
        ansatz: QuantumCircuit,
        parameters: Sequence[Parameter],
        observable: PauliSum,
        optimizer: Optimizer,
        shots: int = 500,
        iterations: int = 10,
    ) -> None:
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.platform = platform
        self.ansatz = ansatz
        self.parameters = list(parameters)
        self.observable = observable
        self.optimizer = optimizer
        self.shots = shots
        self.iterations = iterations

    def run(self, initial_params: Optional[np.ndarray] = None, seed: int = 0) -> HybridResult:
        """Execute the full hybrid loop.

        Prepares the platform, then runs :func:`optimize` over it.
        """
        self.platform.prepare(self.ansatz, self.observable)

        def evaluate(vector: np.ndarray) -> float:
            return self.platform.evaluate(
                {p: float(v) for p, v in zip(self.parameters, vector)}, self.shots
            )

        evaluate_many = None
        platform_vectors = getattr(self.platform, "evaluate_vectors", None)
        if callable(platform_vectors):
            # Hand the raw optimizer vectors over with the parameter
            # ordering; no dict is built per probe.
            def evaluate_many(vectors: Sequence[np.ndarray]) -> List[float]:
                return platform_vectors(self.parameters, vectors, self.shots)

        evaluate_gradient = None
        platform_gradients = getattr(self.platform, "evaluate_gradients", None)
        if callable(platform_gradients):
            # Adjoint fast path (repro.runtime.EvaluationEngine): one
            # analytic pass yields energy + full gradient.  A ``None``
            # reply means the platform cannot serve this workload
            # adjointly and the optimizer falls back to its probes.
            def evaluate_gradient(vector: np.ndarray):
                result = platform_gradients(self.parameters, [vector], self.shots)
                if result is None:
                    return None
                energies, grads = result
                return float(energies[0]), np.asarray(grads[0], dtype=np.float64)

        params, history = optimize(
            self.optimizer,
            len(self.parameters),
            self.iterations,
            evaluate,
            evaluate_many=evaluate_many,
            evaluate_gradient=evaluate_gradient,
            initial_params=initial_params,
            seed=seed,
            after_step=lambda: self.platform.charge_optimizer_step(
                len(self.parameters), self.optimizer.method
            ),
        )

        report = self.platform.finish()
        report.iterations = self.iterations
        return HybridResult(
            report=report,
            final_params=params,
            final_cost=history[-1] if history else float("nan"),
            cost_history=history,
        )


def optimize(
    optimizer: Optimizer,
    n_params: int,
    iterations: int,
    evaluate: EvaluateFn,
    evaluate_many: Optional[BatchEvaluateFn] = None,
    evaluate_gradient: Optional[GradientEvaluateFn] = None,
    initial_params: Optional[np.ndarray] = None,
    seed: int = 0,
    after_step: Optional[Callable[[], None]] = None,
) -> Tuple[np.ndarray, List[float]]:
    """The hybrid loop: ``iterations`` optimizer steps from a start point.

    The start point is ``initial_params`` or a uniform draw in
    ``[-0.5, 0.5)`` from ``default_rng(seed)``.  Every run is
    self-contained: the optimizer is ``reset()`` to its own seed before
    the first iteration, so a reused optimizer (restarts, sweeps, the
    job service's retries) cannot leak RNG state from one run into the
    next — two runs with the same ``seed=`` are bit-identical.  All
    randomness flows through per-object ``np.random.default_rng``
    generators (the ``vqa`` package never touches the global numpy
    RNG), which the test suite audits.  :class:`HybridRunner` and a
    streamed session (:func:`repro.service.drive_session`) both run this
    loop, which is what makes their histories bit-identical.
    ``after_step`` runs after every iteration.  Returns
    ``(final_params, cost_history)``.
    """
    if initial_params is None:
        params = np.random.default_rng(seed).uniform(-0.5, 0.5, size=n_params)
    else:
        params = np.asarray(initial_params, dtype=float)
        if params.size != n_params:
            raise ValueError(
                f"got {params.size} initial values for {n_params} parameters"
            )
    # A fresh run must not continue a previous run's random stream.
    optimizer.reset()
    history: List[float] = []
    for _ in range(iterations):
        outcome = optimizer.run_iteration(
            params,
            evaluate,
            evaluate_many=evaluate_many,
            evaluate_gradient=evaluate_gradient,
        )
        params = outcome.params
        history.append(outcome.cost)
        if after_step is not None:
            after_step()
    return params, history

"""Evaluation runtime: parallel fan-out + content-addressed caching.

The wall-clock hot path of the reproduction is the repeated functional
circuit evaluation inside the hybrid loop.  This package speeds it up
without touching the architectural model:

* :class:`EvaluationEngine` — a platform wrapper that fans a batch of
  independent evaluations across persistent shared-memory workers
  (:class:`SharedMemoryPool`) and replays the platform's timing model
  serially;
* :func:`evaluate_spec_batch` — the one functional energy entry: a
  single probe is a batch of one, and sampled, routed (product /
  stabilizer) and ``shots=0`` rows all go through it, so the serial
  path, the pool workers and one-off callers agree bit for bit
  (:func:`~repro.runtime.engine.evaluate_spec_gradients` is its
  adjoint-mode twin);
* :class:`EvalCache` — a bounded LRU keyed on the content address of
  an evaluation (circuit structure, parameters, shots, seed, backend),
  so repeated requests are served bit-identically without recompute;
* :class:`CircuitBreaker` — the engine's pool-failure policy: repeated
  worker crashes open the breaker (serial fallback) and a half-open
  probe restores parallelism after the cooldown.
"""

from repro.runtime.breaker import BreakerState, CircuitBreaker
from repro.runtime.cache import (
    DEFAULT_MAX_ENTRIES,
    EvalCache,
    EvalKey,
    circuit_structure_hash,
    evaluation_key,
    evaluation_keys,
)
from repro.runtime.engine import (
    EvaluationEngine,
    EvaluationSpec,
    build_spec,
    evaluate_spec_batch,
)
from repro.runtime.workers import PoolBroken, SharedMemoryPool

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_MAX_ENTRIES",
    "EvalCache",
    "EvalKey",
    "EvaluationEngine",
    "EvaluationSpec",
    "PoolBroken",
    "SharedMemoryPool",
    "build_spec",
    "circuit_structure_hash",
    "evaluate_spec_batch",
    "evaluation_key",
    "evaluation_keys",
]

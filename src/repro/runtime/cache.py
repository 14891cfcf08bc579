"""Content-addressed evaluation result cache.

A hybrid optimisation campaign re-evaluates the *same* circuit at
recurring parameter points — line searches revisit iterates, the
parameter-shift rule probes ``theta ± pi/2`` around a slowly moving
centre, and repeated sweeps (hyper-parameter scans, ablations) replay
whole trajectories.  Rigetti's hybrid cloud platform (Karalekas et al.
2020) showed that caching parametric artifacts across iterations is a
first-order lever for exactly this workload; :class:`EvalCache` applies
the idea to the reproduction's functional evaluations.

The cache is **content-addressed**: a result is keyed by a digest of

* the circuit *structure* (gate sequence, qubit wiring, and how each
  symbolic parameter feeds each gate — not the parameter values),
* the bound parameter vector,
* the shot count,
* the sampler base seed, and
* the backend identity (statevector / product / stub, plus readout
  noise).

Two evaluations with the same key are the same computation, so a hit
returns bit-identical data to a recompute — the evaluation seed itself
is derived from the key (see :meth:`EvalKey.sampler_seed`), which is
what makes reuse *exact* rather than statistical.  Anything outside the
key (different shots, different seed, a mutated circuit) misses.

Bounded LRU; hit/miss/eviction counters report through the standard
:class:`repro.sim.stats.StatGroup` machinery.  One cache may be shared
by concurrent job threads (the service, a cluster worker node), so
every read-modify-write of the LRU order holds the cache's own lock.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import Parameter, ParameterExpression
from repro.sim.stats import StatGroup

#: Default LRU bound — at ~100 bytes/entry this is a few hundred KiB.
DEFAULT_MAX_ENTRIES = 4096


def circuit_structure_hash(
    circuit: QuantumCircuit,
    parameters: Optional[Sequence[Parameter]] = None,
) -> str:
    """Digest of a circuit's *static* structure.

    Symbolic parameters are identified positionally (their index in
    ``parameters``, defaulting to the circuit's own first-appearance
    order), so two structurally identical circuits built from distinct
    :class:`Parameter` objects hash the same — and the hash is stable
    across processes, unlike ``id()``-based identity.
    """
    order = list(parameters) if parameters is not None else circuit.parameters
    index: Dict[int, int] = {id(p): i for i, p in enumerate(order)}
    digest = hashlib.blake2b(digest_size=16)
    digest.update(struct.pack("<i", circuit.n_qubits))
    for op in circuit.operations:
        digest.update(op.name.encode())
        digest.update(struct.pack(f"<{len(op.qubits)}i", *op.qubits))
        for value in op.params:
            if isinstance(value, Parameter):
                slot = index.get(id(value))
                if slot is None:
                    digest.update(b"p?" + value.name.encode())
                else:
                    digest.update(struct.pack("<ci", b"p", slot))
            elif isinstance(value, ParameterExpression):
                slot = index.get(id(value.parameter))
                if slot is None:
                    digest.update(b"e?" + value.parameter.name.encode())
                else:
                    digest.update(struct.pack("<ci", b"e", slot))
                digest.update(struct.pack("<dd", value.coeff, value.offset))
            else:
                digest.update(struct.pack("<cd", b"c", float(value)))
    return digest.hexdigest()


@dataclass(frozen=True)
class EvalKey:
    """Content address of one circuit evaluation."""

    digest: bytes

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @property
    def sampler_seed(self) -> int:
        """Deterministic sampler seed for this evaluation.

        Seeding the sampler from the content address makes identical
        requests draw identical shot noise, so a cache hit is
        bit-identical to a recompute and parallel/serial schedules
        cannot reorder anybody's random stream.
        """
        return int.from_bytes(self.digest[:8], "little")


def evaluation_key(
    structure_hash: str,
    vector: np.ndarray,
    shots: int,
    base_seed: int,
    backend_id: str,
) -> EvalKey:
    """Build the content address of one evaluation request."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(structure_hash.encode())
    digest.update(np.ascontiguousarray(vector, dtype=np.float64).tobytes())
    digest.update(struct.pack("<qq", shots, base_seed))
    digest.update(backend_id.encode())
    return EvalKey(digest.digest())


def evaluation_keys(
    structure_hash: str,
    vectors: Sequence[np.ndarray],
    shots: int,
    base_seed: int,
    backend_id: str,
) -> "list[EvalKey]":
    """Content addresses for a whole probe batch.

    Identical digests to per-vector :func:`evaluation_key` calls (the
    seed-derivation contract depends on that), but the static prefix —
    the structure hash — is absorbed once and ``copy()``-ed per vector
    instead of being rehashed 2P+1 times per optimizer step.
    """
    prefix = hashlib.blake2b(digest_size=16)
    prefix.update(structure_hash.encode())
    suffix = struct.pack("<qq", shots, base_seed) + backend_id.encode()
    keys = []
    for vector in vectors:
        digest = prefix.copy()
        digest.update(np.ascontiguousarray(vector, dtype=np.float64).tobytes())
        digest.update(suffix)
        keys.append(EvalKey(digest.digest()))
    return keys


class EvalCache:
    """Bounded LRU mapping :class:`EvalKey` → evaluation result."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, float]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = stats or StatGroup("eval_cache")
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._insertions = self.stats.counter("insertions")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: EvalKey) -> bool:
        return key.digest in self._entries

    def get(self, key: EvalKey) -> Optional[float]:
        """Look up a result; counts a hit or a miss either way."""
        with self._lock:
            try:
                value = self._entries[key.digest]
            except KeyError:
                self._misses.increment()
                return None
            self._entries.move_to_end(key.digest)
            self._hits.increment()
            return value

    def put(self, key: EvalKey, value: float) -> None:
        """Insert (or refresh) a result, evicting LRU entries to bound."""
        with self._lock:
            if key.digest in self._entries:
                self._entries.move_to_end(key.digest)
            else:
                self._insertions.increment()
            self._entries[key.digest] = float(value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.increment()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

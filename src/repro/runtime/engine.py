"""Parallel evaluation engine for hybrid optimisation loops.

One gradient-descent iteration issues ``2P + 1`` circuit evaluations
whose *functional* parts (statevector simulation + shot sampling) are
mutually independent — only the architectural timing model needs the
platform's sequential timeline.  :class:`EvaluationEngine` exploits
that split:

1. the functional evaluations of a batch fan out across a persistent
   :class:`~repro.runtime.workers.SharedMemoryPool` (workers are
   forked once, initialised from a picklable :class:`EvaluationSpec`,
   and kept hot across workloads; per-batch traffic is float vectors
   in / floats out through one shared-memory segment), with a
   content-addressed :class:`~repro.runtime.cache.EvalCache`
   short-circuiting repeats;
2. the wrapped platform then replays each *computed* evaluation in
   its timing-only mode — the modelled timeline is identical to the
   functional path by construction (asserted in the test suite), so
   without a cache reports and traces are unchanged while wall-clock
   drops.  A cache *hit* is served from host memory and skips the
   platform replay entirely: both the wall-clock and the modelled
   end-to-end time shrink, which is the architectural payoff of
   result reuse (disable the cache to model every dispatch).

The engine *is* a platform: it implements the same
``prepare / evaluate / charge_optimizer_step / finish`` protocol as
:class:`repro.core.system.QtenonSystem` and
:class:`repro.baseline.system.DecoupledSystem`, plus the batch entry
point ``evaluate_many`` that the optimizers' batch path feeds.  Wrap
either platform; no API breaks.

Determinism: every evaluation's sampler seed is derived from its
content address (circuit structure, parameter vector, shots, base
seed, backend), not from a shared RNG stream.  Serial, parallel and
cached schedules therefore return bit-identical values — the property
the parity tests pin down.

Failure handling: ``max_workers=1`` never spawns a pool; a worker
crash (``PoolBroken``) rebuilds the pool and retries the batch
once.  Repeated crashes open a :class:`~repro.runtime.breaker.CircuitBreaker`
— evaluation falls back to in-process serial until the cooldown
elapses, after which one batch probes the pool (half-open) and a
success restores parallelism.  The old policy degraded *permanently*
on the second crash, losing all parallelism for the rest of the run
on a transient double-fault.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.breakdown import ExecutionReport
from repro.compiler.transpile import transpile
from repro.faults.plan import InjectedWorkerCrash, InjectedWorkerHang
from repro.quantum.circuit import QuantumCircuit
from repro.planner import (
    DEFAULT_PLANNER,
    PlanDecision,
    derive_backend_id,
    supports_adjoint,
)
from repro.quantum.adjoint import adjoint_gradient_batch, supports_program
from repro.quantum.kernels import PROGRAM_CACHE, CompiledProgram, gate_census
from repro.quantum.noise import ReadoutNoise
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import MeasurementGroup, PauliSum, measurement_circuits
from repro.quantum.sampler import DEFAULT_EXACT_LIMIT, Sampler
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.cache import (
    EvalCache,
    EvalKey,
    circuit_structure_hash,
    evaluation_keys,
)
from repro.runtime.workers import PoolBroken, SharedMemoryPool
from repro.sim.stats import StatGroup


@dataclass
class EvaluationSpec:
    """Everything a worker needs to evaluate ⟨observable⟩ at a vector.

    Pickled *once* per worker (pool initializer), so the shared
    :class:`Parameter` identities between ``parameters`` and the group
    circuits survive the trip — vectors then cross the process boundary
    as plain float arrays.  The ``programs`` list (statevector backend
    only) carries one compiled replay program per measurement group;
    workers re-execute those programs for every probe instead of
    re-binding and re-traversing the group circuits — the classical
    mirror of the paper's §6.1 parameter-only update path.
    """

    parameters: List[Parameter]
    groups: List[MeasurementGroup]
    group_circuits: List[QuantumCircuit]
    constant: float
    exact_limit: int
    force_backend: Optional[str]
    readout_noise: Optional[ReadoutNoise]
    structure_hash: str
    backend_id: str
    programs: Optional[List[CompiledProgram]] = None
    #: the planner's routing decision for this spec (kept for
    #: telemetry/span attributes; the operative outputs are
    #: ``force_backend`` and ``backend_id`` above).
    plan: Optional[PlanDecision] = None
    #: adjoint-mode differentiation inputs (statevector jobs whose
    #: parameterised gates all have known Pauli generators): the bare
    #: transpiled ansatz — no basis change, no measurement — compiled
    #: once, plus the observable it differentiates.
    adjoint_program: Optional[CompiledProgram] = None
    observable: Optional[PauliSum] = None


def build_spec(
    ansatz: QuantumCircuit,
    observable: PauliSum,
    parameters: Optional[Sequence[Parameter]] = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    force_backend: Optional[str] = None,
    readout_noise: Optional[ReadoutNoise] = None,
) -> EvaluationSpec:
    """Build the picklable functional-evaluation spec for a workload.

    Mirrors the platforms' preparation: one transpiled
    ansatz + basis-change + measure-all circuit per qubit-wise-commuting
    measurement group.  Statevector-routed specs also carry one compiled
    replay program per group (and the adjoint program when supported).
    """
    order = list(parameters) if parameters is not None else ansatz.parameters
    groups = observable.grouped_qubitwise() or [MeasurementGroup()]
    group_circuits = [
        transpile(circuit) for circuit in measurement_circuits(ansatz, groups)
    ]

    # The planner replaces the old bare width check: it classifies the
    # job from the group circuits' gate censuses (Clifford circuits of
    # any width run exactly on the stabilizer tableau; general jobs
    # keep the legacy statevector/product choice, so their cache keys
    # and sampler seeds are unchanged).  The chosen backend is stored
    # as the spec's ``force_backend`` so every worker's Sampler follows
    # the same routing — a planner-chosen backend and the same backend
    # forced explicitly are indistinguishable downstream, sharing
    # backend ids, cache keys and content-derived seeds.
    plan = DEFAULT_PLANNER.decide(
        n_qubits=ansatz.n_qubits,
        censuses=[gate_census(circuit) for circuit in group_circuits],
        exact_limit=exact_limit,
        force_backend=force_backend,
    )
    backend = derive_backend_id(plan.backend, readout_noise)

    # Programs come from the process-wide replay cache so they carry a
    # content-address ``key`` — that is what lets persistent pool
    # workers adopt shipped programs into *their* cache (dedup across
    # reused workloads) and what dedups compiles across repeated
    # ``prepare()`` calls in the parent.
    programs: Optional[List[CompiledProgram]] = None
    adjoint_program: Optional[CompiledProgram] = None
    adjoint_observable: Optional[PauliSum] = None
    if backend.startswith("statevector"):
        programs = [
            PROGRAM_CACHE.get_or_compile(circuit, order)
            for circuit in group_circuits
        ]
        # Adjoint-mode gradients replay the *bare* ansatz (no basis
        # change, no measurement) and differentiate the observable
        # directly; only statevector jobs (planner feasibility) whose
        # every parameterised gate has a known Pauli generator qualify.
        bare = PROGRAM_CACHE.get_or_compile(transpile(ansatz), order)
        if supports_adjoint(backend) and supports_program(bare):
            adjoint_program = bare
            adjoint_observable = observable

    return EvaluationSpec(
        parameters=order,
        groups=groups,
        group_circuits=group_circuits,
        constant=observable.constant,
        exact_limit=exact_limit,
        force_backend=plan.backend,
        readout_noise=readout_noise,
        structure_hash=circuit_structure_hash(ansatz, order),
        backend_id=backend,
        programs=programs,
        plan=plan,
        adjoint_program=adjoint_program,
        observable=adjoint_observable,
    )


def evaluate_spec_batch(
    spec: EvaluationSpec,
    vectors: Sequence[np.ndarray],
    shots: int,
    seeds: Sequence[int],
) -> List[float]:
    """Pure functional evaluation of ⟨observable⟩ at K slot vectors.

    The one functional energy entry, shared verbatim by the serial path
    and the pool workers, which is what makes the two bit-identical.
    Row ``k`` draws only from its own ``default_rng(seeds[k])``, so
    every row equals its own K=1 call and results never depend on the
    batch composition.  Three row kinds:

    * sampled, with compiled programs (statevector routing): the K
      vectors are stacked into a ``(K, 2**n)`` state batch and each
      program is replayed *once* over the whole batch
      (:meth:`~repro.quantum.sampler.Sampler.run_program_batch`) — the
      classical mirror of the paper's §6.1 parameter-only update path;
    * sampled, without programs (product, stabilizer or stub routing):
      each row re-binds the group circuits and runs a fresh
      ``Sampler(seed=seeds[k])`` over them;
    * ``shots=0``: exact expectations straight from the replayed
      post-rotation probability vectors — no sampling, no RNG
      consumption (the seeds are ignored).  Statevector jobs only;
      approximate backends have no exact expectation to offer.
    """
    if len(vectors) != len(seeds):
        raise ValueError(f"got {len(seeds)} seeds for {len(vectors)} vectors")
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    if not len(vectors):
        return []
    if shots == 0 and not spec.backend_id.startswith("statevector"):
        raise ValueError(
            f"shots=0 needs the exact statevector backend, "
            f"job routed to {spec.backend_id!r}"
        )
    totals = [float(spec.constant)] * len(vectors)
    if spec.programs is None:
        for k, (vector, seed) in enumerate(zip(vectors, seeds)):
            sampler = Sampler(
                seed=seed,
                exact_limit=spec.exact_limit,
                force_backend=spec.force_backend,
                readout_noise=spec.readout_noise,
            )
            values = {p: float(v) for p, v in zip(spec.parameters, vector)}
            for group, circuit in zip(spec.groups, spec.group_circuits):
                result = sampler.run(circuit.bind(values), shots)
                if group.members:
                    totals[k] += group.expectation_from_counts(result.counts)
        return [float(total) for total in totals]
    batch = np.asarray(
        [np.asarray(vector, dtype=np.float64) for vector in vectors],
        dtype=np.float64,
    )
    if shots == 0:
        for group, program in zip(spec.groups, spec.programs):
            if group.members:
                for k, state in enumerate(program.execute_batch(batch)):
                    totals[k] += group.expectation_from_probabilities(
                        state.probabilities()
                    )
        return [float(total) for total in totals]
    sampler = Sampler(
        seed=0,  # unused: every row draws from its own seeded generator
        exact_limit=spec.exact_limit,
        force_backend=spec.force_backend,
        readout_noise=spec.readout_noise,
    )
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    for group, program in zip(spec.groups, spec.programs):
        results = sampler.run_program_batch(program, batch, shots, rngs=rngs)
        if group.members:
            for k, result in enumerate(results):
                totals[k] += group.expectation_from_counts(result.counts)
    return [float(total) for total in totals]


def evaluate_spec_gradients(
    spec: EvaluationSpec, vectors: Sequence[np.ndarray]
) -> Tuple[List[float], List[np.ndarray]]:
    """Adjoint-mode energies and gradients for a batch of slot vectors.

    One forward pass and one reverse sweep per vector — independent of
    the parameter count — over the spec's bare ansatz program.  Shared
    verbatim by the serial path and the pool workers, so the two are
    bit-identical.  Raises :class:`ValueError` when the spec carries no
    adjoint program (non-statevector routing or a gate without a known
    generator); callers that can fall back to
    parameter-shift should check ``spec.adjoint_program`` first.
    """
    if spec.adjoint_program is None or spec.observable is None:
        raise ValueError("spec carries no adjoint program")
    batch = np.asarray(
        [np.asarray(vector, dtype=np.float64) for vector in vectors],
        dtype=np.float64,
    )
    energies, grads = adjoint_gradient_batch(
        spec.adjoint_program, spec.observable, batch
    )
    return (
        [float(energy) for energy in energies],
        [np.asarray(row, dtype=np.float64) for row in grads],
    )


class EvaluationEngine:
    """Platform wrapper adding parallel fan-out and result caching."""

    def __init__(
        self,
        platform,
        max_workers: int = 1,
        cache: Optional[EvalCache] = None,
        seed: int = 0,
        breaker: Optional[CircuitBreaker] = None,
        fault_injector=None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.platform = platform
        self.max_workers = max_workers
        self.cache = cache
        self.seed = seed
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fault_injector = fault_injector
        self.stats = StatGroup("runtime")
        #: optional repro.telemetry.tracing.Tracer; when set, every
        #: prepare/evaluate_many batch records an "evaluation"-track
        #: span in *sim time* (the platform's ``now`` cursor), which
        #: later parents the sim-phase spans in the merged trace.
        self.tracer = None
        self._eval_index = 0
        self._spec: Optional[EvaluationSpec] = None
        self._pool: Optional[SharedMemoryPool] = None
        self._pool_payload: Optional[bytes] = None
        #: latest per-worker counter snapshot (piggybacked on batch
        #: replies), surfaced through finish()/register_engine.
        self._worker_stat_snapshot: Dict[str, float] = {}
        #: batch digest -> number of timing replays already charged by
        #: a failed attempt of that same batch (idempotent retry).
        self._replay_ledger: Dict[bytes, int] = {}
        #: injectable = the platform exposes the ``timing_only`` switch
        #: that lets the engine replay timing without re-simulating.
        self._injectable = hasattr(platform, "timing_only")

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def attach_telemetry(self, registry) -> None:
        """Publish this engine's stats (and its breaker/cache/injector)
        into a :class:`~repro.telemetry.metrics.MetricsRegistry`."""
        from repro.telemetry.bridge import register_engine

        register_engine(registry, self)

    def _trace_span(self, name: str, start_ps, args=None) -> None:
        """Record one sim-time evaluation span if tracing is on and the
        platform timeline actually advanced."""
        if self.tracer is None or start_ps is None:
            return
        end_ps = getattr(self.platform, "now", None)
        if end_ps is None or end_ps <= start_ps:
            return  # e.g. every evaluation was a cache hit
        self.tracer.record(
            "evaluation", name, int(start_ps), int(end_ps), args=args
        )

    def _trace_start(self):
        if self.tracer is None:
            return None
        return getattr(self.platform, "now", None)

    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        start_ps = self._trace_start()
        self.platform.prepare(ansatz, observable)
        if not self._functional_platform():
            self._trace_span("prepare", start_ps)
            self._spec = None
            return
        sampler = getattr(self.platform, "sampler", None)
        self._spec = build_spec(
            ansatz,
            observable,
            exact_limit=getattr(sampler, "exact_limit", DEFAULT_EXACT_LIMIT),
            force_backend=getattr(sampler, "force_backend", None),
            readout_noise=getattr(sampler, "readout_noise", None),
        )
        # The planner's routing decision rides on the prepare span (the
        # counter side lives in the process-wide PLANNER_STATS group).
        span_args = {"backend": self._spec.backend_id}
        if self._spec.plan is not None:
            span_args["job_class"] = self._spec.plan.job_class
            span_args["planner_forced"] = self._spec.plan.forced
        self._trace_span("prepare", start_ps, span_args)
        self._pool_payload = pickle.dumps(
            self._spec, protocol=pickle.HIGHEST_PROTOCOL
        )
        # The pool survives workload changes — that persistence is the
        # point (re-spawning per prepare() is what inverted the
        # parallel path).  A live pool is just re-pointed at the new
        # spec; one whose segment rows are too narrow for the new
        # parameter count, or a broken one, is torn down and respawned
        # lazily.
        if self._pool is not None:
            if max(1, len(self._spec.parameters)) > self._pool.n_cols:
                self._shutdown_pool()
            else:
                try:
                    self._pool.set_spec(
                        self._pool_payload, PROGRAM_CACHE.max_entries
                    )
                    self.stats.counter("pool_reuses").increment()
                except PoolBroken:
                    self._shutdown_pool()

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float:
        return self.evaluate_many([values], shots)[0]

    def evaluate_many(
        self, values_list: Sequence[Dict[Parameter, float]], shots: int
    ) -> List[float]:
        """Evaluate a batch of parameter bindings, in order.

        The returned list matches ``values_list`` element-wise; the
        platform's timeline is charged in the same order, exactly as a
        serial loop over ``evaluate`` would.
        """
        start_ps = self._trace_start()
        out = self._evaluate_many(values_list, shots)
        self._trace_span(
            self._next_eval_name(),
            start_ps,
            args={"batch": len(values_list), "shots": shots},
        )
        return out

    def _next_eval_name(self) -> str:
        name = f"evaluate_many[{self._eval_index}]"
        self._eval_index += 1
        return name

    def evaluate_vectors(
        self,
        parameters: Sequence[Parameter],
        vectors: Sequence[np.ndarray],
        shots: int,
    ) -> List[float]:
        """Batch evaluation straight from optimizer vectors.

        ``vectors`` are ordered by ``parameters``; the engine permutes
        them into the spec's slot order once per batch, skipping the
        dict round-trip ``evaluate_many`` pays per probe.  Results are
        bit-identical to the dict path (same keys, same seeds).
        """
        start_ps = self._trace_start()
        if self._spec is None or not self._functional_platform():
            values_list = [
                {p: float(v) for p, v in zip(parameters, vector)}
                for vector in vectors
            ]
            out = self._evaluate_many(values_list, shots)
        else:
            _, arranged = self._slot_order(parameters, vectors)
            out = self._evaluate_vector_batch(arranged, shots, None)
        self._trace_span(
            self._next_eval_name(),
            start_ps,
            args={"batch": len(vectors), "shots": shots},
        )
        return out

    def evaluate_gradients(
        self,
        parameters: Sequence[Parameter],
        vectors: Sequence[np.ndarray],
        shots: int = 0,
    ) -> Optional[Tuple[List[float], List[np.ndarray]]]:
        """Adjoint-mode energies and gradients at a batch of vectors.

        Returns ``None`` when the adjoint path cannot serve this
        workload — sampled shots requested (the adjoint pass is
        analytic by construction), non-statevector routing, a
        parameterised gate without a known generator, or a timing-only
        platform — so the caller can fall back to
        parameter-shift.  Each returned energy is the exact
        ⟨observable⟩ from that gradient's own forward pass; the
        platform is charged one host-compute adjoint sweep per vector
        through its ``charge_adjoint_gradient`` hook when it has one.
        ``vectors`` are ordered by ``parameters``; gradients come back
        in the same order.
        """
        if shots != 0:
            return None
        spec = self._spec
        if (
            spec is None
            or spec.adjoint_program is None
            or spec.observable is None
            or not self._functional_platform()
        ):
            return None
        start_ps = self._trace_start()
        perm, arranged = self._slot_order(parameters, vectors)
        energies, grad_slots = self._run_gradient_tasks(arranged)
        if perm is None:
            grads = grad_slots
        else:
            grads = []
            for row in grad_slots:
                unpermuted = np.zeros(len(parameters), dtype=np.float64)
                unpermuted[perm] = row
                grads.append(unpermuted)
        charge = getattr(self.platform, "charge_adjoint_gradient", None)
        if charge is not None:
            for energy in energies:
                charge(len(spec.parameters), float(energy))
        self.stats.counter("adjoint_gradients").increment(len(vectors))
        self._trace_span(
            f"adjoint_gradients[{self._eval_index}]",
            start_ps,
            args={"batch": len(vectors)},
        )
        return energies, grads

    def _slot_order(
        self, parameters: Sequence[Parameter], vectors: Sequence[np.ndarray]
    ) -> Tuple[Optional[List[int]], List[np.ndarray]]:
        """Permute caller-ordered vectors into the spec's slot order.

        Returns ``(perm, arranged)``: ``perm[slot]`` is the caller
        index feeding that slot, or ``None`` when the orders already
        agree (the vectors then pass through unpermuted).
        """
        index = {id(p): i for i, p in enumerate(parameters)}
        try:
            perm = [index[id(p)] for p in self._spec.parameters]
        except KeyError:
            missing = next(p for p in self._spec.parameters if id(p) not in index)
            raise KeyError(
                f"no value bound for circuit parameter {missing.name!r}"
            ) from None
        if perm == list(range(len(perm))):
            perm = None
        arranged = []
        for vector in vectors:
            array = np.asarray(vector, dtype=np.float64)
            arranged.append(array if perm is None else array[perm])
        return perm, arranged

    def _run_gradient_tasks(
        self, vectors: List[np.ndarray]
    ) -> Tuple[List[float], List[np.ndarray]]:
        """Pool-first adjoint batch with the usual serial fallback.

        Gradient batches skip the EvalCache — a gradient row is P+1
        floats keyed by the same content address as its energy, and
        optimisers never revisit a vector within a run — but share the
        breaker accounting with evaluation batches, so a crashed pool
        degrades both paths together.
        """
        if self.max_workers > 1 and self.breaker.allow():
            pool = self._ensure_pool()
            if pool is not None:
                try:
                    energies, grads = pool.run_gradients(vectors)
                    self.breaker.record_success()
                    self.stats.counter("parallel_gradients").increment(
                        len(vectors)
                    )
                    self._worker_stat_snapshot = pool.worker_stats()
                    return energies, grads
                except (PoolBroken, BrokenProcessPool):
                    self._record_pool_failure(0)
        self.stats.counter("serial_gradients").increment(len(vectors))
        return evaluate_spec_gradients(self._spec, vectors)

    def _evaluate_many(
        self, values_list: Sequence[Dict[Parameter, float]], shots: int
    ) -> List[float]:
        if self._spec is None or not self._functional_platform():
            # Timing-only sweeps and foreign platforms: plain delegation.
            self.stats.counter("delegated_evaluations").increment(len(values_list))
            return [self.platform.evaluate(values, shots) for values in values_list]

        vectors = [self._vector(values) for values in values_list]
        return self._evaluate_vector_batch(vectors, shots, values_list)

    def _evaluate_vector_batch(
        self,
        vectors: List[np.ndarray],
        shots: int,
        values_list: Optional[Sequence[Dict[Parameter, float]]],
    ) -> List[float]:
        keys = evaluation_keys(
            self._spec.structure_hash, vectors, shots, self.seed,
            self._spec.backend_id,
        )

        results: Dict[int, float] = {}
        reused = [False] * len(vectors)
        pending: "Dict[bytes, List[int]]" = {}
        for index, key in enumerate(keys):
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    reused[index] = True
                    continue
                siblings = pending.setdefault(key.digest, [])
                if siblings:  # duplicate within this batch: reuse, too
                    reused[index] = True
                siblings.append(index)
            else:
                # No cache: no dedup either, so the platform timeline is
                # exactly what a serial loop over ``evaluate`` charges.
                pending.setdefault(key.digest + index.to_bytes(4, "little"), []).append(index)

        tasks: List[Tuple[np.ndarray, int, int]] = []
        inflight: Optional[SharedMemoryPool] = None
        next_attempt = 0
        if pending:
            task_indices = [indices[0] for indices in pending.values()]
            tasks = [
                (vectors[i], shots, keys[i].sampler_seed) for i in task_indices
            ]
            # Latency hiding: ship the batch to the workers *before*
            # the serial timing replay below, so the platform-timeline
            # replay runs while the workers compute and the batch costs
            # max(replay, functional) instead of their sum.  When the
            # pool path is unavailable the values are computed here,
            # up front, so the replay can patch its surrogate energies
            # eagerly (which keeps partial-failure retries exact).
            inflight, next_attempt = self._begin_tasks(tasks)
            if inflight is None:
                self._settle(
                    pending, keys, results,
                    self._run_tasks(tasks, first_attempt=next_attempt),
                )

        self.stats.counter("evaluations").increment(len(vectors))
        # Idempotent timing replay: if a previous attempt of this very
        # batch died mid-charge, the ledger remembers how many
        # evaluations it already charged to the platform timeline, and
        # this attempt skips that prefix instead of double-charging.
        # Granularity is one evaluation — the replay either charged or
        # it didn't; a partial single replay re-raises from the
        # platform itself.  (With a cache, prior successes return as
        # hits on retry and charge nothing, which the skip subsumes.)
        batch_digest = hashlib.blake2b(
            b"".join(key.digest for key in keys) + struct.pack("<q", shots),
            digest_size=16,
        ).digest()
        already_charged = self._replay_ledger.pop(batch_digest, 0)
        charged = 0
        deferred: List[Tuple[int, int]] = []  # (energy slot, vector index)
        try:
            for index, vector in enumerate(vectors):
                if reused[index]:
                    # Cache hit: the result is served from host memory,
                    # so neither the QPU nor the compile/transmission
                    # pipeline runs — no platform timeline is charged
                    # (the architectural payoff of result reuse).
                    # Disable the cache to model every dispatch.
                    self.stats.counter("reused_evaluations").increment()
                else:
                    if charged >= already_charged:
                        # Timing replay needs a binding dict; the vector
                        # entry point builds it only here, for the evals
                        # that charge.
                        if values_list is not None:
                            values_dict = values_list[index]
                        else:
                            values_dict = {
                                p: float(v)
                                for p, v in zip(self._spec.parameters, vector)
                            }
                        slot = self._charge_timing(
                            values_dict, shots, results.get(index)
                        )
                        if slot is not None:
                            deferred.append((slot, index))
                    charged += 1
        except BaseException:
            self._replay_ledger[batch_digest] = charged
            self.stats.counter("partial_timing_batches").increment()
            if inflight is not None:
                # Drain the in-flight batch so the pool stays usable
                # and the already-charged surrogate energies still get
                # their real values (mirroring the eager-patch path).
                values = self._abandon_inflight(inflight)
                if values is not None:
                    self._settle(pending, keys, results, values)
                    self._patch_energies(deferred, results)
            raise
        if inflight is not None:
            self._settle(
                pending, keys, results,
                self._run_tasks(tasks, inflight=inflight, first_attempt=next_attempt),
            )
        self._patch_energies(deferred, results)
        return [results[index] for index in range(len(vectors))]

    def _settle(
        self,
        pending: "Dict[bytes, List[int]]",
        keys: Sequence[EvalKey],
        results: Dict[int, float],
        values: List[float],
    ) -> None:
        """Fan computed task values back out to their batch indices."""
        for indices, value in zip(pending.values(), values):
            for index in indices:
                results[index] = value
            if self.cache is not None:
                self.cache.put(keys[indices[0]], value)

    def _patch_energies(
        self, deferred: List[Tuple[int, int]], results: Dict[int, float]
    ) -> None:
        """Overwrite deferred surrogate energies with the real values."""
        if not deferred:
            return
        report = getattr(self.platform, "report", None)
        if report is None:
            return
        for slot, index in deferred:
            value = results.get(index)
            if value is not None and slot < len(report.energies):
                report.energies[slot] = float(value)
        deferred.clear()

    def _abandon_inflight(
        self, pool: SharedMemoryPool
    ) -> Optional[List[float]]:
        """Collect a batch whose charging loop failed; never raises."""
        try:
            values = pool.collect_batch()
            self.breaker.record_success()
            self.stats.counter("parallel_evaluations").increment(len(values))
            self._worker_stat_snapshot = pool.worker_stats()
            return values
        except BaseException:
            self._shutdown_pool()
            return None

    def charge_optimizer_step(self, n_params: int, method: str) -> None:
        self.platform.charge_optimizer_step(n_params, method)

    def finish(self) -> ExecutionReport:
        report = self.platform.finish()
        for name, value in self.stats.as_dict().items():
            report.extra[name] = float(value)
        for name, value in self.breaker.stats.as_dict().items():
            report.extra[name] = float(value)
        if self.fault_injector is not None:
            for name, value in self.fault_injector.stats.as_dict().items():
                report.extra[name] = float(value)
        if self.cache is not None:
            for name, value in self.cache.stats.as_dict().items():
                report.extra[name] = float(value)
            report.extra["eval_cache.hit_rate"] = self.cache.hit_rate
        if self._pool is not None and not self._pool.closed:
            self._worker_stat_snapshot = self._pool.worker_stats()
        for name, value in self._worker_stat_snapshot.items():
            report.extra[name] = float(value)
        self.close()
        return report

    # ------------------------------------------------------------------
    # batch mechanics
    # ------------------------------------------------------------------
    def _functional_platform(self) -> bool:
        return self._injectable and not getattr(self.platform, "timing_only", True)

    def _vector(self, values: Dict[Parameter, float]) -> np.ndarray:
        try:
            return np.array(
                [values[p] for p in self._spec.parameters], dtype=np.float64
            )
        except KeyError as missing:
            raise KeyError(
                f"no value bound for circuit parameter {missing.args[0]!r}"
            ) from None

    def _begin_tasks(
        self, tasks: List[Tuple[np.ndarray, int, int]]
    ) -> Tuple[Optional[SharedMemoryPool], int]:
        """Dispatch a batch to the pool without waiting for results.

        Returns ``(pool, next_attempt)``: the pool now holding the
        in-flight batch (``None`` when the pool path is unavailable or
        the dispatch failed), and the retry attempt
        :meth:`_run_tasks` should resume from — 1 after a failed
        dispatch, so the injected-fault decisions and breaker
        accounting match the synchronous path exactly.
        """
        if self.max_workers <= 1 or not self.breaker.allow():
            return None, 0
        pool = self._ensure_pool()
        if pool is None:
            return None, 0
        try:
            self._maybe_inject_worker_fault(tasks, 0)
            pool.dispatch_batch(
                [task[0] for task in tasks],
                tasks[0][1],
                [task[2] for task in tasks],
            )
            return pool, 0
        except (PoolBroken, BrokenProcessPool):
            self._record_pool_failure(0)
        except InjectedWorkerCrash:
            self.stats.counter("injected_pool_crashes").increment()
            self._record_pool_failure(0)
        except InjectedWorkerHang:
            self.stats.counter("injected_pool_hangs").increment()
            self._record_pool_failure(0)
        return None, 1

    def _run_tasks(
        self,
        tasks: List[Tuple[np.ndarray, int, int]],
        inflight: Optional[SharedMemoryPool] = None,
        first_attempt: int = 0,
    ) -> List[float]:
        """Evaluate tasks on the pool, retrying once past a dead pool.

        Every dispatch is gated by the circuit breaker: a crashed pool
        records a failure per attempt, so two consecutive crashes open
        the breaker and the batch (plus subsequent ones) runs serially
        in-process until the cooldown elapses and a half-open probe
        succeeds.  A batch already dispatched by :meth:`_begin_tasks`
        arrives as ``inflight`` and is collected rather than re-sent;
        if the collection fails the retry re-dispatches from scratch.
        Both schedules are batched: workers run
        :func:`evaluate_spec_batch` over contiguous slices, and the
        serial fallback runs it over the whole batch — bit-identical
        either way because every probe's sampler seed is its content
        address, not a position in a shared stream.
        """
        vectors = [task[0] for task in tasks]
        shots = tasks[0][1]  # uniform within a batch by construction
        seeds = [task[2] for task in tasks]
        if self.max_workers > 1:
            for attempt in range(first_attempt, 2):
                # Collecting a batch _begin_tasks already dispatched is
                # not a new use of the pool: the breaker admitted that
                # dispatch (possibly as the single half-open probe), so
                # gating the collection would deny our own probe.
                if inflight is None and not self.breaker.allow():
                    break
                pool = self._ensure_pool()
                if pool is None:
                    break
                try:
                    if pool is inflight:
                        inflight = None
                        values = pool.collect_batch()
                    else:
                        self._maybe_inject_worker_fault(tasks, attempt)
                        values = pool.run_batch(vectors, shots, seeds)
                    self.breaker.record_success()
                    self.stats.counter("parallel_evaluations").increment(len(tasks))
                    self._worker_stat_snapshot = pool.worker_stats()
                    return values
                except (PoolBroken, BrokenProcessPool):
                    self._record_pool_failure(attempt)
                except InjectedWorkerCrash:
                    self.stats.counter("injected_pool_crashes").increment()
                    self._record_pool_failure(attempt)
                except InjectedWorkerHang:
                    self.stats.counter("injected_pool_hangs").increment()
                    self._record_pool_failure(attempt)
        self.stats.counter("serial_evaluations").increment(len(tasks))
        return evaluate_spec_batch(self._spec, vectors, shots, seeds)

    def _record_pool_failure(self, attempt: int) -> None:
        self._shutdown_pool()
        self.breaker.record_failure()
        if attempt == 0:
            self.stats.counter("pool_restarts").increment()
        else:
            self.stats.counter("pool_failures").increment()

    def _maybe_inject_worker_fault(
        self, tasks: List[Tuple[np.ndarray, int, int]], attempt: int
    ) -> None:
        """Chaos hook: decide this dispatch's fate before it reaches
        the pool.

        A crash models the pool dying mid-batch (raises, caught like a
        ``BrokenProcessPool``); a hang blocks for ``hang_s`` before a
        watchdog reaps it (also a failure); a slowdown just delays.
        Decisions are keyed on the batch's first sampler seed + attempt,
        so they replay identically regardless of thread interleaving.
        """
        if self.fault_injector is None:
            return
        from repro.faults.injector import WORKER_CRASH, WORKER_HANG, WORKER_SLOW

        event = self.fault_injector.worker_event(
            "pool", tasks[0][2], len(tasks), attempt
        )
        if event == WORKER_CRASH:
            raise InjectedWorkerCrash("injected pool worker crash")
        if event == WORKER_HANG:
            time.sleep(self.fault_injector.plan.worker.hang_s)
            raise InjectedWorkerHang("injected pool worker hang")
        if event == WORKER_SLOW:
            time.sleep(self.fault_injector.plan.worker.slowdown_s)

    def _charge_timing(
        self, values: Dict[Parameter, float], shots: int,
        value: Optional[float],
    ) -> Optional[int]:
        """Replay one evaluation through the platform's timing model.

        Gate durations, transmission plans and compile costs do not
        depend on parameter *values*, so the timing-only replay charges
        the exact timeline the functional path would have; the
        surrogate energy it records is overwritten with the real one.
        When the real value is not known yet (the batch is still in
        flight on the worker pool), the surrogate's slot is returned so
        the caller can patch it after collection.
        """
        platform = self.platform
        saved = platform.timing_only
        platform.timing_only = True
        try:
            platform.evaluate(values, shots)
        finally:
            platform.timing_only = saved
        report = getattr(platform, "report", None)
        if report is None or not report.energies:
            return None
        if value is None:
            return len(report.energies) - 1
        report.energies[-1] = float(value)
        return None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[SharedMemoryPool]:
        if self._pool is not None:
            return self._pool
        if self._pool_payload is None:
            return None
        try:
            self._pool = SharedMemoryPool(
                n_workers=self.max_workers,
                n_slots=len(self._spec.parameters) if self._spec else 0,
                payload=self._pool_payload,
                replay_budget=PROGRAM_CACHE.max_entries,
            )
            self.stats.counter("pool_spawns").increment()
        except (OSError, PoolBroken):
            # Cannot even fork workers: open the breaker outright; a
            # half-open probe after the cooldown will try again.
            self.breaker.trip()
            self.stats.counter("pool_failures").increment()
            return None
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Release worker processes (recreated lazily if reused)."""
        self._shutdown_pool()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._shutdown_pool()
        except Exception:
            pass

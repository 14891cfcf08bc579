"""Persistent shared-memory workers + cross-probe batching (PR 6).

Three schedules must return bit-identical energies — one probe at a
time (`evaluate_spec_batch` with K=1), cross-probe batched (the same
call over K rows, built on `CompiledProgram.execute_batch`), and the
persistent :class:`SharedMemoryPool` — because every probe's sampler
seed is its content address, not a position in a shared stream.  On
top of parity, the pool must never leak ``/dev/shm`` segments (clean
close, GC, or a crashed worker), must survive workload changes without
respawning, and the engine's timing replay must be idempotent across a
mid-batch failure + retry.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.runtime import (
    PoolBroken,
    SharedMemoryPool,
    build_spec,
    evaluate_spec_batch,
    evaluation_key,
    evaluation_keys,
)
from repro.vqa import make_optimizer
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian

SHOTS = 128
SEED = 5


def _workload(n_qubits=3, n_layers=1, seed=3):
    ansatz, parameters = hardware_efficient_ansatz(
        n_qubits, n_layers=n_layers, rotations=("ry",)
    )
    observable = molecular_hamiltonian(n_qubits, seed=seed)
    return ansatz, parameters, observable


def _content_seeds(spec, vectors, shots, base_seed=0):
    """Production seed derivation: one content address per probe."""
    return [
        key.sampler_seed
        for key in evaluation_keys(
            spec.structure_hash, vectors, shots, base_seed, spec.backend_id
        )
    ]


def _shm_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - linux CI
        return frozenset()
    return frozenset(os.listdir("/dev/shm"))


def _engine(workload=None, **kwargs):
    engine = EvaluationEngine(QtenonSystem(3, seed=SEED), **kwargs)
    if workload is not None:
        engine.prepare(workload[0], workload[2])
    return engine


def _run(engine, workload, iterations=2, method="gd"):
    ansatz, parameters, observable = workload
    runner = HybridRunner(
        engine,
        ansatz,
        parameters,
        observable,
        make_optimizer(method, seed=SEED),
        shots=SHOTS,
        iterations=iterations,
    )
    return runner.run(seed=SEED)


# ----------------------------------------------------------------------
# schedule parity
# ----------------------------------------------------------------------
class TestScheduleParity:
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_serial_batched_and_pooled_bit_identical(self, data):
        """Random ≤8q workloads: serial, execute_batch and the
        persistent-worker pool agree energy for energy, bit for bit."""
        n_qubits = data.draw(st.integers(2, 8), label="n_qubits")
        n_layers = data.draw(st.integers(1, 2), label="n_layers")
        ham_seed = data.draw(st.integers(0, 50), label="ham_seed")
        rows = data.draw(st.integers(1, 5), label="rows")
        ansatz, parameters, observable = _workload(n_qubits, n_layers, ham_seed)
        spec = build_spec(ansatz, observable, parameters=parameters)

        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="vec_seed"))
        vectors = [rng.normal(size=len(parameters)) for _ in range(rows)]
        seeds = _content_seeds(spec, vectors, SHOTS)

        serial = [
            evaluate_spec_batch(spec, [vector], SHOTS, [seed])[0]
            for vector, seed in zip(vectors, seeds)
        ]
        batched = evaluate_spec_batch(spec, vectors, SHOTS, seeds)
        assert batched == serial

        payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        with SharedMemoryPool(
            n_workers=2, n_slots=len(parameters), payload=payload
        ) as pool:
            pooled = pool.run_batch(vectors, SHOTS, seeds)
        assert pooled == serial

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_batch_rows_are_independent(self, data):
        """Every row of a batch equals its own K=1 call, for all three
        row kinds: sampled with replay programs, sampled on product or
        stabilizer routing (no programs), and exact ``shots=0``."""
        route = data.draw(
            st.sampled_from(("statevector", "product", "stabilizer", "exact")),
            label="route",
        )
        n_qubits = data.draw(st.integers(2, 4), label="n_qubits")
        rows = data.draw(st.integers(1, 10), label="rows")
        ansatz, parameters, observable = _workload(n_qubits)
        force = route if route in ("product", "stabilizer") else None
        spec = build_spec(
            ansatz, observable, parameters=parameters, force_backend=force
        )
        assert (spec.programs is None) == (force is not None)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="vec_seed"))
        if route == "stabilizer":
            # Clifford points only: every angle a multiple of pi/2.
            vectors = [
                rng.integers(-4, 4, len(parameters)) * (np.pi / 2)
                for _ in range(rows)
            ]
        else:
            vectors = [rng.normal(size=len(parameters)) for _ in range(rows)]
        shots = 0 if route == "exact" else SHOTS
        seeds = [int(seed) for seed in rng.integers(0, 2**31, rows)]
        batched = evaluate_spec_batch(spec, vectors, shots, seeds)
        assert batched == [
            evaluate_spec_batch(spec, [vector], shots, [seed])[0]
            for vector, seed in zip(vectors, seeds)
        ]

    def test_batch_falls_back_without_programs(self):
        ansatz, parameters, observable = _workload()
        spec = build_spec(
            ansatz, observable, parameters=parameters, force_backend="product"
        )
        assert spec.programs is None
        vectors = [np.full(len(parameters), 0.2), np.full(len(parameters), -0.1)]
        seeds = _content_seeds(spec, vectors, SHOTS)
        assert evaluate_spec_batch(spec, vectors, SHOTS, seeds) == [
            evaluate_spec_batch(spec, [vector], SHOTS, [seed])[0]
            for vector, seed in zip(vectors, seeds)
        ]

    def test_batch_validates_seed_count(self):
        ansatz, parameters, observable = _workload()
        spec = build_spec(ansatz, observable, parameters=parameters)
        with pytest.raises(ValueError, match="seeds"):
            evaluate_spec_batch(spec, [np.zeros(len(parameters))], SHOTS, [1, 2])

    def test_evaluation_keys_match_scalar_helper(self):
        vectors = [np.array([0.1, -0.2]), np.array([0.3, 0.4])]
        batch = evaluation_keys("ab" * 16, vectors, 100, 7, "statevector")
        assert [key.digest for key in batch] == [
            evaluation_key("ab" * 16, vector, 100, 7, "statevector").digest
            for vector in vectors
        ]


# ----------------------------------------------------------------------
# pool lifecycle: persistence, crashes, /dev/shm hygiene
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def _spec_payload(self, **kwargs):
        ansatz, parameters, observable = _workload(**kwargs)
        spec = build_spec(ansatz, observable, parameters=parameters)
        return spec, pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)

    def test_close_unlinks_segment(self):
        spec, payload = self._spec_payload()
        before = _shm_segments()
        pool = SharedMemoryPool(
            n_workers=2, n_slots=len(spec.parameters), payload=payload
        )
        vectors = [np.zeros(len(spec.parameters))]
        pool.run_batch(vectors, SHOTS, _content_seeds(spec, vectors, SHOTS))
        assert _shm_segments() - before  # segment visibly exists
        pool.close()
        assert _shm_segments() - before == frozenset()
        # close is idempotent and later dispatches fail loudly.
        pool.close()
        with pytest.raises(PoolBroken):
            pool.run_batch(vectors, SHOTS, [1])

    def test_dispatch_collect_overlap_protocol(self):
        """The split API: work between dispatch and collect overlaps
        with the workers, and protocol misuse fails loudly."""
        spec, payload = self._spec_payload()
        pool = SharedMemoryPool(
            n_workers=2, n_slots=len(spec.parameters), payload=payload
        )
        try:
            rng = np.random.default_rng(4)
            vectors = [rng.normal(size=len(spec.parameters)) for _ in range(5)]
            seeds = _content_seeds(spec, vectors, SHOTS)
            with pytest.raises(RuntimeError, match="no batch in flight"):
                pool.collect_batch()
            pool.dispatch_batch(vectors, SHOTS, seeds)
            with pytest.raises(RuntimeError, match="already in flight"):
                pool.dispatch_batch(vectors, SHOTS, seeds)
            with pytest.raises(RuntimeError, match="in flight"):
                pool.set_spec(b"different", 0)
            assert pool.collect_batch() == evaluate_spec_batch(
                spec, vectors, SHOTS, seeds
            )
            # The pool stays usable and an empty dispatch round-trips.
            pool.dispatch_batch([], SHOTS, [])
            assert pool.collect_batch() == []
        finally:
            pool.close()

    def test_worker_crash_raises_poolbroken_and_leaves_no_segment(self):
        spec, payload = self._spec_payload()
        before = _shm_segments()
        pool = SharedMemoryPool(
            n_workers=2, n_slots=len(spec.parameters), payload=payload
        )
        pool._state["procs"][0].terminate()
        pool._state["procs"][0].join(timeout=5.0)
        vectors = [np.zeros(len(spec.parameters))] * 4
        with pytest.raises(PoolBroken):
            pool.run_batch(vectors, SHOTS, _content_seeds(spec, vectors, SHOTS))
        pool.close()
        assert _shm_segments() - before == frozenset()

    def test_capacity_grows_for_large_batches(self):
        spec, payload = self._spec_payload()
        pool = SharedMemoryPool(
            n_workers=2,
            n_slots=len(spec.parameters),
            payload=payload,
            capacity=4,
        )
        try:
            rng = np.random.default_rng(1)
            vectors = [rng.normal(size=len(spec.parameters)) for _ in range(11)]
            seeds = _content_seeds(spec, vectors, SHOTS)
            assert pool.run_batch(vectors, SHOTS, seeds) == evaluate_spec_batch(
                spec, vectors, SHOTS, seeds
            )
            assert pool.capacity == 16
        finally:
            pool.close()

    def test_worker_replay_cache_respects_budget(self):
        spec, payload = self._spec_payload()
        pool = SharedMemoryPool(
            n_workers=1,
            n_slots=len(spec.parameters),
            payload=payload,
            replay_budget=1,
        )
        try:
            vectors = [np.zeros(len(spec.parameters))]
            pool.run_batch(vectors, SHOTS, _content_seeds(spec, vectors, SHOTS))
            stats = pool.worker_stats()
            assert stats["workers.replay_cache.programs"] <= 1.0
            assert stats["workers.pool.batches"] == 1.0
        finally:
            pool.close()

    def test_engine_reuses_pool_across_workloads(self):
        """prepare() re-points live workers at the new spec instead of
        respawning — the spawn-per-workload overhead was the root of the
        inverted parallel speedup."""
        first = _workload(seed=3)
        second = _workload(seed=11)
        before = _shm_segments()
        engine = _engine(first, max_workers=2)
        bindings = [
            {p: float(v) for p, v in zip(first[1], np.full(len(first[1]), off))}
            for off in (0.1, 0.2, 0.3)
        ]
        got_first = engine.evaluate_many(bindings, SHOTS)
        engine.prepare(second[0], second[2])
        bindings2 = [
            {p: float(v) for p, v in zip(second[1], np.full(len(second[1]), off))}
            for off in (0.1, 0.4)
        ]
        got_second = engine.evaluate_many(bindings2, SHOTS)
        assert engine.stats.counter("pool_spawns").value == 1
        assert engine.stats.counter("pool_reuses").value == 1
        assert engine.stats.counter("parallel_evaluations").value == 5
        engine.close()
        assert _shm_segments() - before == frozenset()

        # Parity against fresh single-workload engines.
        ref_one = _engine(first, max_workers=1)
        ref_two = _engine(second, max_workers=1)
        assert got_first == ref_one.evaluate_many(bindings, SHOTS)
        assert got_second == ref_two.evaluate_many(bindings2, SHOTS)
        ref_one.close()
        ref_two.close()

    def test_engine_respawns_when_vectors_widen(self):
        narrow = _workload(n_qubits=3, n_layers=1)
        wide = _workload(n_qubits=3, n_layers=3)
        assert len(wide[1]) > len(narrow[1])
        engine = _engine(narrow, max_workers=2)
        bindings = [
            {p: 0.1 for p in narrow[1]},
            {p: 0.2 for p in narrow[1]},
        ]
        engine.evaluate_many(bindings, SHOTS)
        engine.prepare(wide[0], wide[2])
        wide_bindings = [{p: 0.1 for p in wide[1]}, {p: -0.2 for p in wide[1]}]
        got = engine.evaluate_many(wide_bindings, SHOTS)
        assert engine.stats.counter("pool_spawns").value == 2
        engine.close()
        reference = _engine(wide, max_workers=1)
        assert got == reference.evaluate_many(wide_bindings, SHOTS)
        reference.close()

    def test_finish_releases_segments_and_reports_worker_stats(self):
        workload = _workload()
        before = _shm_segments()
        result = _run(_engine(max_workers=2), workload)
        assert _shm_segments() - before == frozenset()
        extra = result.report.extra
        assert extra.get("runtime.parallel_evaluations", 0) > 0
        assert extra.get("workers.pool.batches", 0) > 0
        assert extra.get("workers.kernels.replays", 0) > 0

    def test_worker_stats_flow_through_register_engine(self):
        from repro.telemetry.bridge import register_engine
        from repro.telemetry.metrics import MetricsRegistry

        workload = _workload()
        engine = _engine(workload, max_workers=2)
        registry = MetricsRegistry()
        register_engine(registry, engine, prefix="rt")
        bindings = [{p: 0.15 for p in workload[1]}, {p: -0.3 for p in workload[1]}]
        engine.evaluate_many(bindings, SHOTS)
        collected = registry.collect_external()
        assert collected.get("rt.workers.pool.batches", 0) > 0
        assert "rt.workers.replay_cache.hits" in collected
        engine.close()
        # After teardown the collector serves the last snapshot.
        assert (
            registry.collect_external().get("rt.workers.pool.batches", 0) > 0
        )

    def test_pool_validates_inputs(self):
        spec, payload = self._spec_payload()
        with pytest.raises(ValueError, match="n_workers"):
            SharedMemoryPool(n_workers=0, n_slots=1, payload=payload)
        pool = SharedMemoryPool(
            n_workers=1, n_slots=len(spec.parameters), payload=payload
        )
        try:
            assert pool.run_batch([], SHOTS, []) == []
            with pytest.raises(ValueError, match="seeds"):
                pool.run_batch([np.zeros(len(spec.parameters))], SHOTS, [])
        finally:
            pool.close()


# ----------------------------------------------------------------------
# timing-replay idempotency on retry
# ----------------------------------------------------------------------
class TestTimingLedger:
    def test_retry_after_midbatch_failure_charges_each_eval_once(self):
        """A batch whose timing replay dies halfway must not re-charge
        the already-replayed evaluations when the caller retries: the
        final timeline matches a never-failed run exactly."""
        workload = _workload()
        _, parameters, _ = workload
        engine = _engine(workload, max_workers=1)
        platform = engine.platform
        bindings = [{p: float(off) for p in parameters} for off in (0.1, 0.2, 0.3)]

        original_evaluate = platform.evaluate
        calls = {"n": 0}

        def flaky_evaluate(values, shots):
            calls["n"] += 1
            if calls["n"] == 2:  # second timing replay of the batch
                raise RuntimeError("injected timing failure")
            return original_evaluate(values, shots)

        platform.evaluate = flaky_evaluate
        with pytest.raises(RuntimeError, match="injected timing failure"):
            engine.evaluate_many(bindings, SHOTS)
        assert engine.stats.counter("partial_timing_batches").value == 1
        platform.evaluate = original_evaluate

        values = engine.evaluate_many(bindings, SHOTS)
        report = engine.finish()

        reference_engine = _engine(workload, max_workers=1)
        reference_values = reference_engine.evaluate_many(bindings, SHOTS)
        reference_report = reference_engine.finish()

        assert values == reference_values
        # Exactly one timing replay per evaluation — not 1 + 3.
        assert report.evaluations == reference_report.evaluations == 3
        assert report.end_to_end_ps == reference_report.end_to_end_ps
        assert report.energies == reference_report.energies

    def test_midbatch_failure_with_inflight_pool_patches_and_retries(self):
        """Same mid-replay failure, but with the batch overlapped on a
        live worker pool: the in-flight batch is drained (pool stays
        usable), the already-charged surrogate energy still receives
        its real value, and the retry matches a never-failed run."""
        before = _shm_segments()
        workload = _workload()
        _, parameters, _ = workload
        engine = _engine(workload, max_workers=2)
        platform = engine.platform
        bindings = [{p: float(off) for p in parameters} for off in (0.1, 0.2, 0.3)]

        original_evaluate = platform.evaluate
        calls = {"n": 0}

        def flaky_evaluate(values, shots):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected timing failure")
            return original_evaluate(values, shots)

        platform.evaluate = flaky_evaluate
        with pytest.raises(RuntimeError, match="injected timing failure"):
            engine.evaluate_many(bindings, SHOTS)
        assert engine.stats.counter("partial_timing_batches").value == 1
        # The abandoned batch was still collected off the pool, which
        # survives for the retry.
        assert engine._pool is not None and not engine._pool.closed
        platform.evaluate = original_evaluate

        values = engine.evaluate_many(bindings, SHOTS)
        assert engine.stats.counter("parallel_evaluations").value == 6
        report = engine.finish()

        reference_engine = _engine(workload, max_workers=1)
        reference_values = reference_engine.evaluate_many(bindings, SHOTS)
        reference_report = reference_engine.finish()

        assert values == reference_values
        assert report.evaluations == reference_report.evaluations == 3
        assert report.end_to_end_ps == reference_report.end_to_end_ps
        assert report.energies == reference_report.energies
        assert _shm_segments() - before == frozenset()

    def test_ledger_entry_is_consumed_by_the_retry(self):
        workload = _workload()
        _, parameters, _ = workload
        engine = _engine(workload, max_workers=1)
        platform = engine.platform
        bindings = [{p: float(off) for p in parameters} for off in (0.4, 0.5)]
        original_evaluate = platform.evaluate
        calls = {"n": 0}

        def flaky_evaluate(values, shots):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return original_evaluate(values, shots)

        platform.evaluate = flaky_evaluate
        with pytest.raises(RuntimeError):
            engine.evaluate_many(bindings, SHOTS)
        platform.evaluate = original_evaluate
        engine.evaluate_many(bindings, SHOTS)
        assert engine._replay_ledger == {}
        # A later identical batch charges normally again.
        engine.evaluate_many(bindings, SHOTS)
        assert engine.platform.report.evaluations == 4
        engine.close()

"""Tests for the parallel evaluation runtime (repro.runtime).

The load-bearing property is *determinism*: serial, parallel and
cached schedules must return bit-identical values (the sampler seed is
derived from each evaluation's content address, not from a shared RNG
stream), so the parity tests compare histories with ``==``, not
``approx``.
"""

import pickle

import numpy as np
import pytest

from repro import EvalCache, EvaluationEngine, HybridRunner, QtenonSystem
from repro.core import HOST_RESULT_BASE
from repro.baseline.system import DecoupledSystem
from repro.faults import FaultInjector, FaultPlan, ReadoutDriftFaults
from repro.runtime import (
    BreakerState,
    CircuitBreaker,
    PoolBroken,
    build_spec,
    circuit_structure_hash,
    evaluate_spec_batch,
    evaluation_key,
)
from repro.compiler.lowering import LoweringError
from repro.quantum import Parameter, PauliString, PauliSum, QuantumCircuit
from repro.quantum.noise import ReadoutNoise
from repro.vqa import ghz_workload, make_optimizer, qaoa_workload, vqe_workload
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian
from repro.vqa.optimizers import GradientDescent, Spsa, _evaluate_batch

QUBITS = 3
SHOTS = 96
SEED = 5


@pytest.fixture
def workload():
    ansatz, parameters = hardware_efficient_ansatz(
        QUBITS, n_layers=1, rotations=("ry",)
    )
    observable = molecular_hamiltonian(QUBITS, seed=3)
    return ansatz, parameters, observable


def _run(engine, workload, method="gd", iterations=2):
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


def _engine(workload=None, **kwargs):
    engine = EvaluationEngine(QtenonSystem(QUBITS, seed=SEED), **kwargs)
    if workload is not None:
        engine.prepare(workload[0], workload[2])
    return engine


class TestStructureHash:
    def _parametrised(self, theta_name="t"):
        theta = Parameter(theta_name)
        qc = QuantumCircuit(2).ry(theta, 0).cx(0, 1)
        return qc, [theta]

    def test_identical_structure_same_hash(self):
        a, pa = self._parametrised("alpha")
        b, pb = self._parametrised("beta")
        # Distinct Parameter objects (and names), same structure.
        assert circuit_structure_hash(a, pa) == circuit_structure_hash(b, pb)

    def test_gate_change_changes_hash(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cz(0, 1)
        assert circuit_structure_hash(a) != circuit_structure_hash(b)

    def test_wiring_change_changes_hash(self):
        a = QuantumCircuit(3).cx(0, 1)
        b = QuantumCircuit(3).cx(0, 2)
        assert circuit_structure_hash(a) != circuit_structure_hash(b)

    def test_constant_angle_change_changes_hash(self):
        a = QuantumCircuit(1).rx(0.25, 0)
        b = QuantumCircuit(1).rx(0.50, 0)
        assert circuit_structure_hash(a) != circuit_structure_hash(b)

    def test_parameter_slot_matters(self):
        x, y = Parameter("x"), Parameter("y")
        qc = QuantumCircuit(2).ry(x, 0).ry(y, 1)
        assert circuit_structure_hash(qc, [x, y]) != circuit_structure_hash(qc, [y, x])


class TestEvalKey:
    STRUCT = "ab" * 16

    def _key(self, vector=(0.1, 0.2), shots=100, seed=0, backend="statevector"):
        return evaluation_key(
            self.STRUCT, np.array(vector, dtype=np.float64), shots, seed, backend
        )

    def test_deterministic(self):
        assert self._key().digest == self._key().digest

    def test_every_component_enters_the_digest(self):
        base = self._key()
        assert self._key(vector=(0.1, 0.3)).digest != base.digest
        assert self._key(shots=101).digest != base.digest
        assert self._key(seed=1).digest != base.digest
        assert self._key(backend="product").digest != base.digest
        assert evaluation_key(
            "cd" * 16, np.array([0.1, 0.2]), 100, 0, "statevector"
        ).digest != base.digest

    def test_sampler_seed_from_digest(self):
        key = self._key()
        assert key.sampler_seed == int.from_bytes(key.digest[:8], "little")
        assert 0 <= key.sampler_seed < 2 ** 64


class TestEvalCache:
    def _key(self, index):
        return evaluation_key("00", np.array([float(index)]), 10, 0, "sv")

    def test_roundtrip_and_counters(self):
        cache = EvalCache(8)
        key = self._key(0)
        assert cache.get(key) is None
        cache.put(key, -1.25)
        assert cache.get(key) == -1.25
        assert key in cache
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EvalCache(2)
        for i in range(3):
            cache.put(self._key(i), float(i))
        assert self._key(0) not in cache
        assert self._key(1) in cache and self._key(2) in cache
        assert cache.stats.counter("evictions").value == 1

    def test_get_refreshes_recency(self):
        cache = EvalCache(2)
        cache.put(self._key(0), 0.0)
        cache.put(self._key(1), 1.0)
        cache.get(self._key(0))  # 1 becomes least-recently-used
        cache.put(self._key(2), 2.0)
        assert self._key(0) in cache
        assert self._key(1) not in cache

    def test_clear(self):
        cache = EvalCache(4)
        cache.put(self._key(0), 0.0)
        cache.clear()
        assert len(cache) == 0

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalCache(0)


class TestEvaluateSpec:
    def test_same_request_bit_identical(self, workload):
        ansatz, parameters, observable = workload
        spec = build_spec(ansatz, observable, parameters=parameters)
        vector = np.linspace(-0.4, 0.4, len(parameters))
        first = evaluate_spec_batch(spec, [vector], SHOTS, [9])
        second = evaluate_spec_batch(spec, [vector], SHOTS, [9])
        assert first == second

    def test_spec_survives_pickling(self, workload):
        ansatz, parameters, observable = workload
        spec = build_spec(ansatz, observable, parameters=parameters)
        clone = pickle.loads(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
        vector = np.linspace(-0.3, 0.3, len(parameters))
        assert evaluate_spec_batch(clone, [vector], SHOTS, [2]) == (
            evaluate_spec_batch(spec, [vector], SHOTS, [2])
        )


class TestEngineParity:
    def test_gd_parallel_bit_identical_to_serial(self, workload):
        serial = _run(_engine(max_workers=1), workload, "gd")
        parallel = _run(_engine(max_workers=2), workload, "gd")
        assert parallel.cost_history == serial.cost_history
        assert parallel.final_cost == serial.final_cost
        np.testing.assert_array_equal(parallel.final_params, serial.final_params)
        # No cache: the modelled timeline is charged identically, too.
        assert parallel.report.end_to_end_ps == serial.report.end_to_end_ps

    def test_spsa_parallel_bit_identical_to_serial(self, workload):
        serial = _run(_engine(max_workers=1), workload, "spsa")
        parallel = _run(_engine(max_workers=2), workload, "spsa")
        assert parallel.cost_history == serial.cost_history
        assert parallel.report.end_to_end_ps == serial.report.end_to_end_ps

    def test_cache_hits_are_bit_identical_and_skip_dispatch(self, workload):
        cache = EvalCache(256)
        cold = _run(_engine(max_workers=1, cache=cache), workload, "gd")
        warm = _run(_engine(max_workers=1, cache=cache), workload, "gd")
        assert warm.cost_history == cold.cost_history
        assert cache.hits > 0
        # A hit skips the platform replay, so the warm trajectory's
        # modelled end-to-end time shrinks as well as its wall-clock.
        assert warm.report.end_to_end_ps < cold.report.end_to_end_ps

    def test_cache_stats_reported(self, workload):
        cache = EvalCache(256)
        engine = _engine(max_workers=1, cache=cache)
        _run(engine, workload, "gd")
        result = _run(_engine(max_workers=1, cache=cache), workload, "gd")
        extra = result.report.extra
        assert extra["eval_cache.hit_rate"] == cache.hit_rate
        assert extra["eval_cache.hits"] == float(cache.hits)
        assert extra["runtime.evaluations"] > 0

    def test_cache_stats_rendered_in_summary(self, workload):
        cache = EvalCache(256)
        _run(_engine(max_workers=1, cache=cache), workload, "gd")
        result = _run(_engine(max_workers=1, cache=cache), workload, "gd")
        summary = result.report.summary()
        assert "eval cache:" in summary
        assert f"{cache.hits:.0f} hits" in summary
        assert "hit rate" in summary
        # An uncached run stays silent about the cache.
        plain = _run(_engine(max_workers=1), workload, "gd")
        assert "eval cache" not in plain.report.summary()


class TestBarePlatformParity:
    """A bare platform evaluates on the spec path under the seed an
    engine derives, so wrapping it in ``EvaluationEngine(max_workers=1)``
    changes nothing but wall-clock: histories, energies and the
    modelled timeline agree bit for bit."""

    @pytest.mark.parametrize("readout", [None, ReadoutNoise(0.02, 0.05)],
                             ids=["ideal", "noisy"])
    @pytest.mark.parametrize("shots", [SHOTS, 0], ids=["sampled", "exact"])
    @pytest.mark.parametrize("platform_cls", [QtenonSystem, DecoupledSystem])
    def test_bare_platform_matches_engine(self, workload, platform_cls, shots, readout):
        def run(platform):
            ansatz, parameters, observable = workload
            return HybridRunner(
                platform, ansatz, parameters, observable,
                make_optimizer("spsa", seed=SEED), shots=shots, iterations=3,
            ).run(seed=SEED)

        bare = run(platform_cls(QUBITS, seed=SEED, readout_noise=readout))
        wrapped = run(EvaluationEngine(
            platform_cls(QUBITS, seed=SEED, readout_noise=readout),
            max_workers=1, seed=SEED,
        ))
        assert bare.cost_history == wrapped.cost_history
        assert bare.report.energies == wrapped.report.energies
        assert bare.report.end_to_end_ps == wrapped.report.end_to_end_ps
        assert bare.report.breakdown == wrapped.report.breakdown

    def test_wide_bare_platform_moves_every_outcome_word(self):
        """Past 64 qubits a shot no longer fits one word: a bare
        72-qubit GHZ run streams 9-byte records to host memory and
        fills two ``.measure`` words per shot, and its energy still
        equals the engine-wrapped one."""
        width, shots = 72, 100
        workload = ghz_workload(width)

        def evaluate(platform):
            platform.prepare(workload.ansatz, workload.observable)
            return platform.evaluate({}, shots)

        bare = QtenonSystem(width, seed=SEED)
        wrapped = EvaluationEngine(QtenonSystem(width, seed=SEED), max_workers=1, seed=SEED)
        assert evaluate(bare) == evaluate(wrapped) == width - 1

        # Shots stream in ascending outcome order: the GHZ draw puts
        # all-zeros first and all-ones last.
        record, last = 9, shots - 1
        image = bare.hierarchy.image
        assert image.read_bytes(HOST_RESULT_BASE, record) == bytes(record)
        assert image.read_bytes(HOST_RESULT_BASE + last * record, record) == (
            b"\xff" * record
        )
        qcc = bare.controller.qcc
        assert [qcc.measure_read(i) for i in (0, 1)] == [0, 0]
        assert [qcc.measure_read(2 * last + i) for i in (0, 1)] == [
            (1 << 64) - 1, (1 << 8) - 1,
        ]

    def test_engine_prepare_builds_one_spec(self, workload, monkeypatch):
        from repro.runtime import engine as engine_module

        calls = []
        original = engine_module.build_spec

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, "build_spec", counting)
        engine = _engine(workload, max_workers=1)
        assert len(calls) == 1
        assert engine._spec is engine.platform.spec
        engine.evaluate({p: 0.1 for p in workload[1]}, SHOTS)
        assert len(calls) == 1

    def test_engine_prepare_transpiles_each_group_once(self, workload, monkeypatch):
        """The spec takes the platform's transpiled group circuits: a
        prepare transpiles each measurement circuit once, plus the bare
        ansatz the adjoint program replays."""
        from repro.core import platform as platform_module
        from repro.runtime import engine as engine_module

        transpiled = []
        for module in (platform_module, engine_module):
            def counting(circuit, _original=module.transpile):
                transpiled.append(circuit)
                return _original(circuit)

            monkeypatch.setattr(module, "transpile", counting)
        engine = _engine(workload, max_workers=1)
        spec = engine._spec
        assert spec.adjoint_program is not None
        assert len(transpiled) == len(spec.groups) + 1
        assert spec.group_circuits == engine.platform._program.group_circuits

    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "engine"])
    def test_failed_reprepare_leaves_nothing_to_evaluate(self, wrap):
        """A prepare that raises part-way (here a lowering chunk
        overflow) must not leave the previous workload bound: the next
        evaluation refuses instead of charging the new workload's
        timeline to the old program."""
        workload = vqe_workload(4)
        values = {p: 0.1 for p in workload.parameters}
        overflow = QuantumCircuit(4)
        for _ in range(1100):
            overflow.rx(0.3, 0)
        platform = QtenonSystem(4, seed=0)
        target = EvaluationEngine(platform) if wrap else platform
        target.prepare(workload.ansatz, workload.observable)
        target.evaluate(values, 100)
        with pytest.raises(LoweringError, match="chunk overflow"):
            target.prepare(overflow, PauliSum([(1.0, PauliString({0: "Z"}))]))
        now = platform.now
        with pytest.raises(RuntimeError, match="call prepare"):
            target.evaluate(values, 100)
        assert platform.now == now

    def test_engine_applies_readout_drift(self):
        """Calibration drift reaches an engine-wrapped platform's values:
        the engine hands drifting evaluations to the platform."""
        workload = qaoa_workload(4)

        def history(rate, wrap):
            injector = FaultInjector(
                FaultPlan(seed=0, readout=ReadoutDriftFaults(rate_per_evaluation=rate))
            )
            platform = DecoupledSystem(
                4, seed=0, readout_noise=ReadoutNoise(0.01, 0.03),
                fault_injector=injector,
            )
            if wrap:
                platform = EvaluationEngine(platform, max_workers=1, seed=0)
            return HybridRunner(
                platform, workload.ansatz, workload.parameters, workload.observable,
                make_optimizer("spsa", seed=0), shots=128, iterations=3,
            ).run(seed=0).cost_history

        drifted = history(0.2, wrap=True)
        assert drifted == history(0.2, wrap=False)
        assert drifted != history(0.0, wrap=True)


class TestEngineFallbacks:
    def _bindings(self, parameters, offsets):
        return [
            {p: float(v) for p, v in zip(parameters, np.full(len(parameters), off))}
            for off in offsets
        ]

    def test_broken_pool_opens_breaker_then_recovers(self, workload):
        """Two pool crashes open the breaker; a half-open probe after
        the cooldown restores parallelism — all asserted through the
        state-machine counters on a manual clock, never sleeps."""
        _, parameters, _ = workload
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=30.0, clock=lambda: now["s"]
        )
        engine = _engine(workload, max_workers=2, breaker=breaker)

        class ExplodingPool:
            def dispatch_batch(self, vectors, shots, seeds):
                raise PoolBroken("worker died")

            def run_batch(self, vectors, shots, seeds):
                raise PoolBroken("worker died")

            def close(self):
                pass

        healthy_ensure_pool = engine._ensure_pool
        engine._ensure_pool = lambda: ExplodingPool()
        batch = self._bindings(parameters, [0.1, 0.2])
        values = engine.evaluate_many(batch, SHOTS)

        reference = _engine(workload, max_workers=1)
        assert values == reference.evaluate_many(batch, SHOTS)
        assert engine.stats.counter("pool_restarts").value == 1
        assert engine.stats.counter("pool_failures").value == 1
        assert engine.stats.counter("serial_evaluations").value == 2
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.counter("opens").value == 1

        # While open, dispatches bypass the (still broken) pool.
        engine.evaluate_many(self._bindings(parameters, [0.3]), SHOTS)
        assert engine.stats.counter("pool_failures").value == 1
        assert engine.stats.counter("serial_evaluations").value == 3

        # Cooldown elapses and the pool is healthy again: the next
        # batch probes half-open, succeeds and closes the breaker.
        engine._ensure_pool = healthy_ensure_pool
        now["s"] += breaker.cooldown_s
        recovered = engine.evaluate_many(batch, SHOTS)
        assert recovered == values  # content-derived seeds: bit-identical
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats.counter("probes").value == 1
        assert breaker.stats.counter("recoveries").value == 1
        assert engine.stats.counter("parallel_evaluations").value == 2
        engine.close()
        reference.close()

    def test_half_open_probe_failure_reopens(self, workload):
        _, parameters, _ = workload
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=10.0, clock=lambda: now["s"]
        )
        engine = _engine(workload, max_workers=2, breaker=breaker)

        class ExplodingPool:
            def dispatch_batch(self, vectors, shots, seeds):
                raise PoolBroken("worker died")

            def run_batch(self, vectors, shots, seeds):
                raise PoolBroken("worker died")

            def close(self):
                pass

        engine._ensure_pool = lambda: ExplodingPool()
        batch = self._bindings(parameters, [0.1])
        engine.evaluate_many(batch, SHOTS)
        assert breaker.state is BreakerState.OPEN

        # Still broken at probe time: the breaker re-opens right away
        # (one failed half-open attempt, no second retry).
        now["s"] += breaker.cooldown_s
        engine.evaluate_many(batch, SHOTS)
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.counter("probes").value == 1
        assert breaker.stats.counter("recoveries").value == 0
        assert breaker.stats.counter("opens").value == 2
        engine.close()

    def test_breaker_state_machine_unit(self):
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=5.0, clock=lambda: now["s"]
        )
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # below threshold
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()  # success reset the count: 2 consecutive
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow() is False  # cooldown not elapsed
        now["s"] += 5.0
        assert breaker.allow() is True  # half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats.counter("recoveries").value == 1

    def test_breaker_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=-1.0)

    def test_half_open_admits_exactly_one_probe(self):
        # Regression: the half-open window must be a single-probe gate.
        # Before the probe-in-flight latch, every caller arriving after
        # the cooldown saw open→half-open and slipped through together.
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=2.0, clock=lambda: now["s"]
        )
        breaker.record_failure()
        now["s"] += 2.0
        assert breaker.allow() is True  # the probe
        assert breaker.allow() is False  # everyone else, same instant
        assert breaker.allow() is False
        assert breaker.stats.counter("probes").value == 1
        assert breaker.stats.counter("probe_rejections").value == 2
        # Probe failure re-opens and restarts the cooldown in full.
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        now["s"] += 1.9
        assert breaker.allow() is False
        now["s"] += 0.1
        assert breaker.allow() is True  # fresh probe after full cooldown
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_single_probe_under_concurrency(self):
        import threading

        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=lambda: now["s"]
        )
        breaker.record_failure()
        now["s"] += 1.0
        admitted = []
        barrier = threading.Barrier(16)

        def contend():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=contend) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_abandoned_probe_times_out_and_slot_is_reissued(self):
        # Regression: a probe whose outcome is never reported (the
        # prober died, its connection was reaped) used to wedge the
        # breaker in half-open forever — allow() refused everyone while
        # waiting on a report that could no longer arrive.
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=2.0,
            clock=lambda: now["s"],
            probe_timeout_s=3.0,
        )
        breaker.record_failure()
        now["s"] += 2.0
        assert breaker.allow() is True  # probe taken... and never reported
        now["s"] += 2.9
        assert breaker.allow() is False  # within the probe timeout
        now["s"] += 0.1
        assert breaker.allow() is True  # abandoned probe slot reissued
        assert breaker.stats.counter("probe_timeouts").value == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_timeout_defaults_to_cooldown(self):
        breaker = CircuitBreaker(cooldown_s=7.5)
        assert breaker.probe_timeout_s == 7.5
        with pytest.raises(ValueError, match="probe_timeout_s"):
            CircuitBreaker(probe_timeout_s=-1.0)

    def test_reset_clears_state_and_pending_probe(self):
        now = {"s": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=lambda: now["s"]
        )
        breaker.record_failure()
        now["s"] += 5.0
        assert breaker.allow() is True  # probe in flight
        breaker.reset()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow() is True  # no stale probe latch survives
        assert breaker.stats.counter("resets").value == 1
        # A single failure below threshold stays closed post-reset.
        breaker2 = CircuitBreaker(failure_threshold=2, cooldown_s=5.0)
        breaker2.record_failure()
        breaker2.reset()
        breaker2.record_failure()
        assert breaker2.state is BreakerState.CLOSED

    def test_single_worker_never_spawns_a_pool(self, workload):
        _, parameters, _ = workload
        engine = _engine(workload, max_workers=1)
        engine.evaluate_many(self._bindings(parameters, [0.1, 0.2]), SHOTS)
        assert engine._pool is None

    def test_timing_only_platform_delegates(self, workload):
        ansatz, parameters, observable = workload
        platform = QtenonSystem(QUBITS, seed=SEED, timing_only=True)
        engine = EvaluationEngine(platform, max_workers=4)
        engine.prepare(ansatz, observable)
        value = engine.evaluate(self._bindings(parameters, [0.1])[0], SHOTS)
        assert isinstance(value, float)
        assert engine.stats.counter("delegated_evaluations").value == 1
        assert engine._pool is None

    def test_missing_parameter_raises(self, workload):
        _, parameters, _ = workload
        engine = _engine(workload, max_workers=1)
        with pytest.raises(KeyError, match="no value bound"):
            engine.evaluate({parameters[0]: 0.1}, SHOTS)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(QtenonSystem(QUBITS), max_workers=0)


class TestOptimizerBatchPath:
    @staticmethod
    def _cost(vector):
        return float(np.sum(np.cos(vector)))

    def _recording_many(self, batches):
        def evaluate_many(vectors):
            batches.append(len(vectors))
            return [self._cost(v) for v in vectors]

        return evaluate_many

    def test_gd_batch_matches_serial(self):
        params = np.linspace(-0.5, 0.5, 4)
        serial = GradientDescent().run_iteration(params, self._cost)
        batches = []
        batched = GradientDescent().run_iteration(
            params, self._cost, evaluate_many=self._recording_many(batches)
        )
        # 2P independent probes in one batch, then the post-step cost.
        assert batches == [2 * params.size, 1]
        np.testing.assert_array_equal(batched.params, serial.params)
        assert batched.cost == serial.cost
        assert batched.evaluations == 2 * params.size + 1

    def test_spsa_batch_matches_serial(self):
        params = np.linspace(-0.5, 0.5, 4)
        serial = Spsa(seed=4).run_iteration(params, self._cost)
        batches = []
        batched = Spsa(seed=4).run_iteration(
            params, self._cost, evaluate_many=self._recording_many(batches)
        )
        assert batches == [2, 1]
        np.testing.assert_array_equal(batched.params, serial.params)
        assert batched.cost == serial.cost

    def test_wrong_batch_length_rejected(self):
        with pytest.raises(ValueError, match="returned 0 results"):
            _evaluate_batch(self._cost, lambda vectors: [], [np.zeros(2)])

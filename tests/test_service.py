"""Tests for the multi-tenant job service (repro.service).

The load-bearing properties:

* **fairness** — deficit round robin keeps every backlogged tenant
  progressing under heavy load skew (bounded unfairness, pinned both
  by construction tests and a hypothesis property);
* **admission** — over-quota submissions produce structured
  rejections, never exception escapes or unbounded queues;
* **coalescing determinism** — a coalesced job's result is
  bit-identical to a direct ``HybridRunner`` run of the same spec;
* **failure semantics** — timeouts, retries-with-backoff and
  cooperative cancellation all settle jobs into the documented
  terminal states without wedging the service.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.analysis.breakdown import ExecutionReport
from repro.service import (
    AdmissionController,
    DeficitRoundRobin,
    JobService,
    JobSpec,
    JobState,
    RequestCoalescer,
    ServiceAPI,
    ServiceConfig,
    jain_index,
)
from repro.service.jobs import JobRecord, make_job_id
from repro.service.service import WORKLOADS
from repro.vqa import make_optimizer


# ----------------------------------------------------------------------
# fast fake platform (scheduling tests never simulate circuits)
# ----------------------------------------------------------------------
class FakePlatform:
    """Protocol-complete platform: constant energy, optional delay."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    def prepare(self, ansatz, observable) -> None:
        pass

    def evaluate(self, values, shots) -> float:
        if self.delay_s:
            time.sleep(self.delay_s)
        return -1.0

    def charge_optimizer_step(self, n_params, method) -> None:
        pass

    def finish(self) -> ExecutionReport:
        return ExecutionReport(platform="fake")


def fake_factory(delay_s: float = 0.0):
    return lambda spec: FakePlatform(delay_s=delay_s)


def spec_for(tenant_seed: int, **overrides) -> JobSpec:
    base = dict(
        workload="qaoa", n_qubits=4, optimizer="spsa", shots=40,
        iterations=1, seed=tenant_seed, platform="qtenon",
    )
    base.update(overrides)
    return JobSpec(**base)


def run_service(service: JobService, submissions):
    """Submit everything, drain, return the outcomes."""

    async def _run():
        outcomes = [service.submit(spec, tenant) for tenant, spec in submissions]
        await service.drain()
        return outcomes

    try:
        return asyncio.run(_run())
    finally:
        service.close()


# ----------------------------------------------------------------------
# deficit round robin
# ----------------------------------------------------------------------
class TestDeficitRoundRobin:
    def test_single_tenant_fifo(self):
        drr = DeficitRoundRobin(quantum=4.0)
        for i in range(5):
            drr.enqueue("a", i, 1.0)
        assert [drr.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]
        assert drr.pop() is None

    def test_equal_cost_tenants_alternate(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(3):
            drr.enqueue("a", f"a{i}", 1.0)
            drr.enqueue("b", f"b{i}", 1.0)
        order = [drr.pop()[0] for _ in range(6)]
        # One job per visit at quantum == cost: strict alternation.
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_costly_jobs_consume_proportional_turns(self):
        drr = DeficitRoundRobin(quantum=1.0)
        drr.enqueue("heavy", "H", 3.0)
        for i in range(3):
            drr.enqueue("light", f"L{i}", 1.0)
        served = [drr.pop()[1] for _ in range(4)]
        # The heavy job waits ~cost/quantum visits; light flows past it.
        assert served.index("H") == 2
        assert [s for s in served if s != "H"] == ["L0", "L1", "L2"]

    def test_idle_tenant_forfeits_deficit(self):
        drr = DeficitRoundRobin(quantum=10.0)
        drr.enqueue("a", "a0", 1.0)
        assert drr.pop()[1] == "a0"  # drains; banked deficit must die
        drr.enqueue("a", "a1", 1.0)
        drr.enqueue("b", "b0", 1.0)
        drr.pop()
        assert drr._deficits["a"] < 10.0  # no 9-point hoard survived

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=0)
        with pytest.raises(ValueError):
            DeficitRoundRobin().enqueue("a", "x", 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=0.5, max_value=8.0),
            ),
            min_size=1,
            max_size=60,
        ),
        quantum=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_bounded_unfairness_invariant(self, jobs, quantum):
        """While two tenants stay backlogged, served cost stays close.

        DRR's service guarantee: each completed visit grants
        ``quantum`` ± one deficit carry (< max job cost), and ring
        order keeps visit counts within one of each other — so the
        cumulative served-cost gap between continuously backlogged
        tenants is bounded by ``2*quantum + 3*max_cost``, independent
        of how many jobs have been served.
        """
        drr = DeficitRoundRobin(quantum=quantum)
        total = {}
        queued = {}  # each tenant's backlog, from our enqueues and pops
        max_cost = max(cost for _, cost in jobs)
        for tenant, cost in jobs:
            drr.enqueue(tenant, object(), cost)
            total[tenant] = total.get(tenant, 0.0) + cost
            queued[tenant] = queued.get(tenant, 0) + 1
        bound = 2.0 * quantum + 3.0 * max_cost
        served = {tenant: 0.0 for tenant in total}
        while True:
            popped = drr.pop()
            if popped is None:
                break
            tenant, _item, cost = popped
            served[tenant] += cost
            queued[tenant] -= 1
            assert queued[tenant] >= 0 and sum(queued.values()) == len(drr)
            backlogged = [t for t in total if queued[t] > 0]
            for i, t1 in enumerate(backlogged):
                for t2 in backlogged[i + 1:]:
                    assert abs(served[t1] - served[t2]) <= bound
        # Work conservation: everything enqueued was served exactly once.
        assert served == pytest.approx(total)
        assert drr.fairness_snapshot() == pytest.approx(total)

    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([]) == 1.0


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_tenant_quota_rejects_with_reason(self):
        controller = AdmissionController(max_open_jobs=10, tenant_quota=2)
        assert controller.try_admit("a") is None
        assert controller.try_admit("a") is None
        rejection = controller.try_admit("a")
        assert rejection is not None
        assert rejection.code == "tenant_quota"
        assert rejection.limit == 2 and rejection.current == 2
        assert "a" in rejection.message
        # Another tenant is unaffected by a's quota exhaustion.
        assert controller.try_admit("b") is None

    def test_global_bound_rejects_queue_full(self):
        controller = AdmissionController(max_open_jobs=2, tenant_quota=10)
        controller.try_admit("a")
        controller.try_admit("b")
        rejection = controller.try_admit("c")
        assert rejection.code == "queue_full"
        assert rejection.limit == 2

    def test_release_frees_slots(self):
        controller = AdmissionController(max_open_jobs=1, tenant_quota=1)
        assert controller.try_admit("a") is None
        assert controller.try_admit("a").code is not None
        controller.release("a")
        assert controller.try_admit("a") is None

    def test_release_without_admit_is_a_bug(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release("ghost")


# ----------------------------------------------------------------------
# coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def _record(self, seq, spec):
        return JobRecord(job_id=make_job_id(seq, spec), tenant="t", spec=spec)

    def test_singleflight_attach_and_settle(self):
        coalescer = RequestCoalescer()
        spec = spec_for(0)
        primary = self._record(1, spec)
        follower = self._record(2, spec)
        assert coalescer.attach(primary) is None
        assert coalescer.attach(follower) is primary
        assert follower.coalesced_with == primary.job_id
        assert coalescer.settle(primary) == [follower]
        # Settled digest starts a fresh flight.
        assert coalescer.attach(self._record(3, spec)) is None

    def test_different_digests_do_not_coalesce(self):
        coalescer = RequestCoalescer()
        first = self._record(1, spec_for(0))
        second = self._record(2, spec_for(1))
        assert coalescer.attach(first) is None
        assert coalescer.attach(second) is None
        # Two separate flights: a repeat of each joins its own primary.
        repeat_first = self._record(3, spec_for(0))
        repeat_second = self._record(4, spec_for(1))
        assert coalescer.attach(repeat_first) is first
        assert coalescer.attach(repeat_second) is second
        assert coalescer.settle(first) == [repeat_first]
        assert coalescer.settle(second) == [repeat_second]


# ----------------------------------------------------------------------
# service end-to-end (fake platforms)
# ----------------------------------------------------------------------
class TestServiceLifecycle:
    def test_jobs_complete_and_count(self):
        service = JobService(
            ServiceConfig(workers=2, cache_entries=0),
            platform_factory=fake_factory(),
        )
        outcomes = run_service(
            service, [("a", spec_for(i)) for i in range(4)]
        )
        assert all(outcome.accepted for outcome in outcomes)
        for outcome in outcomes:
            assert service.status(outcome.job_id).state is JobState.DONE
        snapshot = service.metrics_snapshot()
        assert snapshot["service"]["service.jobs_done"] == 4
        assert snapshot["jobs_by_state"] == {"done": 4}
        assert snapshot["latency_s"]["count"] == 4

    def test_over_quota_is_structured_rejection_not_exception(self):
        service = JobService(
            ServiceConfig(workers=1, tenant_quota=2, cache_entries=0),
            platform_factory=fake_factory(),
        )
        outcomes = run_service(
            service, [("hog", spec_for(i)) for i in range(5)]
        )
        accepted = [o for o in outcomes if o.accepted]
        rejected = [o for o in outcomes if not o.accepted]
        assert len(accepted) == 2 and len(rejected) == 3
        for outcome in rejected:
            assert outcome.rejection.code == "tenant_quota"
            assert outcome.rejection.tenant == "hog"
        assert service.metrics_snapshot()["service"]["service.rejected"] == 3

    def test_queue_full_rejection(self):
        service = JobService(
            ServiceConfig(workers=1, max_open_jobs=3, cache_entries=0),
            platform_factory=fake_factory(),
        )
        outcomes = run_service(
            service,
            [(f"t{i}", spec_for(i)) for i in range(6)],
        )
        codes = [o.rejection.code for o in outcomes if not o.accepted]
        assert codes == ["queue_full"] * 3

    def test_fairness_under_10x_load_skew(self):
        """Every tenant progresses even against a 10x heavier tenant."""
        # quantum == job cost (spsa: 3 evals) => one job per visit.
        service = JobService(
            ServiceConfig(workers=1, quantum=3.0, tenant_quota=64, cache_entries=0),
            platform_factory=fake_factory(),
        )
        submissions = [("hog", spec_for(i)) for i in range(20)]
        submissions += [("mouse", spec_for(100 + i)) for i in range(2)]
        outcomes = run_service(service, submissions)
        assert all(outcome.accepted for outcome in outcomes)
        finished = sorted(
            service.records.values(), key=lambda record: record.finished_s
        )
        order = [record.tenant for record in finished]
        # DRR interleaves: both mouse jobs are served among the first
        # few completions instead of waiting behind 20 hog jobs.
        assert set(order[:4]) == {"hog", "mouse"}
        assert order.index("mouse") <= 2
        assert order[:5].count("mouse") == 2
        served = service.scheduler.fairness_snapshot()
        assert served["mouse"] == pytest.approx(2 * 3.0)
        assert served["hog"] == pytest.approx(20 * 3.0)

    def test_retry_with_backoff_then_success(self):
        failures = {"left": 1}

        def flaky_factory(spec):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("platform pool hiccup")
            return FakePlatform()

        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=3, retry_backoff_s=0.0, cache_entries=0
            ),
            platform_factory=flaky_factory,
        )
        (outcome,) = run_service(service, [("a", spec_for(0))])
        record = service.status(outcome.job_id)
        assert record.state is JobState.DONE
        assert record.attempts == 2
        assert service.metrics_snapshot()["service"]["service.retries"] == 1

    def test_retries_exhausted_fails_with_error(self):
        def broken_factory(spec):
            raise RuntimeError("platform pool is on fire")

        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=2, retry_backoff_s=0.0, cache_entries=0
            ),
            platform_factory=broken_factory,
        )
        (outcome,) = run_service(service, [("a", spec_for(0))])
        record = service.status(outcome.job_id)
        assert record.state is JobState.FAILED
        assert record.attempts == 2
        assert "on fire" in record.error

    def test_timeout_mid_run(self):
        slow = spec_for(0, optimizer="gd", iterations=3)  # many evaluations
        fast_service_check = spec_for(1)
        service = JobService(
            ServiceConfig(
                workers=1, job_timeout_s=0.05, max_attempts=1, cache_entries=0
            ),
            platform_factory=lambda spec: FakePlatform(
                delay_s=0.02 if spec.digest == slow.digest else 0.0
            ),
        )
        outcomes = run_service(
            service, [("a", slow), ("b", fast_service_check)]
        )
        slow_record = service.status(outcomes[0].job_id)
        assert slow_record.state is JobState.TIMED_OUT
        assert "deadline" in slow_record.error
        # The service survives a timeout: the next job still runs.
        assert service.status(outcomes[1].job_id).state is JobState.DONE

    def test_unknown_job_ids(self):
        service = JobService(ServiceConfig(), platform_factory=fake_factory())
        assert service.status("job-999999-deadbeef") is None
        assert service.result("job-999999-deadbeef") is None


class TestCoalescingInService:
    def test_duplicate_submissions_execute_once(self):
        calls = []

        def counting_factory(spec):
            calls.append(spec.digest)
            return FakePlatform()

        service = JobService(
            ServiceConfig(workers=1, cache_entries=0),
            platform_factory=counting_factory,
        )
        same = spec_for(7)
        outcomes = run_service(
            service, [("a", same), ("b", same), ("c", same), ("d", spec_for(8))]
        )
        assert len(calls) == 2  # one flight for the triplicate, one for d
        states = [service.status(o.job_id).state for o in outcomes]
        assert states == [JobState.DONE] * 4
        followers = [
            service.status(o.job_id)
            for o in outcomes
            if service.status(o.job_id).coalesced_with
        ]
        assert len(followers) == 2
        snapshot = service.metrics_snapshot()
        assert snapshot["service"]["service.coalesced"] == 2
        assert snapshot["coalescer"]["coalescer.coalesced_jobs"] == 2

    def test_failure_propagates_to_followers(self):
        def broken_factory(spec):
            raise RuntimeError("boom")

        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=1, retry_backoff_s=0.0, cache_entries=0
            ),
            platform_factory=broken_factory,
        )
        same = spec_for(3)
        outcomes = run_service(service, [("a", same), ("b", same)])
        for outcome in outcomes:
            record = service.status(outcome.job_id)
            assert record.state is JobState.FAILED
            assert "boom" in record.error

    def test_timeout_propagates_to_followers(self):
        service = JobService(
            ServiceConfig(
                workers=1, job_timeout_s=0.05, max_attempts=1, cache_entries=0
            ),
            platform_factory=lambda spec: FakePlatform(delay_s=0.02),
        )
        same = spec_for(3, optimizer="gd", iterations=3)
        outcomes = run_service(service, [("a", same), ("b", same)])
        primary, follower = (service.status(o.job_id) for o in outcomes)
        assert follower.coalesced_with == primary.job_id
        for record in (primary, follower):
            assert record.state is JobState.TIMED_OUT
            assert "deadline" in record.error
        assert service.metrics_snapshot()["service"]["service.timeouts"] == 1


# ----------------------------------------------------------------------
# determinism against direct HybridRunner execution (real platforms)
# ----------------------------------------------------------------------
class TestServiceDeterminism:
    SPEC = JobSpec(
        workload="vqe", n_qubits=3, optimizer="gd", shots=60,
        iterations=1, seed=11, platform="qtenon",
    )

    def _direct_run(self):
        workload = WORKLOADS[self.SPEC.workload](self.SPEC.n_qubits)
        engine = EvaluationEngine(
            QtenonSystem(self.SPEC.n_qubits, seed=self.SPEC.seed),
            max_workers=1,
            seed=self.SPEC.seed,
        )
        runner = HybridRunner(
            engine,
            workload.ansatz,
            workload.parameters,
            workload.observable,
            make_optimizer(self.SPEC.optimizer, seed=self.SPEC.seed),
            shots=self.SPEC.shots,
            iterations=self.SPEC.iterations,
        )
        return runner.run(seed=self.SPEC.seed)

    def test_coalesced_results_bit_identical_to_direct(self):
        service = JobService(ServiceConfig(workers=2, cache_entries=2048))
        outcomes = run_service(
            service, [("a", self.SPEC), ("b", self.SPEC), ("c", self.SPEC)]
        )
        direct = self._direct_run()
        for outcome in outcomes:
            result = service.result(outcome.job_id)
            assert result.cost_history == direct.cost_history
            assert result.final_cost == direct.final_cost
            np.testing.assert_array_equal(result.final_params, direct.final_params)
        # The duplicate traffic cost one execution.
        assert service.metrics_snapshot()["service"]["service.coalesced"] == 2

    def test_sequential_duplicates_hit_the_shared_cache(self):
        """A re-submission after the first flight lands in the cache."""
        service = JobService(ServiceConfig(workers=1, cache_entries=2048))
        first = run_service(service, [("a", self.SPEC)])
        # New service run, same instance: second flight of the digest.
        second_outcome = service.submit(self.SPEC, "b")
        asyncio.run(service.drain())
        service.close()
        direct = self._direct_run()
        for outcome in (first[0], second_outcome):
            result = service.result(outcome.job_id)
            assert result.cost_history == direct.cost_history
        assert service.cache.hits > 0
        snapshot = service.metrics_snapshot()
        assert snapshot["eval_cache"]["eval_cache.hits"] == float(service.cache.hits)
        assert snapshot["eval_cache"]["eval_cache.hit_rate"] > 0.0


# ----------------------------------------------------------------------
# api facade
# ----------------------------------------------------------------------
class TestServiceAPI:
    def test_run_batch_and_payloads(self, tmp_path):
        api = ServiceAPI(ServiceConfig(workers=1, tenant_quota=2, cache_entries=0))
        api.service._platform_factory = fake_factory()
        specs = [("a", spec_for(i)) for i in range(3)]
        batch = api.run_batch(specs)
        assert batch.accepted == 2 and batch.rejected == 1
        payload = api.status(batch.outcomes[0].job_id)
        assert payload["state"] == "done"
        assert payload["tenant"] == "a"
        assert payload["digest"] == specs[0][1].digest
        assert api.status("nope") is None
        assert batch.metrics["jobs_by_state"] == {"done": 2}
        trace_path = tmp_path / "service_trace.json"
        api.export_trace(str(trace_path))
        assert "traceEvents" in trace_path.read_text()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown workload"):
            JobSpec(workload="grover")
        with pytest.raises(ValueError, match="shots"):
            JobSpec(shots=-1)
        with pytest.raises(ValueError, match="unknown platform"):
            JobSpec(platform="ibm")
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError, match="cache_entries"):
            ServiceConfig(cache_entries=-1)
        with pytest.raises(ValueError, match="job_timeout_s"):
            ServiceConfig(job_timeout_s=0.0)

    def test_job_spec_roundtrip_and_digest(self):
        spec = spec_for(5, workload="vqe", optimizer="gd")
        clone = JobSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.digest == spec.digest
        assert spec_for(6).digest != spec.digest
        job_id = make_job_id(12, spec)
        assert job_id == f"job-000012-{spec.digest[:8]}"


# ----------------------------------------------------------------------
# strict untrusted-payload parsing (the cluster wire / job-file shape)
# ----------------------------------------------------------------------
class TestJobSpecStrictParsing:
    def test_unknown_keys_rejected_by_name(self):
        payload = spec_for(0).as_dict()
        payload["sohts"] = 64  # the typo strictness exists to catch
        with pytest.raises(ValueError, match=r"unknown job-spec keys.*sohts"):
            JobSpec.from_dict(payload)

    def test_non_dict_payload_rejected(self):
        for bogus in (None, 7, "qaoa", [("workload", "qaoa")]):
            with pytest.raises(ValueError, match="JSON object"):
                JobSpec.from_dict(bogus)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("qubits", "4"),      # numeric string is a type lie
            ("qubits", 4.0),      # so is a float
            ("shots", True),      # bool is an int subclass; still refused
            ("workload", 3),
            ("seed", None),
        ],
    )
    def test_uncoercible_values_rejected_by_key(self, key, value):
        payload = spec_for(0).as_dict()
        payload[key] = value
        with pytest.raises(ValueError, match=f"job-spec key '{key}'"):
            JobSpec.from_dict(payload)

    def test_out_of_range_values_surface_as_invalid_spec(self):
        payload = spec_for(0).as_dict()
        payload["shots"] = -5
        with pytest.raises(ValueError, match="invalid job spec"):
            JobSpec.from_dict(payload)

    def test_missing_keys_fall_back_to_defaults(self):
        spec = JobSpec.from_dict({"workload": "qaoa", "qubits": 4})
        assert spec.workload == "qaoa"
        assert spec.n_qubits == 4
        assert spec.shots == JobSpec().shots


# ----------------------------------------------------------------------
# backend health registry + breaker interplay
# ----------------------------------------------------------------------
class TestHealthRegistry:
    def test_concurrent_failure_bursts_lose_no_counts(self):
        from repro.service.health import HealthRegistry

        registry = HealthRegistry()
        barrier = threading.Barrier(8)

        def hammer(index):
            # Half the threads race backend() creation on a fresh name,
            # all race the recording lock on the shared tracker.
            barrier.wait()
            backend = registry.backend("qtenon")
            for _ in range(250):
                if index % 2:
                    backend.record_failure("burst")
                else:
                    backend.record_success()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.backend("qtenon").snapshot()
        assert snapshot["attempts"] == 8 * 250
        assert snapshot["failures"] == 4 * 250
        assert snapshot["successes"] == 4 * 250

    def test_recovery_after_unhealthy(self):
        from repro.service.health import HealthRegistry

        registry = HealthRegistry(unhealthy_after=2)
        backend = registry.backend("baseline")
        backend.record_failure("one")
        assert backend.healthy
        backend.record_failure("two")
        assert not backend.healthy
        backend.record_success()  # one success clears the streak
        assert backend.healthy
        assert backend.consecutive_failures == 0
        assert backend.failures == 2  # history is not erased

    def test_snapshot_is_deterministic_and_sorted(self):
        from repro.service.health import HealthRegistry

        registry = HealthRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.backend(name).record_success()
        first = registry.snapshot()
        assert list(first) == ["alpha", "mid", "zeta"]
        assert first == registry.snapshot()

    def test_unhealthy_node_gates_routing_while_breaker_still_closed(self):
        # Interplay: health (consecutive-failure streak) and the breaker
        # (failure_threshold) guard routing independently — a node can
        # be unhealthy long before its breaker trips, and must stop
        # receiving dispatches either way.
        from repro.cluster import ClusterConfig, ClusterMaster, ManualClock
        from repro.cluster.hashring import rank_nodes
        from repro.runtime.breaker import BreakerState

        master = ClusterMaster(
            ClusterConfig(breaker_failure_threshold=10),
            clock=ManualClock(),
        )
        master.register_node("node-0", 1)
        master.register_node("node-1", 1)
        spec = spec_for(0)
        [preferred, fallback] = rank_nodes(spec.digest, ["node-0", "node-1"])
        for index in range(3):  # DEFAULT_UNHEALTHY_AFTER
            master.health.backend(preferred).record_failure(f"fail {index}")
        assert master.nodes[preferred].breaker.state is BreakerState.CLOSED
        master.submit(spec, "alice")
        [(node_id, _)] = master.tick()
        assert node_id == fallback

    def test_validation(self):
        from repro.service.health import HealthRegistry

        with pytest.raises(ValueError, match="unhealthy_after"):
            HealthRegistry(unhealthy_after=0)


# ----------------------------------------------------------------------
# resilience: capped-jitter backoff, backend health, fault injection
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_backoff_cap_validation(self):
        with pytest.raises(ValueError, match="retry_backoff_max_s"):
            ServiceConfig(retry_backoff_max_s=-0.1)
        with pytest.raises(ValueError, match="must not be below"):
            ServiceConfig(retry_backoff_s=0.5, retry_backoff_max_s=0.1)

    def test_backoff_delay_capped_jittered_deterministic(self):
        service = JobService(
            ServiceConfig(retry_backoff_s=0.05, retry_backoff_max_s=0.2),
            platform_factory=fake_factory(),
        )
        try:
            for attempt in range(6):
                delay = service._backoff_delay("job-000001-deadbeef", attempt)
                ceiling = min(0.2, 0.05 * 2.0 ** attempt)
                assert 0.0 <= delay <= ceiling
                # Same (job, attempt) always draws the same delay.
                assert delay == service._backoff_delay(
                    "job-000001-deadbeef", attempt
                )
            # Different jobs decorrelate (full jitter).
            a = [service._backoff_delay("job-000001-deadbeef", n) for n in range(4)]
            b = [service._backoff_delay("job-000002-cafebabe", n) for n in range(4)]
            assert a != b
            # The cluster master's redispatch backoff is the same draw.
            from repro.cluster import ClusterConfig, ClusterMaster

            master = ClusterMaster(
                ClusterConfig(redispatch_backoff_s=0.05, redispatch_backoff_max_s=0.2)
            )
            for job_id in ("job-000001-deadbeef", "job-000002-cafebabe"):
                for attempt in range(6):
                    assert master._backoff_delay(job_id, attempt) == (
                        service._backoff_delay(job_id, attempt)
                    )
        finally:
            service.close()

    def test_zero_backoff_means_no_delay(self):
        service = JobService(
            ServiceConfig(retry_backoff_s=0.0, retry_backoff_max_s=0.0),
            platform_factory=fake_factory(),
        )
        try:
            assert service._backoff_delay("job-000001-deadbeef", 3) == 0.0
        finally:
            service.close()

    def test_deadline_without_cancel_still_times_out(self):
        slow = spec_for(0, optimizer="gd", iterations=3)
        service = JobService(
            ServiceConfig(
                workers=1, job_timeout_s=0.05, max_attempts=1, cache_entries=0
            ),
            platform_factory=lambda spec: FakePlatform(delay_s=0.02),
        )
        (outcome,) = run_service(service, [("a", slow)])
        assert service.status(outcome.job_id).state is JobState.TIMED_OUT

    def test_backend_health_tracks_outcomes(self):
        calls = {"n": 0}

        def flaky_factory(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first dispatch dies")
            return FakePlatform()

        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=2, retry_backoff_s=0.0,
                retry_backoff_max_s=0.0, cache_entries=0,
            ),
            platform_factory=flaky_factory,
        )
        (outcome,) = run_service(service, [("a", spec_for(0))])
        assert service.status(outcome.job_id).state is JobState.DONE
        backends = service.metrics_snapshot()["backends"]
        health = backends["qtenon"]
        assert health["attempts"] == 2
        assert health["failures"] == 1
        assert health["successes"] == 1
        assert health["failure_rate"] == pytest.approx(0.5)
        assert health["healthy"] is True
        assert "first dispatch dies" in health["last_error"]

    def test_unhealthy_after_consecutive_failures(self):
        def broken_factory(spec):
            raise RuntimeError("platform pool is on fire")

        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=3, retry_backoff_s=0.0,
                retry_backoff_max_s=0.0, cache_entries=0,
            ),
            platform_factory=broken_factory,
        )
        (outcome,) = run_service(service, [("a", spec_for(0))])
        assert service.status(outcome.job_id).state is JobState.FAILED
        health = service.metrics_snapshot()["backends"]["qtenon"]
        assert health["consecutive_failures"] == 3
        assert health["healthy"] is False

    def test_injected_worker_crash_recovered_by_retry(self):
        from repro.faults import FaultInjector, FaultPlan, WorkerFaults

        injector = FaultInjector(
            FaultPlan(seed=0, worker=WorkerFaults(crash_burst=1))
        )
        service = JobService(
            ServiceConfig(
                workers=1, max_attempts=2, retry_backoff_s=0.0,
                retry_backoff_max_s=0.0, cache_entries=0,
            ),
            platform_factory=fake_factory(),
            fault_injector=injector,
        )
        (outcome,) = run_service(service, [("a", spec_for(0))])
        record = service.status(outcome.job_id)
        assert record.state is JobState.DONE
        assert record.attempts == 2  # crash absorbed by one retry
        assert injector.stats.counter("worker_crashes").value == 1

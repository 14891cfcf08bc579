"""Tests for the unified telemetry layer (repro.telemetry)."""

import json

import pytest

from repro.service.jobs import JobRecord, JobSpec
from repro.service.service import JobService, ServiceConfig
from repro.service.api import ServiceAPI
from repro.sim.stats import StatGroup
from repro.telemetry import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    StepClock,
    TraceGroup,
    TraceSpan,
    Tracer,
    make_trace_id,
    merged_chrome_trace,
    metric_key,
    nearest_rank_quantile,
    parse_prometheus_text,
    prometheus_name,
    register_stat_group,
    to_prometheus_text,
)
from repro.telemetry.tracing import BUILTIN_TRACKS


# ----------------------------------------------------------------------
# quantiles
# ----------------------------------------------------------------------
class TestNearestRankQuantile:
    def test_median_of_five_is_third_element(self):
        # The old round(q*n)-1 rank used banker's rounding: round(2.5)
        # == 2 picked the 2nd element.  Ceil-based nearest rank picks
        # the 3rd — the actual median.
        assert nearest_rank_quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_issue_example(self):
        assert nearest_rank_quantile([1, 2], 0.5) == 1.0

    def test_extremes(self):
        values = [10.0, 20.0, 30.0]
        assert nearest_rank_quantile(values, 0.0) == 10.0
        assert nearest_rank_quantile(values, 1.0) == 30.0

    def test_empty_is_zero(self):
        assert nearest_rank_quantile([], 0.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], -0.1)

    def test_service_quantile_delegates(self):
        # The service's metrics snapshot reuses the fixed quantile.
        service = JobService(ServiceConfig(workers=1, cache_entries=0))
        assert service.metrics_snapshot()["latency_s"]["p50"] == 0.0
        for i in range(5):
            service.records[f"job-{i}"] = JobRecord(
                job_id=f"job-{i}",
                tenant="t",
                spec=JobSpec(),
                submitted_s=0.0,
                finished_s=float(i + 1),
            )
        assert service.metrics_snapshot()["latency_s"]["p50"] == 3.0


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotone_integral(self):
        counter = Counter("service.jobs")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(TypeError):
            counter.inc(True)
        with pytest.raises(TypeError):
            counter.inc(1.5)

    def test_gauge_finite(self):
        gauge = Gauge("service.backlog")
        gauge.set(3.5)
        gauge.inc(0.5)
        assert gauge.value == 4.0
        with pytest.raises(ValueError):
            gauge.set(float("nan"))

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram("latency", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 3.0, 10.0):
            hist.observe(value)
        # le semantics: 1.0 lands in the le=1.0 bucket.
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.0)
        assert hist.quantile(0.5) == 1.5  # exact, not bucket-edge
        assert hist.percentiles()["p99"] == 10.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, float("inf")))

    def test_histogram_rejects_non_finite_samples(self):
        hist = Histogram("x", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        assert hist.count == 0


class TestRegistry:
    def test_get_or_create_same_kind_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("service.jobs.settled")
        b = registry.counter("service.jobs.settled")
        assert a is b

    def test_name_uniqueness_litmus(self):
        # The registry's core contract: one name, one kind, forever.
        registry = MetricsRegistry()
        registry.counter("runtime.evaluations")
        with pytest.raises(TypeError):
            registry.gauge("runtime.evaluations")
        with pytest.raises(TypeError):
            registry.histogram("runtime.evaluations")
        registry.histogram("service.latency", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("service.latency", buckets=(1.0, 3.0))

    def test_rejects_invalid_names(self):
        registry = MetricsRegistry()
        for bad in ("", "Upper.case", "1leading", "trailing.", "a..b", "a-b"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_collectors_merge_and_sum(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"runtime.evaluations": 3.0})
        registry.register_collector(lambda: {"runtime.evaluations": 4.0})
        assert registry.collect_external() == {"runtime.evaluations": 7.0}
        assert registry.names() == ["runtime.evaluations"]

    def test_snapshot_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        registry.register_collector(lambda: {"a.b": 1.0})
        with pytest.raises(ValueError):
            registry.snapshot()

    def test_register_stat_group(self):
        registry = MetricsRegistry()
        group = StatGroup("engine")
        group.counter("hits").increment(3)
        register_stat_group(registry, group, prefix="runtime")
        assert registry.collect_external() == {"runtime.engine.hits": 3.0}

    def test_metric_key_sanitises(self):
        assert metric_key("engine.Hits-Total") == "engine.hits_total"
        assert metric_key("tenant-0", "scheduler") == "scheduler.tenant_0"


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs.done").inc(3)
        registry.gauge("service.backlog").set(2.0)
        hist = registry.histogram("service.latency_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        registry.register_collector(lambda: {"runtime.evaluations": 12.0})
        return registry

    def test_round_trip(self):
        registry = self._registry()
        families = parse_prometheus_text(to_prometheus_text(registry))
        assert families["repro_service_jobs_done_total"]["type"] == "counter"
        assert families["repro_service_backlog"]["type"] == "gauge"
        hist = families["repro_service_latency_s"]
        assert hist["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        ]
        assert buckets == [("0.1", 1.0), ("1.0", 2.0), ("+Inf", 3.0)]
        assert families["repro_runtime_evaluations"]["type"] == "gauge"

    def test_prometheus_name(self):
        assert prometheus_name("service.jobs.done", "repro") == (
            "repro_service_jobs_done"
        )

    def test_parser_rejects_untyped_samples(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x 1\n")

    def test_parser_rejects_bad_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="+Inf"} 3\n'  # decreasing
            "h_sum 1\nh_count 3\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 4\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_export_is_deterministic(self):
        assert to_prometheus_text(self._registry()) == to_prometheus_text(
            self._registry()
        )


class TestEventLog:
    def test_keeps_every_nth(self):
        log = EventLog(sample_every=3)
        kept = [log.emit("tick", i=i) for i in range(7)]
        assert kept == [True, False, False, True, False, False, True]
        assert [event["seq"] for event in log.events] == [0, 3, 6]
        assert log.seen == 7 and log.sampled == 3

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("job_settled", job_id="j1", state="done")
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "job_settled"

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            EventLog(sample_every=0)
        with pytest.raises(TypeError):
            EventLog(sample_every=True)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_trace_id_deterministic(self):
        assert make_trace_id("job-1") == make_trace_id("job-1")
        assert make_trace_id("job-1") != make_trace_id("job-2")
        assert len(make_trace_id("job-1")) == 16

    def test_span_ids_sequential_under_trace_id(self):
        tracer = Tracer(make_trace_id("job-1"))
        assert tracer.root_span_id.endswith(":0000")
        first = tracer.record("evaluation", "e0", 0, 10)
        second = tracer.record("evaluation", "e1", 10, 20)
        assert first.endswith(":0001") and second.endswith(":0002")
        # children default to the root span
        assert all(s.parent_id == tracer.root_span_id for s in tracer.spans)

    def test_adopt_parents_to_narrowest_enclosing_span(self):
        tracer = Tracer("t" * 16)
        outer_id = tracer.record("evaluation", "outer", 0, 100)
        inner_id = tracer.record("evaluation", "inner", 10, 50)
        spans = {s.span_id: s for s in tracer.spans}
        recorder = Tracer()
        recorder.record("quantum", "shot", 20, 30)  # inside both
        recorder.record("bus", "put", 60, 90)  # inside outer only
        recorder.record("host", "late", 200, 300)  # inside neither
        adopted = tracer.adopt(
            recorder, parents=[spans[outer_id], spans[inner_id]]
        )
        assert adopted == 3
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["shot"].parent_id == inner_id
        assert by_name["put"].parent_id == outer_id
        assert by_name["late"].parent_id == tracer.root_span_id

    def test_merged_trace_layout(self):
        tracer = Tracer(make_trace_id("job-1"))
        tracer.record("evaluation", "e0", 0, 10)
        root = TraceSpan(
            trace_id=tracer.trace_id,
            span_id=tracer.root_span_id,
            parent_id=None,
            track="alice",
            name="job-1",
            start_ps=1000,
            end_ps=5000,
        )
        doc = json.loads(
            merged_chrome_trace(
                [
                    TraceGroup(1, "service", [root]),
                    TraceGroup(2, "job job-1", list(tracer.spans), 1000),
                ]
            )
        )
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {1, 2}
        job_span = next(e for e in spans if e["pid"] == 2)
        # offset by the job's wall start and linked by trace/span ids
        assert job_span["ts"] == pytest.approx(1000 / 1e6)
        assert job_span["args"]["trace_id"] == tracer.trace_id
        assert job_span["args"]["parent_id"] == tracer.root_span_id
        names = {
            (e["pid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (1, "alice") in names and (2, "evaluation") in names


# ----------------------------------------------------------------------
# end-to-end determinism through the job service
# ----------------------------------------------------------------------
def _seeded_run():
    registry = MetricsRegistry()
    events = EventLog(sample_every=2)
    service = JobService(
        ServiceConfig(workers=1, sim_trace=True),
        clock=StepClock(),
        telemetry=registry,
        events=events,
    )
    api = ServiceAPI(service=service)
    submissions = [
        (
            f"tenant{i % 2}",
            JobSpec(
                workload="qaoa", n_qubits=4, shots=32, iterations=1, seed=i // 2
            ),
        )
        for i in range(4)
    ]
    batch = api.run_batch(submissions)
    return registry, events, service, batch


class TestServiceTelemetry:
    def test_two_seeded_runs_export_identical_bytes(self):
        reg_a, log_a, svc_a, _ = _seeded_run()
        reg_b, log_b, svc_b, _ = _seeded_run()
        assert to_prometheus_text(reg_a) == to_prometheus_text(reg_b)
        assert svc_a.merged_chrome_trace() == svc_b.merged_chrome_trace()
        assert log_a.to_jsonl() == log_b.to_jsonl()

    def test_merged_trace_threads_job_to_sim_phases(self):
        _registry, _events, service, batch = _seeded_run()
        assert batch.accepted == 4
        doc = json.loads(service.merged_chrome_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        roots = {
            e["args"]["trace_id"]: e["args"]["span_id"]
            for e in spans
            if e["pid"] == 1
        }
        job_spans = [e for e in spans if e["pid"] != 1]
        assert job_spans, "sim_trace=True must produce per-job processes"
        # every sim/evaluation span belongs to a service job's trace
        assert all(e["args"]["trace_id"] in roots for e in job_spans)
        by_id = {e["args"]["span_id"]: e for e in spans}
        evaluation = [e for e in job_spans if e["cat"] == "evaluation"]
        assert evaluation
        # evaluation spans parent to the job root; sim phases parent to
        # an evaluation span (or the root for prepare-time phases)
        assert all(
            e["args"]["parent_id"] == roots[e["args"]["trace_id"]]
            for e in evaluation
        )
        sim_phases = [
            e
            for e in job_spans
            if e["cat"] in BUILTIN_TRACKS
            and by_id.get(e["args"].get("parent_id"), {}).get("cat")
            == "evaluation"
        ]
        assert sim_phases, "sim-phase spans must descend from evaluations"

    def test_registry_carries_breakdown_and_latency_metrics(self):
        registry, _events, _service, _batch = _seeded_run()
        names = set(registry.names())
        for category in ("quantum", "pulse_gen", "host_compute", "comm"):
            assert f"service.sim.{category}_ps" in names
        assert "service.job.latency_s" in names
        assert "service.job.sim_end_to_end_ps" in names
        hist = registry.histogram("service.job.latency_s")
        assert hist.count == 4  # one observation per settled job

    def test_prometheus_export_parses(self):
        registry, _events, _service, _batch = _seeded_run()
        families = parse_prometheus_text(to_prometheus_text(registry))
        assert "repro_service_job_latency_s" in families

    def test_planner_and_stabilizer_metrics_round_trip(self):
        """register_service pulls the process-wide planner/stabilizer
        counters in; they must survive the Prometheus round trip."""
        registry, _events, _service, _batch = _seeded_run()
        families = parse_prometheus_text(to_prometheus_text(registry))
        for name in (
            "repro_planner_decisions",
            "repro_planner_forced",
            "repro_stabilizer_tableau_runs",
            "repro_stabilizer_shots_sampled",
        ):
            assert name in families, name

    def test_planner_collectors_not_double_registered(self):
        """One registry hosting both an engine and a service must count
        the global planner/stabilizer groups exactly once."""
        from repro.planner import PLANNER_STATS
        from repro.telemetry import register_planner

        registry = MetricsRegistry()
        register_planner(registry)
        register_planner(registry)
        value = PLANNER_STATS.counter("decisions").value
        hits = [
            collector()["planner.decisions"]
            for collector in registry._collectors
            if "planner.decisions" in collector()
        ]
        assert hits == [float(value)]  # exactly one collector, live value

    def test_events_cover_lifecycle(self):
        _registry, events, _service, _batch = _seeded_run()
        kinds = {event["kind"] for event in events.events}
        assert kinds & {"job_submitted", "job_dispatched", "job_settled"}

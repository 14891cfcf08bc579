"""Tests for the platform's sim-time timeline recording."""

import json

import pytest

from repro.core import QtenonSystem
from repro.telemetry.tracing import BUILTIN_TRACKS, TraceSpan, Tracer, _track_ids
from repro.vqa import qaoa_workload


class TestSpan:
    def test_duration(self):
        assert TraceSpan("host", "x", 10, 25).duration_ps == 15

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            TraceSpan("host", "x", 25, 10)


class TestRecorder:
    def test_zero_duration_dropped(self):
        recorder = Tracer()
        assert recorder.record("host", "x", 5, 5) is None
        assert recorder.spans == []

    def test_busy_per_track(self):
        recorder = Tracer()
        recorder.record("host", "a", 0, 10)
        recorder.record("host", "b", 20, 25)
        recorder.record("bus", "c", 0, 100)
        assert recorder.busy_ps("host") == 15
        assert recorder.busy_ps("bus") == 100
        assert recorder.end_ps() == 100

    def test_overlap_detection(self):
        recorder = Tracer()
        recorder.record("host", "a", 0, 10)
        recorder.record("host", "b", 5, 15)
        assert recorder.has_overlap("host")
        assert not recorder.has_overlap("bus")

    def test_chrome_trace_structure(self):
        recorder = Tracer(process_name="unit")
        recorder.record("quantum", "run", 0, 1_000_000)
        data = json.loads(recorder.to_chrome_trace())
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        assert complete[0]["name"] == "run"
        assert complete[0]["dur"] == pytest.approx(1.0)  # 1e6 ps = 1 us
        # an id-less timeline carries no trace/span ids
        assert "args" not in complete[0]
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(e["args"].get("name") == "unit" for e in metadata)

    def test_custom_track_gets_own_named_tid(self):
        # Non-builtin tracks used to collapse onto a shared tid 99 with
        # no thread_name metadata; now each gets its own labelled row.
        recorder = Tracer()
        recorder.record("quantum", "run", 0, 10)
        recorder.record("dma", "burst", 0, 10)
        recorder.record("pgu7", "wave", 5, 20)
        tids = _track_ids(recorder.spans)
        assert tids["quantum"] == 1
        assert tids["dma"] == 5
        assert tids["pgu7"] == 6
        data = json.loads(recorder.to_chrome_trace())
        events = data["traceEvents"]
        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert complete["burst"]["tid"] != complete["wave"]["tid"]
        assert complete["burst"]["tid"] not in (99,)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[complete["burst"]["tid"]] == "dma"
        assert thread_names[complete["wave"]["tid"]] == "pgu7"

    def test_custom_tid_allocation_is_first_appearance_order(self):
        recorder = Tracer()
        recorder.record("zeta", "a", 0, 10)
        recorder.record("alpha", "b", 0, 10)
        assert _track_ids(recorder.spans)["zeta"] == 5
        assert _track_ids(recorder.spans)["alpha"] == 6

    def test_save(self, tmp_path):
        recorder = Tracer()
        recorder.record("host", "x", 0, 10)
        path = tmp_path / "trace.json"
        recorder.save(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestSystemIntegration:
    def _traced_system(self):
        workload = qaoa_workload(5, n_layers=1)
        system = QtenonSystem(5, trace_events=True)
        system.prepare(workload.ansatz, workload.observable)
        system.evaluate({p: 0.3 for p in workload.parameters}, 200)
        system.finish()
        return system

    def test_tracks_never_self_overlap(self):
        system = self._traced_system()
        for track in BUILTIN_TRACKS:
            assert not system.trace.has_overlap(track), track

    def test_trace_end_matches_cursor(self):
        system = self._traced_system()
        assert system.trace.end_ps() == system.now

    def test_quantum_busy_matches_breakdown(self):
        system = self._traced_system()
        assert system.trace.busy_ps("quantum") == system.report.breakdown.quantum_ps

    def test_put_spans_overlap_quantum_track(self):
        """The whole point of Algorithm 1 + fine-grained sync: the bus
        is busy *while* the quantum track still runs."""
        system = self._traced_system()
        quantum = system.trace.spans_on("quantum")[-1]
        puts = system.trace.spans_on("bus")
        streaming = [s for s in puts if s.name.startswith("put[")]
        assert streaming, "no streamed PUT spans recorded"
        assert any(s.start_ps < quantum.end_ps for s in streaming)

    def test_disabled_by_default(self):
        workload = qaoa_workload(4, n_layers=1)
        system = QtenonSystem(4)
        system.prepare(workload.ansatz, workload.observable)
        assert system.trace is None

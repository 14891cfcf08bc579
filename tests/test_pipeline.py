"""Tests for the four-stage pulse pipeline (Fig. 6)."""


from repro.core import (
    PipelineWorkItem,
    PulsePipeline,
    QSpace,
    QtenonConfig,
    QuantumControllerCache,
    SkipLookupTable,
)
from repro.isa import ProgramEntry
from repro.sim.clock import ns


def make_pipeline(n_qubits=4, n_pgus=2, qspace_latency=ns(60)):
    config = QtenonConfig(n_qubits=n_qubits, n_pgus=n_pgus)
    qcc = QuantumControllerCache(config)
    qspace = QSpace(n_qubits, config)
    slts = [SkipLookupTable(q, config, qspace) for q in range(n_qubits)]
    return PulsePipeline(config, qcc, slts, qspace_latency_ps=qspace_latency), qcc, config


def items_for(config, qcc, specs):
    """Install program entries and return matching work items."""
    items = []
    per_qubit = {}
    for gate_type, data, qubit in specs:
        index = per_qubit.get(qubit, 0)
        per_qubit[qubit] = index + 1
        entry = ProgramEntry(gate_type=gate_type, data=data)
        qcc.host_write(config.program_qaddr(qubit, index), entry.pack())
        items.append(PipelineWorkItem(qubit=qubit, index=index, gate_type=gate_type, data=data))
    return items


class TestBasicSweep:
    def test_empty_sweep(self):
        pipeline, _, _ = make_pipeline()
        report = pipeline.sweep([], start_ps=ns(100))
        assert report.duration_ps == 0
        assert report.entries_processed == 0

    def test_single_pulse_latency(self):
        pipeline, qcc, config = make_pipeline()
        items = items_for(config, qcc, [(1, 100, 0)])
        report = pipeline.sweep(items, start_ps=0)
        # stage1 + stage2 + 1000-cycle PGU + writeback = 1003 cycles.
        assert report.duration_ps == ns(1003)
        assert report.pulses_generated == 1

    def test_entry_patched_with_pulse_address(self):
        pipeline, qcc, config = make_pipeline()
        items = items_for(config, qcc, [(1, 100, 0)])
        pipeline.sweep(items, start_ps=0)
        entry = qcc.program_entry(0, 0)
        assert entry.has_valid_pulse

    def test_repeat_sweep_hits_slt(self):
        pipeline, qcc, config = make_pipeline()
        items = items_for(config, qcc, [(1, 100, 0)])
        first = pipeline.sweep(items, start_ps=0)
        second = pipeline.sweep(items, start_ps=first.end_ps)
        assert second.slt_hits == 1
        assert second.pulses_generated == 0
        # SLT hit avoids the 1000-cycle PGU entirely.
        assert second.duration_ps < ns(10)

    def test_compute_reduction_metric(self):
        pipeline, qcc, config = make_pipeline()
        items = items_for(config, qcc, [(1, 100, 0), (1, 100, 1)])
        # qubit 0 and qubit 1 have separate SLTs -> both generate.
        report = pipeline.sweep(items, start_ps=0)
        assert report.compute_reduction == 0.0
        again = pipeline.sweep(items, start_ps=report.end_ps)
        assert again.compute_reduction == 1.0


class TestParallelismAndStalls:
    def test_pgus_work_in_parallel(self):
        pipeline, qcc, config = make_pipeline(n_pgus=2)
        items = items_for(config, qcc, [(1, 0, 0), (1, 1 << 20, 1)])
        report = pipeline.sweep(items, start_ps=0)
        # Two distinct pulses on two PGUs: ~1004 cycles, not ~2006.
        assert report.duration_ps < ns(1100)
        assert report.pulses_generated == 2

    def test_pgu_exhaustion_stalls_pipeline(self):
        pipeline, qcc, config = make_pipeline(n_pgus=1)
        items = items_for(config, qcc, [(1, 0, 0), (1, 1 << 20, 1)])
        report = pipeline.sweep(items, start_ps=0)
        assert report.stall_cycles > 0
        # Serialised on the single PGU: > 2000 cycles.
        assert report.duration_ps > ns(2000)

    def test_eight_pgus_saturate(self):
        pipeline, qcc, config = make_pipeline(n_qubits=16, n_pgus=8)
        specs = [(1, q << 18, q) for q in range(16)]
        items = items_for(config, qcc, specs)
        report = pipeline.sweep(items, start_ps=0)
        # 16 pulses over 8 PGUs -> two waves of ~1000 cycles.
        assert ns(2000) < report.duration_ps < ns(2200)

    def test_start_time_offsets_everything(self):
        pipeline, qcc, config = make_pipeline()
        items = items_for(config, qcc, [(1, 100, 0)])
        report = pipeline.sweep(items, start_ps=ns(500))
        assert report.start_ps == ns(500)
        assert report.end_ps == ns(500) + ns(1003)


class TestReportMerging:
    def test_merge_accumulates(self):
        pipeline, qcc, config = make_pipeline()
        a = pipeline.sweep(items_for(config, qcc, [(1, 0, 0)]), start_ps=0)
        b = pipeline.sweep(items_for(config, qcc, [(2, 0, 1)]), start_ps=a.end_ps)
        a.merge(b)
        assert a.entries_processed == 2
        assert a.pulses_generated == 2
        assert a.end_ps == b.end_ps


class TestSltDisabledAblation:
    def test_every_entry_regenerates(self):
        config = QtenonConfig(n_qubits=2, n_pgus=2, slt_enabled=False)
        qcc = QuantumControllerCache(config)
        qspace = QSpace(2, config)
        slts = [SkipLookupTable(q, config, qspace) for q in range(2)]
        pipeline = PulsePipeline(config, qcc, slts)
        items = items_for(config, qcc, [(1, 100, 0)])
        first = pipeline.sweep(items, start_ps=0)
        second = pipeline.sweep(items, start_ps=first.end_ps)
        # no reuse: the identical parameter regenerates its pulse.
        assert first.pulses_generated == 1
        assert second.pulses_generated == 1
        assert second.slt_hits == 0

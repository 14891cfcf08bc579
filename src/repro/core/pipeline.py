"""Four-stage pulse-computation pipeline (paper §5.3, Fig. 6).

Stage 1  reads the circuit definition from the Program Index Buffer;
Stage 2  decodes, fetches regfile parameters, and queries the SLT —
         a hit returns the cached pulse QAddress and *disables* pulse
         generation for that entry;
Stage 3  dispatches misses to one of 8 PGUs (1000-cycle black boxes,
         §7.1); when all PGUs are busy, stages 1-2 stall;
Stage 4  the arbiter serialises PGU completions and writes results to
         the ``.pulse`` segment — decoupled from the stall by a
         ready-valid interface.

The model is transaction-level but preserves the stall semantics: the
i-th entry cannot enter stage 1 before the (i-1)-th left it, stage 2
adds QSpace (DRAM) latency on SLT-miss-QSpace-hit entries, and PGU
availability gates progress exactly as the priority encoder would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

from repro.core.config import QtenonConfig
from repro.core.qcc import PulseRecord, QuantumControllerCache
from repro.core.slt import SkipLookupTable, SltLookupResult
from repro.isa.program import QADDR_BITS
from repro.sim.clock import HOST_CLOCK, Clock, ns
from repro.sim.stats import StatGroup

_QADDR_MASK = (1 << QADDR_BITS) - 1


class PipelineWorkItem(NamedTuple):
    """One program entry to process: (qubit, entry index, decoded fields).

    Tuple-backed: every dirty gate becomes one item per ``q_gen``.
    """

    qubit: int
    index: int
    gate_type: int
    data: int  #: resolved parameter payload (regfile already applied)


@dataclass
class PipelineReport:
    """Outcome of one `q_gen`-triggered pipeline sweep."""

    entries_processed: int = 0
    pulses_generated: int = 0
    slt_hits: int = 0
    qspace_hits: int = 0
    stall_cycles: int = 0
    start_ps: int = 0
    end_ps: int = 0

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    @property
    def compute_reduction(self) -> float:
        """Fraction of pulse computations skipped (Table 5 'Reduction')."""
        if self.entries_processed == 0:
            return 0.0
        return 1.0 - self.pulses_generated / self.entries_processed

    def merge(self, other: "PipelineReport") -> None:
        self.entries_processed += other.entries_processed
        self.pulses_generated += other.pulses_generated
        self.slt_hits += other.slt_hits
        self.qspace_hits += other.qspace_hits
        self.stall_cycles += other.stall_cycles
        self.end_ps = max(self.end_ps, other.end_ps)
        if other.start_ps and (self.start_ps == 0 or other.start_ps < self.start_ps):
            self.start_ps = other.start_ps


class PulsePipeline:
    """The controller's pulse-generation engine."""

    def __init__(
        self,
        config: QtenonConfig,
        qcc: QuantumControllerCache,
        slts: List[SkipLookupTable],
        clock: Clock = HOST_CLOCK,
        qspace_latency_ps: int = ns(60),
    ) -> None:
        self.config = config
        self.qcc = qcc
        self.slts = slts
        self.clock = clock
        self.qspace_latency_ps = qspace_latency_ps
        self.stats = StatGroup("pipeline")
        self._total_pulses = self.stats.counter("pulses_generated")
        self._total_hits = self.stats.counter("slt_hits")
        #: each qubit's ``.pulse`` chunk base, the origin of the
        #: chunk-relative qaddr written into its program entries
        self._pulse_bases = [
            config.pulse_chunk(qubit)[0] for qubit in range(config.n_qubits)
        ]

    # ------------------------------------------------------------------
    def sweep(self, items: List[PipelineWorkItem], start_ps: int) -> PipelineReport:
        """Run the pipeline over ``items`` starting at ``start_ps``.

        Returns the timing/occupancy report; as a side effect, program
        entries are patched with their pulse QAddresses (status→valid)
        and new pulses are recorded in the ``.pulse`` segment.
        """
        report = PipelineReport(start_ps=start_ps, end_ps=start_ps)
        if not items:
            return report

        cycle = self.clock.period_ps
        pgu_ps = self.config.pgu_latency_cycles * cycle
        qspace_ps = self.qspace_latency_ps
        slt_enabled = self.config.slt_enabled
        pgu_free_at = [start_ps] * self.config.n_pgus
        pgus = range(len(pgu_free_at))
        arbiter_free_at = start_ps
        stage1_ready = start_ps  # when the next entry may enter stage 1
        finish = start_ps
        slt_hits = qspace_hits = generated = stall_cycles = 0

        for item in items:
            s1_done = stage1_ready + cycle
            s2_done = s1_done + cycle

            if slt_enabled:
                result = self._consult_slt(item)
            else:
                # Ablation: no SLT — always allocate and regenerate.
                qaddr = self.qcc.allocate_pulse(
                    item.qubit, PulseRecord(item.gate_type, item.data)
                )
                result = SltLookupResult(qaddr=qaddr, hit=False, allocated=True)
            if result.qspace_hit or result.evicted:
                # QSpace traffic (write-back and/or load) stalls stage 2.
                s2_done += qspace_ps
            # Every entry, reused or regenerated, ends up pointing at
            # its pulse (for a miss the allocator already registered
            # the PulseRecord).
            self._patch_entry(item, result.qaddr)
            if result.hit or result.qspace_hit:
                if result.hit:
                    slt_hits += 1
                else:
                    qspace_hits += 1
                stage1_ready = s1_done
                finish = max(finish, s2_done)
                continue

            # Stage 3: need a PGU.  If none is free at s2_done, stages
            # 1-2 stall until one frees (the paper's stall signal).
            pgu = min(pgus, key=pgu_free_at.__getitem__)
            pgu_start = max(s2_done, pgu_free_at[pgu])
            stall = pgu_start - s2_done
            if stall:
                stall_cycles += stall // cycle
            pgu_done = pgu_start + pgu_ps
            pgu_free_at[pgu] = pgu_done

            # Stage 4: arbiter serialises write-backs, one per cycle,
            # independent of the upstream stall (ready-valid link).
            wb_done = max(pgu_done, arbiter_free_at) + cycle
            arbiter_free_at = wb_done

            generated += 1
            # Upstream may issue the next entry once this one entered a
            # PGU (stage 2 must hold the entry while stalled).
            stage1_ready = pgu_start
            finish = max(finish, wb_done)

        # Totals are counted once per sweep, not once per entry.
        report.entries_processed = len(items)
        report.pulses_generated = generated
        report.slt_hits = slt_hits
        report.qspace_hits = qspace_hits
        report.stall_cycles = stall_cycles
        report.end_ps = finish
        self._total_hits.increment(slt_hits)
        self._total_pulses.increment(generated)
        return report

    # ------------------------------------------------------------------
    def _consult_slt(self, item: PipelineWorkItem) -> SltLookupResult:
        slt = self.slts[item.qubit]
        return slt.lookup_or_allocate(
            item.gate_type,
            item.data,
            allocate=lambda: self.qcc.allocate_pulse(
                item.qubit, PulseRecord(item.gate_type, item.data)
            ),
        )

    def _patch_entry(self, item: PipelineWorkItem, qaddr: int) -> None:
        rel = qaddr - self._pulse_bases[item.qubit]
        self.qcc.link_pulse(item.qubit, item.index, rel & _QADDR_MASK)

"""Tests for the pulse output path (SRAM → SerDes → DACs, §5.2)."""

import pytest

from repro.core import PulseOutputConfig, PulseOutputPath
from repro.sim.clock import Clock


@pytest.fixture
def path():
    return PulseOutputPath()


def underruns(schedule):
    """DAC starvation events: an entry fetched after the previous one
    finished draining."""
    return sum(
        fetch > drained
        for (_, drained), (fetch, _) in zip(schedule, schedule[1:])
    )


class TestBandwidthArithmetic:
    def test_dac_demand_is_64_bits_per_ns(self, path):
        # 16 bits x 2 DACs x 2 GHz (paper §5.2).
        assert path.required_bits_per_ns == pytest.approx(64.0)

    def test_sram_supply_matches_demand(self, path):
        # 640 bits per 5 ns SRAM cycle = 128 bits/ns >= 64 bits/ns.
        assert path.sram_bits_per_ns == pytest.approx(128.0)
        assert path.is_rate_balanced

    def test_serdes_ratio_is_10(self, path):
        cfg = path.config
        assert cfg.dac_clock.freq_hz // cfg.sram_clock.freq_hz == 10

    def test_entry_drain_time(self, path):
        # 640 bits at 32 bits per 0.5 ns DAC cycle -> 20 cycles = 10 ns.
        assert path.entry_drain_ps() == 10_000

    def test_buffer_geometry_validated(self):
        with pytest.raises(ValueError, match="do not cover"):
            PulseOutputConfig(parallel_buffers=9)


class TestStreaming:
    def test_back_to_back_stream_never_underruns(self, path):
        assert underruns(path.stream_schedule(100)) == 0

    def test_schedule_monotone(self, path):
        schedule = path.stream_schedule(10)
        drains = [drained for _, drained in schedule]
        assert drains == sorted(drains)

    def test_fetches_align_to_sram_edges(self, path):
        schedule = path.stream_schedule(5, start_ps=3)
        period = path.config.sram_clock.period_ps
        for fetch, _ in schedule:
            assert fetch % period == 0

    def test_undersized_sram_underruns(self):
        # A hypothetical 50 MHz SRAM cannot feed the DACs.
        slow = PulseOutputPath(
            PulseOutputConfig(sram_clock=Clock(50_000_000, "slow-sram"))
        )
        assert not slow.is_rate_balanced
        assert underruns(slow.stream_schedule(10)) > 0

    def test_zero_entries_rejected(self, path):
        with pytest.raises(ValueError):
            path.stream_schedule(0)

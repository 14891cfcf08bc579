"""Tests for the host cost models and the decoupled baseline pieces."""

import pytest

from repro.baseline import (
    ETHERNET_1GBE,
    FpgaConfig,
    FpgaController,
    JitCompiler,
    LinkModel,
    LinkTracker,
    UDP_100GBE,
    USB,
)
from repro.host import (
    BOOM_LARGE,
    INTEL_I9,
    ROCKET,
    CoreModel,
    HostWorkloadModel,
    core_by_name,
)
from repro.quantum import Parameter, QuantumCircuit
from repro.sim.clock import PS_PER_MS, ms, ns, us


class TestCoreModels:
    def test_table4_cores_at_1ghz(self):
        assert ROCKET.freq_hz == 1_000_000_000
        assert BOOM_LARGE.freq_hz == 1_000_000_000
        assert BOOM_LARGE.out_of_order and not ROCKET.out_of_order

    def test_boom_faster_than_rocket(self):
        assert BOOM_LARGE.compute_ps(1000) < ROCKET.compute_ps(1000)

    def test_i9_fastest(self):
        assert INTEL_I9.compute_ps(1000) < BOOM_LARGE.compute_ps(1000)

    def test_compute_ps_scaling(self):
        # 1e9 ops at 2 ops/ns -> 0.5 s.
        assert BOOM_LARGE.compute_ps(2e9) == PS_PER_MS * 1000

    def test_lookup_by_name(self):
        assert core_by_name("rocket") is ROCKET
        with pytest.raises(KeyError, match="known cores"):
            core_by_name("pentium")

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            CoreModel("bad", 0, 1.0)


class TestWorkloadModel:
    def setup_method(self):
        self.model = HostWorkloadModel(BOOM_LARGE)

    def test_full_compile_in_table1_band(self):
        """Baseline recompilation of a 64q workload: 1-100 ms (Table 1)."""
        i9 = HostWorkloadModel(INTEL_I9)
        duration = i9.full_compile_ps(n_gates=1000)
        assert ms(1) <= duration <= ms(100)

    def test_incremental_update_in_table1_band(self):
        """Qtenon incremental recompile: tens of ns (Table 1: <100 ns)."""
        duration = self.model.incremental_update_ps(n_params=1)
        assert duration <= ns(100)

    def test_incremental_orders_cheaper_than_full(self):
        assert self.model.full_compile_ps(1000) > 1000 * self.model.incremental_update_ps(1)

    def test_post_processing_scales_with_shots(self):
        assert self.model.post_process_ps(1000, 64) > self.model.post_process_ps(100, 64)

    def test_expectation_scales_with_terms_and_shots(self):
        small = self.model.expectation_ps(10, 100)
        assert self.model.expectation_ps(20, 100) > small
        assert self.model.expectation_ps(10, 200) > small

    def test_optimizer_methods(self):
        assert self.model.optimizer_step_ps(10, "gd") > 0
        assert self.model.optimizer_step_ps(10, "spsa") > 0
        with pytest.raises(ValueError):
            self.model.optimizer_step_ps(10, "adam")


class TestLinkModels:
    def test_latency_bands_match_table1(self):
        assert us(100) <= UDP_100GBE.per_message_latency_ps <= ms(10)
        assert USB.per_message_latency_ps == ms(1)
        assert ETHERNET_1GBE.per_message_latency_ps == ms(10)

    def test_transfer_includes_wire_time(self):
        link = LinkModel("t", per_message_latency_ps=0, bandwidth_bytes_per_s=1e9)
        assert link.transfer_ps(1000) == us(1)

    def test_round_trip(self):
        tracker = LinkTracker(UDP_100GBE)
        round_trip = tracker.send(100) + tracker.send(100)
        assert round_trip == 2 * UDP_100GBE.transfer_ps(100)

    def test_tracker_accounting(self):
        tracker = LinkTracker(UDP_100GBE)
        tracker.send(100)
        tracker.send(200)
        assert tracker.messages == 2
        assert tracker.bytes_moved == 300

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UDP_100GBE.transfer_ps(-1)


class TestFpga:
    def test_fixed_1000ns_per_pulse(self):
        fpga = FpgaController()
        assert fpga.pulse_generation_ps(1) == ns(1000)
        assert fpga.pulse_generation_ps(100) == ns(100_000)

    def test_adi_100ns_each_direction(self):
        assert FpgaController().adi_round_trip_ps() == ns(200)

    def test_pulse_accounting(self):
        fpga = FpgaController()
        fpga.pulse_generation_ps(7)
        assert fpga.pulses_generated == 7

    def test_parallel_pgus_divide(self):
        fpga = FpgaController(FpgaConfig(parallel_pgus=4))
        assert fpga.pulse_generation_ps(8) == ns(2000)


class TestJit:
    def test_compile_binds_and_counts(self):
        theta = Parameter("t")
        template = QuantumCircuit(2).ry(theta, 0).cx(0, 1).measure_all()
        jit = JitCompiler(HostWorkloadModel(INTEL_I9))
        output = jit.compile(template)
        assert output.instruction_count == 4
        assert output.binary_bytes == 32
        assert jit.compilations == 1

    def test_every_compile_pays_full_cost(self):
        theta = Parameter("t")
        template = QuantumCircuit(1).ry(theta, 0)
        jit = JitCompiler(HostWorkloadModel(INTEL_I9))
        first = jit.compile(template).compile_time_ps
        second = jit.compile(template).compile_time_ps
        assert first == second > 0  # no caching: the decoupled weakness

    def test_timing_only_matches_functional_cost(self):
        theta = Parameter("t")
        template = QuantumCircuit(1).ry(theta, 0).measure(0)
        jit = JitCompiler(HostWorkloadModel(INTEL_I9))
        functional = jit.compile(template.bind({theta: 0.1}))
        timing = jit.compile(template)
        assert timing.compile_time_ps == functional.compile_time_ps
        assert timing.instruction_count == functional.instruction_count

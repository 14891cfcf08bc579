"""Tests for the width-adaptive sampler and the device timing model."""

import pytest

from repro.core import (
    HOST_RESULT_BASE,
    PulseOutputPath,
    compute_run_timeline,
    plan_transmissions,
)
from repro.quantum import DeviceTiming, QuantumCircuit, QuantumDevice, Sampler
from repro.sim.clock import ns


class TestSamplerBackendSelection:
    def test_small_circuits_use_statevector(self):
        sampler = Sampler(exact_limit=10)
        assert sampler.backend_for(QuantumCircuit(8)).name == "statevector"

    def test_wide_circuits_use_product_state(self):
        sampler = Sampler(exact_limit=10)
        qc = QuantumCircuit(40).rx(0.3, 0)  # non-Clifford: no exact backend
        assert sampler.backend_for(qc).name == "product-state"

    def test_wide_clifford_circuits_use_stabilizer(self):
        sampler = Sampler(exact_limit=10)
        qc = QuantumCircuit(40).h(0).cx(0, 1)
        assert sampler.backend_for(qc).name == "stabilizer"

    def test_force_backend(self):
        sampler = Sampler(force_backend="product")
        assert sampler.backend_for(QuantumCircuit(2)).name == "product-state"

    def test_force_stub(self):
        sampler = Sampler(force_backend="stub")
        assert sampler.backend_for(QuantumCircuit(2)).name == "stub"

    def test_seed_reproducibility(self):
        qc = QuantumCircuit(3).h(0).h(1).h(2).measure_all()
        a = Sampler(seed=5).run(qc, 100).counts
        b = Sampler(seed=5).run(qc, 100).counts
        assert a == b

    def test_execution_accounting(self):
        sampler = Sampler(seed=0)
        sampler.run(QuantumCircuit(2).h(0).measure_all(), 100)
        sampler.run(QuantumCircuit(2).h(0).measure_all(), 50)


class TestStubBackend:
    def test_counts_sum_to_shots(self):
        sampler = Sampler(seed=0, force_backend="stub")
        result = sampler.run(QuantumCircuit(6).measure_all(), 1000)
        assert sum(result.counts.values()) == 1000

    def test_wide_register_keys_fit(self):
        sampler = Sampler(seed=0, force_backend="stub")
        result = sampler.run(QuantumCircuit(100).measure_all(), 10)
        for key in result.counts:
            assert 0 <= key < (1 << 100)

    def test_rejects_unbound(self):
        from repro.quantum import Parameter
        from repro.quantum.stub import StubBackend

        qc = QuantumCircuit(1).rx(Parameter("t"), 0)
        with pytest.raises(ValueError):
            StubBackend().run(qc)


class TestSampleResult:
    def test_expectation_z_product(self):
        sampler = Sampler(seed=0)
        result = sampler.run(QuantumCircuit(2).x(0).measure_all(), 100)
        assert result.expectation_z_product((0,)) == pytest.approx(-1.0)
        assert result.expectation_z_product((1,)) == pytest.approx(1.0)
        assert result.expectation_z_product((0, 1)) == pytest.approx(-1.0)

    def test_frequency(self):
        sampler = Sampler(seed=0)
        result = sampler.run(QuantumCircuit(1).x(0).measure_all(), 10)
        assert result.counts == {1: 10}


class TestDeviceTiming:
    def test_paper_constants(self):
        timing = DeviceTiming()
        assert timing.one_qubit_gate_ns == 20.0
        assert timing.two_qubit_gate_ns == 40.0
        assert timing.measurement_ns == 600.0

    def test_single_gate_duration(self):
        device = QuantumDevice(2)
        qc = QuantumCircuit(2).rx(0.1, 0)
        assert device.circuit_duration_ps(qc) == ns(20)

    def test_parallel_gates_overlap(self):
        device = QuantumDevice(4)
        qc = QuantumCircuit(4)
        for q in range(4):
            qc.rx(0.1, q)
        assert device.circuit_duration_ps(qc) == ns(20)

    def test_serial_gates_accumulate(self):
        device = QuantumDevice(1)
        qc = QuantumCircuit(1).rx(0.1, 0).ry(0.2, 0).rz(0.3, 0)
        assert device.circuit_duration_ps(qc) == ns(60)

    def test_two_qubit_gate_joins_tracks(self):
        device = QuantumDevice(2)
        qc = QuantumCircuit(2).rx(0.1, 0).cz(0, 1)
        # track0: 20 + 40; track1 joins at 20.
        assert device.circuit_duration_ps(qc) == ns(60)

    def test_measurement_adds_pulse_and_processing(self):
        device = QuantumDevice(1)
        qc = QuantumCircuit(1).rx(0.1, 0).measure_all()
        assert device.circuit_duration_ps(qc) == ns(20 + 600 + 600)

    def test_shot_duration_adds_measurement_when_missing(self):
        device = QuantumDevice(1)
        bare = QuantumCircuit(1).rx(0.1, 0)
        assert device.shot_duration_ps(bare) == ns(20 + 600 + 600)

    def test_run_duration_scales_with_shots(self):
        device = QuantumDevice(1)
        qc = QuantumCircuit(1).rx(0.1, 0).measure_all()
        shot_ps = device.shot_duration_ps(qc)
        batches = plan_transmissions(1, 500, HOST_RESULT_BASE, batched=True)
        timeline = compute_run_timeline(batches, 0, shot_ps, 0, 0)
        assert timeline.quantum_duration_ps == 500 * shot_ps

    def test_pulse_bandwidth_arithmetic(self):
        device = QuantumDevice(64)
        # 16 bits x 2 DACs x 2 GHz = 64 bits/ns = 8 GB/s (paper §5.2),
        # the demand the pulse output path is sized for.
        bits_per_ns = device.dac_bits * device.dacs_per_qubit * device.dac_freq_hz / 1e9
        assert bits_per_ns == pytest.approx(64.0)
        assert bits_per_ns == pytest.approx(PulseOutputPath().required_bits_per_ns)
        assert bits_per_ns * 1e9 / 8 == pytest.approx(8e9)

    def test_width_check(self):
        device = QuantumDevice(2)
        with pytest.raises(ValueError):
            device.circuit_duration_ps(QuantumCircuit(3))

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots must be positive"):
            plan_transmissions(1, 0, HOST_RESULT_BASE, batched=True)

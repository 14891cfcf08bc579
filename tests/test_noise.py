"""Tests for the readout-noise extension."""

import numpy as np
import pytest

from repro.quantum import (
    QuantumCircuit,
    ReadoutNoise,
    Sampler,
    mitigate_single_qubit_expectation,
)


class TestChannel:
    def test_ideal_channel_is_identity(self):
        noise = ReadoutNoise(0.0, 0.0)
        assert noise.is_ideal
        counts = {0b101: 10, 0b010: 5}
        assert noise.apply_to_counts(counts, 3, np.random.default_rng(0)) == counts

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ReadoutNoise(p01=1.5)
        with pytest.raises(ValueError):
            ReadoutNoise(p10=-0.1)

    def test_shot_corruption_statistics(self):
        noise = ReadoutNoise(p01=0.2, p10=0.0)
        rng = np.random.default_rng(1)
        flips = sum(
            noise.apply_to_shot(0b0, 1, rng) for _ in range(20000)
        )
        assert flips / 20000 == pytest.approx(0.2, abs=0.01)

    def test_asymmetric_flips(self):
        noise = ReadoutNoise(p01=0.0, p10=0.5)
        rng = np.random.default_rng(2)
        # prepared |0> never flips
        assert all(
            noise.apply_to_shot(0, 1, rng) == 0 for _ in range(100)
        )
        # prepared |1> flips about half the time
        stays = sum(noise.apply_to_shot(1, 1, rng) for _ in range(10000))
        assert stays / 10000 == pytest.approx(0.5, abs=0.03)

    def test_counts_preserved_in_total(self):
        noise = ReadoutNoise(0.1, 0.1)
        counts = {0b00: 40, 0b11: 60}
        noisy = noise.apply_to_counts(counts, 2, np.random.default_rng(3))
        assert sum(noisy.values()) == 100


class TestAttenuationAndMitigation:
    def test_z_attenuation_factor(self):
        noise = ReadoutNoise(p01=0.02, p10=0.05)
        assert noise.expected_z_attenuation() == pytest.approx(0.93)

    def test_affine_channel_parameters(self):
        noise = ReadoutNoise(p01=0.02, p10=0.08)
        assert noise.expected_z_attenuation() == pytest.approx(0.90)
        assert noise.expected_z_offset() == pytest.approx(0.06)

    def test_mitigation_inverts_affine_channel(self):
        noise = ReadoutNoise(0.02, 0.05)
        true_value = 0.8
        observed = (
            true_value * noise.expected_z_attenuation() + noise.expected_z_offset()
        )
        assert mitigate_single_qubit_expectation(observed, noise) == pytest.approx(
            true_value
        )

    def test_non_invertible_channel_rejected(self):
        with pytest.raises(ValueError):
            mitigate_single_qubit_expectation(0.5, ReadoutNoise(0.5, 0.5))


class TestSamplerIntegration:
    def test_noisy_sampler_follows_affine_channel(self):
        """⟨Z⟩ measured on |0> follows factor*<Z> + offset (symmetric
        noise here, so the offset is zero)."""
        noise = ReadoutNoise(p01=0.1, p10=0.1)
        clean = Sampler(seed=0)
        noisy = Sampler(seed=0, readout_noise=noise)
        circuit = QuantumCircuit(1).measure_all()  # |0>: <Z> = +1
        clean_z = clean.run(circuit, 20000).expectation_z_product((0,))
        noisy_z = noisy.run(circuit, 20000).expectation_z_product((0,))
        assert clean_z == pytest.approx(1.0)
        assert noisy_z == pytest.approx(noise.expected_z_attenuation(), abs=0.02)

    def test_asymmetric_noise_shows_offset(self):
        """On |0>, asymmetric noise gives <Z> = 1 - 2*p01, i.e. the
        affine prediction — NOT a pure contraction."""
        noise = ReadoutNoise(p01=0.02, p10=0.08)
        sampler = Sampler(seed=3, readout_noise=noise)
        circuit = QuantumCircuit(1).measure_all()
        observed = sampler.run(circuit, 40000).expectation_z_product((0,))
        predicted = noise.expected_z_attenuation() + noise.expected_z_offset()
        assert observed == pytest.approx(predicted, abs=0.01)
        assert observed != pytest.approx(noise.expected_z_attenuation(), abs=0.02)

    def test_noise_then_mitigation_recovers_expectation(self):
        noise = ReadoutNoise(p01=0.05, p10=0.08)
        sampler = Sampler(seed=1, readout_noise=noise)
        circuit = QuantumCircuit(1).x(0).measure_all()  # |1>: <Z> = -1
        observed = sampler.run(circuit, 40000).expectation_z_product((0,))
        recovered = mitigate_single_qubit_expectation(observed, noise)
        assert recovered == pytest.approx(-1.0, abs=0.05)

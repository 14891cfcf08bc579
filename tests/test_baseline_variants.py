"""Tests for the eQASM / HiSEP-Q decoupled-system variants (Table 1)."""

import pytest

from repro.baseline import (
    DecoupledSystem,
    EQASM,
    HISEPQ,
    UDP_100GBE,
)
from repro.quantum import QuantumCircuit
from repro.sim.clock import ms
from repro.vqa import qaoa_workload


class TestVariantCatalogue:
    def test_link_latency_bands_match_table1(self):
        assert EQASM.link.per_message_latency_ps == ms(1)      # ~1 ms USB
        assert HISEPQ.link.per_message_latency_ps == ms(10)    # ~10 ms Ethernet
        assert UDP_100GBE.per_message_latency_ps < ms(5)        # paper baseline

    def test_qubit_capacity_limits(self):
        assert EQASM.max_qubits == 7
        assert HISEPQ.max_qubits == 128


class TestInstructionDensity:
    def test_eqasm_denser_than_hisepq(self):
        circuit = QuantumCircuit(4).h(0).cz(0, 1).rx(0.1, 2).measure_all()
        assert EQASM.static_instruction_count(circuit) == 2 * len(circuit.operations)
        assert HISEPQ.static_instruction_count(circuit) == len(circuit.operations)


class TestBuild:
    def test_capacity_enforced(self):
        with pytest.raises(ValueError, match="at most 7"):
            EQASM.build(8)

    def test_built_system_is_decoupled(self):
        system = HISEPQ.build(8, timing_only=True)
        assert isinstance(system, DecoupledSystem)
        assert system.link.link is HISEPQ.link

    def test_slower_link_slower_system(self):
        wl = qaoa_workload(6, n_layers=1)

        def run(system):
            system.prepare(wl.ansatz, wl.observable)
            system.evaluate({p: 0.1 for p in wl.parameters}, 100)
            return system.finish().end_to_end_ps

        paper_baseline = DecoupledSystem(6, link=UDP_100GBE, timing_only=True)
        assert run(HISEPQ.build(6, timing_only=True)) > run(paper_baseline)

    def test_eqasm_runs_at_seven_qubits(self):
        wl = qaoa_workload(7, n_layers=1)
        system = EQASM.build(7, timing_only=True)
        system.prepare(wl.ansatz, wl.observable)
        system.evaluate({p: 0.1 for p in wl.parameters}, 50)
        report = system.finish()
        assert report.breakdown.comm_ps >= 2 * ms(1)  # >= 2 USB messages

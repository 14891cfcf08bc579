"""Decoupled baseline: network links, FPGA controller, JIT, system."""

from repro.baseline.fpga import FpgaConfig, FpgaController
from repro.baseline.jit import JitCompiler, JitOutput
from repro.baseline.network import (
    ETHERNET_1GBE,
    LinkModel,
    LinkTracker,
    UDP_100GBE,
    USB,
)
from repro.baseline.system import DecoupledSystem
from repro.baseline.variants import (
    DecoupledVariant,
    EQASM,
    HISEPQ,
)

__all__ = [
    "DecoupledSystem",
    "LinkModel",
    "LinkTracker",
    "UDP_100GBE",
    "USB",
    "ETHERNET_1GBE",
    "FpgaController",
    "FpgaConfig",
    "JitCompiler",
    "JitOutput",
    "DecoupledVariant",
    "EQASM",
    "HISEPQ",
]

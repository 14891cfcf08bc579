"""Host ↔ FPGA link models for the decoupled baseline.

Decoupled systems connect host and quantum controller over commodity
links (paper Table 1): USB for eQASM (~1 ms), Ethernet for HiSEP-Q
(~10 ms), and the paper's own baseline — a 100 Gb Ethernet UDP
connection, evaluated "under optimal conditions" with switches
omitted.  A transfer costs a fixed per-message latency (protocol
stack, NIC, DMA) plus size over bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.clock import ms
from repro.sim.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class LinkModel:
    """A one-directional message-passing link."""

    name: str
    per_message_latency_ps: int
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.per_message_latency_ps < 0:
            raise ValueError(f"{self.name}: negative latency")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")

    def transfer_ps(self, n_bytes: int) -> int:
        """Time to deliver one ``n_bytes`` message."""
        if n_bytes < 0:
            raise ValueError(f"negative message size {n_bytes}")
        wire = int(n_bytes / self.bandwidth_bytes_per_s * 1e12)
        return self.per_message_latency_ps + wire


#: The paper baseline: 100 GbE + UDP, optimal conditions (§7.1).  The
#: per-message cost covers the kernel network stack and NIC DMA; the
#: resulting end-to-end round trips land in Table 1's 1–10 ms band.
UDP_100GBE = LinkModel("udp-100gbe", per_message_latency_ps=ms(1), bandwidth_bytes_per_s=12.5e9)

#: eQASM-style USB control link (Table 1: ~1 ms).
USB = LinkModel("usb", per_message_latency_ps=ms(1), bandwidth_bytes_per_s=60e6)

#: HiSEP-Q-style commodity Ethernet (Table 1: ~10 ms).
ETHERNET_1GBE = LinkModel("ethernet-1gbe", per_message_latency_ps=ms(10), bandwidth_bytes_per_s=125e6)


class LinkTracker:
    """Per-run accounting wrapper around a :class:`LinkModel`.

    With a :class:`~repro.faults.injector.FaultInjector` attached the
    link stops being ideal: each message may be dropped (detected by
    the receiver's NACK after ``nack_timeout_ps``, then retransmitted
    at full cost), reordered (held one message slot by the
    sequence-number reassembly) or jittered.  All recovery time is
    charged into the returned transfer latency, so the decoupled
    baseline's end-to-end timeline degrades exactly as a lossy UDP
    testbed would — which is the effect the chaos campaigns measure.
    """

    def __init__(
        self, link: LinkModel, fault_injector: Optional["FaultInjector"] = None
    ) -> None:
        self.link = link
        self.fault_injector = fault_injector
        self.stats = StatGroup(f"link-{link.name}")
        self._messages = self.stats.counter("messages")
        self._bytes = self.stats.counter("bytes")
        self._retransmits = self.stats.counter("retransmits")
        self._reorders = self.stats.counter("reorders")
        self._recovery_ps = self.stats.counter("recovery_ps")

    def send(self, n_bytes: int) -> int:
        self._messages.increment()
        self._bytes.increment(n_bytes)
        latency = self.link.transfer_ps(n_bytes)
        if self.fault_injector is None:
            return latency
        decision = self.fault_injector.link_message(self._messages.value, n_bytes)
        penalty = decision.jitter_ps
        if decision.drops:
            # Each lost copy costs the NACK detection timeout plus a
            # full retransmission; the link also re-moves the bytes.
            per_drop = self.fault_injector.plan.link.nack_timeout_ps + latency
            penalty += decision.drops * per_drop
            self._retransmits.increment(decision.drops)
            self._bytes.increment(decision.drops * n_bytes)
        if decision.reordered:
            # The straggler is released once the next in-order message
            # lands: one extra per-message slot of delay.
            penalty += self.link.per_message_latency_ps
            self._reorders.increment()
        self._recovery_ps.increment(penalty)
        return latency + penalty

    @property
    def retransmits(self) -> int:
        return self._retransmits.value

    @property
    def recovery_ps(self) -> int:
        return self._recovery_ps.value

    @property
    def messages(self) -> int:
        return self._messages.value

    @property
    def bytes_moved(self) -> int:
        return self._bytes.value

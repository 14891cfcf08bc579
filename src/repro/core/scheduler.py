"""Quantum-host scheduling (paper §6.3, Algorithm 1).

Measurement results must travel from the controller's ``.measure``
segment to host memory.  Two transmission policies are modelled:

* **immediate** — a TileLink PUT after every shot.  With 64 qubits a
  shot produces 64 bits but the bus moves 256 bits/cycle, so this
  wastes 4x the bus transactions (the paper's motivating example);
* **batched** (Algorithm 1) — accumulate ``K = floor(B / N)`` shots
  per PUT, filling the bus width, with a tail flush after the last
  shot.

:func:`plan_transmissions` reproduces Algorithm 1's loop structure and
is used both functionally (which shots land in which PUT, at which
host address) and for timing (when each PUT is issued relative to shot
completions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

BUS_WIDTH_BITS = 256


@dataclass(frozen=True)
class TransmissionBatch:
    """One PUT: which shots it carries and where it lands."""

    first_shot: int       #: index of the first shot in the batch
    n_shots: int
    host_addr: int        #: destination host address
    n_bytes: int          #: payload size

    @property
    def last_shot(self) -> int:
        return self.first_shot + self.n_shots - 1


def batch_interval(n_qubits: int, bus_width_bits: int = BUS_WIDTH_BITS) -> int:
    """Algorithm 1 line 1: ``K = floor(B / N)`` (at least one shot)."""
    if n_qubits <= 0:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    return max(1, bus_width_bits // n_qubits)


def shot_record_bytes(n_qubits: int) -> int:
    """Bytes per shot record: ``ceil(N / 8)`` (Algorithm 1 line 12)."""
    return -(-n_qubits // 8)


def plan_transmissions(
    n_qubits: int,
    shots: int,
    host_addr: int,
    batched: bool,
    bus_width_bits: int = BUS_WIDTH_BITS,
) -> List[TransmissionBatch]:
    """Algorithm 1 (or the immediate policy when ``batched=False``).

    Returns the PUT plan covering all ``shots`` with the tail flush of
    lines 14-16.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    record = shot_record_bytes(n_qubits)
    interval = batch_interval(n_qubits, bus_width_bits) if batched else 1

    batches: List[TransmissionBatch] = []
    addr = host_addr
    first = 0
    while first < shots:
        count = min(interval, shots - first)
        batches.append(
            TransmissionBatch(
                first_shot=first,
                n_shots=count,
                host_addr=addr,
                n_bytes=record * count,
            )
        )
        addr += record * interval  # line 12: addr += ceil(N/8) * K
        first += count
    return batches


@dataclass(frozen=True)
class RunTimeline:
    """Timing of one ``q_run``: shots plus overlapped transmissions."""

    start_ps: int
    quantum_end_ps: int        #: last shot finished on the chip
    last_put_issue_ps: int     #: last PUT handed to the system bus
    last_put_response_ps: int  #: last PUT acknowledged
    put_issue_times: Sequence[int]
    put_response_times: Sequence[int]

    @property
    def quantum_duration_ps(self) -> int:
        return self.quantum_end_ps - self.start_ps

    def shifted(self, offset_ps: int) -> "RunTimeline":
        """The same timeline started ``offset_ps`` later.

        Every time in :func:`compute_run_timeline` carries the start
        additively and ``max`` commutes with a shift, so a timeline
        computed from start 0 and shifted equals the one computed from
        the shifted start, bit for bit.
        """
        if offset_ps == 0:
            return self
        shift = offset_ps.__add__
        return RunTimeline(
            start_ps=self.start_ps + offset_ps,
            quantum_end_ps=self.quantum_end_ps + offset_ps,
            last_put_issue_ps=self.last_put_issue_ps + offset_ps,
            last_put_response_ps=self.last_put_response_ps + offset_ps,
            put_issue_times=tuple(map(shift, self.put_issue_times)),
            put_response_times=tuple(map(shift, self.put_response_times)),
        )


def compute_run_timeline(
    batches: Sequence[TransmissionBatch],
    start_ps: int,
    shot_duration_ps: int,
    put_issue_overhead_ps: int,
    put_response_latency_ps: int,
    attempts_per_batch: Optional[Sequence[int]] = None,
    retry_penalty_ps: int = 0,
) -> RunTimeline:
    """Overlap shots with PUTs (Fig. 9b timing).

    Shot *i* completes at ``start + (i+1) * shot_duration``.  A batch's
    PUT is issued once its last shot completes (serialised with earlier
    PUTs on the controller's output port) and responds after the bus +
    L2 latency.  Quantum execution is never stalled by transmissions —
    the .measure segment double-buffers.

    ``attempts_per_batch`` models the end-to-end retransmit protocol of
    the fault layer: batch *i* needs ``attempts_per_batch[i]`` PUT
    attempts (all >= 1; 1 means fault-free), and every failed attempt
    occupies the controller's output port for ``retry_penalty_ps``
    (NACK detection + re-send) before the successful one issues.  The
    default (``None``) is bit-identical to the fault-free timeline.
    """
    if not batches:
        raise ValueError("no transmission batches")
    if shot_duration_ps <= 0:
        raise ValueError("shot duration must be positive")
    if attempts_per_batch is not None:
        if len(attempts_per_batch) != len(batches):
            raise ValueError(
                f"attempts_per_batch has {len(attempts_per_batch)} entries "
                f"for {len(batches)} batches"
            )
        if any(a < 1 for a in attempts_per_batch):
            raise ValueError("every batch needs at least one PUT attempt")
    if retry_penalty_ps < 0:
        raise ValueError(f"retry_penalty_ps must be >= 0, got {retry_penalty_ps}")
    issue_times: List[int] = []
    response_times: List[int] = []
    port_free = start_ps
    quantum_end = start_ps
    for index, batch in enumerate(batches):
        shot_done = start_ps + (batch.last_shot + 1) * shot_duration_ps
        quantum_end = max(quantum_end, shot_done)
        attempts = 1 if attempts_per_batch is None else attempts_per_batch[index]
        issue = max(shot_done, port_free) + put_issue_overhead_ps
        issue += (attempts - 1) * retry_penalty_ps
        port_free = issue
        issue_times.append(issue)
        response_times.append(issue + put_response_latency_ps)
    return RunTimeline(
        start_ps=start_ps,
        quantum_end_ps=quantum_end,
        last_put_issue_ps=issue_times[-1],
        last_put_response_ps=response_times[-1],
        put_issue_times=tuple(issue_times),
        put_response_times=tuple(response_times),
    )

#!/usr/bin/env python
"""Visualising the quantum-host interleaving (Fig. 9b as a trace).

Runs one Qtenon evaluation with event tracing enabled and exports a
Chrome trace-format timeline (open it at https://ui.perfetto.dev or in
chrome://tracing).  The trace shows exactly what §6.2/§6.3 buy: the
bus streams measurement batches *while* the quantum track is still
executing shots, and host post-processing rides right behind them.

Run with:  python examples/timeline_trace.py
Output:    qtenon_timeline.json (in the working directory)
"""

from repro import QtenonSystem
from repro.analysis import format_table
from repro.sim.clock import to_us
from repro.telemetry.tracing import BUILTIN_TRACKS
from repro.vqa import qaoa_workload

N_QUBITS = 8
SHOTS = 400
OUTPUT = "qtenon_timeline.json"


def main():
    workload = qaoa_workload(N_QUBITS, n_layers=2, seed=3)
    system = QtenonSystem(N_QUBITS, seed=1, trace_events=True)
    system.prepare(workload.ansatz, workload.observable)
    system.evaluate({p: 0.4 for p in workload.parameters}, SHOTS)
    report = system.finish()
    trace = system.trace

    rows = []
    for track in BUILTIN_TRACKS:
        spans = trace.spans_on(track)
        rows.append([
            track,
            len(spans),
            f"{to_us(trace.busy_ps(track)):.2f} us",
            f"{100 * trace.busy_ps(track) / max(1, report.end_to_end_ps):.1f}%",
        ])
    print(format_table(
        ["track", "spans", "busy time", "of end-to-end"],
        rows,
        title=f"One {N_QUBITS}-qubit QAOA evaluation, {SHOTS} shots",
    ))

    quantum = trace.spans_on("quantum")[-1]
    puts = [s for s in trace.spans_on("bus") if s.name.startswith("put[")]
    overlapped = sum(1 for s in puts if s.start_ps < quantum.end_ps)
    print(f"\n{overlapped}/{len(puts)} measurement PUTs issued while the "
          "quantum run was still executing — the Fig. 9(b) overlap.")

    trace.save(OUTPUT)
    print(f"wrote {OUTPUT}; open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()

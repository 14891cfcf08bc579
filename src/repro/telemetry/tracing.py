"""Span recording and Chrome-trace rendering: one span type, one
recorder, one renderer for every timeline in the repository.

Two clocks share it:

* a platform's sim-time timeline — ``QtenonSystem(...,
  trace_events=True)`` records every phase it places on the global
  timeline (quantum / controller / host / bus tracks, picoseconds)
  into an id-less :class:`Tracer`, so an evaluation's interleaving of
  shots, streamed PUT batches and overlapped host post-processing can
  be inspected in ``chrome://tracing`` / https://ui.perfetto.dev;
* the job service's wall-clock timeline — one root span per job, one
  span per streamed session batch.

One ``job_id → evaluation → sim phase`` chain threads through all
layers:

* a **trace id** is derived deterministically from the job id
  (:func:`make_trace_id`), so replayed campaigns produce identical
  traces;
* a :class:`Tracer` with a trace id mints sequential span ids under it
  and records :class:`TraceSpan` rows; its :attr:`Tracer.root_span_id`
  is reserved for the job's service-level span;
* :meth:`Tracer.adopt` folds a platform's sim-time spans into the
  trace, parenting each to the narrowest enclosing evaluation span;
* :func:`merged_chrome_trace` renders trace groups as one
  Chrome/Perfetto JSON: the service timeline as pid 1 (one row per
  tenant and per tenant's sessions) and each traced job as its own
  process whose sim timeline is offset to the job's wall-clock start.
  Spans carrying ids render them as ``trace_id`` / ``span_id`` /
  ``parent_id`` args; an id-less platform timeline renders as a single
  group with no args.

Within one track of a platform timeline spans never overlap, which the
tests assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The platform timeline's tracks, pinned to thread ids 1–4.
BUILTIN_TRACKS = ("quantum", "controller", "host", "bus")


def make_trace_id(text: str) -> str:
    """Deterministic 16-hex trace id from a stable identity (job id)."""
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


@dataclass
class TraceSpan:
    """One timed span on one named track, optionally part of a trace."""

    track: str
    name: str
    start_ps: int
    end_ps: int
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    args: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_ps < self.start_ps:
            raise ValueError(
                f"span {self.name!r} ends ({self.end_ps}) before it starts "
                f"({self.start_ps})"
            )

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class Tracer:
    """Collects spans; under a trace id, with deterministic span ids.

    ``Tracer(trace_id)`` is one job's trace: every span gets the next
    sequential span id and defaults to a child of the reserved root.
    ``Tracer()`` (no trace id) is a plain timeline, the platform's
    sim-time recording: its spans carry no ids.
    """

    def __init__(
        self, trace_id: Optional[str] = None, process_name: str = "qtenon"
    ) -> None:
        self.trace_id = trace_id
        self.process_name = process_name
        self.spans: List[TraceSpan] = []
        self._sequence = 0
        #: span id reserved for the trace's root (the service job span).
        self.root_span_id = self._next_span_id()

    def _next_span_id(self) -> Optional[str]:
        if self.trace_id is None:
            return None
        span_id = f"{self.trace_id}:{self._sequence:04d}"
        self._sequence += 1
        return span_id

    def record(
        self,
        track: str,
        name: str,
        start_ps: int,
        end_ps: int,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> Optional[str]:
        """Add a completed span and return its id (None without a trace
        id); defaults to a child of the root span.  Zero-duration spans
        are dropped."""
        if end_ps <= start_ps:
            return None
        span = TraceSpan(
            trace_id=self.trace_id,
            span_id=self._next_span_id(),
            parent_id=parent_id if parent_id is not None else self.root_span_id,
            track=track,
            name=name,
            start_ps=start_ps,
            end_ps=end_ps,
            args=dict(args or {}),
        )
        self.spans.append(span)
        return span.span_id

    def adopt(
        self,
        timeline: "Tracer",
        parents: Optional[Sequence[TraceSpan]] = None,
    ) -> int:
        """Fold another recording's spans (a platform's sim timeline)
        into this trace.

        Each span is parented to the *narrowest* candidate in
        ``parents`` whose time range encloses it (the evaluation span
        that produced it), falling back to the root span.  Returns the
        number of spans adopted.  Iteration order is sorted, so two
        identical runs adopt in identical order and span ids match.
        """
        adopted = 0
        for span in sorted(
            timeline.spans, key=lambda s: (s.start_ps, s.end_ps, s.track, s.name)
        ):
            parent = None
            for candidate in parents or ():
                if candidate.start_ps <= span.start_ps and (
                    span.end_ps <= candidate.end_ps
                ):
                    if parent is None or candidate.duration_ps < parent.duration_ps:
                        parent = candidate
            self.record(
                span.track,
                span.name,
                span.start_ps,
                span.end_ps,
                parent_id=parent.span_id if parent is not None else None,
            )
            adopted += 1
        return adopted

    # ------------------------------------------------------------------
    def spans_on(self, track: str) -> List[TraceSpan]:
        return sorted(
            (span for span in self.spans if span.track == track),
            key=lambda span: span.start_ps,
        )

    def busy_ps(self, track: str) -> int:
        return sum(span.duration_ps for span in self.spans_on(track))

    def end_ps(self) -> int:
        return max((span.end_ps for span in self.spans), default=0)

    def has_overlap(self, track: str) -> bool:
        """True if two spans on ``track`` overlap (a modelling bug)."""
        spans = self.spans_on(track)
        return any(b.start_ps < a.end_ps for a, b in zip(spans, spans[1:]))

    def to_chrome_trace(self) -> str:
        """This recording as a one-process Chrome trace (pid 1)."""
        return merged_chrome_trace(
            [TraceGroup(pid=1, process_name=self.process_name, spans=self.spans)]
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_chrome_trace())


@dataclass
class TraceGroup:
    """One Chrome-trace process: a pid, a name, and its spans.

    ``time_offset_ps`` shifts every span at render time — used to align
    a job's sim timeline (which starts at sim time 0) with the job's
    wall-clock start in the merged view.
    """

    pid: int
    process_name: str
    spans: List[TraceSpan]
    time_offset_ps: int = 0


def _track_ids(spans: Sequence[TraceSpan]) -> Dict[str, int]:
    """Stable tids: builtin sim tracks pinned to 1–4, every other track
    allocated in first-appearance order — never a shared catch-all."""
    tids = {track: i + 1 for i, track in enumerate(BUILTIN_TRACKS)}
    next_tid = len(BUILTIN_TRACKS) + 1
    for span in spans:
        if span.track not in tids:
            tids[span.track] = next_tid
            next_tid += 1
    return tids


def merged_chrome_trace(groups: Sequence[TraceGroup]) -> str:
    """Render trace groups as one Chrome trace-event JSON document
    ('X' complete events, µs timestamps, one named row per track)."""
    events: List[Dict[str, object]] = []
    for group in groups:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": group.pid,
                "args": {"name": group.process_name},
            }
        )
        tids = _track_ids(group.spans)
        present = {span.track for span in group.spans}
        for track, tid in sorted(tids.items(), key=lambda item: item[1]):
            if track not in present:
                continue
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": group.pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for span in sorted(
            group.spans, key=lambda s: (s.start_ps, tids[s.track], s.name)
        ):
            args: Dict[str, object] = {}
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
                args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.args)
            event: Dict[str, object] = {
                "name": span.name,
                "cat": span.track,
                "ph": "X",
                "pid": group.pid,
                "tid": tids[span.track],
                "ts": (span.start_ps + group.time_offset_ps) / 1e6,
                "dur": span.duration_ps / 1e6,
            }
            if args:
                event["args"] = args
            events.append(event)
    return json.dumps({"traceEvents": events}, indent=2)

"""Per-layer self-time tracing installed from outside the program.

The traced run times calls into each layer's public functions: a
:class:`Tracer` swaps those functions for timing wrappers and puts the
originals back on :meth:`Tracer.uninstall`, so nothing under ``src/``
is edited.  Each thread keeps its own span stack, which makes a span's
*self* time (its duration minus the wrapped calls it made) correct
under the service's worker threads.  The accumulators live in a
``multiprocessing.RawArray`` created before any pool worker forks, so
worker-side kernel, sampling and expectation time lands in the same
table, in a region of its own because it overlaps the parent's wait.
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import os
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Internal layer names.  Some reported metrics aggregate several
#: (``timing_replay`` = replay + plan + controller self time).
#: ``client`` marks a benchmark client blocked on a request; it is
#: never reported and only keeps blocked time out of its caller's self
#: time.
LAYERS = (
    "kernel", "sample", "expect", "adjoint",
    "timing_replay", "replay_plan", "controller",
    "dispatch", "engine", "spec", "transpile", "compile", "lower",
    "cache_eval", "cache_put", "cache_program", "coalesce", "admit",
    "session", "wire", "optimizer", "settle", "client",
)
LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}

#: Accumulator fields per (region, layer).
SELF_NS, INCL_NS, CALLS, UNITS, OUTCOMES = range(5)
N_FIELDS = 5
#: Region 0 is the benchmark's own process, region 1 its forked workers.
PARENT, WORKER = 0, 1


class Patch(NamedTuple):
    """One timed entry point.

    ``units(args, result)`` counts work (rows, bytes).  ``outcome``
    counts the calls that matter for a ratio: a callable on
    ``(args, result)``, or the name of a layer, meaning "this call made
    no call into that layer" (a program-cache hit compiles nothing).
    ``when(args)`` limits the span to some calls.
    """

    module: str
    path: str
    layer: str
    units: Optional[Callable] = None
    outcome: object = None
    when: Optional[Callable] = None


def _not_none(_args, result) -> int:
    return int(result is not None)


PATCHES: Tuple[Patch, ...] = (
    Patch("repro.quantum.kernels", "CompiledProgram.execute", "kernel",
          units=lambda args, result: 1),
    Patch("repro.quantum.kernels", "CompiledProgram.execute_batch", "kernel",
          units=lambda args, result: len(args[1])),
    Patch("repro.quantum.statevector", "Statevector.sample_counts", "sample"),
    Patch("repro.quantum.pauli", "MeasurementGroup.expectation_from_counts", "expect"),
    Patch("repro.quantum.pauli", "MeasurementGroup.expectation_from_probabilities", "expect"),
    # adjoint_gradient_batch(program, observable, batch)
    Patch("repro.quantum.adjoint", "adjoint_gradient_batch", "adjoint",
          units=lambda args, result: len(args[2])),
    Patch("repro.core.system", "QtenonSystem.evaluate", "timing_replay",
          when=lambda args: args[0].timing_only),
    Patch("repro.compiler.incremental", "IncrementalCompiler.plan", "replay_plan"),
    Patch("repro.core.controller", "QuantumController.execute_q_run", "controller"),
    Patch("repro.runtime.workers", "SharedMemoryPool.dispatch_batch", "dispatch"),
    Patch("repro.runtime.workers", "SharedMemoryPool.collect_batch", "dispatch"),
    Patch("repro.runtime.workers", "SharedMemoryPool.run_batch", "dispatch"),
    Patch("repro.runtime.workers", "SharedMemoryPool.run_gradients", "dispatch"),
    Patch("repro.runtime.engine", "EvaluationEngine.evaluate_vectors", "engine"),
    Patch("repro.runtime.engine", "EvaluationEngine.evaluate_many", "engine"),
    Patch("repro.runtime.engine", "EvaluationEngine.evaluate_gradients", "engine"),
    # The functional batch bodies: engine self time in the parent, the
    # whole of a worker's busy time in a forked worker.
    Patch("repro.runtime.engine", "evaluate_spec_batch", "engine"),
    Patch("repro.runtime.engine", "evaluate_spec_gradients", "engine"),
    Patch("repro.runtime.engine", "build_spec", "spec"),
    Patch("repro.compiler.transpile", "transpile", "transpile"),
    Patch("repro.quantum.kernels", "compile_circuit", "compile"),
    Patch("repro.core.system", "QtenonSystem.prepare", "lower"),
    Patch("repro.runtime.cache", "EvalCache.get", "cache_eval", outcome=_not_none),
    Patch("repro.runtime.cache", "EvalCache.put", "cache_put"),
    Patch("repro.quantum.kernels", "ReplayCache.get_or_compile", "cache_program",
          outcome="compile"),
    Patch("repro.service.coalescer", "RequestCoalescer.attach", "coalesce",
          outcome=_not_none),
    Patch("repro.service.admission", "AdmissionController.try_admit", "admit",
          outcome=_not_none),
    Patch("repro.service.sessions", "SessionManager.checkout", "session"),
    Patch("repro.service.sessions", "SessionManager.validate_batch", "session"),
    Patch("repro.service.sessions", "SessionManager.run_batch", "session"),
    Patch("repro.service.sessions", "SessionManager.gradients", "session"),
    Patch("repro.service.stream", "StreamWriter.encode", "wire",
          units=lambda args, result: len(result)),
    Patch("repro.service.stream", "StreamDecoder.feed", "wire",
          units=lambda args, result: len(args[1])),
    Patch("repro.service.stream", "pack_eval", "wire"),
    Patch("repro.service.stream", "unpack_eval", "wire"),
    Patch("repro.service.stream", "pack_values", "wire"),
    Patch("repro.service.stream", "unpack_values", "wire"),
    Patch("repro.service.stream", "pack_grads", "wire"),
    Patch("repro.service.stream", "unpack_grads", "wire"),
    Patch("repro.vqa.optimizers", "GradientDescent.run_iteration", "optimizer"),
    Patch("repro.vqa.optimizers", "Spsa.run_iteration", "optimizer"),
    Patch("repro.service.jobs", "JobRecord.deliver_callbacks", "settle"),
)


class _ThreadState(threading.local):
    pid = -1

    def reset(self, pid: int) -> None:
        self.pid = pid
        self.stack: List[int] = []
        self.calls = [0] * len(LAYERS)


class Tracer:
    """Span accumulators plus the patch set that feeds them."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self._acc = multiprocessing.RawArray("d", 2 * len(LAYERS) * N_FIELDS)
        self._lock = multiprocessing.Lock()
        self._local = _ThreadState()
        self._undo: List[Tuple[object, str, object]] = []
        self._stamps: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        self.queue_depth_max = 0

    # -- spans --------------------------------------------------------
    def _state(self) -> _ThreadState:
        local = self._local
        pid = os.getpid()
        if local.pid != pid:  # a new thread, or a forked worker's copy
            local.reset(pid)
        return local

    def _add(self, local: _ThreadState, layer: int, self_ns: int,
             incl_ns: int, units: int, outcome: int) -> None:
        local.calls[layer] += 1
        region = PARENT if local.pid == self.parent_pid else WORKER
        base = (region * len(LAYERS) + layer) * N_FIELDS
        acc = self._acc
        with self._lock:
            acc[base + SELF_NS] += self_ns
            acc[base + INCL_NS] += incl_ns
            acc[base + CALLS] += 1
            acc[base + UNITS] += units
            acc[base + OUTCOMES] += outcome

    def _timed(self, fn, patch: Patch):
        tracer = self
        clock = time.perf_counter_ns
        layer = LAYER_INDEX[patch.layer]
        units, outcome, when = patch.units, patch.outcome, patch.when
        unless = LAYER_INDEX[outcome] if isinstance(outcome, str) else None

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            local = tracer._state()
            stack = local.stack
            before = local.calls[unless] if unless is not None else 0
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if unless is not None:
                    hit = int(local.calls[unless] == before)
                elif outcome is not None:
                    hit = outcome(args, result)
                else:
                    hit = 0
                counted = units(args, result) if units and result is not None else 0
                tracer._add(local, layer, elapsed - child, elapsed, counted, hit)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as ``layer``."""
        local = self._state()
        local.stack.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            child = local.stack.pop()
            if local.stack:
                local.stack[-1] += elapsed
            self._add(local, LAYER_INDEX[layer], elapsed - child, elapsed, 0, 0)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Swap every patched entry point for its timing wrapper."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self.queue_depth_max = 0
        for patch in PATCHES:
            module = importlib.import_module(patch.module)
            owner_name, _, attr = patch.path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._set(owner, attr, self._timed(owner.__dict__[attr], patch))
                continue
            original = getattr(module, attr)
            wrapper = self._timed(original, patch)
            # Modules that imported the function by name hold their own
            # reference: rebind those as well.
            for other in list(sys.modules.values()):
                if getattr(other, "__dict__", {}).get(attr) is original:
                    self._set(other, attr, wrapper)
        self._install_queue_stamps()

    def _install_queue_stamps(self) -> None:
        """Queue wait: stamp each DRR item at enqueue, measure at pop."""
        from repro.service.drr import DeficitRoundRobin

        enqueue = DeficitRoundRobin.__dict__["enqueue"]
        pop = DeficitRoundRobin.__dict__["pop"]
        tracer = self

        def stamped_enqueue(queue, tenant, item, cost):
            enqueue(queue, tenant, item, cost)
            with tracer._lock:
                tracer._stamps[id(item)] = time.perf_counter()
                tracer.queue_depth_max = max(tracer.queue_depth_max, len(queue))

        def stamped_pop(queue):
            popped = pop(queue)
            if popped is not None:
                with tracer._lock:
                    stamp = tracer._stamps.pop(id(popped[1]), None)
                    if stamp is not None:
                        tracer.queue_waits.append(time.perf_counter() - stamp)
            return popped

        self._set(DeficitRoundRobin, "enqueue", stamped_enqueue)
        self._set(DeficitRoundRobin, "pop", stamped_pop)

    def _set(self, owner, attr: str, value) -> None:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, current))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._stamps.clear()

    # -- reading ------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        with self._lock:
            return Snapshot(
                list(self._acc), list(self.queue_waits), self.queue_depth_max
            )


class Snapshot:
    """A copy of the accumulators; ``later.minus(earlier)`` is a window."""

    def __init__(self, acc: List[float], waits: List[float], depth_max: int) -> None:
        self.acc = acc
        self.waits = waits
        self.depth_max = depth_max

    @classmethod
    def empty(cls) -> "Snapshot":
        return cls([0.0] * (2 * len(LAYERS) * N_FIELDS), [], 0)

    def get(self, layer: str, which: int, region: Optional[int] = None) -> float:
        regions = (PARENT, WORKER) if region is None else (region,)
        index = LAYER_INDEX[layer]
        return sum(
            self.acc[(r * len(LAYERS) + index) * N_FIELDS + which] for r in regions
        )

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        return Snapshot(
            [a - b for a, b in zip(self.acc, earlier.acc)],
            self.waits[len(earlier.waits):],
            self.depth_max,
        )

    def plus(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            [a + b for a, b in zip(self.acc, other.acc)],
            self.waits + other.waits,
            max(self.depth_max, other.depth_max),
        )

"""Deterministic fault injection + the resilience layer it exercises.

The paper's evaluation assumes optimal conditions everywhere; this
package models the adverse ones.  A :class:`FaultPlan` declares what
breaks and how often (link loss, measurement-PUT drops/corruption,
readout drift, worker crashes); a :class:`FaultInjector` turns the
plan into per-event decisions that are pure functions of the plan's
content digest, so campaigns replay bit-identically regardless of
thread interleaving.

The chaos campaign driver lives in :mod:`repro.faults.campaign` (kept
out of the package namespace — it imports the runtime and service
layers, which import this package).
"""

from repro.faults.injector import (
    FaultInjector,
    LinkDecision,
    PutDecision,
    WORKER_CRASH,
    WORKER_HANG,
    WORKER_SLOW,
)
from repro.faults.plan import (
    FaultPlan,
    InjectedWorkerCrash,
    InjectedWorkerHang,
    LinkFaults,
    MeasurementFaults,
    NODE_FAULT_KINDS,
    NodeFaults,
    ReadoutDriftFaults,
    WorkerFaults,
)
from repro.faults.protocol import (
    Frame,
    PutFramer,
    PutVerifier,
    checksum32,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "Frame",
    "InjectedWorkerCrash",
    "InjectedWorkerHang",
    "LinkDecision",
    "LinkFaults",
    "MeasurementFaults",
    "NODE_FAULT_KINDS",
    "NodeFaults",
    "PutDecision",
    "PutFramer",
    "PutVerifier",
    "ReadoutDriftFaults",
    "WORKER_CRASH",
    "WORKER_HANG",
    "WORKER_SLOW",
    "WorkerFaults",
    "checksum32",
]

"""Worker-side job execution and result fingerprinting.

:func:`execute_spec` is the whole "business logic" of a worker node:
build the spec's platform through the *same* constructor the
single-process service uses (:mod:`repro.service.platforms`), run the
hybrid loop, and flatten the result to a JSON-able wire payload.
Because sampler seeds are content-derived, executing one spec twice —
on different nodes, before and after a failover, or in a
single-process service — produces byte-identical payloads.  That is
the property the cluster's at-least-once dispatch leans on: a job that
gets re-executed after a node failure settles with the *same* result
the lost execution would have produced.

:func:`result_fingerprint` condenses a payload to one hex digest over
the exact float bits (``float.hex``) of the optimisation trace — the
value the chaos campaigns compare across faulted and clean runs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.analysis.export import report_to_dict
from repro.runtime.cache import EvalCache
from repro.service.jobs import JobSpec
from repro.service.platforms import build_engine, run_spec


def execute_spec(
    spec: JobSpec,
    *,
    core: str = "boom-large",
    timing_only: bool = False,
    cache: Optional[EvalCache] = None,
    engine_workers: int = 1,
) -> Dict[str, object]:
    """Run one spec to completion and return its wire payload.

    The payload carries the spec digest so the master can verify a
    result against the job it dispatched (a desynchronised or stale
    worker cannot settle the wrong job), the optimisation trace, and
    the full execution report via :func:`report_to_dict`.
    """
    engine = build_engine(
        spec,
        core=core,
        timing_only=timing_only,
        cache=cache,
        engine_workers=engine_workers,
    )
    result = run_spec(spec, engine)
    return {
        "digest": spec.digest,
        "final_cost": result.final_cost,
        "best_cost": result.best_cost,
        "cost_history": list(result.cost_history),
        "final_params": [float(value) for value in result.final_params],
        "report": report_to_dict(result.report),
    }


def result_fingerprint(payload: Dict[str, object]) -> str:
    """Content address of a result's numeric trace, exact to the bit.

    ``float.hex`` round-trips every IEEE-754 double losslessly, so two
    fingerprints are equal iff the costs and parameters are the same
    *bits* — the comparison the zero-loss chaos gate runs between a
    faulted campaign and its clean twin.
    """
    parts = [str(payload.get("digest", ""))]
    parts.extend(float(c).hex() for c in payload.get("cost_history", []))
    parts.extend(float(p).hex() for p in payload.get("final_params", []))
    parts.append(float(payload.get("final_cost", 0.0)).hex())
    return hashlib.blake2b(
        "|".join(parts).encode(), digest_size=16
    ).hexdigest()

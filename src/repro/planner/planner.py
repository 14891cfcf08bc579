"""Cost-model-driven execution planner.

The classical analogue of HybridQ-style dispatch (see PAPERS.md): one
front end inspects each job's compiled gate census and routes it to the
cheapest simulator *capable* of running it, instead of the old bare
width check (exact statevector below ``exact_limit``, else the inexact
mean-field product state — which silently approximated every wide
Clifford workload).

Classification is a pure function of the compile-time
:class:`~repro.quantum.kernels.GateCensus`:

* ``clifford``   — no symbolic parameters, every fixed gate Clifford;
* ``clifford_t`` — no symbolic parameters, only Clifford + T-power
  diagonal rotations (tracked for telemetry; today it routes like a
  general job because no Clifford+T engine exists yet);
* ``general``    — anything with symbolic parameters or other
  non-Clifford gates.

Candidate backends and feasibility:

=============  =======================  =====  ==============================
backend        feasible when            exact  asymptotic cost model
=============  =======================  =====  ==============================
statevector    ``n <= exact_limit``     yes    ``gates * 2**n + shots * n``
stabilizer     job class ``clifford``   yes    ``gates*2n + n**3 + shots*n``
product        always                   no     ``gates * n + shots * n``
=============  =======================  =====  ==============================

The planner picks the cheapest *exact* feasible backend and only falls
back to the product state when no exact backend is feasible — so a
``general`` job gets exactly the legacy width-check choice (statevector
below the limit, product above it), keeping every existing workload's
``backend_id``, cache keys and content-derived sampler seeds unchanged,
while Clifford jobs of any width now run exactly on the tableau.

Decisions are deterministic: same census + width + limit => same
:class:`PlanDecision` (ties break lexicographically), which is what
keeps :class:`~repro.runtime.cache.EvalCache` keys stable.  Every
decision increments the process-wide :data:`PLANNER_STATS` counters
(exported via :mod:`repro.telemetry.bridge`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.quantum.kernels import GateCensus
from repro.sim.stats import StatGroup

#: Job classes (see module docstring).
CLIFFORD = "clifford"
CLIFFORD_T = "clifford_t"
GENERAL = "general"

#: User-facing backend selector values (CLI/``JobSpec``); ``auto``
#: means "let the planner decide".
BACKEND_CHOICES = ("auto", "statevector", "stabilizer", "product")

#: Nominal shot count used for cost estimates when the call site does
#: not know the real one yet (``build_spec`` runs before any
#: ``evaluate``).  A *fixed* nominal keeps decisions a pure function of
#: the circuit structure — shots scale every candidate's sampling term
#: identically anyway, so they never flip a choice.
DEFAULT_PLAN_SHOTS = 1000

PLANNER_STATS = StatGroup("planner")
_DECISIONS = PLANNER_STATS.counter("decisions")
_FORCED = PLANNER_STATS.counter("forced")


def derive_backend_id(backend: str, readout_noise=None) -> str:
    """The single authority for backend-id strings.

    The returned id feeds :func:`repro.runtime.cache.evaluation_key`
    digests (and therefore content-derived sampler seeds), so planner
    and ``build_spec`` call sites must never drift: a readout-noise
    model that is not ideal suffixes the id, and a planner-chosen
    backend produces the same id as the same backend forced explicitly.
    """
    backend_id = backend
    if readout_noise is not None and not readout_noise.is_ideal:
        backend_id += f"+readout({readout_noise.p01:g},{readout_noise.p10:g})"
    return backend_id


@dataclass(frozen=True)
class PlanDecision:
    """One routing decision: where a job runs and why."""

    backend: str
    job_class: str
    forced: bool
    exact: bool
    reason: str
    #: per-candidate cost estimates (only feasible candidates appear).
    costs: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CostModel:
    """Tunable per-operation weights for the backend cost estimates.

    The absolute scale is meaningless — only ratios matter — so the
    defaults weigh every elementary operation equally: one amplitude
    touch (statevector), one tableau row-bit touch (stabilizer), one
    mean-field amplitude touch (product), one sampled bit.
    """

    amp_op: float = 1.0
    tableau_op: float = 1.0
    product_op: float = 1.0
    shot_bit: float = 1.0

    def statevector_cost(
        self, n_qubits: int, census: GateCensus, shots: int
    ) -> float:
        return (
            census.n_gates * float(2.0 ** n_qubits) * self.amp_op
            + shots * n_qubits * self.shot_bit
        )

    def stabilizer_cost(
        self, n_qubits: int, census: GateCensus, shots: int
    ) -> float:
        # Gates touch 2n generator rows; support extraction for
        # sampling is one n**3 Gaussian elimination.
        return (
            census.n_gates * 2 * n_qubits * self.tableau_op
            + n_qubits**3 * self.tableau_op
            + shots * n_qubits * self.shot_bit
        )

    def product_cost(
        self, n_qubits: int, census: GateCensus, shots: int
    ) -> float:
        return (
            census.n_gates * n_qubits * self.product_op
            + shots * n_qubits * self.shot_bit
        )


class ExecutionPlanner:
    """Classify a compiled job and pick its execution backend."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        plan_shots: int = DEFAULT_PLAN_SHOTS,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.plan_shots = plan_shots

    # ------------------------------------------------------------------
    def classify(self, census: GateCensus) -> str:
        if census.is_clifford:
            return CLIFFORD
        if census.is_clifford_t:
            return CLIFFORD_T
        return GENERAL

    def decide(
        self,
        n_qubits: int,
        censuses: Sequence[GateCensus],
        exact_limit: int,
        force_backend: Optional[str] = None,
        shots: Optional[int] = None,
    ) -> PlanDecision:
        """Route one job (all its measurement-group circuits together).

        Pure in its inputs: identical ``(n_qubits, censuses,
        exact_limit, force_backend, shots)`` always return an equal
        decision.  ``force_backend`` bypasses the choice but still
        classifies and costs the job (the decision records it as
        forced, and the forced id flows through
        :func:`derive_backend_id` exactly like a planned one).
        """
        census = GateCensus()
        for item in censuses:
            census = census.merge(item)
        job_class = self.classify(census)
        shots = self.plan_shots if shots is None else shots

        costs: Dict[str, float] = {}
        if n_qubits <= exact_limit:
            costs["statevector"] = self.cost_model.statevector_cost(
                n_qubits, census, shots
            )
        if job_class == CLIFFORD:
            costs["stabilizer"] = self.cost_model.stabilizer_cost(
                n_qubits, census, shots
            )
        costs["product"] = self.cost_model.product_cost(
            n_qubits, census, shots
        )

        if force_backend is not None:
            backend = force_backend
            forced = True
            reason = "forced by caller"
        else:
            forced = False
            exact_candidates = {
                name: cost for name, cost in costs.items() if name != "product"
            }
            if exact_candidates:
                backend = min(
                    exact_candidates,
                    key=lambda name: (exact_candidates[name], name),
                )
                reason = f"cheapest exact backend for {job_class} job"
            else:
                backend = "product"
                reason = (
                    f"no exact backend feasible for {job_class} job at "
                    f"{n_qubits} qubits (exact_limit={exact_limit})"
                )

        exact = backend in costs and backend != "product"
        _DECISIONS.increment()
        if forced:
            _FORCED.increment()
        PLANNER_STATS.counter(f"class_{job_class}").increment()
        PLANNER_STATS.counter(f"chosen_{_stat_safe(backend)}").increment()
        return PlanDecision(
            backend=backend,
            job_class=job_class,
            forced=forced,
            exact=exact,
            reason=reason,
            costs=costs,
        )


def supports_adjoint(backend: str) -> bool:
    """Feasibility gate for adjoint-mode differentiation.

    Only the exact dense statevector keeps the full amplitude vector
    the reverse sweep pulls back through each gate; tableau and
    mean-field states cannot be differentiated this way.  Accepts raw
    backend names and derived backend ids (a readout-noise suffix does
    not change the simulator — though noisy jobs lose the adjoint path
    upstream anyway, since the analytic pass models no readout errors).
    """
    return backend.startswith("statevector")


def _stat_safe(name: str) -> str:
    """Counter-name-safe form of an arbitrary (possibly forced) backend
    string."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name.lower()
    )


#: Process-wide planner used by :func:`repro.runtime.engine.build_spec`.
DEFAULT_PLANNER = ExecutionPlanner()

__all__: Tuple[str, ...] = (
    "BACKEND_CHOICES",
    "CLIFFORD",
    "CLIFFORD_T",
    "GENERAL",
    "DEFAULT_PLAN_SHOTS",
    "DEFAULT_PLANNER",
    "PLANNER_STATS",
    "CostModel",
    "ExecutionPlanner",
    "PlanDecision",
    "derive_backend_id",
    "supports_adjoint",
)

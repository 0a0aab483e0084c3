"""Batched right-hand-side bindings for the GPU-style engines.

A :class:`BatchedODEProblem` binds a compiled
:class:`~repro.model.odesystem.ODESystem` to a batch of
parameterizations and an evaluation policy, exposing the masked-subset
evaluation interface the batched integrators consume:

    fun(times, states, rows=None) -> derivatives for the selected sims
    jacobian(times, states, rows=None) -> batched Jacobians for the selection

``rows`` indexes into the batch, so per-simulation kinetic constants
are looked up device-side without host round trips — the analog of
keeping the parameter matrix resident in GPU global memory. An
integrator that keeps its running simulations as a working set binds
them once with :meth:`BatchedODEProblem.subset` and calls ``fun``
without ``rows``, evaluating every row of the subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from ..backend import Array, xp
from ..errors import SolverError
from ..model import ODESystem, ParameterizationBatch
from ..model.odesystem import POLICIES

if TYPE_CHECKING:  # layering: resilience.faults is a leaf data module
    from ..guards.state import KernelGuard
    from ..resilience.faults import FaultPlan
    from ..telemetry.metrics import MetricsRegistry
    from ..telemetry.tracer import SpanHandle, Tracer


@dataclass
class KernelCounters:
    """One launch's workload account on the batched substrate.

    ``kernel_launches`` counts vectorized evaluation calls (the analog
    of CUDA kernel launches); ``simulation_evaluations`` counts the
    per-simulation work they performed (launches x active batch width).

    The engine opens one account per launch; the step loops bump it on
    the hot path, the launch's ``LaunchCost`` is priced from it, and it
    is then folded into the run's
    :class:`~repro.telemetry.MetricsRegistry`, which is the only
    run-level store of these counts. :attr:`METRIC_NAMES` is the one
    field -> metric-name table both directions go through.
    """

    rhs_kernel_launches: int = 0
    rhs_simulation_evaluations: int = 0
    jacobian_kernel_launches: int = 0
    jacobian_simulation_evaluations: int = 0
    factorizations: int = 0
    newton_iterations: int = 0

    METRIC_NAMES: ClassVar[dict[str, str]] = {
        "rhs_kernel_launches": "kernel.rhs_launches",
        "rhs_simulation_evaluations": "kernel.rhs_evals",
        "jacobian_kernel_launches": "kernel.jacobian_launches",
        "jacobian_simulation_evaluations": "kernel.jacobian_evals",
        "factorizations": "newton.factorizations",
        "newton_iterations": "newton.iterations",
    }

    def fold_into(self, metrics: "MetricsRegistry") -> None:
        """Add this account to the registry's counters (zeros too, so
        every run carries the same key set)."""
        for name, metric in self.METRIC_NAMES.items():
            metrics.count(metric, getattr(self, name))

    @classmethod
    def from_metrics(cls, metrics: "MetricsRegistry") -> "KernelCounters":
        """The registry's running totals, read back as an account."""
        return cls(**{name: metrics.counters.get(metric, 0)
                      for name, metric in cls.METRIC_NAMES.items()})


@dataclass
class BatchedODEProblem:
    """An ODE system bound to a parameter batch and an eval policy.

    ``row_ids`` gives every row a stable *global* identity (its index
    in the full campaign batch) that survives router/retry subsetting;
    ``fault_plan`` is the deterministic fault-injection hook of the
    resilience layer — rows listed in its ``nan_rows`` get NaN
    derivatives on every RHS evaluation, and rows in ``drift_rows`` get
    a constant bias added (violating conservation), keyed by global
    identity so the fault follows the row through subsets and launch
    chunks. ``guard`` is the in-kernel state-validity guard
    (:class:`repro.guards.KernelGuard`), likewise keyed by global ids
    and travelling through every subset.

    ``tracer``/``trace_span`` carry the telemetry context into the
    integrators: solvers emit their kernel-phase spans
    (compile / step-loop / dense-output) as children of ``trace_span``
    through ``tracer`` (see :mod:`repro.telemetry`). Both default to
    off and, like the counters, travel through every subset.
    """

    system: ODESystem
    parameters: ParameterizationBatch
    policy: str = "hybrid"
    counters: KernelCounters = field(default_factory=KernelCounters)
    fault_plan: "FaultPlan | None" = None
    row_ids: Array | None = None
    guard: "KernelGuard | None" = None
    tracer: "Tracer | None" = None
    trace_span: "SpanHandle | None" = None
    #: The rate constants species-major, (M, B) C-contiguous: bound
    #: once here (and so on every :meth:`subset`), handed to the system
    #: as their (B, M) transposed view.
    constants_t: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise SolverError(f"unknown policy {self.policy!r}; "
                              f"expected one of {POLICIES}")
        if self.row_ids is None:
            self.row_ids = xp.arange(self.parameters.size, dtype=xp.int64)
        else:
            self.row_ids = xp.asarray(self.row_ids, dtype=xp.int64)
            if self.row_ids.shape != (self.parameters.size,):
                raise SolverError(
                    f"row_ids shape {self.row_ids.shape} does not match "
                    f"batch size {self.parameters.size}")
        if self.parameters.n_reactions != self.system.n_reactions:
            raise SolverError(
                f"parameter batch has {self.parameters.n_reactions} rate "
                f"constants, system has {self.system.n_reactions} reactions")
        if self.parameters.n_species != self.system.n_species:
            raise SolverError(
                f"parameter batch has {self.parameters.n_species} species "
                f"columns, system has {self.system.n_species} species")
        self.constants_t = xp.array(self.parameters.rate_constants.T,
                                    order="C")

    @property
    def batch_size(self) -> int:
        return self.parameters.size

    @property
    def n_species(self) -> int:
        return self.system.n_species

    def initial_states(self) -> Array:
        return self.parameters.initial_states.copy()

    def fun(self, times: Array, states: Array,
            rows: Array | None = None) -> Array:
        """Batched dX/dt for the simulations selected by ``rows``.

        ``rows=None`` means every row of this problem, in order: the
        constants are used as bound, with no gather. This is how an
        integrator evaluates a working set it holds as a
        :meth:`subset`. Otherwise the selected columns of the bound
        species-major constants are gathered.

        ``times`` is accepted for interface uniformity; RBM dynamics are
        autonomous so it is unused.
        """
        del times
        if rows is None:
            constants, row_ids = self.constants_t.T, self.row_ids
        else:
            constants = self.constants_t[:, rows].T
            row_ids = self.row_ids[rows]
        self.counters.rhs_kernel_launches += 1
        self.counters.rhs_simulation_evaluations += states.shape[0]
        derivatives = self.system.rhs(states, constants, self.policy)
        if self.fault_plan is not None:
            if self.fault_plan.injects_nan:
                faulted = self.fault_plan.nan_mask(row_ids)
                if faulted.any():
                    derivatives[faulted] = xp.nan
            if self.fault_plan.injects_drift:
                drifting = self.fault_plan.drift_mask(row_ids)
                if drifting.any():
                    derivatives[drifting] += self.fault_plan.drift_rate
        return derivatives

    def jacobian(self, times: Array, states: Array,
                 rows: Array | None = None) -> Array:
        """Batched Jacobians for the selected simulations (``rows=None``:
        every row of this problem, as for :meth:`fun`).
        """
        del times
        constants = (self.parameters.rate_constants if rows is None
                     else self.parameters.rate_constants[rows])
        self.counters.jacobian_kernel_launches += 1
        self.counters.jacobian_simulation_evaluations += states.shape[0]
        return self.system.jacobian(states, constants)

    def subset(self, rows: Array) -> "BatchedODEProblem":
        """Problem restricted to a subset of simulations.

        The kernel counters are *shared* with the parent problem, so the
        launch's router subsets, governor segments and retry rungs all
        accumulate into the launch's one account; global row
        identities, the fault plan and the kernel guard travel with the
        subset.
        """
        return BatchedODEProblem(self.system, self.parameters.subset(rows),
                                 self.policy, self.counters,
                                 self.fault_plan, self.row_ids[rows],
                                 self.guard, self.tracer, self.trace_span)

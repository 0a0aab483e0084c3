"""The batched GPU-style simulation engine.

:class:`BatchSimulator` is the top-level deterministic simulator of
this reproduction: it compiles a reaction-based model once, splits a
parameterization batch into device-sized launches, runs them on the
batched integrators over the vectorized substrate (method ``"auto"``
switches each simulation DOPRI5 cannot finish to Radau IIA) and merges
the trajectories. It is the component the parameter-space analyses
(PSA / SA / PE in :mod:`repro.core`) run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend import Array, xp
from ..errors import CampaignInterrupted, SolverError
from ..guards import (GuardConfig, GuardLog, InvariantMonitor, KernelGuard,
                      MemoryEvent, MemoryGovernor)
from ..guards.violations import INVARIANT_DRIFT, GuardViolation
from ..model import (ODESystem, Parameterization, ParameterizationBatch,
                     ReactionBasedModel)
from ..resilience.faults import FaultPlan
from ..resilience.policy import RetryPolicy
from ..resilience.quarantine import (FailureRecord, QuarantineLog,
                                     RetryAttempt)
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions, validate_time_grid
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import SpanHandle, as_tracer
from .batch_bdf import BatchBDF
from .batch_dopri5 import BatchDopri5
from .batch_radau5 import BatchRadau5
from .batch_result import (BROKEN, GUARD, OK, STATUS_NAMES, BatchSolveResult,
                           allocate_result)
from .batched_ode import BatchedODEProblem, KernelCounters
from .device import TITAN_X, VirtualDevice
from .perfmodel import (DeviceTimeEstimate, estimate_device_time,
                        memory_footprint_doubles)
from .router import StiffnessRouter

#: The batched integrator that serves each method name: the
#: fixed-method launches and the retry rungs.
INTEGRATORS = {"dopri5": BatchDopri5, "radau5": BatchRadau5, "bdf": BatchBDF}
METHODS = ("auto",) + tuple(INTEGRATORS)

#: Default cap on simulations per launch (``max_batch_per_launch``); the
#: campaign runner coalesces journaled chunks up to the same cap.
MAX_BATCH_PER_LAUNCH = 512


@dataclass
class EngineReport:
    """Execution metadata of one :meth:`BatchSimulator.simulate` call.

    ``quarantine`` holds the rows that exhausted the retry ladder (only
    populated when the simulator runs with a
    :class:`~repro.resilience.RetryPolicy`).

    ``guard_log`` collects the numerical-integrity violations (only
    populated when the simulator runs with a
    :class:`~repro.guards.GuardConfig`); ``memory_events`` records each
    launch the memory governor had to split to stay under the device
    budget.

    ``metrics`` is the typed telemetry registry
    (:class:`~repro.telemetry.MetricsRegistry`) and the report's only
    store of counts: steps, kernel work (``kernel.*``, ``newton.*``,
    folded in from each launch's
    :class:`~repro.gpu.batched_ode.KernelCounters`), guard and retry
    accounting (``retry.retried_rows`` row-attempts the ladder ran,
    ``retry.recovered_rows`` rows it rescued) and per-launch
    working-set histograms. It is always populated, and it is
    timestamp-free, so it is safe to embed in campaign checkpoints.

    Per-launch facts live on the launch spans, not here: each
    ``launch-<i>`` span carries ``rows``, ``species``, ``reactions``,
    ``method``, the perfmodel's ``predicted_ms`` and, as its duration,
    the observed wall-clock (the raw material of
    :mod:`repro.telemetry.calibration`); each ``rung-0`` span carries
    the ``switched_rows`` the router moved to Radau IIA, whose run
    total is the ``router.switched_rows`` counter.
    """

    elapsed_seconds: float
    n_launches: int
    modeled_device_time: DeviceTimeEstimate | None = None
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    guard_log: GuardLog = field(default_factory=GuardLog)
    memory_events: list[MemoryEvent] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class BatchSimulator:
    """Fine- and coarse-grained batched deterministic simulator.

    Parameters
    ----------
    model:
        The reaction-based model to simulate.
    options:
        Shared numerical options (tolerances, step caps, controller
        constants).
    policy:
        Substrate evaluation policy: ``"hybrid"`` (vectorize over batch
        and reactions), ``"coarse"`` or ``"fine"`` — see
        :mod:`repro.model.odesystem`.
    method:
        ``"auto"`` starts every simulation on DOPRI5 and continues the
        ones it stops unfinished in Radau IIA; ``"dopri5"`` /
        ``"radau5"`` force one method.
    max_batch_per_launch:
        Upper bound on simulations per launch; larger batches are split,
        mirroring the paper family's observation that launches beyond
        ~2048 concurrent child grids saturate the device.
    device:
        Virtual device used for the modeled-time estimate in the report.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy`: after each
        launch's first pass, its failed-row subset is re-executed up the
        solver ladder and recovered rows are spliced back; rows that
        exhaust the ladder are quarantined on the report instead of
        silently NaN-ing downstream analyses. ``None`` (the default)
        keeps the legacy single-pass behavior.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` for deterministic
        fault injection (tests and resilience drills only).
    guard_config:
        Optional :class:`~repro.guards.GuardConfig` enabling the
        numerical-integrity guards: the in-kernel state-validity checks
        run inside every integrator step and the conservation-law
        monitor checks every finished trajectory. Violating rows get
        status ``guard_violation`` and flow through the retry ladder
        and quarantine exactly like solver failures. ``None`` (the
        default) runs guard-free.
    memory_governor:
        Optional :class:`~repro.guards.MemoryGovernor` enforcing a
        device-memory budget per launch: over-budget launches are
        split into contiguous segments (exponential backoff) and
        re-merged, with each degradation recorded on the report.
        ``None`` skips budget checks unless the fault plan injects
        memory pressure (which then uses a default governor).
    tracer:
        Optional telemetry: a :class:`~repro.telemetry.Tracer`, a trace
        file path, or ``None`` (the default, the <2%-overhead no-op
        tracer). Each launch emits ``launch -> rung -> phase`` spans and
        the report's :class:`~repro.telemetry.MetricsRegistry` is
        populated either way.
    trace_parent:
        Optional parent span handle under which this simulate call's
        launch spans nest (the campaign runner passes its chunk span);
        ``None`` makes the launches trace roots.
    """

    def __init__(self, model: ReactionBasedModel,
                 options: SolverOptions = DEFAULT_OPTIONS,
                 policy: str = "hybrid", method: str = "auto",
                 max_batch_per_launch: int = MAX_BATCH_PER_LAUNCH,
                 device: VirtualDevice = TITAN_X,
                 retry_policy: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 guard_config: GuardConfig | None = None,
                 memory_governor: MemoryGovernor | None = None,
                 tracer=None,
                 trace_parent: SpanHandle | None = None) -> None:
        if method not in METHODS:
            raise SolverError(f"unknown method {method!r}; "
                              f"expected one of {METHODS}")
        if max_batch_per_launch < 1:
            raise SolverError("max_batch_per_launch must be >= 1")
        self.model = model
        self.system = ODESystem.from_model(model)
        self.options = options
        self.policy = policy
        self.method = method
        self.max_batch_per_launch = max_batch_per_launch
        self.device = device
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.guard_config = guard_config
        self.memory_governor = memory_governor
        self.tracer = as_tracer(tracer)
        self.trace_parent = trace_parent
        self.last_report: EngineReport | None = None

    # ------------------------------------------------------------------

    def simulate(self, t_span: tuple[float, float],
                 t_eval: Array | None = None,
                 parameters: ParameterizationBatch | Parameterization |
                 None = None) -> BatchSolveResult:
        """Run the batch and return merged trajectories.

        ``parameters`` defaults to a single simulation of the model's
        nominal parameterization. Execution metadata (wall-clock, the
        metrics registry, modeled device time) is stored in
        :attr:`last_report`; per-launch facts go on the launch spans.
        """
        batch = self._normalize_parameters(parameters)
        t_eval = validate_time_grid(t_span, t_eval)

        report = EngineReport(elapsed_seconds=0.0, n_launches=0)
        kernel_guard, invariant_monitor = self._build_guards(batch, report)
        tracer = self.tracer
        chunks: list[BatchSolveResult] = []
        started = clock.monotonic()
        for start in range(0, batch.size, self.max_batch_per_launch):
            if self.fault_plan is not None and \
                    self.fault_plan.crashes_before_launch(report.n_launches):
                raise CampaignInterrupted(
                    f"injected crash before launch {report.n_launches}",
                    completed_chunks=report.n_launches)
            stop = min(start + self.max_batch_per_launch, batch.size)
            sub_batch = batch.subset(xp.arange(start, stop))
            counters = KernelCounters()
            problem = BatchedODEProblem(self.system, sub_batch, self.policy,
                                        counters, self.fault_plan,
                                        xp.arange(start, stop), kernel_guard,
                                        tracer)
            launch_span = tracer.start(
                f"launch-{report.n_launches}", "launch",
                parent=self.trace_parent, rows=stop - start,
                species=self.system.n_species,
                reactions=self.system.n_reactions)
            rung_span = tracer.start("rung-0", "rung", parent=launch_span,
                                     method=self.method)
            problem.trace_span = rung_span
            chunk, switched = self._run_launch_governed(
                problem, t_span, t_eval, report)
            tracer.end(rung_span, switched_rows=switched)
            report.metrics.count("router.switched_rows", switched)
            if self.fault_plan is not None and \
                    self.fault_plan.forces_launch_failure(report.n_launches):
                chunk.status_codes[:] = BROKEN
                chunk.y[:] = xp.nan
            if invariant_monitor is not None:
                self._check_invariants(invariant_monitor, report, problem,
                                       chunk)
            retried = recovered = 0
            if self.retry_policy is not None:
                retried, recovered = self._retry_failed_rows(
                    problem, chunk, t_span, t_eval, report,
                    invariant_monitor, launch_span)
            # The prediction prices the launch's *own* account, which
            # its router subsets, memory splits and retry rungs all
            # accumulate into, so their work is attributed to the
            # launch that incurred it.
            predicted = estimate_device_time(
                counters, stop - start, self.system.n_species,
                self.system.n_reactions, self.device)
            counters.fold_into(report.metrics)
            report.metrics.count("retry.retried_rows", retried)
            report.metrics.count("retry.recovered_rows", recovered)
            tracer.end(launch_span, method=self.method,
                       predicted_ms=predicted.total_seconds * 1.0e3)
            self._observe_launch(report, stop - start, t_eval.size)
            chunks.append(chunk)
            report.n_launches += 1
        report.elapsed_seconds = clock.monotonic() - started
        # From the run's totals, not a sum of per-launch estimates: the
        # model is nonlinear in batch size.
        report.modeled_device_time = estimate_device_time(
            KernelCounters.from_metrics(report.metrics), batch.size,
            self.system.n_species, self.system.n_reactions, self.device)

        with tracer.span("merge", "phase", parent=self.trace_parent,
                         launches=len(chunks)):
            result = self._merge(chunks, t_eval)
        result.elapsed_seconds = report.elapsed_seconds
        self._populate_metrics(report, result)
        self.last_report = report
        return result

    # ------------------------------------------------------------------

    def _normalize_parameters(self, parameters) -> ParameterizationBatch:
        if parameters is None:
            parameters = self.model.nominal_parameterization()
        if isinstance(parameters, Parameterization):
            self.model.check_parameterization(parameters)
            parameters = ParameterizationBatch.from_parameterizations(
                [parameters])
        if not isinstance(parameters, ParameterizationBatch):
            raise SolverError(
                "parameters must be a Parameterization, a "
                f"ParameterizationBatch or None, got {type(parameters)!r}")
        return parameters

    # ------------------------------------------------------------------
    # telemetry metrics

    def _observe_launch(self, report: EngineReport, rows: int,
                        n_save_points: int) -> None:
        """Histogram one launch's width and device working set."""
        report.metrics.observe("launch.rows", rows)
        report.metrics.observe(
            "launch.working_set_doubles",
            memory_footprint_doubles(rows, self.system.n_species,
                                     self.system.n_reactions,
                                     n_save_points, self.method))

    @staticmethod
    def _populate_metrics(report: EngineReport,
                          result: BatchSolveResult) -> None:
        """Fold the run's step counts and logs into the metrics registry
        (kernel and retry counts are folded in after each launch).

        Everything here is a deterministic count — no timestamps — so
        the registry is safe to journal in campaign checkpoints
        (deep-lint rule DET005 keeps it that way).
        """
        metrics = report.metrics
        metrics.count("steps.accepted", int(result.n_accepted.sum()))
        metrics.count("steps.rejected", int(result.n_rejected.sum()))
        metrics.count("guard.clamped_steps",
                      report.guard_log.n_clamped_steps)
        for kind, count in report.guard_log.counts().items():
            metrics.count(f"guard.violations.{kind}", count)
        metrics.count("governor.splits", len(report.memory_events))
        metrics.count("governor.segments",
                      sum(event.n_splits for event in report.memory_events))
        metrics.count("quarantine.rows", len(report.quarantine))

    # ------------------------------------------------------------------
    # numerical-integrity guards + memory governor

    def _build_guards(self, batch: ParameterizationBatch,
                      report: EngineReport
                      ) -> tuple[KernelGuard | None, InvariantMonitor | None]:
        """Instantiate the per-run guard objects from the config.

        The kernel guard and the invariant monitor share one law basis
        (derived once from the model's stoichiometry) and one violation
        log (the report's), and the guard indexes its per-row bands and
        reference totals by global row id over the *full* campaign
        batch, so it travels unchanged through subsets and launches.
        """
        config = self.guard_config
        if config is None or not config.enabled:
            return None, None
        laws = self.model.conservation_law_basis()
        laws = laws if laws.shape[0] else None
        kernel_guard = None
        if config.check_negativity or config.check_nonfinite or \
                config.check_step_collapse:
            kernel_guard = KernelGuard(config, report.guard_log, GUARD,
                                       batch.initial_states, laws)
        invariant_monitor = None
        if config.check_invariants and laws is not None:
            invariant_monitor = InvariantMonitor(laws, config)
        return kernel_guard, invariant_monitor

    def _check_invariants(self, monitor: InvariantMonitor,
                          report: EngineReport,
                          problem: BatchedODEProblem,
                          result: BatchSolveResult) -> None:
        """Flag finished rows whose conserved totals drifted.

        Only rows with status OK are checked: failed rows' NaN tails
        carry no drift information and are already being handled.
        Violating rows get status GUARD, which re-enters
        ``failed_mask`` so the retry ladder / quarantine / analysis
        masking pick them up like any solver failure.
        """
        log = report.guard_log
        ok_rows = xp.flatnonzero(result.status_codes == OK)
        if ok_rows.size == 0:
            return
        ratios = monitor.drift_ratios(
            result.y[ok_rows], problem.parameters.initial_states[ok_rows])
        violated = xp.flatnonzero(ratios > 1.0)
        if violated.size == 0:
            return
        rows = ok_rows[violated]
        result.status_codes[rows] = GUARD
        report.metrics.count("guard.invariant_restamps", int(rows.size))
        for local, row in zip(violated, rows):
            log.add(GuardViolation(
                INVARIANT_DRIFT, int(problem.row_ids[row]),
                float(result.t[-1]), float(ratios[local]),
                f"conserved totals drifted {ratios[local]:.2f}x the "
                f"allowed tolerance over the trajectory"))

    def _run_launch_governed(self, problem: BatchedODEProblem,
                             t_span: tuple[float, float],
                             t_eval: Array,
                             report: EngineReport
                             ) -> tuple[BatchSolveResult, int]:
        """Run one launch under the memory governor (if any); returns
        the result and the rows the router switched to Radau IIA.

        When the estimated working set exceeds the budget — or the
        fault plan injects memory pressure on this launch — the launch
        is split into contiguous row segments that run independently
        and merge back via ``merge_rows``. Per-row adaptive stepping
        makes every row's trajectory independent of its neighbors, so
        the merged result is bit-identical to the unsplit launch.
        """
        governor = self.memory_governor
        forced_fit_rows = None
        if self.fault_plan is not None and \
                self.fault_plan.forces_memory_pressure(report.n_launches):
            forced_fit_rows = self.fault_plan.oom_fit_rows
            if forced_fit_rows is None:
                forced_fit_rows = max(1, (problem.batch_size + 1) // 2)
            if governor is None:
                governor = MemoryGovernor()
        if governor is None:
            return self._run_launch(problem, t_span, t_eval)
        plan = governor.plan(problem.batch_size, problem.n_species,
                             self.system.n_reactions, t_eval.size,
                             self.method, self.device,
                             forced_fit_rows=forced_fit_rows)
        if not plan.split:
            return self._run_launch(problem, t_span, t_eval)
        merged = allocate_result(t_eval, problem.batch_size,
                                 problem.n_species, 0)
        switched = 0
        for start, stop in plan.segments:
            rows = xp.arange(start, stop)
            segment, segment_switched = self._run_launch(
                problem.subset(rows), t_span, t_eval)
            merged.merge_rows(segment, rows)
            switched += segment_switched
        report.memory_events.append(MemoryEvent(
            launch_index=report.n_launches,
            requested_rows=problem.batch_size,
            granted_rows=plan.segment_rows,
            n_splits=plan.n_splits,
            estimated_doubles=plan.estimated_doubles,
            budget_doubles=plan.budget_doubles,
            injected=plan.injected))
        return merged, switched

    def _run_launch(self, problem: BatchedODEProblem,
                    t_span: tuple[float, float], t_eval: Array
                    ) -> tuple[BatchSolveResult, int]:
        if self.method == "auto":
            result, decision = StiffnessRouter(self.options).solve(
                problem, t_span, t_eval)
            return result, decision.n_stiff
        return INTEGRATORS[self.method](self.options).solve(
            problem, t_span, t_eval), 0

    # ------------------------------------------------------------------
    # retry escalation + quarantine (the resilience layer)

    def _retry_failed_rows(self, problem: BatchedODEProblem,
                           chunk: BatchSolveResult,
                           t_span: tuple[float, float], t_eval: Array,
                           report: EngineReport,
                           invariant_monitor: InvariantMonitor | None = None,
                           launch_span: SpanHandle | None = None
                           ) -> tuple[int, int]:
        """Climb the retry ladder for the launch's failed-row subset.

        Recovered rows are spliced back into ``chunk`` via
        :meth:`~repro.gpu.batch_result.BatchSolveResult.merge_rows`;
        rows that survive every rung become
        :class:`~repro.resilience.FailureRecord` entries (full
        per-attempt history) in ``report.quarantine``. Retried results
        are re-checked against the invariant monitor before a row
        counts as recovered — a rung that converges but still drifts is
        not a rescue.

        Returns the launch's ``(retried, recovered)`` row counts: the
        row-attempts the ladder ran and the rows it rescued.
        """
        failed = xp.flatnonzero(chunk.failed_mask)
        retried_rows = recovered_rows = 0
        if failed.size == 0:
            return retried_rows, recovered_rows
        histories = {
            int(row): [RetryAttempt(
                "first-pass",
                chunk.methods()[row],
                STATUS_NAMES[int(chunk.status_codes[row])],
                int(chunk.n_steps[row]),
                self.options.rtol, self.options.atol,
                self.options.max_steps)]
            for row in failed}
        for rung, stage in enumerate(self.retry_policy.planned_stages()):
            if failed.size == 0:
                break
            options = stage.derive_options(self.options)
            solver = INTEGRATORS[stage.method](options)
            subproblem = problem.subset(failed)
            rung_span = self.tracer.start(
                f"rung-{rung + 1}", "rung", parent=launch_span,
                method=stage.method, rows=int(failed.size))
            subproblem.trace_span = rung_span
            retried = solver.solve(subproblem, t_span, t_eval)
            self.tracer.end(rung_span)
            if invariant_monitor is not None:
                self._check_invariants(invariant_monitor, report,
                                       subproblem, retried)
            retried_rows += int(failed.size)
            report.metrics.count(f"retry.rung{rung + 1}.rows",
                                 int(failed.size))
            for local, row in enumerate(failed):
                histories[int(row)].append(RetryAttempt(
                    f"retry-{rung + 1}", stage.method,
                    STATUS_NAMES[int(retried.status_codes[local])],
                    int(retried.n_steps[local]),
                    options.rtol, options.atol, options.max_steps))
            recovered = xp.flatnonzero(retried.status_codes == OK)
            if recovered.size:
                chunk.merge_rows(retried.take_rows(recovered),
                                 failed[recovered])
                recovered_rows += int(recovered.size)
                report.metrics.count(f"retry.rung{rung + 1}.recovered",
                                     int(recovered.size))
            failed = failed[retried.status_codes != OK]
        for row in failed:
            global_row = int(problem.row_ids[row])
            report.quarantine.add(FailureRecord(
                global_row,
                problem.parameters.rate_constants[row].copy(),
                problem.parameters.initial_states[row].copy(),
                histories[int(row)]))
        return retried_rows, recovered_rows

    @staticmethod
    def _merge(chunks: list[BatchSolveResult],
               t_eval: Array) -> BatchSolveResult:
        if len(chunks) == 1:
            return chunks[0]
        merged = BatchSolveResult(
            t=t_eval.copy(),
            y=xp.concatenate([chunk.y for chunk in chunks]),
            status_codes=xp.concatenate(
                [chunk.status_codes for chunk in chunks]),
            method_codes=xp.concatenate(
                [chunk.method_codes for chunk in chunks]),
            n_steps=xp.concatenate([chunk.n_steps for chunk in chunks]),
            n_accepted=xp.concatenate(
                [chunk.n_accepted for chunk in chunks]),
            n_rejected=xp.concatenate(
                [chunk.n_rejected for chunk in chunks]),
        )
        return merged

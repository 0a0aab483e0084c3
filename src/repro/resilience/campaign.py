"""Chunked campaign execution with checkpoint/resume and deadlines.

:func:`run_campaign` is the resilient counterpart of one big
:func:`repro.core.simulate.simulate` call: the parameter batch is split
into fixed-size chunks, every completed chunk is journaled through
:class:`~repro.io.checkpoint.CampaignCheckpoint`, and a re-run of the
same campaign (same model, batch shape, grid and chunking) skips the
journaled chunks. On the batched engine, consecutive pending chunks
run as one launch of up to ``max_batch_per_launch`` rows (wide batches
amortise per-launch cost) and are journaled in one atomic commit, so a
crash or ``KeyboardInterrupt`` costs at most one launch of
≤ ``max_batch_per_launch`` rows. Rows do not depend on launch width,
so the merged result is the same as with one launch per chunk. A
wall-clock ``deadline_seconds`` degrades gracefully: execution stops
between launches (one chunk each under a deadline) and the partial
result is returned with ``incomplete=True`` instead of raising.
With ``workers``, the shard executor (:mod:`repro.resilience.executor`)
runs the same launch groups in worker processes, and every finished
group, in-process or not, takes the same journal, trace and merge path.

PSA-1D/2D and Sobol SA accept a :class:`CampaignConfig` directly
(``campaign=`` keyword); parameter estimation journals its multi-start
optima through the same checkpoint payloads
(:func:`repro.core.pe.estimate_multi_start`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CampaignInterrupted, ResilienceError
from ..gpu.batch_result import (METHOD_DOPRI5, RUNNING, BatchSolveResult,
                                allocate_result)
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import as_tracer
from .faults import FaultPlan
from .policy import RetryPolicy
from .quarantine import QuarantineLog


@dataclass(frozen=True)
class CampaignConfig:
    """Execution controls of one resilient campaign.

    Attributes
    ----------
    chunk_size:
        Simulations per journaled chunk — the resume granularity. The
        serial loop runs consecutive pending chunks as one engine
        launch of up to ``max_batch_per_launch`` rows, so the most work
        a crash can lose is one such launch.
    checkpoint_path:
        JSON journal location; ``None`` disables journaling (chunked
        execution and deadlines still apply).
    deadline_seconds:
        Wall-clock budget for the whole campaign; once exceeded no
        further chunk is started and the partial result is returned
        with ``incomplete=True``. With workers, the remaining budget
        also bounds every in-flight chunk (it is terminated, not
        merely not-started).
    workers:
        Worker processes for the supervised shard executor
        (:mod:`repro.resilience.executor`), which runs the serial
        loop's launch groups in them; ``0`` runs them in-process. The
        merged result is byte-identical either way.
    heartbeat_interval:
        Seconds between worker liveness heartbeats.
    heartbeat_timeout:
        Heartbeat silence after which the supervisor declares a worker
        hung, terminates it and reassigns its launch group.
    chunk_timeout:
        Wall-clock cap per launch-group attempt under the executor;
        ``None`` leaves attempts bounded only by the campaign deadline.
    max_chunk_attempts:
        Attempt budget per launch group (or split piece) before the
        poison ladder kicks in: a group splits at chunk boundaries, a
        chunk in half, and width-one pieces quarantine their rows as
        ``WorkerFailure`` records.
    max_worker_restarts:
        Pool-wide restart budget; once spent, a collapsed pool hands
        its pending work to the serial loop
        (``CampaignResult.degraded``).
    restart_backoff / restart_backoff_cap:
        Capped exponential backoff (seconds) between worker restarts.
    slow_chunk_seconds:
        Launch groups taking longer than this are counted in
        ``campaign.executor.slow_chunks``; ``None`` disables the count.
    """

    chunk_size: int = 256
    checkpoint_path: str | Path | None = None
    deadline_seconds: float | None = None
    workers: int = 0
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 2.0
    chunk_timeout: float | None = None
    max_chunk_attempts: int = 3
    max_worker_restarts: int = 8
    restart_backoff: float = 0.05
    restart_backoff_cap: float = 1.0
    slow_chunk_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ResilienceError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.deadline_seconds is not None \
                and not (self.deadline_seconds > 0.0):
            raise ResilienceError(
                f"deadline_seconds must be > 0, got "
                f"{self.deadline_seconds}")
        if self.workers < 0:
            raise ResilienceError(
                f"workers must be >= 0, got {self.workers}")
        if not (self.heartbeat_interval > 0.0):
            raise ResilienceError(
                f"heartbeat_interval must be > 0, got "
                f"{self.heartbeat_interval}")
        if not (self.heartbeat_timeout > self.heartbeat_interval):
            raise ResilienceError(
                "heartbeat_timeout must exceed heartbeat_interval, got "
                f"{self.heartbeat_timeout} <= {self.heartbeat_interval}")
        if self.chunk_timeout is not None \
                and not (self.chunk_timeout > 0.0):
            raise ResilienceError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}")
        if self.max_chunk_attempts < 1:
            raise ResilienceError(
                f"max_chunk_attempts must be >= 1, got "
                f"{self.max_chunk_attempts}")
        if self.max_worker_restarts < 0:
            raise ResilienceError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}")
        if self.restart_backoff < 0.0 or self.restart_backoff_cap < 0.0:
            raise ResilienceError("restart backoff values must be >= 0")
        if self.slow_chunk_seconds is not None \
                and not (self.slow_chunk_seconds > 0.0):
            raise ResilienceError(
                f"slow_chunk_seconds must be > 0, got "
                f"{self.slow_chunk_seconds}")


@dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`.

    ``result`` always covers the *full* batch: rows of chunks that
    never ran (deadline hit) keep NaN trajectories and the
    ``running`` status, exposed as :attr:`pending_mask`.
    """

    result: BatchSolveResult
    incomplete: bool
    deadline_hit: bool
    completed_chunks: int
    total_chunks: int
    resumed_chunks: int
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    checkpoint_path: Path | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: True when the worker pool collapsed and the serial loop ran the
    #: work it left.
    degraded: bool = False
    #: True when a ``cancel_event`` stopped the campaign between
    #: launches; everything journaled so far resumes exact-once.
    cancelled: bool = False

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantine)

    @property
    def pending_mask(self) -> np.ndarray:
        """Rows whose chunk never executed (shape (B,))."""
        return self.result.status_codes == RUNNING

    def summary(self) -> str:
        state = "incomplete" if self.incomplete else "complete"
        return (f"campaign {state}: {self.completed_chunks}/"
                f"{self.total_chunks} chunks "
                f"({self.resumed_chunks} resumed), "
                f"{self.n_quarantined} quarantined row(s)"
                + (", deadline hit" if self.deadline_hit else "")
                + (", cancelled" if self.cancelled else "")
                + (", degraded to serial" if self.degraded else ""))


def _numerics_digest(options, retry_policy) -> str:
    """Digest of everything that shapes the journaled *numbers*.

    Solver options (tolerances, step caps, controller constants) and
    the retry-policy ladder both change the trajectories a chunk
    produces; resuming a journal written under different numerics would
    silently splice mismatched results, so their digest is part of the
    campaign fingerprint. ``None`` (engine-default) policies hash as a
    sentinel distinct from any explicit ladder.
    """
    payload = {
        "options": None if options is None else asdict(options),
        "retry": None if retry_policy is None else asdict(retry_policy),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def campaign_fingerprint(model, batch_size: int, chunk_size: int,
                         t_span: tuple[float, float],
                         t_eval: np.ndarray, engine: str,
                         options=None, retry_policy=None) -> dict:
    """Identity of a campaign, compared when re-opening a journal."""
    grid = hashlib.sha256(
        np.ascontiguousarray(t_eval, dtype=np.float64).tobytes()
    ).hexdigest()[:16]
    return {"kind": "campaign", "model": model.name,
            "n_species": int(model.n_species),
            "n_reactions": int(model.n_reactions),
            "batch_size": int(batch_size), "chunk_size": int(chunk_size),
            "t_span": [float(t_span[0]), float(t_span[1])],
            "t_eval_sha": grid, "engine": engine,
            "numerics_sha": _numerics_digest(options, retry_policy)}


def run_campaign(model, t_span: tuple[float, float],
                 t_eval: np.ndarray | None = None,
                 parameters=None, engine: str = "batched",
                 options=None, config: CampaignConfig | None = None,
                 retry_policy: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 telemetry=None, chunk_gate=None, cancel_event=None,
                 trace_parent=None,
                 **engine_kwargs) -> CampaignResult:
    """Run a batch as a resilient, journaled, chunked campaign.

    ``retry_policy`` and ``fault_plan`` are forwarded to the batched
    engine (they are ignored by the sequential/stochastic engines,
    whose per-row statuses still feed the quarantine-free masking
    downstream). Raises
    :class:`~repro.errors.CampaignInterrupted` on an injected crash or
    ``KeyboardInterrupt``; completed chunks are journaled first, so the
    identical call resumes.

    ``chunk_gate`` and ``cancel_event`` are the campaign service's
    hooks (:mod:`repro.service`). The gate arbitrates chunk starts
    across concurrent campaigns: every chunk holds a permit for its
    row width while it executes, so a scheduler can enforce fair-share
    and in-flight caps without knowing chunk internals
    (``acquire(width, cancel_event) -> bool`` /
    ``try_acquire(width) -> bool`` / ``release(width)``). A launch
    takes its first chunk with the blocking ``acquire``, adds further
    chunks while ``try_acquire`` grants them, and releases every grant
    after the launch. The ``cancel_event`` (a ``threading.Event``)
    requests *cooperative* cancellation: checked before every launch,
    so a cancelled campaign stops after at most one more launch with
    its journal intact (``CampaignResult.cancelled``) and resumes
    exact-once later.
    ``trace_parent`` nests the campaign's root span under a service
    ``job`` span.

    ``telemetry`` enables tracing: a trace-file path (JSONL, appended),
    a :class:`~repro.telemetry.Tracer`, or ``None``. Every chunk gets a
    ``chunk-<i>`` span whose ``launch`` attribute names the first chunk
    of its launch; the engine's spans nest under that first chunk.
    Span sinks flush right after each launch is journaled and the
    ``campaign`` root span is written only when the campaign
    completes, so a crashed-and-resumed campaign (each run passing the
    *same trace path*) appends into one coherent tree with stable
    structural ids — no duplicate roots, no orphaned chunks. Each
    launch's engine metrics are journaled as one checkpoint payload
    and rehydrated once on resume, so :attr:`CampaignResult.metrics`
    always aggregates the whole batch; ``campaign.launches`` counts
    the launches this run executed.
    """
    from ..core.simulate import _normalize
    from ..solvers.base import DEFAULT_OPTIONS
    from .worker import WorkerSpec

    options = DEFAULT_OPTIONS if options is None else options
    config = CampaignConfig() if config is None else config
    batch = _normalize(model, parameters)
    if t_eval is None:
        t_eval = np.array([float(t_span[0]), float(t_span[1])])
    t_eval = np.asarray(t_eval, dtype=np.float64)

    checkpoint = None
    if config.checkpoint_path is not None:
        from ..io.checkpoint import CampaignCheckpoint
        checkpoint = CampaignCheckpoint.open(
            config.checkpoint_path,
            campaign_fingerprint(model, batch.size, config.chunk_size,
                                 t_span, t_eval, engine, options,
                                 retry_policy))
    spec = WorkerSpec(model=model, t_span=t_span, t_eval=t_eval,
                      engine=engine, options=options,
                      retry_policy=retry_policy, fault_plan=fault_plan,
                      heartbeat_interval=config.heartbeat_interval,
                      engine_kwargs=dict(engine_kwargs))
    runner = _Runner(spec, batch, config, checkpoint, as_tracer(telemetry),
                     trace_parent, chunk_gate, cancel_event)

    # Pass 1 — resume everything the journal already holds (cheap, no
    # integration), leaving a work-list of chunks still to execute.
    remaining = runner.resume()
    # Pass 2 — the serial loop runs the work-list. With workers, the
    # shard executor runs its launch groups first and hands back only
    # what a collapsed pool left undone.
    if config.workers > 0 and remaining:
        from .executor import run_sharded
        remaining = run_sharded(runner, remaining)
    runner.serial(remaining)
    return runner.outcome()


# ----------------------------------------------------------------------


def _deadline_exceeded(config: CampaignConfig,
                       fault_plan: FaultPlan | None, started: float,
                       executed: int, now: float | None = None) -> bool:
    if now is None:
        now = clock.monotonic()
    if config.deadline_seconds is not None and \
            now - started > config.deadline_seconds:
        return True
    return (fault_plan is not None
            and fault_plan.expires_before_chunk(executed))


@dataclass
class _Partial:
    """The finished pieces of one chunk, held until they cover it."""

    buffer: BatchSolveResult
    covered: int = 0
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    metrics: MetricsRegistry | None = None


class _Runner:
    """One run of a campaign: its work-list, its launch groups, and the
    one path every finished unit takes into the journal, the trace and
    the merged result.

    A *unit* is a list of contiguous ``(index, start, stop)`` pieces in
    campaign rows: whole chunks that :meth:`group` joined into one
    launch, or a single piece of one chunk that the shard executor
    split off. The serial loop (:meth:`serial`) and the shard executor
    (:mod:`repro.resilience.executor`) both form units with
    :meth:`group` and land them through :meth:`finish`.
    """

    def __init__(self, spec, batch, config: CampaignConfig, checkpoint,
                 tracer, trace_parent, chunk_gate, cancel_event) -> None:
        from ..gpu.engine import MAX_BATCH_PER_LAUNCH

        self.spec = spec
        self.batch = batch
        self.config = config
        self.checkpoint = checkpoint
        self.tracer = tracer
        self.chunk_gate = chunk_gate
        self.cancel_event = cancel_event
        self.total_chunks = -(-batch.size // config.chunk_size)
        # Consecutive pending chunks share one launch of up to the
        # engine's launch cap. Only the batched engine coalesces, and
        # a wall-clock deadline keeps one chunk per launch because it
        # is checked between launches.
        self.launch_cap = 0
        if spec.engine == "batched" and config.deadline_seconds is None:
            self.launch_cap = int(spec.engine_kwargs.get(
                "max_batch_per_launch", MAX_BATCH_PER_LAUNCH))
        self.merged = allocate_result(spec.t_eval, batch.size,
                                      spec.model.n_species, METHOD_DOPRI5)
        self.quarantine = QuarantineLog()
        self.metrics = MetricsRegistry()
        self.partial: dict[int, _Partial] = {}
        self.completed = self.resumed = self.executed = 0
        self.deadline_hit = self.degraded = self.cancelled = False
        self.campaign_span = tracer.start(
            "campaign", "campaign", parent=trace_parent,
            model=spec.model.name, batch=int(batch.size),
            chunks=int(self.total_chunks))
        self.started = clock.monotonic()

    def chunk_range(self, index: int) -> tuple[int, int]:
        start = index * self.config.chunk_size
        return start, min(start + self.config.chunk_size, self.batch.size)

    def whole(self, piece) -> bool:
        index, start, stop = piece
        return self.chunk_range(index) == (start, stop)

    def span_name(self, piece) -> str:
        index, start, stop = piece
        if self.whole(piece):
            return f"chunk-{index}"
        offset = self.chunk_range(index)[0]
        return f"chunk-{index}[{start - offset}:{stop - offset}]"

    def interrupted(self, message: str) -> CampaignInterrupted:
        return CampaignInterrupted(
            message, checkpoint_path=(None if self.checkpoint is None
                                      else self.checkpoint.path),
            completed_chunks=self.completed)

    def resume(self) -> list[tuple[int, int, int]]:
        """Merge every journaled chunk; return the rest, in order."""
        checkpoint = self.checkpoint
        remaining: list[tuple[int, int, int]] = []
        resumed_launches: set[int] = set()
        for index in range(self.total_chunks):
            start, stop = self.chunk_range(index)
            if checkpoint is None or not checkpoint.has_chunk(index):
                remaining.append((index, start, stop))
                continue
            rows = np.arange(start, stop)
            chunk_result, quarantine_dicts = checkpoint.load_chunk(index)
            _check_chunk_shape(chunk_result, rows.size, self.spec.t_eval,
                               index)
            self.quarantine.merge(QuarantineLog.from_dicts(quarantine_dicts))
            # A launch's metrics cover all of its chunks: count them once.
            launch = checkpoint.launch_of(index)
            launch_metrics = (None if launch in resumed_launches
                              else checkpoint.get_payload(
                                  f"metrics-{launch}"))
            resumed_launches.add(launch)
            if launch_metrics is not None:
                self.metrics.merge(MetricsRegistry.from_dict(launch_metrics))
            self.merged.merge_rows(chunk_result, rows)
            self.completed += 1
            self.resumed += 1
            self.metrics.count("campaign.chunks.resumed")
        return remaining

    def group(self, work, position: int, started: int) -> list:
        """The unit that starts at ``work[position]``.

        Its first piece already holds its gate grant. Following whole
        chunks join while :func:`_joins_launch` admits them
        (``started`` counts the chunks started before the unit); a
        piece of a chunk runs alone.
        """
        unit = [work[position]]
        if not self.whole(unit[0]):
            return unit
        while position + len(unit) < len(work):
            candidate = work[position + len(unit)]
            if not self.whole(candidate) or not _joins_launch(
                    unit, candidate, self.launch_cap, self.spec.fault_plan,
                    started + len(unit), self.chunk_gate):
                break
            unit.append(candidate)
        return unit

    def serial(self, work) -> None:
        """Run the work-list in-process, one unit per launch."""
        config, plan = self.config, self.spec.fault_plan
        gate, tracer = self.chunk_gate, self.tracer
        min_launch_seconds: float | None = None
        position = 0
        while position < len(work):
            index, start, stop = work[position]
            now = clock.monotonic()
            if self.cancel_event is not None and self.cancel_event.is_set():
                self.cancelled = True
                break
            if _deadline_exceeded(config, plan, self.started, self.executed,
                                  now):
                self.deadline_hit = True
                break
            # Predictive budget check: even with wall-clock budget left,
            # starting a launch the fastest launch so far could not
            # finish within would only burn time past the deadline —
            # skip straight to the incomplete result instead.
            if config.deadline_seconds is not None and \
                    min_launch_seconds is not None and \
                    config.deadline_seconds - (now - self.started) \
                    < min_launch_seconds:
                self.deadline_hit = True
                break
            if plan is not None and plan.crashes_before_launch(self.executed):
                raise self.interrupted(
                    f"injected crash before campaign chunk {index}")

            if gate is not None:
                if not gate.acquire(stop - start, self.cancel_event):
                    self.cancelled = True
                    break
                # The gate may have blocked for a while; restart the
                # launch timer so the wait is not billed as compute.
                now = clock.monotonic()
            # Every chunk of the unit holds one gate grant.
            unit = self.group(work, position, self.executed)
            chunk_span = tracer.start(self.span_name(unit[0]), "chunk",
                                      parent=self.campaign_span,
                                      rows=int(stop - start),
                                      launch=int(index))
            try:
                try:
                    result, launch_quarantine, report = _run_chunk(
                        self.spec, self.batch, unit, tracer, chunk_span)
                finally:
                    if gate is not None:
                        for _, begin, end in unit:
                            gate.release(end - begin)
                tracer.end(chunk_span)
                self.finish(unit, result, launch_quarantine,
                            None if report is None else report.metrics,
                            self.campaign_span)
            except KeyboardInterrupt:
                raise self.interrupted(
                    f"campaign interrupted during chunk {index}; "
                    f"{self.completed} chunk(s) already journaled") from None
            self.metrics.count("campaign.launches")
            position += len(unit)
            after = clock.monotonic()
            duration = after - now
            if min_launch_seconds is None or duration < min_launch_seconds:
                min_launch_seconds = duration
            # Post-launch wall-clock check: a launch that overshot the
            # deadline mid-flight must mark the result, not wait for
            # the next pre-launch check that may never come.
            if config.deadline_seconds is not None and \
                    after - self.started > config.deadline_seconds \
                    and self.completed < self.total_chunks:
                self.deadline_hit = True
                break

    def finish(self, unit, result: BatchSolveResult,
               launch_quarantine: QuarantineLog,
               launch_metrics: MetricsRegistry | None, parent) -> None:
        """Journal, trace and merge one finished unit.

        ``result`` and ``launch_quarantine`` cover the unit's rows, the
        quarantine in unit-local rows; chunk spans after the first hang
        off ``parent``. A unit of whole chunks commits them with its
        launch's metrics in one journal write. A piece of a chunk is
        held until the chunk's pieces cover it; the chunk then commits
        with the metrics of all of them.
        """
        entries = _split_launch(result, launch_quarantine, unit,
                                self.tracer, parent)
        index, start, stop = unit[0]
        rows = np.arange(start, unit[-1][2])
        if not self.whole(unit[0]):
            offset, end = self.chunk_range(index)
            piece = self.partial.get(index)
            if piece is None:
                piece = self.partial[index] = _Partial(allocate_result(
                    self.spec.t_eval, end - offset,
                    self.spec.model.n_species, METHOD_DOPRI5))
            piece.buffer.merge_rows(result, rows - offset)
            piece.covered += stop - start
            piece.quarantine.merge(entries[0][2])
            if launch_metrics is not None:
                piece.metrics = piece.metrics or MetricsRegistry()
                piece.metrics.merge(launch_metrics)
            if piece.covered < end - offset:
                return
            del self.partial[index]
            entries = [(index, piece.buffer, piece.quarantine)]
            result, launch_metrics = piece.buffer, piece.metrics
            rows = np.arange(offset, end)
        if self.checkpoint is not None:
            self.checkpoint.commit(
                [(chunk, chunk_result, chunk_quarantine.to_dicts())
                 for chunk, chunk_result, chunk_quarantine in entries],
                None if launch_metrics is None else launch_metrics.to_dict())
        # Flush spans only after the unit is journaled: the trace file
        # and the journal lose exactly the same chunks on a crash.
        self.tracer.flush()
        for _, _, chunk_quarantine in entries:
            self.quarantine.merge(chunk_quarantine)
        if launch_metrics is not None:
            self.metrics.merge(launch_metrics)
        self.merged.merge_rows(result, rows)
        self.completed += len(entries)
        self.executed += len(entries)
        self.metrics.count("campaign.chunks.executed", len(entries))

    def outcome(self) -> CampaignResult:
        # Unstarted rows stay NaN/'running': nothing was integrated, so
        # they must not masquerade as failures of the dynamics.
        incomplete = self.completed < self.total_chunks
        self.merged.elapsed_seconds = clock.monotonic() - self.started
        if self.config.workers:
            # Workers finish units in any order; chunk order keeps the
            # log the same from run to run.
            self.quarantine.records.sort(
                key=lambda record: record.row // self.config.chunk_size)
        if self.completed == self.total_chunks and self.executed:
            # The campaign root is written only once, by the run that
            # finishes the final chunk — a crashed run never flushes its
            # root, so the resume's root adopts the earlier chunk spans.
            # A fully-resumed run executed nothing and emits nothing:
            # re-running a completed campaign leaves the trace unchanged
            # instead of appending a duplicate root.
            self.tracer.end(self.campaign_span, degraded=self.degraded,
                            deadline_hit=self.deadline_hit,
                            cancelled=self.cancelled,
                            quarantined=len(self.quarantine))
            self.tracer.flush()
        return CampaignResult(
            self.merged, incomplete, self.deadline_hit, self.completed,
            self.total_chunks, self.resumed, self.quarantine,
            None if self.checkpoint is None else self.checkpoint.path,
            self.metrics, self.degraded, self.cancelled)


def _joins_launch(group, candidate, launch_cap: int,
                  fault_plan: FaultPlan | None, executed: int,
                  chunk_gate) -> bool:
    """Whether the pending ``candidate`` chunk may join ``group``'s launch.

    It must follow the group's last chunk, fit the launch cap, not be
    the chunk at which an injected crash or deadline fires (``executed``
    counts the chunks run before it) and, last, win a gate grant. A
    chunk with an injected launch failure, memory pressure or worker
    fault runs alone, so no clean chunk's rows share its retry rungs or
    its worker's fate.
    """
    index, start, stop = candidate
    first = group[0][0]
    if index != group[-1][0] + 1 or stop - group[0][1] > launch_cap:
        return False
    if fault_plan is not None and (
            fault_plan.crashes_before_launch(executed)
            or fault_plan.expires_before_chunk(executed)
            or {first, index} & set(
                fault_plan.fail_launches + fault_plan.oom_launches
                + fault_plan.worker_kill_chunks
                + fault_plan.worker_hang_chunks
                + fault_plan.worker_slow_chunks)):
        return False
    return chunk_gate is None or chunk_gate.try_acquire(stop - start)


def _split_launch(result: BatchSolveResult, launch_quarantine: QuarantineLog,
                  group, tracer, parent) -> list:
    """Per-piece ``(index, result, quarantine)`` slices of a launch.

    Quarantine rows move to campaign space. Every chunk after the first
    gets its own (empty) ``chunk-<i>`` span under ``parent``, naming
    the launch it shared.
    """
    first, offset, _ = group[0]
    shifted = QuarantineLog()
    shifted.merge(launch_quarantine, row_offset=offset)
    entries = []
    for index, start, stop in group:
        if index != first:
            tracer.end(tracer.start(f"chunk-{index}", "chunk",
                                    parent=parent,
                                    rows=int(stop - start),
                                    launch=int(first)))
        records = [record for record in shifted
                   if start <= record.row < stop]
        entries.append((index,
                        result.take_rows(np.arange(start - offset,
                                                   stop - offset)),
                        QuarantineLog(records)))
    return entries


def _run_chunk(spec, batch, unit, tracer=None, parent=None):
    """Run one unit's rows: the launch body of the serial loop and of
    every worker process. Returns ``(result, quarantine, report)``
    with the quarantine in unit-local rows."""
    from ..core.simulate import simulate

    index, start, _ = unit[0]
    stop = unit[-1][2]
    kwargs = dict(spec.engine_kwargs)
    if spec.engine == "batched":
        kwargs["retry_policy"] = spec.retry_policy
        kwargs["fault_plan"] = (None if spec.fault_plan is None
                                else spec.fault_plan.for_chunk(index, start,
                                                               stop))
        if tracer is not None:
            kwargs["tracer"] = tracer
            kwargs["trace_parent"] = parent
    result = simulate(spec.model, spec.t_span, spec.t_eval,
                      batch.subset(np.arange(start, stop)), spec.engine,
                      spec.options, **kwargs)
    report = result.engine_report
    chunk_quarantine = (report.quarantine if report is not None
                        else QuarantineLog())
    return result.raw, chunk_quarantine, report


def _check_chunk_shape(chunk_result: BatchSolveResult, n_rows: int,
                       t_eval: np.ndarray, index: int) -> None:
    if chunk_result.batch_size != n_rows or \
            chunk_result.t.shape != t_eval.shape or \
            not np.allclose(chunk_result.t, t_eval):
        raise ResilienceError(
            f"journaled chunk {index} does not match the campaign "
            f"(rows {chunk_result.batch_size} vs {n_rows} or differing "
            f"time grid); delete the journal to recompute")

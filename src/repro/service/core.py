"""The campaign service: admission, dispatch, and job supervision.

:class:`CampaignService` owns four cooperating pieces:

* an **admission** gate (:meth:`CampaignService.submit`) enforcing
  per-tenant quotas and the bounded queue, with typed rejections
  (:class:`~repro.errors.QuotaExceeded`,
  :class:`~repro.errors.WorkingSetExceeded`,
  :class:`~repro.errors.QueueFull`) and priority-ordered shedding;
* an asyncio **dispatcher** loop that starts queued jobs into the
  running set (deficit-fair across tenants, priority-ordered within
  one), sheds deadline-expired queued work, and preempts running jobs
  back to the queue when the degradation ladder shrinks the slots;
  it wakes only when :meth:`_wake` announces a change or the earliest
  queued deadline expires;
* a per-job **supervisor** (:meth:`_run_job`) driving attempts,
  scheduler-level fault injection, the attempt-timeout backstop,
  cooperative cancellation and the terminal-state bookkeeping;
* the shared :class:`~repro.service.scheduler.ChunkScheduler`, whose
  per-tenant gates every campaign thread acquires chunk grants
  through.

Campaign execution is delegated unchanged to
:func:`repro.resilience.run_campaign` on a worker thread
(``asyncio.to_thread``), so journaling, resume, quarantine, sharding
and telemetry behave exactly as they do standalone — the job's spans
simply nest under ``service/job-<id>/``. Jobs that one dispatcher
pass starts together and that can share engine launches (same model
object, batched engine, span, grid bytes, options and retry policy;
first attempt; no deadline, fault plan or workers) run their first
attempt as one launch group: one worker thread, one ``run_campaign``
call with the later jobs as peers
(:class:`~repro.resilience.CampaignPeer`), each job keeping its own
journal, gate, cancel event, spans and result.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np

from ..errors import (QueueFull, QuotaExceeded, ReproError, ServiceError,
                      WorkingSetExceeded)
from ..gpu.engine import MAX_BATCH_PER_LAUNCH
from ..gpu.perfmodel import memory_footprint_doubles
from ..resilience.campaign import CampaignConfig, CampaignPeer, run_campaign
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.prometheus import labeled
from ..telemetry.slo import SLOTracker
from ..telemetry.tracer import as_tracer
from .config import ServiceConfig
from .jobs import JobRecord, JobRequest, JobState
from .scheduler import ChunkScheduler, DegradationLadder


class CampaignService:
    """Multi-tenant front-end over the campaign/executor stack.

    Parameters
    ----------
    config:
        Service limits and quotas; defaults to :class:`ServiceConfig`.
    telemetry:
        Trace destination (path, tracer, or ``None``): the service
        opens one ``service`` root span, with a ``job-<id>`` child per
        started job and each job's full campaign tree below that.
    fault_plan:
        Scheduler-level fault injection
        (:class:`~repro.resilience.FaultPlan` ``sched_*`` fields),
        addressed by admission index. Per-job engine/worker faults
        travel on :attr:`JobRequest.fault_plan` instead.
    hub:
        Optional :class:`~repro.telemetry.live.MetricsHub`: attached
        to the service tracer on ``start()`` (so it sees every span
        close live); the ``/metrics`` endpoint and ``repro top`` read
        its window aggregates.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 telemetry=None, fault_plan=None, hub=None) -> None:
        self.config = ServiceConfig() if config is None else config
        self.tracer = as_tracer(telemetry)
        self.fault_plan = fault_plan
        self.hub = hub
        self.metrics = MetricsRegistry()
        # Engine-side counters merged from every finished job's
        # campaign result: kernel launches, Newton iterations, guard
        # and retry accounting, service-wide.
        self.engine_metrics = MetricsRegistry()
        self.slo = SLOTracker(self.config.slos, self.config.default_slo,
                              metrics=self.metrics,
                              tracer=self.tracer) \
            if self.config.tracks_slos else None
        self.scheduler = ChunkScheduler(self.config.max_inflight_chunks)
        self.ladder = DegradationLadder(self.config, on_change=self._wake)
        self._jobs: dict[int, JobRecord] = {}
        self._queue: list[JobRecord] = []
        self._running: dict[int, asyncio.Task] = {}
        self._next_id = 0
        self._admitted = 0
        self._stopping = False
        self._started = False
        self._service_span = None
        self._dispatcher: asyncio.Task | None = None
        self._dispatcher_error: BaseException | None = None
        self._wakeup: asyncio.Future | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        self._wakeup = asyncio.get_running_loop().create_future()
        if self.hub is not None:
            self.hub.attach(self.tracer)
        self._service_span = self.tracer.start("service", "service")
        self._dispatcher = asyncio.create_task(self._dispatch())
        self._dispatcher.add_done_callback(self._dispatcher_done)

    async def stop(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) every queued and
        running job reaches its terminal state first, without it the
        queue is shed and running jobs are cancelled cooperatively."""
        if not self._started:
            raise ServiceError("service was never started")
        if not drain:
            for job in list(self._queue):
                self._finish_queued(job, JobState.SHED, "shutdown")
                self.ladder.note_shed()
            self._queue.clear()
            for task_id in list(self._running):
                record = self._jobs[task_id]
                record.cancel.set()
        self._stopping = True
        self._wake()
        if self._dispatcher is not None:
            await self._dispatcher
        self.scheduler.stop()
        self.tracer.end(self._service_span,
                        jobs=int(self._admitted),
                        ladder=self.ladder.state)
        if self.hub is not None:
            self.hub.detach()
        # The sink flush opens and writes the trace file: off the loop.
        await asyncio.to_thread(self.tracer.flush)

    async def drain(self) -> None:
        """Wait until no job is queued or running."""
        while self._queue or self._running:
            await self._until_woken()

    def _wake(self) -> None:
        """Announce a change a waiting coroutine may be blocked on
        (submission, finish, shrunk running set, requeue, cancel, stop,
        ladder pressure): resolve the wake-up future, arm a fresh one."""
        if self._wakeup is not None:
            self._wakeup.set_result(None)
            self._wakeup = self._wakeup.get_loop().create_future()

    async def _until_woken(self, until: float | None = None) -> None:
        """Sleep until the next :meth:`_wake` or the clock reads ``until``."""
        timeout = None if until is None else until - clock.monotonic()
        await asyncio.wait({self._wakeup}, timeout=timeout)

    # -- admission -------------------------------------------------------

    def submit(self, request: JobRequest) -> JobRecord:
        """Admit a job, or raise a typed
        :class:`~repro.errors.AdmissionError` subclass.

        Rejected submissions are still recorded (state ``rejected``)
        so service accounting closes, but never enter the queue.
        """
        if self._stopping or not self._started:
            raise ServiceError(
                "service is not accepting submissions (not started, or "
                "stopping)")
        self.metrics.count("service.jobs.submitted")
        self.metrics.count(labeled("service.tenant.submitted",
                                   tenant=request.tenant))
        job = JobRecord(self._next_job_id(), request)
        self._jobs[job.job_id] = job
        job.submitted_at = clock.monotonic()
        quota = self.config.quota_for(request.tenant)
        try:
            self._check_working_set(request, quota)
            self._check_tenant_queue(request, quota)
            self._make_room(request)
        except (QuotaExceeded, WorkingSetExceeded, QueueFull) as error:
            job.state = JobState.REJECTED
            job.reason = type(error).__name__
            job.error = str(error)
            job.done.set()
            self.metrics.count("service.jobs.rejected")
            self.metrics.count(labeled("service.tenant.rejected",
                                       tenant=request.tenant))
            raise
        job.admission_index = self._admitted
        self._admitted += 1
        self.scheduler.register(request.tenant, quota.weight,
                                quota.max_inflight_chunks)
        self._queue.append(job)
        self.metrics.count("service.jobs.admitted")
        self.metrics.count(labeled("service.tenant.admitted",
                                   tenant=request.tenant))
        self.metrics.observe("service.queue.depth_samples",
                             len(self._queue))
        self._wake()
        return job

    def _next_job_id(self) -> int:
        job_id = self._next_id
        self._next_id += 1
        return job_id

    def _check_working_set(self, request: JobRequest, quota) -> None:
        if quota.working_set_doubles is None:
            return
        model = request.model
        n_save = 2 if request.t_eval is None else len(request.t_eval)
        width = max(1, min(int(request.chunk_size), self._n_rows(request)))
        per_chunk = memory_footprint_doubles(width, model.n_species,
                                             model.n_reactions, n_save)
        estimate = per_chunk * quota.max_inflight_chunks
        if estimate > quota.working_set_doubles:
            raise WorkingSetExceeded(
                f"job working set ~{estimate} doubles "
                f"({quota.max_inflight_chunks} chunk(s) of {width} rows) "
                f"exceeds the tenant budget {quota.working_set_doubles}",
                tenant=request.tenant)

    @staticmethod
    def _n_rows(request: JobRequest) -> int:
        from ..core.simulate import _normalize
        return _normalize(request.model, request.parameters).size

    def _check_tenant_queue(self, request: JobRequest, quota) -> None:
        queued = sum(1 for job in self._queue
                     if job.request.tenant == request.tenant)
        if queued >= quota.max_queued:
            raise QuotaExceeded(
                f"tenant {request.tenant!r} already has {queued} queued "
                f"job(s) (quota {quota.max_queued})",
                tenant=request.tenant)

    def _make_room(self, request: JobRequest) -> None:
        """Shed the weakest queued job for a stronger newcomer, or
        refuse the newcomer outright."""
        if len(self._queue) < self.config.queue_capacity:
            return
        victim = min(self._queue,
                     key=lambda job: (job.request.priority, -job.job_id))
        if victim.request.priority >= request.priority:
            raise QueueFull(
                f"queue is at capacity ({self.config.queue_capacity}) and "
                f"no queued job has lower priority than "
                f"{request.priority}",
                tenant=request.tenant)
        self._queue.remove(victim)
        self._finish_queued(victim, JobState.SHED, "displaced")
        self.ladder.note_shed()

    # -- client operations -----------------------------------------------

    def get(self, job_id: int) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id}")
        return job

    def cancel(self, job_id: int) -> JobRecord:
        """Request cooperative cancellation: a queued job terminates
        immediately, a running one stops before its next launch with
        its journal intact."""
        job = self.get(job_id)
        if job.terminal:
            return job
        if job in self._queue:
            self._queue.remove(job)
            self._finish_queued(job, JobState.CANCELLED, "client-cancel")
            return job
        job.cancel.set()
        self._wake()
        return job

    async def wait(self, job_id: int,
                   timeout: float | None = None) -> JobRecord:
        job = self.get(job_id)
        deadline = None if timeout is None \
            else clock.monotonic() + timeout
        while not job.terminal:
            if deadline is not None and clock.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(state {job.state!r})")
            await self._until_woken(deadline)
        return job

    def snapshot(self) -> dict:
        """JSON-safe view of the whole service (CLI / wire protocol)."""
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        snapshot = {"ladder": self.ladder.state,
                    "pressure": int(self.ladder.pressure),
                    "queued": len(self._queue),
                    "running": len(self._running),
                    "states": dict(sorted(states.items())),
                    "tenants": self.scheduler.stats(),
                    "metrics": self.metrics.to_dict()}
        if self.slo is not None:
            snapshot["slo"] = self.slo.snapshot()
        return snapshot

    # -- dispatcher ------------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            if self._stopping and not self._queue and not self._running:
                return
            self.scheduler.set_capacity(
                self.ladder.effective_inflight_chunks())
            self._shed_expired()
            self._preempt_excess()
            limit = self.ladder.effective_max_running()
            starting = []
            while self._queue and len(self._running) + len(starting) < limit:
                job = self._pick_next()
                self._queue.remove(job)
                starting.append(job)
            for job, group in self._launch_groups(starting):
                task = asyncio.create_task(self._run_job(job, group))
                task.add_done_callback(
                    lambda task, job=job: self._job_task_done(job, task))
                self._running[job.job_id] = task
            self.metrics.gauge("service.queue.depth", len(self._queue))
            self.metrics.gauge("service.jobs.running", len(self._running))
            await self._until_woken(self._next_expiry())

    def _pick_next(self) -> JobRecord:
        """Deficit-fair job start: the queued tenant with the least
        weight-normalized chunk consumption goes first; within a
        tenant, higher priority then older job."""
        stats = self.scheduler.stats()
        def tenant_key(job: JobRecord):
            lane = stats.get(job.request.tenant)
            consumed = 0.0 if lane is None \
                else lane["granted_rows"] / lane["weight"]
            return (consumed, -job.request.priority, job.job_id)
        return min(self._queue, key=tenant_key)

    def _launch_groups(self, jobs: list[JobRecord]) -> list:
        """Pair each job a dispatcher pass starts with its launch group
        (``None``: it runs alone). A job joins the first group with its
        :func:`_launch_key` while the group's rows fit one launch."""
        keys: dict[int, tuple] = {}
        rows: dict[int, int] = {}
        groups: list[list[JobRecord]] = []
        for job in jobs:
            if not self._groupable(job):
                continue
            try:
                keys[job.job_id] = _launch_key(job.request)
                rows[job.job_id] = self._n_rows(job.request)
            except (ReproError, TypeError, ValueError):
                continue  # its own attempt reports the malformed request
            for members in groups:
                if keys[members[0].job_id] == keys[job.job_id] \
                        and sum(rows[member.job_id] for member in members) \
                        + rows[job.job_id] <= MAX_BATCH_PER_LAUNCH:
                    members.append(job)
                    break
            else:
                groups.append([job])
        shared = {}
        for members in groups:
            if len(members) > 1:
                group = _LaunchGroup(self.tracer, members)
                shared.update(dict.fromkeys(group.expected, group))
        return [(job, shared.get(job.job_id)) for job in jobs]

    def _groupable(self, job: JobRecord) -> bool:
        """Whether the job's next attempt may share launches: a first
        attempt of the batched engine with no deadline, fault plan or
        worker pool, which no scheduler fault kills or hangs."""
        request, plan = job.request, self.fault_plan
        return (job.attempts == 0 and request.engine == "batched"
                and request.deadline_seconds is None
                and request.fault_plan is None
                and self.ladder.effective_workers(int(request.workers)) == 0
                and not (plan is not None and (
                    plan.kills_job(job.admission_index, 1)
                    or plan.hangs_job(job.admission_index, 1))))

    def _next_expiry(self) -> float | None:
        """When the earliest queued deadline expires (the only timeout)."""
        return min((job.submitted_at + job.request.deadline_seconds
                    for job in self._queue
                    if job.request.deadline_seconds is not None),
                   default=None)

    def _shed_expired(self) -> None:
        now = clock.monotonic()
        for job in list(self._queue):
            deadline = job.request.deadline_seconds
            if deadline is not None and now - job.submitted_at > deadline:
                self._queue.remove(job)
                self._finish_queued(job, JobState.SHED, "deadline")
                self.ladder.note_shed()

    def _preempt_excess(self) -> None:
        """The ladder shrank the running set: pull the weakest running
        jobs back to the queue (cooperatively — each stops before its
        next launch and requeues with its journal intact)."""
        limit = self.ladder.effective_max_running()
        excess = len(self._running) - limit
        if excess <= 0:
            return
        victims = sorted((self._jobs[job_id] for job_id in self._running),
                         key=lambda job: (job.request.priority,
                                          -job.job_id))[:excess]
        for job in victims:
            if not job.preempted and not job.cancel.is_set():
                job.preempted = True
                job.cancel.set()
                self._wake()

    # -- job supervision -------------------------------------------------

    async def _run_job(self, job: JobRecord, group=None) -> None:
        job.state = JobState.RUNNING
        if job.started_at is None:
            job.started_at = clock.monotonic()
            self.metrics.observe("service.queue.wait_seconds",
                                 job.wait_seconds)
        span = self.tracer.start(f"job-{job.job_id}", "job",
                                 parent=self._service_span,
                                 tenant=job.request.tenant,
                                 priority=int(job.request.priority))
        try:
            await self._attempt_loop(job, span, group)
        finally:
            if group is not None:
                group.leave(job)
            self._running.pop(job.job_id, None)
            requeued = job.state == JobState.QUEUED
            self.tracer.end(span, state=job.state, reason=job.reason,
                            attempts=int(job.attempts),
                            degraded=bool(job.degraded),
                            requeued=requeued,
                            wait_seconds=float(job.wait_seconds or 0.0))
            # Requeue before the flush's await, so a drain never sees
            # the job in neither the queue nor the running set.
            if requeued:
                self._queue.append(job)
            self._wake()
            # Per-job trace flush does file IO: off the loop.
            await asyncio.to_thread(self.tracer.flush)

    async def _attempt_loop(self, job: JobRecord, span,
                            group=None) -> None:
        while True:
            if job.cancel.is_set() and not job.preempted:
                self._finish(job, JobState.CANCELLED, "client-cancel")
                return
            job.attempts += 1
            if self._injected_fault(job):
                hang = self.fault_plan.hangs_job(job.admission_index,
                                                 job.attempts)
                if hang:
                    await self._hang(job)
                if job.cancel.is_set() and not job.preempted:
                    self._finish(job, JobState.CANCELLED, "client-cancel")
                    return
                if self._attempts_exhausted(job, "injected-hang" if hang
                                            else "injected-kill"):
                    return
                continue
            remaining = self._remaining_deadline(job)
            if remaining is not None and remaining <= 0.0:
                self._finish(job, JobState.SHED, "deadline")
                self.ladder.note_shed()
                return
            outcome = await self._run_attempt(
                job, remaining, span, group if job.attempts == 1 else None)
            if outcome is not None:
                return

    def _injected_fault(self, job: JobRecord) -> bool:
        plan = self.fault_plan
        if plan is None or job.admission_index < 0:
            return False
        fired = plan.kills_job(job.admission_index, job.attempts) \
            or plan.hangs_job(job.admission_index, job.attempts)
        if fired:
            self.metrics.count("service.jobs.faults")
            self.ladder.note_job_fault()
        return fired

    async def _hang(self, job: JobRecord) -> None:
        """Simulated hang: sit until the attempt-timeout backstop (or a
        cancel) would have fired."""
        bound = self.config.attempt_timeout
        bound = 0.05 if bound is None else bound
        until = clock.monotonic() + bound
        while clock.monotonic() < until and not job.cancel.is_set():
            await self._until_woken(until)

    def _attempts_exhausted(self, job: JobRecord, reason: str) -> bool:
        if job.attempts >= self.config.max_job_attempts:
            self._finish(job, JobState.QUARANTINED, reason)
            return True
        return False

    def _remaining_deadline(self, job: JobRecord) -> float | None:
        if job.request.deadline_seconds is None:
            return None
        return job.request.deadline_seconds \
            - (clock.monotonic() - job.submitted_at)

    async def _run_attempt(self, job: JobRecord, remaining: float | None,
                           span, group=None) -> str | None:
        """One real campaign attempt, alone or in its launch ``group``;
        returns the terminal state it produced, or ``None`` to retry."""
        request = job.request
        ladder_degraded = self.ladder.degrades_results
        # A group runs serially: its jobs were grouped on no workers.
        workers = 0 if group is not None \
            else self.ladder.effective_workers(int(request.workers))
        config = CampaignConfig(chunk_size=int(request.chunk_size),
                                checkpoint_path=request.checkpoint_path,
                                deadline_seconds=remaining,
                                workers=workers)
        gate = self.scheduler.gate(request.tenant)
        if group is not None:
            task = group.enlist(job, CampaignPeer(
                request.parameters, config, None, gate, job.cancel, span))
        else:
            task = asyncio.ensure_future(asyncio.to_thread(
                run_campaign, request.model, request.t_span,
                request.t_eval, request.parameters, request.engine,
                request.options, config, request.retry_policy,
                request.fault_plan, self.tracer, chunk_gate=gate,
                cancel_event=job.cancel, trace_parent=span))
        timed_out = False
        if self.config.attempt_timeout is not None:
            done, _pending = await asyncio.wait(
                {task}, timeout=self.config.attempt_timeout)
            if not done:
                timed_out = True
                job.cancel.set()
        try:
            result = await task
        except ReproError as error:
            self.metrics.count("service.jobs.faults")
            self.ladder.note_job_fault()
            job.error = str(error)
            if self._attempts_exhausted(job, "campaign-error"):
                return job.state
            return None
        shared_launches = result.metrics.counters.get(
            "campaign.launches.shared", 0)
        if shared_launches:
            self.metrics.count("service.launches.shared", shared_launches)
        job.degraded = job.degraded or ladder_degraded or result.degraded
        if result.degraded:
            self.ladder.note_pool_collapse()
        if result.cancelled:
            if job.preempted:
                self._requeue(job)
                return JobState.QUEUED
            if timed_out:
                job.cancel.clear()
                if self._attempts_exhausted(job, "attempt-timeout"):
                    return job.state
                return None
            self._finish(job, JobState.CANCELLED, "client-cancel",
                         result=result)
            return job.state
        self._finish(job, JobState.COMPLETED,
                     "deadline-incomplete" if result.incomplete else "",
                     result=result)
        self.ladder.note_job_ok()
        return job.state

    def _requeue(self, job: JobRecord) -> None:
        """A preempted campaign stopped between launches: back to
        the queue, journal intact, to resume under the next grant."""
        job.preempted = False
        job.cancel.clear()
        job.state = JobState.QUEUED
        self.metrics.count("service.jobs.preempted")

    # -- supervisor-crash surfacing --------------------------------------

    def _dispatcher_done(self, task: asyncio.Task) -> None:
        """A crashed dispatcher must not die silently: the failure is
        recorded and every job it was responsible for starting reaches
        a terminal state, so ``wait()`` callers wake instead of
        polling a queue nobody will ever drain again."""
        if task.cancelled() or task.exception() is None:
            return
        error = task.exception()
        self._dispatcher_error = error
        self.metrics.count("service.supervisor.crashes")
        for job in list(self._queue):
            job.error = f"dispatcher crashed: {error!r}"
            self._finish_queued(job, JobState.QUARANTINED,
                                "supervisor-crash")
        self._queue.clear()

    def _job_task_done(self, job: JobRecord, task: asyncio.Task) -> None:
        """Exception-surfacing backstop of one job-supervisor task: an
        unexpected error (anything the attempt loop's ``ReproError``
        handling did not absorb) quarantines the job instead of
        leaving it ``running`` forever with ``done`` never set."""
        if task.cancelled() or task.exception() is None:
            return
        error = task.exception()
        self.metrics.count("service.supervisor.crashes")
        if not job.terminal:
            job.error = f"job supervisor crashed: {error!r}"
            self._finish(job, JobState.QUARANTINED, "supervisor-crash")

    # -- terminal bookkeeping --------------------------------------------

    def _finish(self, job: JobRecord, state: str, reason: str,
                result=None) -> None:
        job.state = state
        job.reason = reason
        job.finished_at = clock.monotonic()
        if result is not None:
            job.result = result
        if self.ladder.degrades_results:
            job.degraded = True
        tenant = job.request.tenant
        self.metrics.count(f"service.jobs.{state}")
        self.metrics.count(labeled(f"service.tenant.{state}",
                                   tenant=tenant))
        result_metrics = getattr(job.result, "metrics", None)
        if result_metrics is not None:
            self.engine_metrics.merge(result_metrics)
        if self.slo is not None:
            latency = None
            if job.submitted_at is not None:
                latency = job.finished_at - job.submitted_at
            self.slo.observe(tenant, state, reason, latency)
        job.done.set()
        self._wake()

    def _finish_queued(self, job: JobRecord, state: str,
                       reason: str) -> None:
        self._finish(job, state, reason)


def _launch_key(request: JobRequest) -> tuple:
    """What two jobs must share to share launches: the same model object
    and equal span, grid bytes, options and retry policy."""
    grid = None if request.t_eval is None \
        else np.asarray(request.t_eval, dtype=np.float64).tobytes()
    return (id(request.model), tuple(map(float, request.t_span)), grid,
            request.options, request.retry_policy)


class _LaunchGroup:
    """The first attempts of jobs one dispatcher pass started to share
    engine launches.

    Each job's supervisor joins with its campaign as a
    :class:`~repro.resilience.CampaignPeer` (or leaves without one).
    Once every job has, one worker thread runs them all through
    :func:`~repro.resilience.run_campaign`: the first to join leads,
    the others ride along as peers. Each job's future resolves with its
    own :class:`~repro.resilience.CampaignResult` as soon as the
    campaign settles, or with the error that failed its attempt.
    """

    def __init__(self, tracer, jobs: list[JobRecord]) -> None:
        self.tracer = tracer
        self.expected = {job.job_id for job in jobs}
        self.members: list[tuple[JobRecord, CampaignPeer,
                                 asyncio.Future]] = []
        self.task: asyncio.Future | None = None

    def enlist(self, job: JobRecord, peer: CampaignPeer) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.members.append((job, peer, future))
        self.leave(job)
        return future

    def leave(self, job: JobRecord) -> None:
        """The job is in (or out of) the group for good; the last one
        starts the launch thread."""
        if job.job_id in self.expected:
            self.expected.remove(job.job_id)
            if not self.expected and self.members:
                self._start()

    def _start(self) -> None:
        loop = asyncio.get_running_loop()
        (lead, first, future), *others = self.members
        request = lead.request

        def deliver_to(target: asyncio.Future):
            return lambda outcome: loop.call_soon_threadsafe(
                _resolve, target, outcome)

        peers = [replace(peer, deliver=deliver_to(target))
                 for _, peer, target in others]
        self.task = asyncio.ensure_future(asyncio.to_thread(
            run_campaign, request.model, request.t_span, request.t_eval,
            first.parameters, request.engine, request.options,
            first.config, request.retry_policy, None, self.tracer,
            chunk_gate=first.chunk_gate, cancel_event=first.cancel_event,
            trace_parent=first.trace_parent, peers=peers,
            deliver=deliver_to(future)))

        def resolve_all(task: asyncio.Future) -> None:
            # A campaign the thread never settled (it raised past the
            # loop) shares the thread's error.
            error = ServiceError("launch group cancelled") \
                if task.cancelled() else task.exception()
            for _, _, target in self.members:
                _resolve(target, error or ServiceError(
                    "launch group ended without a result"))

        self.task.add_done_callback(resolve_all)


def _resolve(future: asyncio.Future, outcome) -> None:
    if future.done():
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


def submit_campaign(model, t_span, t_eval=None, parameters=None,
                    config: ServiceConfig | None = None,
                    telemetry=None, **request_kwargs) -> JobRecord:
    """Run one campaign through a private, short-lived service.

    Convenience for scripts and the ``repro submit --local`` path: a
    service is started, the single job submitted, drained and stopped.
    The returned record holds the terminal state and the
    :class:`~repro.resilience.CampaignResult` (when one was produced).
    """

    async def _run() -> JobRecord:
        service = CampaignService(config=config, telemetry=telemetry)
        await service.start()
        try:
            job = service.submit(JobRequest(model=model, t_span=t_span,
                                            t_eval=t_eval,
                                            parameters=parameters,
                                            **request_kwargs))
            await service.wait(job.job_id)
        finally:
            await service.stop()
        return job

    return asyncio.run(_run())

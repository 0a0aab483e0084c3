"""Supervised multiprocess shard executor for campaign launch groups.

:func:`run_sharded` runs the serial campaign loop's work in a pool of
``CampaignConfig.workers`` worker processes
(:mod:`repro.resilience.worker`). Its units are the loop's own: launch
groups of whole chunks formed by the same rules, or split pieces of
one chunk. Every finished unit lands through the loop's own finish
path (journal commit, span flush, merge), so the merged
:class:`~repro.gpu.batch_result.BatchSolveResult` is byte-identical to
an in-process run. The supervision ladder, per failed attempt of a
unit:

1. **detect** — a dead worker by exit code, a hung one by heartbeat
   gap (``heartbeat_timeout``), a livelocked one by the per-unit
   timeout (``chunk_timeout`` and the remaining campaign deadline);
2. **restart** — the slot respawns under capped exponential backoff,
   drawing on the pool-wide ``max_worker_restarts`` budget;
3. **reassign** — the unit returns to the front of the queue while its
   attempt budget (``max_chunk_attempts``) lasts;
4. **split** — a unit that exhausts its attempts is halved: a group at
   chunk boundaries, then a single chunk's rows (the memory-governor
   pattern). A poison *row* keeps killing workers, but each split
   narrows the blast radius bit-identically;
5. **quarantine** — at width one the row is recorded as a
   :class:`~repro.resilience.quarantine.WorkerFailure` entry and
   marked ``failed`` instead of sinking the campaign.

The campaign's own predicates gate every start: no new launch group
starts at or past the chunk where an injected crash or deadline fires,
and the crash, the deadline and a cancel are checked on every tick. If
the pool collapses outright — no live worker and no restart budget —
the pending units go back to the serial loop, which finishes them
in-process under its own checks, and the campaign ends with
``CampaignResult.degraded=True``. Rows a split already quarantined
stay quarantined.

Journal writes are serialized here: workers stream results over a
queue and only the supervisor touches the
:class:`~repro.io.checkpoint.CampaignCheckpoint`, so out-of-order
completion is safe and a supervisor crash loses at most the chunks not
yet journaled — exactly the serial loop's contract.

Result queues are **per worker generation**, not shared: a process
that dies (or is terminated) while its queue feeder holds the write
lock poisons that queue forever, and with a shared queue one such
death would silence every surviving worker's heartbeats — turning a
single injected kill into a cascade of spurious hang detections. A
per-generation queue makes the blast radius of a poisoned lock exactly
the worker that died; its replacement gets a fresh queue.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from collections import deque

from ..gpu.batch_result import BROKEN, METHOD_DOPRI5, allocate_result
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from .campaign import _deadline_exceeded
from .quarantine import QuarantineLog, WorkerFailure
from .worker import (MSG_DONE, MSG_FAILED, MSG_HEARTBEAT, MSG_READY,
                     worker_main)


class _Slot:
    """One worker lane: the process currently occupying it, its unit,
    and its liveness bookkeeping. A restarted lane keeps its identity
    (and its telemetry span) while the process and generation change."""

    __slots__ = ("index", "generation", "process", "queue", "results",
                 "task", "attempt", "span", "assigned_at", "deadline_at",
                 "last_heartbeat", "restart_at", "restarts", "chunks_done",
                 "lane_span")

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.process = None
        self.queue = None
        self.results = None
        self.task = None
        self.attempt = 0
        self.span = None
        self.assigned_at = 0.0
        self.deadline_at = None
        self.last_heartbeat = 0.0
        self.restart_at = None
        self.restarts = 0
        self.chunks_done = 0
        self.lane_span = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.exitcode is None

    @property
    def idle(self) -> bool:
        return self.alive and self.task is None


def _fork_context():
    """Fork when the platform offers it (cheap spawn, no re-import);
    the default start method otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardSupervisor:
    """Runs one campaign's launch groups over a worker pool.

    ``campaign`` is the run's ``_Runner``
    (:mod:`repro.resilience.campaign`); ``work`` is its ordered
    work-list of pending chunks.
    """

    def __init__(self, campaign, work) -> None:
        self.campaign = campaign
        self.config = campaign.config
        self.work = work
        #: Chunks of ``work`` some unit has started: the next new launch
        #: group begins at ``work[position]``.
        self.position = 0
        #: Started units waiting to run again (reassigned or split).
        self.retry: deque[tuple] = deque()
        self.attempts: dict[tuple, int] = {}
        self.slots = [_Slot(i) for i in range(self.config.workers)]
        self.restarts_used = 0
        self._context = _fork_context()
        self._tick = max(0.005,
                         min(0.05, self.config.heartbeat_interval / 2.0))
        self._block_index = 0
        campaign.metrics.gauge("campaign.executor.workers",
                               self.config.workers)

    # -- lifecycle -------------------------------------------------------

    def run(self) -> list:
        """Supervise until the work is done or a cancel, deadline or
        crash stops it. Returns the pending pieces, in row order, if
        the pool collapsed first; an empty list otherwise."""
        campaign = self.campaign
        for slot in self.slots:
            slot.lane_span = campaign.tracer.start(
                f"worker-{slot.index}", "worker",
                parent=campaign.campaign_span)
            self._spawn(slot)
        try:
            try:
                self._supervise()
            except KeyboardInterrupt:
                raise campaign.interrupted(
                    "sharded campaign interrupted; "
                    f"{campaign.completed} chunk(s) already journaled"
                ) from None
        finally:
            self._shutdown()
        if not self._work_remaining() or campaign.deadline_hit \
                or campaign.cancelled:
            return []
        campaign.degraded = True
        campaign.metrics.count("campaign.executor.degradations")
        return sorted([piece for unit in self.retry for piece in unit]
                      + self.work[self.position:])

    def _supervise(self) -> None:
        campaign = self.campaign
        plan = campaign.spec.fault_plan
        while self._work_remaining():
            if campaign.cancel_event is not None \
                    and campaign.cancel_event.is_set():
                campaign.cancelled = True
                return
            if plan is not None \
                    and plan.crashes_before_launch(campaign.executed):
                raise campaign.interrupted(
                    f"injected crash after {campaign.executed} sharded "
                    f"chunk(s)")
            if _deadline_exceeded(self.config, plan, campaign.started,
                                  campaign.executed):
                campaign.deadline_hit = True
                return
            self._drain_messages()
            self._check_workers()
            self._restart_due_slots()
            self._assign_tasks()
            if self._pool_collapsed():
                return

    def _work_remaining(self) -> bool:
        return bool(self.retry) or self.position < len(self.work) \
            or any(slot.task is not None for slot in self.slots)

    def _pool_collapsed(self) -> bool:
        if any(slot.alive for slot in self.slots):
            return False
        return self.restarts_used >= self.config.max_worker_restarts

    # -- worker pool -----------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        slot.generation += 1
        slot.queue = self._context.Queue()
        slot.results = self._context.Queue()
        slot.task = None
        slot.restart_at = None
        token = (slot.index, slot.generation)
        process = self._context.Process(
            target=worker_main,
            args=(token, self.campaign.spec, self.campaign.batch,
                  slot.queue, slot.results),
            daemon=True)
        try:
            process.start()
        except OSError:
            slot.process = None
            self._schedule_restart(slot)
            return
        slot.process = process
        slot.last_heartbeat = clock.monotonic()

    def _schedule_restart(self, slot: _Slot) -> None:
        backoff = min(self.config.restart_backoff_cap,
                      self.config.restart_backoff
                      * (2.0 ** min(self.restarts_used, 16)))
        slot.restart_at = clock.monotonic() + backoff

    def _restart_due_slots(self) -> None:
        now = clock.monotonic()
        for slot in self.slots:
            if slot.alive or slot.restart_at is None:
                continue
            if now < slot.restart_at:
                continue
            if self.restarts_used >= self.config.max_worker_restarts:
                slot.restart_at = None
                continue
            self.restarts_used += 1
            slot.restarts += 1
            self.campaign.metrics.count("campaign.executor.restarts")
            self._retire_queue(slot)
            self._spawn(slot)

    @staticmethod
    def _retire_queue(slot: _Slot) -> None:
        for queue in (slot.queue, slot.results):
            if queue is None:
                continue
            try:
                queue.close()
                queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        slot.queue = None
        slot.results = None

    def _check_workers(self) -> None:
        now = clock.monotonic()
        metrics = self.campaign.metrics
        for slot in self.slots:
            if slot.process is None:
                continue
            if slot.process.exitcode is not None:
                # Died: mid-unit death fails the attempt; either way
                # the lane queues for a restart.
                metrics.count("campaign.executor.worker_deaths")
                if slot.task is not None:
                    self._attempt_failed(slot, "worker-killed")
                slot.process = None
                self._schedule_restart(slot)
            elif slot.task is not None:
                if now - slot.last_heartbeat \
                        > self.config.heartbeat_timeout:
                    metrics.count("campaign.executor.hangs")
                    self._terminate(slot)
                    self._attempt_failed(slot, "worker-hung")
                    self._schedule_restart(slot)
                elif slot.deadline_at is not None \
                        and now > slot.deadline_at:
                    metrics.count("campaign.executor.chunk_timeouts")
                    self._terminate(slot)
                    self._attempt_failed(slot, "chunk-timeout")
                    self._schedule_restart(slot)

    def _terminate(self, slot: _Slot) -> None:
        process = slot.process
        slot.process = None
        if process is None:
            return
        process.terminate()
        process.join(timeout=1.0)
        if process.exitcode is None:
            process.kill()
            process.join(timeout=1.0)

    # -- unit flow -------------------------------------------------------

    def _assign_tasks(self) -> None:
        now = clock.monotonic()
        remaining = None
        if self.config.deadline_seconds is not None:
            remaining = self.config.deadline_seconds \
                - (now - self.campaign.started)
        for slot in self.slots:
            if not slot.idle:
                continue
            unit = self._next_unit()
            if unit is None:
                return
            attempt = self.attempts.get(unit, 0) + 1
            self.attempts[unit] = attempt
            slot.task = unit
            slot.attempt = attempt
            slot.assigned_at = slot.last_heartbeat = now
            bounds = [b for b in (self.config.chunk_timeout, remaining)
                      if b is not None]
            slot.deadline_at = now + min(bounds) if bounds else None
            slot.queue.put((unit, attempt))
            index, start, stop = unit[0]
            slot.span = self.campaign.tracer.start(
                self.campaign.span_name(unit[0]), "chunk",
                parent=slot.lane_span, rows=int(stop - start),
                launch=int(index), attempt=attempt)

    def _next_unit(self) -> tuple | None:
        """A started unit to run again, else the next launch group.

        ``None`` when the chunk gate grants nothing, or when the
        campaign's crash or deadline predicate fires at the next
        group's first chunk. Grants are tried, never waited for: a
        blocked acquire here would starve heartbeat processing, and the
        next tick tries again.
        """
        campaign = self.campaign
        gate = campaign.chunk_gate
        if self.retry:
            unit = self.retry[0]
            for held, (_, start, stop) in enumerate(unit):
                if gate is not None and not gate.try_acquire(stop - start):
                    campaign.release(unit[:held])
                    return None
            return self.retry.popleft()
        plan = campaign.spec.fault_plan
        if self.position == len(self.work) or (
                plan is not None
                and plan.crashes_before_launch(self.position)) \
                or _deadline_exceeded(self.config, plan, campaign.started,
                                      self.position):
            return None
        _, start, stop = self.work[self.position]
        if gate is not None and not gate.try_acquire(stop - start):
            return None
        unit = tuple(campaign.group(self.work, self.position,
                                    self.position, campaign.launch_cap))
        self.position += len(unit)
        return unit

    def _free(self, slot: _Slot, outcome: str) -> tuple:
        """Take the unit off ``slot``: end its span, return its grants."""
        unit = slot.task
        slot.task = None
        slot.deadline_at = None
        self.campaign.tracer.end(slot.span, outcome=outcome)
        self.campaign.release(unit)
        return unit

    def _attempt_failed(self, slot: _Slot, reason: str) -> None:
        attempt = slot.attempt
        unit = self._free(slot, reason)
        if attempt < self.config.max_chunk_attempts:
            self.campaign.metrics.count("campaign.executor.reassignments")
            self.retry.appendleft(unit)
        elif unit[-1][2] - unit[0][1] > 1:
            self._split(unit)
        else:
            self._quarantine(unit, reason, attempt)

    def _split(self, unit: tuple) -> None:
        # A group halves at chunk boundaries, a single chunk at its
        # middle row; every half gets a fresh attempt budget.
        self.campaign.metrics.count("campaign.executor.splits")
        if len(unit) > 1:
            middle = len(unit) // 2
            halves = [unit[:middle], unit[middle:]]
        else:
            (index, start, stop), = unit
            middle = start + (stop - start) // 2
            halves = [((index, start, middle),), ((index, middle, stop),)]
        self.retry.extendleft(reversed(halves))

    def _quarantine(self, unit: tuple, reason: str, attempts: int) -> None:
        campaign = self.campaign
        batch = campaign.batch
        (_, start, stop), = unit
        result = allocate_result(campaign.spec.t_eval, stop - start,
                                 campaign.spec.model.n_species,
                                 METHOD_DOPRI5)
        result.status_codes[:] = BROKEN
        log = QuarantineLog([WorkerFailure(
            row=row - start,
            rate_constants=batch.rate_constants[row].copy(),
            initial_state=batch.initial_states[row].copy(),
            reason=reason, worker_attempts=attempts)
            for row in range(start, stop)])
        campaign.metrics.count("campaign.executor.quarantined_rows",
                               stop - start)
        campaign.finish(unit, result, log, None, campaign.campaign_span)

    # -- messages --------------------------------------------------------

    def _drain_messages(self) -> None:
        received = False
        for slot in self.slots:
            results = slot.results
            if results is None:
                continue
            while True:
                try:
                    message = results.get_nowait()
                except queue_module.Empty:
                    break
                except (OSError, ValueError, EOFError):
                    break  # queue torn down mid-drain by a restart
                received = True
                self._handle_message(*message)
        if received:
            return
        # Nothing pending anywhere: instead of sleeping a fixed tick
        # (which turns into dead hand-off latency for every finished
        # unit), block briefly on one live queue so its messages wake
        # the supervisor the moment they arrive. The blocked-on slot
        # rotates so no worker's messages wait more than one tick
        # behind another's.
        live = [slot for slot in self.slots if slot.results is not None]
        if not live:
            time.sleep(self._tick)
            return
        self._block_index = (self._block_index + 1) % len(live)
        slot = live[self._block_index]
        try:
            message = slot.results.get(timeout=self._tick)
        except queue_module.Empty:
            return
        except (OSError, ValueError, EOFError):
            return
        self._handle_message(*message)

    def _handle_message(self, kind, token, task_message, payload) -> None:
        slot_index, generation = token
        slot = self.slots[slot_index]
        if generation != slot.generation:
            return  # a terminated predecessor's leftover message
        now = clock.monotonic()
        if kind == MSG_READY:
            slot.last_heartbeat = now
            return
        current = None if slot.task is None else (slot.task, slot.attempt)
        if task_message != current:
            return  # stale: the unit was already reassigned
        campaign = self.campaign
        if kind == MSG_HEARTBEAT:
            slot.last_heartbeat = now
        elif kind == MSG_DONE:
            threshold = self.config.slow_chunk_seconds
            if threshold is not None and now - slot.assigned_at > threshold:
                campaign.metrics.count("campaign.executor.slow_chunks")
            unit = self._free(slot, "done")
            slot.chunks_done += 1
            result, quarantine_dicts, metrics_dict = payload
            campaign.finish(unit, result,
                            QuarantineLog.from_dicts(quarantine_dicts),
                            None if metrics_dict is None
                            else MetricsRegistry.from_dict(metrics_dict),
                            slot.lane_span)
            campaign.metrics.count("campaign.launches")
        elif kind == MSG_FAILED:
            campaign.metrics.count("campaign.executor.worker_errors")
            self._attempt_failed(slot, f"worker-error: {payload}")

    # -- teardown --------------------------------------------------------

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.task is not None:
                # Abandoned in flight (deadline, cancel or crash): the
                # grants go back to the scheduler, or other campaigns
                # starve on our teardown.
                self._free(slot, "abandoned")
            if slot.alive:
                try:
                    slot.queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = clock.monotonic() + 2.0
        for slot in self.slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - clock.monotonic()))
            if process.exitcode is None:
                process.terminate()
                process.join(timeout=1.0)
            slot.process = None
        for slot in self.slots:
            self._retire_queue(slot)
            if slot.lane_span is not None:
                self.campaign.tracer.end(slot.lane_span,
                                         restarts=slot.restarts,
                                         chunks=slot.chunks_done)


def run_sharded(campaign, work) -> list:
    """Run a campaign's ``(index, start, stop)`` work-list on a
    supervised worker pool; see the module docstring for the ladder.
    Returns what a collapsed pool left for the serial loop."""
    return ShardSupervisor(campaign, work).run()

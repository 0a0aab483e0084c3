"""Supervised multiprocess shard executor for campaign chunks.

:func:`run_sharded` fans the non-journaled chunks of one campaign out
to a pool of ``CampaignConfig.workers`` worker processes
(:mod:`repro.resilience.worker`) and merges what comes back through
the exact ``merge_rows``/checkpoint path the serial loop uses, so the
merged :class:`~repro.gpu.batch_result.BatchSolveResult` is
byte-identical to an in-process run. The supervision ladder, per
failed attempt of a chunk:

1. **detect** — a dead worker by exit code, a hung one by heartbeat
   gap (``heartbeat_timeout``), a livelocked one by the per-chunk
   timeout (``chunk_timeout`` and the remaining campaign deadline);
2. **restart** — the slot respawns under capped exponential backoff,
   drawing on the pool-wide ``max_worker_restarts`` budget;
3. **reassign** — the in-flight chunk returns to the front of the
   queue while its per-chunk attempt budget (``max_chunk_attempts``)
   lasts;
4. **split** — a chunk that exhausts its attempts is halved (the
   memory-governor pattern): a poison *row* keeps killing workers, but
   each split narrows the blast radius bit-identically;
5. **quarantine** — at minimum width the surviving rows are recorded
   as :class:`~repro.resilience.quarantine.WorkerFailure` entries and
   marked ``failed`` instead of sinking the campaign.

If the pool collapses outright — no live worker and no restart budget
— execution degrades to the in-process serial path
(:func:`~repro.resilience.worker.execute_chunk`, the same code the
workers run) and the campaign finishes with
``CampaignResult.degraded=True``.

Journal writes are serialized here: workers stream results over a
queue and only the supervisor touches the
:class:`~repro.io.checkpoint.CampaignCheckpoint`, so out-of-order
chunk completion is safe and a supervisor crash loses at most the
chunks not yet journaled — exactly the serial loop's contract.

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
from dataclasses import dataclass, field

import numpy as np

from ..errors import CampaignInterrupted
from ..gpu.batch_result import (BROKEN, METHOD_DOPRI5, BatchSolveResult,
                                allocate_result)
from ..telemetry import clock
from ..telemetry.metrics import MetricsRegistry
from .quarantine import QuarantineLog, WorkerFailure
from .worker import (MSG_DONE, MSG_FAILED, MSG_HEARTBEAT, MSG_READY,
                     WorkerSpec, execute_chunk, worker_main)


@dataclass(frozen=True, order=True)
class _Task:
    """One executable unit: a chunk, or a split piece of one.

    ``start``/``stop`` are *global* campaign row indices. The dataclass
    ordering (chunk first, then row range) is the deterministic
    execution order of the degraded serial fallback.
    """

    chunk_index: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        return self.stop - self.start

    def message(self, attempt: int) -> tuple:
        return (self.chunk_index, self.start, self.stop, attempt)


class _ChunkState:
    """Accumulates the pieces of one chunk until every row is covered."""

    __slots__ = ("start", "stop", "buffer", "covered", "quarantine",
                 "metrics", "has_metrics")

    def __init__(self, start: int, stop: int, t_eval: np.ndarray,
                 n_species: int) -> None:
        self.start = start
        self.stop = stop
        self.buffer = allocate_result(t_eval, stop - start, n_species,
                                      METHOD_DOPRI5)
        self.covered = 0
        self.quarantine = QuarantineLog()
        self.metrics = MetricsRegistry()
        self.has_metrics = False

    @property
    def complete(self) -> bool:
        return self.covered >= self.stop - self.start


class _Slot:
    """One worker lane: the process currently occupying it, its task,
    and its liveness bookkeeping. A restarted lane keeps its identity
    (and its telemetry span) while the process and generation change."""

    __slots__ = ("index", "generation", "process", "queue", "results",
                 "task", "attempt", "assigned_at", "deadline_at",
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


@dataclass
class ExecutorOutcome:
    """What the sharded run produced, for the campaign loop to merge."""

    executed: int = 0
    deadline_hit: bool = False
    degraded: bool = False
    #: True when a cooperative ``cancel_event`` stopped the run; the
    #: journal keeps everything finalized before the stop.
    cancelled: bool = False
    #: chunk index -> quarantine log in chunk-local row space.
    chunk_quarantines: dict = field(default_factory=dict)
    #: chunk index -> per-chunk engine metrics (None: engine had none).
    chunk_metrics: dict = field(default_factory=dict)
    #: supervisor-side counters (restarts, reassignments, splits, ...).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


def _fork_context():
    """Fork when the platform offers it (cheap spawn, no re-import);
    the default start method otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardSupervisor:
    """Drives one campaign's chunk fan-out over a worker pool."""

    def __init__(self, spec: WorkerSpec, batch, config, fault_plan,
                 chunk_indices, checkpoint, merged: BatchSolveResult,
                 n_species: int, t_eval: np.ndarray, started: float,
                 completed_before: int, tracer, campaign_span,
                 chunk_gate=None, cancel_event=None) -> None:
        self.spec = spec
        self.batch = batch
        self.config = config
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.merged = merged
        self.n_species = n_species
        self.t_eval = t_eval
        self.started = started
        self.completed_before = completed_before
        self.tracer = tracer
        self.campaign_span = campaign_span
        self.chunk_gate = chunk_gate
        self.cancel_event = cancel_event

        self.outcome = ExecutorOutcome()
        self.outcome.metrics.gauge("campaign.executor.workers",
                                   config.workers)
        self.pending: deque[_Task] = deque()
        self.attempts: dict[tuple, int] = {}
        self.chunk_states: dict[int, _ChunkState] = {}
        self.chunk_ranges: dict[int, tuple[int, int]] = {}
        for index, start, stop in chunk_indices:
            self.chunk_ranges[index] = (start, stop)
            self.pending.append(_Task(index, start, stop))
        self.slots = [_Slot(i) for i in range(config.workers)]
        self.restarts_used = 0
        self._context = _fork_context()
        self._tick = max(0.005, min(0.05, config.heartbeat_interval / 2.0))
        self._block_index = 0
        self._lanes_ended = False
        self._open_spans: dict[tuple, object] = {}
        self._gate_held: dict[tuple, int] = {}

    # -- lifecycle -------------------------------------------------------

    def run(self) -> ExecutorOutcome:
        for slot in self.slots:
            slot.lane_span = self.tracer.start(
                f"worker-{slot.index}", "worker", parent=self.campaign_span)
            self._spawn(slot)
        try:
            try:
                self._supervise()
                if self._work_remaining() and not self.outcome.deadline_hit \
                        and not self.outcome.cancelled:
                    self._degrade()
            except KeyboardInterrupt:
                raise CampaignInterrupted(
                    "sharded campaign interrupted; "
                    f"{self._completed()} chunk(s) already journaled",
                    checkpoint_path=(None if self.checkpoint is None
                                     else self.checkpoint.path),
                    completed_chunks=self._completed()) from None
        finally:
            self._shutdown()
        return self.outcome

    def _supervise(self) -> None:
        while self._work_remaining():
            if self.cancel_event is not None \
                    and self.cancel_event.is_set():
                self.outcome.cancelled = True
                return
            self._check_crash()
            if self._deadline_exceeded():
                self.outcome.deadline_hit = True
                return
            self._drain_messages()
            self._check_workers()
            self._restart_due_slots()
            self._assign_tasks()
            if self._pool_collapsed():
                return

    def _work_remaining(self) -> bool:
        return bool(self.pending) \
            or any(slot.task is not None for slot in self.slots)

    def _completed(self) -> int:
        return self.completed_before + self.outcome.executed

    def _check_crash(self) -> None:
        plan = self.fault_plan
        if plan is not None and plan.crash_after_launches is not None \
                and self.outcome.executed >= plan.crash_after_launches:
            raise CampaignInterrupted(
                f"injected crash after {self.outcome.executed} sharded "
                f"chunk(s)",
                checkpoint_path=(None if self.checkpoint is None
                                 else self.checkpoint.path),
                completed_chunks=self._completed())

    def _deadline_exceeded(self) -> bool:
        config = self.config
        if config.deadline_seconds is not None and \
                clock.monotonic() - self.started > config.deadline_seconds:
            return True
        plan = self.fault_plan
        return (plan is not None
                and plan.deadline_after_chunks is not None
                and self.outcome.executed >= plan.deadline_after_chunks)

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
            args=(token, self.spec, self.batch, slot.queue, slot.results),
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
            self.outcome.metrics.count("campaign.executor.restarts")
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
        for slot in self.slots:
            if slot.process is None:
                continue
            if slot.process.exitcode is not None:
                # Died: mid-chunk death fails the attempt; either way
                # the lane queues for a restart.
                self.outcome.metrics.count(
                    "campaign.executor.worker_deaths")
                if slot.task is not None:
                    self._attempt_failed(slot, "worker-killed")
                slot.process = None
                self._schedule_restart(slot)
            elif slot.task is not None:
                if now - slot.last_heartbeat \
                        > self.config.heartbeat_timeout:
                    self.outcome.metrics.count("campaign.executor.hangs")
                    self._terminate(slot)
                    self._attempt_failed(slot, "worker-hung")
                    self._schedule_restart(slot)
                elif slot.deadline_at is not None \
                        and now > slot.deadline_at:
                    self.outcome.metrics.count(
                        "campaign.executor.chunk_timeouts")
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

    # -- task flow -------------------------------------------------------

    def _assign_tasks(self) -> None:
        if not self.pending:
            return
        now = clock.monotonic()
        remaining = None
        if self.config.deadline_seconds is not None:
            remaining = self.config.deadline_seconds \
                - (now - self.started)
        for slot in self.slots:
            if not self.pending:
                return
            if not slot.idle:
                continue
            task = self.pending[0]
            key = (task.chunk_index, task.start, task.stop)
            if self.chunk_gate is not None \
                    and not self.chunk_gate.try_acquire(task.width):
                # Non-blocking on purpose: a blocked acquire here would
                # starve heartbeat processing; the next supervise tick
                # retries once the scheduler frees a grant.
                return
            self.pending.popleft()
            self._gate_held[key] = task.width
            attempt = self.attempts.get(key, 0) + 1
            self.attempts[key] = attempt
            slot.task = task
            slot.attempt = attempt
            slot.assigned_at = slot.last_heartbeat = now
            bounds = [b for b in (self.config.chunk_timeout, remaining)
                      if b is not None]
            slot.deadline_at = now + min(bounds) if bounds else None
            slot.queue.put(task.message(attempt))
            chunk_span = self.tracer.start(
                self._task_span_name(task), "chunk",
                parent=slot.lane_span, rows=task.width, attempt=attempt)
            self._open_spans[key] = chunk_span

    def _task_span_name(self, task: _Task) -> str:
        start, stop = self.chunk_ranges[task.chunk_index]
        if task.start == start and task.stop == stop:
            return f"chunk-{task.chunk_index}"
        return (f"chunk-{task.chunk_index}"
                f"[{task.start - start}:{task.stop - start}]")

    def _gate_release(self, key: tuple) -> None:
        width = self._gate_held.pop(key, None)
        if width is not None and self.chunk_gate is not None:
            self.chunk_gate.release(width)

    def _attempt_failed(self, slot: _Slot, reason: str) -> None:
        task, attempt = slot.task, slot.attempt
        slot.task = None
        slot.deadline_at = None
        key = (task.chunk_index, task.start, task.stop)
        self._gate_release(key)
        span = self._open_spans.pop(key, None)
        if span is not None:
            self.tracer.end(span, outcome=reason)
        if attempt >= self.config.max_chunk_attempts:
            if task.width > 1:
                self._split(task)
            else:
                self._quarantine(task, reason, attempt)
        else:
            self.outcome.metrics.count("campaign.executor.reassignments")
            self.pending.appendleft(task)

    def _split(self, task: _Task) -> None:
        # The memory-governor halving pattern: a poison row keeps
        # killing workers, but every split narrows the blast radius
        # until quarantine isolates it at minimum width.
        self.outcome.metrics.count("campaign.executor.splits")
        middle = task.start + task.width // 2
        self.pending.appendleft(_Task(task.chunk_index, middle, task.stop))
        self.pending.appendleft(_Task(task.chunk_index, task.start, middle))

    def _quarantine(self, task: _Task, reason: str, attempts: int) -> None:
        state = self._chunk_state(task.chunk_index)
        local = np.arange(task.start - state.start, task.stop - state.start)
        for offset, row in enumerate(range(task.start, task.stop)):
            state.quarantine.add(WorkerFailure(
                row=int(local[offset]),
                rate_constants=self.batch.rate_constants[row].copy(),
                initial_state=self.batch.initial_states[row].copy(),
                reason=reason, worker_attempts=attempts))
        state.buffer.status_codes[local] = BROKEN
        state.covered += task.width
        self.outcome.metrics.count("campaign.executor.quarantined_rows",
                                   task.width)
        if state.complete:
            self._finalize_chunk(task.chunk_index)

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
        # chunk), block briefly on one live queue so its messages wake
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
        current = None if slot.task is None \
            else slot.task.message(slot.attempt)
        if task_message != current:
            return  # stale: the task was already reassigned
        if kind == MSG_HEARTBEAT:
            slot.last_heartbeat = now
        elif kind == MSG_DONE:
            task, attempt = slot.task, slot.attempt
            slot.task = None
            slot.deadline_at = None
            slot.chunks_done += 1
            self._note_slowness(slot, task, now)
            key = (task.chunk_index, task.start, task.stop)
            self._gate_release(key)
            span = self._open_spans.pop(key, None)
            if span is not None:
                self.tracer.end(span, outcome="done")
            self._absorb_piece(task, payload)
        elif kind == MSG_FAILED:
            self.outcome.metrics.count("campaign.executor.worker_errors")
            self._attempt_failed(slot, f"worker-error: {payload}")

    def _note_slowness(self, slot: _Slot, task: _Task, now: float) -> None:
        threshold = self.config.slow_chunk_seconds
        if threshold is not None and now - slot.assigned_at > threshold:
            self.outcome.metrics.count("campaign.executor.slow_chunks")

    # -- chunk assembly --------------------------------------------------

    def _chunk_state(self, index: int) -> _ChunkState:
        state = self.chunk_states.get(index)
        if state is None:
            start, stop = self.chunk_ranges[index]
            state = self.chunk_states[index] = _ChunkState(
                start, stop, self.t_eval, self.n_species)
        return state

    def _absorb_piece(self, task: _Task, payload) -> None:
        result, quarantine_dicts, metrics_dict = payload
        state = self._chunk_state(task.chunk_index)
        local = np.arange(task.start - state.start,
                          task.stop - state.start)
        state.buffer.merge_rows(result, local)
        state.covered += task.width
        if quarantine_dicts:
            state.quarantine.merge(
                QuarantineLog.from_dicts(quarantine_dicts),
                row_offset=task.start - state.start)
        if metrics_dict is not None:
            state.metrics.merge(MetricsRegistry.from_dict(metrics_dict))
            state.has_metrics = True
        if state.complete:
            self._finalize_chunk(task.chunk_index)

    def _finalize_chunk(self, index: int) -> None:
        state = self.chunk_states.pop(index)
        if self.checkpoint is not None:
            shifted = QuarantineLog()
            shifted.merge(state.quarantine, row_offset=state.start)
            self.checkpoint.commit(
                [(index, state.buffer, shifted.to_dicts())],
                state.metrics.to_dict() if state.has_metrics else None)
        # Same transactional alignment as the serial loop: spans flush
        # only once their chunk is journaled.
        self.tracer.flush()
        rows = np.arange(state.start, state.stop)
        self.merged.merge_rows(state.buffer, rows)
        self.outcome.chunk_quarantines[index] = state.quarantine
        self.outcome.chunk_metrics[index] = (state.metrics
                                             if state.has_metrics else None)
        self.outcome.executed += 1

    # -- degraded serial fallback ----------------------------------------

    def _degrade(self) -> None:
        """The pool is gone: finish the remaining pieces in-process.

        Runs the identical chunk-execution code the workers run
        (:func:`~repro.resilience.worker.execute_chunk`), in
        deterministic ``(chunk, row-range)`` order, under the same
        crash/deadline checks as the serial campaign loop.
        """
        self.outcome.degraded = True
        self.outcome.metrics.count("campaign.executor.degradations")
        self.pending = deque(sorted(self.pending))
        while self.pending:
            if self.cancel_event is not None \
                    and self.cancel_event.is_set():
                self.outcome.cancelled = True
                return
            self._check_crash()
            if self._deadline_exceeded():
                self.outcome.deadline_hit = True
                return
            task = self.pending.popleft()
            if self.chunk_gate is not None and not self.chunk_gate.acquire(
                    task.width, self.cancel_event):
                self.outcome.cancelled = True
                return
            span = self.tracer.start(self._task_span_name(task), "chunk",
                                     parent=self.campaign_span,
                                     rows=task.width, degraded=True)
            try:
                payload = execute_chunk(self.spec, self.batch,
                                        task.chunk_index, task.start,
                                        task.stop)
            finally:
                if self.chunk_gate is not None:
                    self.chunk_gate.release(task.width)
            self.tracer.end(span, outcome="done")
            self._absorb_piece(task, payload)

    # -- teardown --------------------------------------------------------

    def _shutdown(self) -> None:
        for slot in self.slots:
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
        if not self._lanes_ended:
            self._lanes_ended = True
            for slot in self.slots:
                if slot.lane_span is not None:
                    self.tracer.end(slot.lane_span, restarts=slot.restarts,
                                    chunks=slot.chunks_done)
        for key, span in list(self._open_spans.items()):
            # Abandoned in-flight spans (deadline/crash teardown).
            self.tracer.end(span, outcome="abandoned")
            del self._open_spans[key]
        for key in list(self._gate_held):
            # Grants of abandoned in-flight tasks go back to the
            # scheduler, or other campaigns starve on our teardown.
            self._gate_release(key)


def run_sharded(spec: WorkerSpec, batch, config, fault_plan,
                chunk_indices, checkpoint, merged: BatchSolveResult,
                n_species: int, t_eval: np.ndarray, started: float,
                completed_before: int, tracer, campaign_span,
                chunk_gate=None, cancel_event=None) -> ExecutorOutcome:
    """Execute the given ``(index, start, stop)`` chunks on a
    supervised worker pool; see the module docstring for the ladder."""
    supervisor = ShardSupervisor(spec, batch, config, fault_plan,
                                 chunk_indices, checkpoint, merged,
                                 n_species, t_eval, started,
                                 completed_before, tracer, campaign_span,
                                 chunk_gate=chunk_gate,
                                 cancel_event=cancel_event)
    return supervisor.run()

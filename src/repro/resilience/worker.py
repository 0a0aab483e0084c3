"""Worker entry point of the supervised shard executor.

One worker process runs one unit of a campaign at a time — a launch
group of whole chunks, or a split piece of one chunk — through the
serial campaign loop's own launch body,
:func:`repro.resilience.campaign._run_chunk`, so the bytes it produces
are indistinguishable from an in-process run. What the worker adds is
*liveness*: a daemon heartbeat thread streams :data:`MSG_HEARTBEAT`
messages over the shared result queue while the unit integrates, so
the supervisor (:mod:`repro.resilience.executor`) can tell a slow
worker from a hung one and a hung one from a dead one.

Message protocol (every message is ``(kind, token, task, payload)``
where ``token`` is the supervisor-issued ``(slot, generation)`` pair
and ``task`` is the ``(unit, attempt)`` pair, the unit a tuple of
``(chunk_index, start, stop)`` pieces in campaign rows):

* :data:`MSG_READY` — the worker process is up and waiting for work.
* :data:`MSG_HEARTBEAT` — the current task is still making progress.
* :data:`MSG_DONE` — payload carries ``(BatchSolveResult,
  quarantine_dicts, metrics_dict)`` for the finished task, the
  quarantine rows local to the unit.
* :data:`MSG_FAILED` — the unit raised inside the worker; payload is
  the formatted error. The supervisor treats this like any other
  attempt failure (retry budget, then split/quarantine).

Fault injection: a :class:`~repro.resilience.FaultPlan` with
``worker_kill_chunks`` / ``worker_hang_chunks`` / ``worker_slow_chunks``
is honored *here*, at the process level, for the unit's first chunk
(the campaign runs a listed chunk alone) — a kill is a hard
``os._exit`` (no message, no cleanup, exactly like the OOM killer), a
hang stops heartbeating while the process stays alive, and a slow
worker sleeps ``worker_slow_seconds`` before executing, heartbeats
intact. Engine-level faults are re-based by ``_run_chunk`` exactly as
on the serial path.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Message kinds on the supervisor's result queue.
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_DONE = "done"
MSG_FAILED = "failed"

#: Exit code of an injected worker kill (distinguishable from crashes).
KILLED_EXIT_CODE = 117

#: How long an injected hang sleeps. The supervisor terminates the
#: worker long before this elapses (heartbeat timeout); the constant
#: only bounds the leak if supervision itself is broken.
_HANG_SLEEP_SECONDS = 3600.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to launch any unit of one campaign.

    The serial loop builds one per campaign run; with workers it is
    also shipped once per worker process at spawn time, so individual
    task messages only carry ``(unit, attempt)``. ``engine_kwargs``
    must be picklable. The campaign's tracer is not part of the spec:
    workers run untraced, and the supervisor records per-worker spans
    from its own clock.
    """

    model: object
    t_span: tuple[float, float]
    t_eval: np.ndarray
    engine: str
    options: object
    retry_policy: object
    fault_plan: object
    heartbeat_interval: float
    engine_kwargs: dict = field(default_factory=dict)


def _heartbeat_loop(result_queue, token, task, interval: float,
                    stop_event: threading.Event) -> None:
    while not stop_event.wait(interval):
        result_queue.put((MSG_HEARTBEAT, token, task, None))


def _execute_task(spec: WorkerSpec, batch, token, task,
                  result_queue) -> None:
    from .campaign import _run_chunk

    unit, attempt = task
    chunk_index = unit[0][0]
    plan = spec.fault_plan

    if plan is not None and plan.kills_worker(chunk_index, attempt):
        # A hard process death: no farewell message, no flushing —
        # the supervisor must find out from the exit code alone.
        os._exit(KILLED_EXIT_CODE)
    if plan is not None and plan.hangs_worker(chunk_index, attempt):
        # Alive but silent: no heartbeats, no result. Only the
        # supervisor's heartbeat timeout can break this stalemate.
        time.sleep(_HANG_SLEEP_SECONDS)
        return

    stop_event = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(result_queue, token, task, spec.heartbeat_interval,
              stop_event),
        daemon=True)
    beat.start()
    try:
        if plan is not None and plan.slows_worker(chunk_index, attempt):
            time.sleep(plan.worker_slow_seconds)
        result, quarantine, report = _run_chunk(spec, batch, unit)
    except Exception as error:  # noqa: BLE001 — forwarded, not dropped
        stop_event.set()
        beat.join()
        result_queue.put((MSG_FAILED, token, task,
                          f"{type(error).__name__}: {error}"))
    else:
        stop_event.set()
        beat.join()
        result_queue.put((MSG_DONE, token, task, (
            result, quarantine.to_dicts(),
            None if report is None else report.metrics.to_dict())))


def worker_main(token, spec: WorkerSpec, batch, task_queue,
                result_queue) -> None:
    """Worker process main loop: announce, then execute until sentinel.

    ``token`` is the supervisor-issued ``(slot, generation)`` identity;
    a restarted slot gets a fresh generation so messages a terminated
    predecessor left in the queue can never be attributed to its
    replacement.
    """
    result_queue.put((MSG_READY, token, None, None))
    while True:
        task = task_queue.get()
        if task is None:
            return
        _execute_task(spec, batch, token, task, result_queue)

"""Deterministic fault injection for end-to-end resilience testing.

A :class:`FaultPlan` describes reproducible faults the engine and the
campaign runner honor:

* ``nan_rows`` — the batched RHS returns NaN for these (global) rows on
  every evaluation: a *persistent* fault that defeats every retry rung
  and must land the row in the quarantine log.
* ``drift_rows`` / ``drift_rate`` — the batched RHS gains a constant
  bias on these rows, steadily violating the model's conservation laws
  while staying perfectly integrable: the fault only the invariant
  monitor (:mod:`repro.guards`) can see. Persistent, so it defeats the
  retry ladder and must end in quarantine.
* ``oom_launches`` / ``oom_fit_rows`` — these launches report device
  memory pressure: any segment wider than ``oom_fit_rows`` "does not
  fit", forcing the memory governor to split the launch. Exercises the
  degraded path without needing a small device.
* ``fail_launches`` — the first pass of these launches is forcibly
  marked BROKEN after it runs: a *transient* fault the retry ladder
  recovers from.
* ``crash_after_launches`` — the engine (or the campaign runner)
  raises :class:`~repro.errors.CampaignInterrupted` once this many
  launches completed: simulates a mid-campaign crash for
  checkpoint/resume tests.
* ``deadline_after_chunks`` — the campaign runner pretends the
  wall-clock deadline expired after this many freshly executed chunks,
  degrading to a partial result with ``incomplete=True``.
* ``sched_kill_jobs`` / ``sched_hang_jobs`` — scheduler-level faults
  honored by the campaign service (:mod:`repro.service`): a listed job
  (by admission order, 0-based) has its campaign thread killed before
  any chunk runs, or hangs until the service's attempt timeout fires.
  Like the worker faults, each fires on the first
  ``sched_fault_attempts`` attempts of the job, so the default of 1 is
  a transient fault the service retries past, while a large value
  exhausts ``max_job_attempts`` and drives the job into quarantine.
* ``worker_kill_chunks`` / ``worker_hang_chunks`` /
  ``worker_slow_chunks`` — process-level faults honored by the shard
  executor's worker entry point (:mod:`repro.resilience.worker`): a
  worker assigned a listed chunk dies (``os._exit``), hangs (stops
  heartbeating), or runs slow (``worker_slow_seconds`` of extra
  latency, heartbeats intact). Each fault fires on the first
  ``worker_fault_attempts`` attempts of the chunk, so the default of 1
  is a *transient* fault the supervisor recovers from by restarting
  the worker and reassigning the chunk, while a large value makes the
  chunk *poison*: every attempt kills its worker, driving the
  supervisor down the split-then-quarantine ladder.

The plan is pure data, so injecting the same plan twice produces the
same degradation path — the property the resilience test suite builds
on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ResilienceError


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for one engine run or campaign."""

    nan_rows: tuple[int, ...] = ()
    fail_launches: tuple[int, ...] = ()
    crash_after_launches: int | None = None
    deadline_after_chunks: int | None = None
    drift_rows: tuple[int, ...] = ()
    drift_rate: float = 1.0
    oom_launches: tuple[int, ...] = ()
    oom_fit_rows: int | None = None
    worker_kill_chunks: tuple[int, ...] = ()
    worker_hang_chunks: tuple[int, ...] = ()
    worker_slow_chunks: tuple[int, ...] = ()
    worker_fault_attempts: int = 1
    worker_slow_seconds: float = 0.25
    sched_kill_jobs: tuple[int, ...] = ()
    sched_hang_jobs: tuple[int, ...] = ()
    sched_fault_attempts: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "nan_rows",
                           tuple(int(r) for r in self.nan_rows))
        object.__setattr__(self, "fail_launches",
                           tuple(int(i) for i in self.fail_launches))
        object.__setattr__(self, "drift_rows",
                           tuple(int(r) for r in self.drift_rows))
        object.__setattr__(self, "oom_launches",
                           tuple(int(i) for i in self.oom_launches))
        for name in ("worker_kill_chunks", "worker_hang_chunks",
                     "worker_slow_chunks"):
            object.__setattr__(self, name,
                               tuple(int(i) for i in getattr(self, name)))
            if any(i < 0 for i in getattr(self, name)):
                raise ResilienceError(f"{name} must be non-negative")
        for name in ("sched_kill_jobs", "sched_hang_jobs"):
            object.__setattr__(self, name,
                               tuple(int(i) for i in getattr(self, name)))
            if any(i < 0 for i in getattr(self, name)):
                raise ResilienceError(f"{name} must be non-negative")
        if self.worker_fault_attempts < 1:
            raise ResilienceError("worker_fault_attempts must be >= 1")
        if self.sched_fault_attempts < 1:
            raise ResilienceError("sched_fault_attempts must be >= 1")
        if not (self.worker_slow_seconds >= 0.0):
            raise ResilienceError("worker_slow_seconds must be >= 0")
        if any(r < 0 for r in self.nan_rows):
            raise ResilienceError("nan_rows must be non-negative")
        if any(i < 0 for i in self.fail_launches):
            raise ResilienceError("fail_launches must be non-negative")
        if any(r < 0 for r in self.drift_rows):
            raise ResilienceError("drift_rows must be non-negative")
        if not np.isfinite(self.drift_rate):
            raise ResilienceError("drift_rate must be finite")
        if any(i < 0 for i in self.oom_launches):
            raise ResilienceError("oom_launches must be non-negative")
        if self.oom_fit_rows is not None and self.oom_fit_rows < 1:
            raise ResilienceError("oom_fit_rows must be >= 1")
        if self.crash_after_launches is not None \
                and self.crash_after_launches < 0:
            raise ResilienceError("crash_after_launches must be >= 0")
        if self.deadline_after_chunks is not None \
                and self.deadline_after_chunks < 0:
            raise ResilienceError("deadline_after_chunks must be >= 0")

    # -- RHS-level faults ------------------------------------------------

    @property
    def injects_nan(self) -> bool:
        return bool(self.nan_rows)

    def nan_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``row_ids`` of rows whose RHS turns NaN."""
        if not self.nan_rows:
            return np.zeros(row_ids.shape[0], dtype=bool)
        return np.isin(row_ids, np.asarray(self.nan_rows, dtype=np.int64))

    @property
    def injects_drift(self) -> bool:
        return bool(self.drift_rows)

    def drift_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``row_ids`` of rows with biased derivatives."""
        if not self.drift_rows:
            return np.zeros(row_ids.shape[0], dtype=bool)
        return np.isin(row_ids, np.asarray(self.drift_rows, dtype=np.int64))

    # -- launch-level faults ---------------------------------------------

    def forces_launch_failure(self, launch_index: int) -> bool:
        return launch_index in self.fail_launches

    def forces_memory_pressure(self, launch_index: int) -> bool:
        return launch_index in self.oom_launches

    def crashes_before_launch(self, launch_index: int) -> bool:
        return (self.crash_after_launches is not None
                and launch_index >= self.crash_after_launches)

    def expires_before_chunk(self, chunks_executed: int) -> bool:
        return (self.deadline_after_chunks is not None
                and chunks_executed >= self.deadline_after_chunks)

    # -- worker-process faults (shard executor) --------------------------

    def kills_worker(self, chunk_index: int, attempt: int) -> bool:
        """The worker executing this attempt of the chunk dies."""
        return chunk_index in self.worker_kill_chunks \
            and attempt <= self.worker_fault_attempts

    def hangs_worker(self, chunk_index: int, attempt: int) -> bool:
        """The worker stops heartbeating instead of executing."""
        return chunk_index in self.worker_hang_chunks \
            and attempt <= self.worker_fault_attempts

    def slows_worker(self, chunk_index: int, attempt: int) -> bool:
        """The worker sleeps ``worker_slow_seconds`` before executing."""
        return chunk_index in self.worker_slow_chunks \
            and attempt <= self.worker_fault_attempts

    # -- scheduler-level faults (campaign service) -----------------------

    def kills_job(self, job_index: int, attempt: int) -> bool:
        """The campaign thread for this attempt of the job dies."""
        return job_index in self.sched_kill_jobs \
            and attempt <= self.sched_fault_attempts

    def hangs_job(self, job_index: int, attempt: int) -> bool:
        """The job hangs until the service attempt timeout fires."""
        return job_index in self.sched_hang_jobs \
            and attempt <= self.sched_fault_attempts

    # -- campaign remapping ----------------------------------------------

    def for_chunk(self, chunk_index: int, start: int,
                  stop: int) -> "FaultPlan":
        """The plan as seen by the engine running one campaign chunk.

        Global ``nan_rows`` and ``drift_rows`` are re-based onto the
        chunk's local row space; a chunk listed in ``fail_launches``
        fails its (first) launch, one listed in ``oom_launches``
        pressures it. Crash and deadline triggers are handled by the
        campaign runner itself, the ``worker_*`` faults by the shard
        executor's worker entry point, and the ``sched_*`` faults by
        the campaign service, so they are stripped here.
        """
        local_nan = tuple(r - start for r in self.nan_rows
                          if start <= r < stop)
        local_drift = tuple(r - start for r in self.drift_rows
                            if start <= r < stop)
        local_fail = (0,) if chunk_index in self.fail_launches else ()
        local_oom = (0,) if chunk_index in self.oom_launches else ()
        return replace(self, nan_rows=local_nan, fail_launches=local_fail,
                       crash_after_launches=None,
                       deadline_after_chunks=None,
                       drift_rows=local_drift, oom_launches=local_oom,
                       worker_kill_chunks=(), worker_hang_chunks=(),
                       worker_slow_chunks=(),
                       sched_kill_jobs=(), sched_hang_jobs=())

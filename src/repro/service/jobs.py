"""Job records of the campaign service: requests, states, lifecycle.

A *job* is one campaign under service management. Its state machine::

    queued ──> running ──> completed
      │           │  │
      │           │  └────> quarantined   (attempts exhausted)
      │           └───────> cancelled     (cooperative cancel)
      ├─────────> shed                    (displaced / deadline expired)
      └─────────> cancelled               (cancelled while queued)

    rejected                              (never admitted)

Every admitted job ends in exactly one terminal state — the
conservation law the load-generator benchmark asserts. ``rejected``
jobs are recorded too (so accounting closes) but never enter the
queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class JobState:
    """Namespace of job lifecycle states."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    SHED = "shed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"


#: Every state, in lifecycle order.
JOB_STATES = (JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED,
              JobState.REJECTED, JobState.SHED, JobState.CANCELLED,
              JobState.QUARANTINED)

#: States a job never leaves.
TERMINAL_STATES = (JobState.COMPLETED, JobState.REJECTED, JobState.SHED,
                   JobState.CANCELLED, JobState.QUARANTINED)


@dataclass
class JobRequest:
    """What a client submits: one campaign plus scheduling intent.

    ``priority`` ranks within a tenant (higher runs first) and decides
    who is shed when the queue overflows. ``deadline_seconds`` is a
    wall-clock budget from *submission*: it propagates into
    :class:`~repro.resilience.CampaignConfig.deadline_seconds` (and so
    into the executor's per-chunk timeout bounds) with the queue wait
    already subtracted, and a job whose deadline expires while still
    queued is shed instead of started.
    """

    model: object
    t_span: tuple[float, float]
    t_eval: object = None
    parameters: object = None
    engine: str = "batched"
    options: object = None
    chunk_size: int = 64
    workers: int = 0
    priority: int = 0
    deadline_seconds: float | None = None
    tenant: str = "default"
    checkpoint_path: object = None
    retry_policy: object = None
    fault_plan: object = None


@dataclass
class JobRecord:
    """Service-side lifecycle record of one submitted job."""

    job_id: int
    request: JobRequest
    state: str = JobState.QUEUED
    #: Admission order among *admitted* jobs — the index scheduler
    #: faults (``FaultPlan.sched_kill_jobs``) address.
    admission_index: int = -1
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    #: Why the job reached a terminal state ("displaced", "deadline",
    #: "injected-kill", ...); empty for plain completion.
    reason: str = ""
    result: object = None
    error: str = ""
    #: True when the job ran (or finished) under a degraded ladder
    #: state or its campaign itself degraded to serial.
    degraded: bool = False
    #: Cooperative cancellation flag, checked by the campaign before
    #: every launch.
    cancel: threading.Event = field(default_factory=threading.Event)
    #: Set when the dispatcher pulls a running job back to the queue
    #: (ladder shrank the running set); distinguishes preemption from
    #: a client cancel when the campaign thread returns.
    preempted: bool = False
    #: Signalled exactly once, on entering a terminal state.
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait (submission to first start); None while queued."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def to_dict(self) -> dict:
        """JSON-safe status snapshot (for the wire protocol / CLI)."""
        summary = None
        if self.result is not None:
            summary = self.result.summary()
        return {"job_id": self.job_id, "state": self.state,
                "tenant": self.request.tenant,
                "priority": int(self.request.priority),
                "attempts": int(self.attempts),
                "reason": self.reason, "error": self.error,
                "degraded": bool(self.degraded),
                "wait_seconds": self.wait_seconds,
                "result": summary}

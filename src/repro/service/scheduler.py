"""Fair-share chunk scheduling and the overload degradation ladder.

:class:`ChunkScheduler` is the bridge between the asyncio service loop
and the blocking campaign threads: campaigns acquire a *grant* (sized
in batch rows) before every chunk and release it after, and the
scheduler arbitrates who gets the next free grant. The policy is
deficit-weighted round-robin: each tenant accumulates ``consumed``
(rows granted, normalized by its quota weight), and a freed grant goes
to the eligible waiter whose tenant has consumed the least — so a
tenant running one huge campaign cannot starve tenants running many
small ones, and weights buy proportional throughput.

The scheduler deliberately knows nothing about chunks' contents; it
sees only widths. That keeps it usable by both the serial campaign
loop (blocking :meth:`acquire`) and the shard supervisor's assignment
tick (non-blocking :meth:`try_acquire`, so a denied grant never stalls
heartbeat processing).

:class:`DegradationLadder` is the service's overload state machine:
shedding, job faults and pool collapses add *pressure*; healthy
completions bleed it off. Sustained pressure first halves the chunk
pool (``OVERLOADED``), then drains the service to one serial campaign
at a time (``SERIAL``) — degraded, but live and still journaling.
"""

from __future__ import annotations

import threading

from ..errors import ServiceError
from .config import ServiceConfig


class _TenantLane:
    """Per-tenant scheduler bookkeeping."""

    __slots__ = ("weight", "cap", "inflight", "consumed",
                 "granted_chunks", "granted_rows")

    def __init__(self, weight: float, cap: int) -> None:
        self.weight = weight
        self.cap = cap
        self.inflight = 0
        self.consumed = 0.0
        self.granted_chunks = 0
        self.granted_rows = 0


class _JobGate:
    """The per-campaign adapter :func:`repro.resilience.run_campaign`
    sees as ``chunk_gate``: three methods, tenant pre-bound."""

    __slots__ = ("scheduler", "tenant")

    def __init__(self, scheduler: "ChunkScheduler", tenant: str) -> None:
        self.scheduler = scheduler
        self.tenant = tenant

    def acquire(self, width: int, cancel_event=None) -> bool:
        return self.scheduler.acquire(self.tenant, width, cancel_event)

    def try_acquire(self, width: int) -> bool:
        return self.scheduler.try_acquire(self.tenant, width)

    def release(self, width: int) -> None:
        self.scheduler.release(self.tenant, width)


class ChunkScheduler:
    """Deficit-weighted round-robin arbiter over chunk grants.

    Thread-safe; every method may be called from any campaign thread.
    ``capacity`` is the service-wide concurrent-grant cap; the
    degradation ladder shrinks it live via :meth:`set_capacity`
    (in-flight grants are never revoked — the squeeze applies to new
    grants).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(
                f"scheduler capacity must be >= 1, got {capacity}")
        self._cond = threading.Condition()
        self._capacity = capacity
        self._inflight = 0
        self._lanes: dict[str, _TenantLane] = {}
        self._waiting: list[tuple[str, int]] = []
        self._ticket = 0
        self._stopped = False

    # -- tenant registry -------------------------------------------------

    def register(self, tenant: str, weight: float = 1.0,
                 max_inflight_chunks: int = 1) -> None:
        """Declare a tenant's weight and per-tenant grant cap
        (idempotent; later registrations update the limits)."""
        with self._cond:
            lane = self._lanes.get(tenant)
            if lane is None:
                self._lanes[tenant] = _TenantLane(weight,
                                                  max_inflight_chunks)
            else:
                lane.weight = weight
                lane.cap = max_inflight_chunks
            self._cond.notify_all()

    def gate(self, tenant: str) -> _JobGate:
        """The ``chunk_gate`` object for one campaign of ``tenant``."""
        with self._cond:
            if tenant not in self._lanes:
                raise ServiceError(
                    f"tenant {tenant!r} is not registered with the "
                    f"scheduler")
        return _JobGate(self, tenant)

    # -- capacity --------------------------------------------------------

    def set_capacity(self, capacity: int) -> None:
        with self._cond:
            self._capacity = max(1, int(capacity))
            self._cond.notify_all()

    def stop(self) -> None:
        """Fail all pending and future acquires (service shutdown)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    # -- grant protocol --------------------------------------------------

    def _lane(self, tenant: str) -> _TenantLane:
        lane = self._lanes.get(tenant)
        if lane is None:
            raise ServiceError(
                f"tenant {tenant!r} is not registered with the scheduler")
        return lane

    def _grantable(self, lane: _TenantLane) -> bool:
        return self._inflight < self._capacity and lane.inflight < lane.cap

    def _best_waiter(self) -> tuple[str, int] | None:
        """The waiting entry a freed grant should go to: among waiters
        whose lane can be granted right now, the tenant with the least
        weight-normalized consumption, FIFO within a tenant."""
        best = None
        best_key = None
        for tenant, ticket in self._waiting:
            lane = self._lanes[tenant]
            if not self._grantable(lane):
                continue
            key = (lane.consumed / lane.weight, ticket)
            if best_key is None or key < best_key:
                best, best_key = (tenant, ticket), key
        return best

    def _grant(self, lane: _TenantLane, width: int) -> None:
        self._inflight += 1
        lane.inflight += 1
        lane.consumed += width / lane.weight
        lane.granted_chunks += 1
        lane.granted_rows += width

    def acquire(self, tenant: str, width: int, cancel_event=None) -> bool:
        """Block until a grant for ``width`` rows is ours; False when
        ``cancel_event`` fires or the scheduler stops first."""
        with self._cond:
            lane = self._lane(tenant)
            self._ticket += 1
            entry = (tenant, self._ticket)
            self._waiting.append(entry)
            try:
                while True:
                    if self._stopped:
                        return False
                    if cancel_event is not None and cancel_event.is_set():
                        return False
                    if self._grantable(lane) \
                            and self._best_waiter() == entry:
                        self._grant(lane, width)
                        return True
                    # Bounded wait so a cancel_event set without a
                    # matching notify is still observed promptly.
                    self._cond.wait(timeout=0.05)
            finally:
                self._waiting.remove(entry)

    def try_acquire(self, tenant: str, width: int) -> bool:
        """Grant immediately or not at all — and never jump a waiter
        with a better deficit claim than ours."""
        with self._cond:
            lane = self._lane(tenant)
            if self._stopped or not self._grantable(lane):
                return False
            our_key = lane.consumed / lane.weight
            for waiting_tenant, _ in self._waiting:
                other = self._lanes[waiting_tenant]
                if waiting_tenant != tenant and self._grantable(other) \
                        and other.consumed / other.weight < our_key:
                    return False
            self._grant(lane, width)
            return True

    def release(self, tenant: str, width: int) -> None:
        with self._cond:
            lane = self._lane(tenant)
            self._inflight = max(0, self._inflight - 1)
            lane.inflight = max(0, lane.inflight - 1)
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """Per-tenant grant totals (the fairness benchmark's input)."""
        with self._cond:
            return {tenant: {"granted_chunks": lane.granted_chunks,
                             "granted_rows": lane.granted_rows,
                             "weight": lane.weight,
                             "inflight": lane.inflight}
                    for tenant, lane in sorted(self._lanes.items())}


#: Ladder states, in degradation order.
LADDER_NORMAL = "normal"
LADDER_OVERLOADED = "overloaded"
LADDER_SERIAL = "serial"
LADDER_STATES = (LADDER_NORMAL, LADDER_OVERLOADED, LADDER_SERIAL)


class DegradationLadder:
    """Pressure-driven overload state machine of the service.

    Events feed an integer pressure score: a shed job or a failed job
    attempt adds 1, a worker-pool collapse adds 2, and every healthy
    completion subtracts 1 (floored at zero). The thresholds from
    :class:`~repro.service.config.ServiceConfig` map pressure to a
    state, and the state maps to effective limits:

    ========== ==================== ======================= =========
    state      running jobs         chunk-grant pool        workers
    ========== ==================== ======================= =========
    normal     ``max_running_jobs`` ``max_inflight_chunks`` requested
    overloaded unchanged            halved                  requested
    serial     1                    1                       forced 0
    ========== ==================== ======================= =========

    Jobs that finish while the ladder is below ``normal`` are marked
    ``degraded`` so clients can tell a squeezed result from a healthy
    one. ``on_change()`` runs after every pressure change.
    """

    def __init__(self, config: ServiceConfig, on_change=None) -> None:
        self.config = config
        self.pressure = 0
        self._on_change = on_change

    # -- event feed ------------------------------------------------------

    def _shift(self, delta: int) -> None:
        self.pressure = max(0, self.pressure + delta)
        if self._on_change is not None:
            self._on_change()

    def note_shed(self) -> None:
        self._shift(1)

    def note_job_fault(self) -> None:
        self._shift(1)

    def note_pool_collapse(self) -> None:
        self._shift(2)

    def note_job_ok(self) -> None:
        self._shift(-1)

    # -- state and effective limits --------------------------------------

    @property
    def state(self) -> str:
        if self.pressure >= self.config.serial_pressure:
            return LADDER_SERIAL
        if self.pressure >= self.config.overload_pressure:
            return LADDER_OVERLOADED
        return LADDER_NORMAL

    @property
    def degrades_results(self) -> bool:
        return self.state != LADDER_NORMAL

    def effective_max_running(self) -> int:
        if self.state == LADDER_SERIAL:
            return 1
        return self.config.max_running_jobs

    def effective_inflight_chunks(self) -> int:
        if self.state == LADDER_SERIAL:
            return 1
        if self.state == LADDER_OVERLOADED:
            return max(1, self.config.max_inflight_chunks // 2)
        return self.config.max_inflight_chunks

    def effective_workers(self, requested: int) -> int:
        if self.state == LADDER_SERIAL:
            return 0
        return requested

"""Streaming observability over a running service: the metrics hub.

The :class:`MetricsHub` is the live half of the telemetry layer. The
post-hoc half (tracer -> JSONL -> ``repro trace summarize``) answers
"what happened"; the hub answers "what is happening *now*" without
waiting for a trace file to flush. Data flows one way::

    Tracer span closes ──► MetricsHub.on_span ──► sliding windows
                             │
                             ├──► Subscription (bounded queues)
                             └──► snapshot() ──► Prometheus / repro top
                                                └──► SLO / calibration

The hub is an ordinary tracer *observer* (see
:meth:`~repro.telemetry.tracer.Tracer.add_observer`): every completed
span is folded into per-category, per-phase and per-tenant sliding
windows built from the same power-of-two histograms the registry uses
(durations are scaled to microseconds first — sub-second spans would
otherwise all collapse into bucket zero). Aggregation is O(1) per
span and bounded in memory regardless of uptime: a window is two
rotating histograms, never a list of samples.

Every public method is safe to call from the event loop and from
campaign worker threads at once; all mutable state is guarded by one
lock, and subscription delivery happens outside it so a slow consumer
can never stall a span close — its queue fills and further events are
dropped *and counted* instead.
"""

from __future__ import annotations

import queue
import threading

from ..errors import TelemetryError
from . import clock as _clock_module
from .metrics import Histogram

#: Quantiles every window reports (seconds, from the µs histograms).
WINDOW_QUANTILES = (0.50, 0.95, 0.99)

#: Span categories rolled up per *name family* as engine phases
#: ("launch-3" -> "launch", "rung-1" -> "rung", "merge" -> "merge").
_PHASE_CATEGORIES = ("launch", "rung", "phase")


def phase_family(name: str) -> str:
    """Collapse ordinal span names to their family for rollups."""
    base = name.split("#", 1)[0]
    stem, dash, suffix = base.rpartition("-")
    if dash and suffix.isdigit():
        return stem
    return base


class Subscription:
    """Bounded event queue of one hub subscriber.

    ``deliver`` never blocks the publisher: when the queue is full the
    event is dropped and :attr:`dropped` grows — backpressure shows up
    in the accounting instead of in a span-close latency spike.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise TelemetryError(
                f"subscription maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        self._delivered = 0
        self._dropped = 0

    def deliver(self, event: dict) -> bool:
        """Called by the hub; returns whether the event was enqueued."""
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            with self._lock:
                self._dropped += 1
            return False
        with self._lock:
            self._delivered += 1
        return True

    def get(self, timeout: float | None = None) -> dict | None:
        """Next event, or ``None`` when the queue stays empty.

        ``timeout=None`` polls without blocking (consumer threads pass
        a timeout to wait).
        """
        try:
            if timeout is None:
                return self._queue.get_nowait()
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain(self) -> list[dict]:
        """Every event currently queued (non-blocking)."""
        events = []
        while True:
            event = self.get()
            if event is None:
                return events
            events.append(event)

    @property
    def delivered(self) -> int:
        with self._lock:
            return self._delivered

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    @property
    def queued(self) -> int:
        return self._queue.qsize()


class _SlidingWindow:
    """Count + duration distribution over roughly the last window.

    Two rotating power-of-two histograms: reads merge the current and
    the previous epoch, so aggregates always cover between one and two
    window lengths without storing individual samples. Not
    self-locking — the hub calls ``advance`` under its lock before
    every ``add``/``stats``.
    """

    __slots__ = ("window_seconds", "epoch_start", "current", "previous",
                 "lifetime_n")

    def __init__(self, window_seconds: float) -> None:
        self.window_seconds = float(window_seconds)
        self.epoch_start: float | None = None
        self.current = Histogram()
        self.previous = Histogram()
        self.lifetime_n = 0

    def advance(self, now: float) -> None:
        """Rotate epochs so ``current`` covers less than one window."""
        if self.epoch_start is None:
            self.epoch_start = now
            return
        elapsed = now - self.epoch_start
        if elapsed < self.window_seconds:
            return
        if elapsed < 2.0 * self.window_seconds:
            self.previous = self.current
        else:
            self.previous = Histogram()
        self.current = Histogram()
        self.epoch_start = now - (elapsed % self.window_seconds)

    def add(self, value_us: float) -> None:
        self.lifetime_n += 1
        self.current.observe(value_us)

    def stats(self, now: float) -> dict:
        """JSON-safe window aggregate (rate in events/s, quantiles in
        seconds)."""
        merged = Histogram()
        merged.merge(self.previous)
        merged.merge(self.current)
        covered = 0.0
        if self.epoch_start is not None:
            covered = now - self.epoch_start
            if self.previous.n:
                covered += self.window_seconds
        rate = merged.n / covered if covered > 0.0 else 0.0
        quantiles = {
            f"p{int(q * 100)}": (merged.quantile(q) * 1.0e-6
                                 if merged.n else None)
            for q in WINDOW_QUANTILES}
        return {"n": merged.n, "lifetime_n": self.lifetime_n,
                "rate": rate,
                "mean_seconds": merged.mean * 1.0e-6 if merged.n else None,
                **quantiles}


class _TenantWindow:
    """Per-tenant rollup: outcome counts plus latency/wait windows."""

    __slots__ = ("outcomes", "latency", "wait")

    def __init__(self, window_seconds: float) -> None:
        self.outcomes: dict[str, int] = {}
        self.latency = _SlidingWindow(window_seconds)
        self.wait = _SlidingWindow(window_seconds)

    def note_outcome(self, state: str) -> None:
        self.outcomes[state] = self.outcomes.get(state, 0) + 1


class MetricsHub:
    """Thread-safe streaming aggregator of completed spans.

    Parameters
    ----------
    window_seconds:
        Length of the sliding aggregation window (rates and quantiles
        cover between one and two of these).
    clock:
        Monotonic clock; tests pass
        :class:`~repro.telemetry.clock.FakeClock` to drive window
        rotation deterministically.
    """

    def __init__(self, window_seconds: float = 60.0, clock=None) -> None:
        if not window_seconds > 0.0:
            raise TelemetryError(
                f"window_seconds must be > 0, got {window_seconds}")
        self.window_seconds = float(window_seconds)
        self._clock = clock if clock is not None else _clock_module.REAL_CLOCK
        self._lock = threading.Lock()
        self._tracers: list = []
        self._categories: dict[str, _SlidingWindow] = {}
        self._phases: dict[str, _SlidingWindow] = {}
        self._tenants: dict[str, _TenantWindow] = {}
        self._subscriptions: tuple[Subscription, ...] = ()
        self._n_spans = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, tracer) -> None:
        """Start consuming span-close events from ``tracer``."""
        tracer.add_observer(self.on_span)
        with self._lock:
            self._tracers.append(tracer)

    def detach(self) -> None:
        """Stop observing every attached tracer."""
        with self._lock:
            tracers = list(self._tracers)
            self._tracers.clear()
        for tracer in tracers:
            tracer.remove_observer(self.on_span)

    def subscribe(self, maxsize: int = 1024) -> Subscription:
        """Open a bounded queue receiving one event per span close."""
        subscription = Subscription(maxsize)
        with self._lock:
            self._subscriptions = (*self._subscriptions, subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            self._subscriptions = tuple(
                entry for entry in self._subscriptions
                if entry is not subscription)

    # -- ingestion -------------------------------------------------------

    def on_span(self, span) -> None:
        """Tracer observer: fold one completed span into the windows."""
        now = self._clock.monotonic()
        duration_us = max(0.0, float(span.duration)) * 1.0e6
        with self._lock:
            self._n_spans += 1
            window = self._categories.get(span.category)
            if window is None:
                window = _SlidingWindow(self.window_seconds)
                self._categories[span.category] = window
            window.advance(now)
            window.add(duration_us)
            if span.category in _PHASE_CATEGORIES:
                family = phase_family(span.name)
                phase = self._phases.get(family)
                if phase is None:
                    phase = _SlidingWindow(self.window_seconds)
                    self._phases[family] = phase
                phase.advance(now)
                phase.add(duration_us)
            if span.category == "job":
                tenant = str(span.attrs.get("tenant", "default"))
                rollup = self._tenants.get(tenant)
                if rollup is None:
                    rollup = _TenantWindow(self.window_seconds)
                    self._tenants[tenant] = rollup
                rollup.note_outcome(str(span.attrs.get("state", "unknown")))
                rollup.latency.advance(now)
                rollup.latency.add(duration_us)
                wait = span.attrs.get("wait_seconds")
                if wait is not None:
                    rollup.wait.advance(now)
                    rollup.wait.add(float(wait) * 1.0e6)
            subscriptions = self._subscriptions
        if not subscriptions:
            return
        event = {"kind": "span", "category": span.category,
                 "name": span.name,
                 "duration_seconds": float(span.duration)}
        for key in ("tenant", "state", "reason"):
            if key in span.attrs:
                event[key] = span.attrs[key]
        for subscription in subscriptions:
            subscription.deliver(event)

    # -- reads -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe view of every window, rollup and subscriber."""
        now = self._clock.monotonic()
        with self._lock:
            for window in self._categories.values():
                window.advance(now)
            for window in self._phases.values():
                window.advance(now)
            for rollup in self._tenants.values():
                rollup.latency.advance(now)
                rollup.wait.advance(now)
            return {
                "window_seconds": self.window_seconds,
                "spans_seen": self._n_spans,
                "categories": {name: window.stats(now)
                               for name, window
                               in sorted(self._categories.items())},
                "phases": {name: window.stats(now)
                           for name, window
                           in sorted(self._phases.items())},
                "tenants": {tenant: {
                    "outcomes": dict(sorted(rollup.outcomes.items())),
                    "latency": rollup.latency.stats(now),
                    "wait": rollup.wait.stats(now),
                } for tenant, rollup in sorted(self._tenants.items())},
                "subscribers": [
                    {"delivered": entry.delivered,
                     "dropped": entry.dropped,
                     "queued": entry.queued}
                    for entry in self._subscriptions],
            }

    @property
    def spans_seen(self) -> int:
        with self._lock:
            return self._n_spans

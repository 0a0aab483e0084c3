"""Live telemetry: metrics hub, Prometheus exposition, SLO tracking,
the /metrics endpoint, ``repro top`` and the trace-summary rollups."""

import asyncio
import textwrap
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ServiceError, TelemetryError
from repro.io import write_model
from repro.lint import LintConfig, lint_project
from repro.models import lotka_volterra
from repro.service import (Client, ServiceConfig, TenantSLO,
                           scrape_metrics)
from repro.service.server import serve_async
from repro.telemetry import (Histogram, MetricsHub, MetricsRegistry,
                             SLOTracker, Subscription, Tracer, labeled,
                             parse_prometheus_text, phase_family,
                             render_prometheus, render_summary,
                             split_labels, summarize_tenants,
                             write_trace_jsonl)
from repro.telemetry.clock import FakeClock

LIVE_PY = (Path(__file__).resolve().parent.parent / "src" / "repro"
           / "telemetry" / "live.py")


def span(category="phase", name="compile", duration=0.5, **attrs):
    """A close-event lookalike: on_span only reads these four fields."""
    return SimpleNamespace(category=category, name=name,
                           duration=duration, attrs=attrs)


class TestHistogramQuantile:
    def test_single_value_is_every_quantile(self):
        histogram = Histogram()
        histogram.observe(37.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 37.0

    def test_quantiles_are_ordered_and_bounded(self):
        histogram = Histogram()
        values = [1, 3, 9, 40, 200, 3000, 70000]
        for value in values:
            histogram.observe(value)
        quantiles = [histogram.quantile(q)
                     for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)
        assert min(values) <= quantiles[0]
        assert quantiles[-1] <= max(values)

    def test_skewed_mass_moves_the_median(self):
        histogram = Histogram()
        for _ in range(99):
            histogram.observe(2.0)
        histogram.observe(1.0e6)
        assert histogram.quantile(0.5) < 10.0
        assert histogram.quantile(1.0) > 1.0e5


class TestPhaseFamily:
    @pytest.mark.parametrize("name,family", [
        ("launch-3", "launch"), ("rung-0", "rung"),
        ("compile", "compile"), ("compile#2", "compile"),
        ("launch-12#4", "launch"), ("dense-output", "dense-output")])
    def test_families(self, name, family):
        assert phase_family(name) == family


class TestSubscription:
    def test_rejects_unbuffered(self):
        with pytest.raises(TelemetryError):
            Subscription(maxsize=0)

    def test_bounded_drop_accounting(self):
        subscription = Subscription(maxsize=8)
        for index in range(100):
            subscription.deliver({"index": index})
        assert subscription.queued == 8
        assert subscription.delivered == 8
        assert subscription.dropped == 92
        # The retained events are the oldest eight, in order.
        assert [event["index"] for event in subscription.drain()] \
            == list(range(8))
        assert subscription.get() is None


class TestMetricsHub:
    def test_tracer_spans_reach_the_windows(self):
        hub = MetricsHub(clock=FakeClock(tick=0.001))
        tracer = Tracer(clock=FakeClock())
        hub.attach(tracer)
        root = tracer.start("launch-0", "launch")
        tracer.end(tracer.start("compile", "phase", parent=root))
        tracer.end(root)
        snapshot = hub.snapshot()
        assert snapshot["spans_seen"] == 2
        assert snapshot["categories"]["launch"]["n"] == 1
        assert snapshot["phases"]["compile"]["n"] == 1
        assert snapshot["phases"]["compile"]["p50"] == \
            pytest.approx(1.0, rel=0.5)
        hub.detach()
        tracer.end(tracer.start("launch-1", "launch"))
        assert hub.spans_seen == 2

    def test_tenant_rollup(self):
        hub = MetricsHub(clock=FakeClock(tick=0.0))
        hub.on_span(span("job", "job-0", 2.0, tenant="acme",
                         state="completed", wait_seconds=0.5))
        hub.on_span(span("job", "job-1", 1.0, tenant="acme",
                         state="shed", reason="deadline"))
        tenants = hub.snapshot()["tenants"]
        assert tenants["acme"]["outcomes"] == {"completed": 1, "shed": 1}
        assert tenants["acme"]["latency"]["n"] == 2
        assert tenants["acme"]["wait"]["n"] == 1

    def test_window_rotation_forgets_old_epochs(self):
        clock = FakeClock(tick=0.0)
        hub = MetricsHub(window_seconds=10.0, clock=clock)
        hub.on_span(span(duration=1.0))
        clock.now = 5.0
        hub.on_span(span(duration=1.0))
        stats = hub.snapshot()["phases"]["compile"]
        assert stats["n"] == 2
        # One rotation: the old epoch still backs the merged view.
        clock.now = 12.0
        hub.on_span(span(duration=1.0))
        stats = hub.snapshot()["phases"]["compile"]
        assert stats["n"] == 3
        # Far future: both epochs rotate out, lifetime_n survives.
        clock.now = 40.0
        stats = hub.snapshot()["phases"]["compile"]
        assert stats["n"] == 0
        assert stats["lifetime_n"] == 3
        assert stats["p50"] is None

    def test_rejects_degenerate_window(self):
        with pytest.raises(TelemetryError):
            MetricsHub(window_seconds=0.0)

    def test_subscription_fanout_and_unsubscribe(self):
        hub = MetricsHub(clock=FakeClock(tick=0.0))
        subscription = hub.subscribe(maxsize=4)
        hub.on_span(span("job", "job-0", 1.0, tenant="acme",
                         state="completed"))
        events = subscription.drain()
        assert events == [{"kind": "span", "category": "job",
                           "name": "job-0", "duration_seconds": 1.0,
                           "tenant": "acme", "state": "completed"}]
        hub.unsubscribe(subscription)
        hub.on_span(span())
        assert subscription.drain() == []


class TestHubConcurrency:
    THREADS = 8
    SPANS_PER_THREAD = 300

    def test_no_lost_increments_under_concurrent_writers(self):
        hub = MetricsHub(clock=FakeClock(tick=1.0e-6))
        subscription = hub.subscribe(maxsize=64)
        barrier = threading.Barrier(self.THREADS)

        def storm(tenant):
            barrier.wait()
            for index in range(self.SPANS_PER_THREAD):
                hub.on_span(span("job", f"job-{index}", 0.01,
                                 tenant=tenant, state="completed"))

        threads = [threading.Thread(target=storm, args=(f"t{n}",))
                   for n in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = self.THREADS * self.SPANS_PER_THREAD
        snapshot = hub.snapshot()
        assert snapshot["spans_seen"] == total
        assert snapshot["categories"]["job"]["lifetime_n"] == total
        per_tenant = [entry["outcomes"]["completed"]
                      for entry in snapshot["tenants"].values()]
        assert per_tenant == [self.SPANS_PER_THREAD] * self.THREADS
        # The saturated subscriber conserves events: every publish
        # either landed in the queue or was counted as dropped.
        assert subscription.delivered + subscription.dropped == total
        assert subscription.queued <= 64


class TestHubLockDiscipline:
    """The conc linter guards the hub's lock discipline: these tests
    prove the guard actually trips when the discipline is broken."""

    def analyze(self, tmp_path, source):
        root = tmp_path / "proj"
        path = root / "telemetry" / "live.py"
        path.parent.mkdir(parents=True)
        path.write_text(source)
        (root / "telemetry" / "metrics.py").write_text(textwrap.dedent(
            """
            class Histogram:
                pass

            class MetricsRegistry:
                pass
            """))
        report = lint_project(sorted(root.rglob("*.py")),
                              families=("conc",), root=root,
                              config=LintConfig())
        return {finding.rule_id for finding in report.findings}

    def test_shipped_hub_is_clean(self, tmp_path):
        assert "CNC005" not in self.analyze(tmp_path,
                                            LIVE_PY.read_text())

    def test_removing_the_ingest_lock_is_caught(self, tmp_path):
        source = LIVE_PY.read_text()
        locked = ("        with self._lock:\n"
                  "            self._subscriptions = "
                  "(*self._subscriptions, subscription)\n")
        unlocked = ("        self._subscriptions = "
                    "(*self._subscriptions, subscription)\n")
        assert locked in source, "subscribe() changed; update this test"
        assert "CNC005" in self.analyze(tmp_path,
                                        source.replace(locked, unlocked))


class TestPrometheus:
    def test_labeled_round_trip(self):
        name = labeled("service.tenant.admitted", tenant="acme",
                       state="completed")
        base, labels = split_labels(name)
        assert base == "service.tenant.admitted"
        assert labels == {"state": "completed", "tenant": "acme"}
        assert split_labels("plain.metric") == ("plain.metric", {})

    def test_render_and_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.count("service.jobs.admitted", 7)
        registry.count(labeled("service.tenant.admitted",
                               tenant="acme"), 5)
        registry.gauge("service.queue.depth", 3.0)
        for value in (1.0, 10.0, 100.0):
            registry.observe("service.queue.depth_samples", value)
        hub = MetricsHub(clock=FakeClock(tick=0.5))
        hub.on_span(span("job", "job-0", 0.25, tenant="acme",
                         state="completed"))
        text = render_prometheus([registry], hub.snapshot())
        samples = parse_prometheus_text(text)
        flat = {(name, tuple(sorted(labels.items()))): value
                for name, entries in samples.items()
                for labels, value in entries}
        assert flat[("repro_service_jobs_admitted_total", ())] == 7.0
        assert flat[("repro_service_tenant_admitted_total",
                     (("tenant", "acme"),))] == 5.0
        assert flat[("repro_service_queue_depth", ())] == 3.0
        assert flat[("repro_service_queue_depth_samples_count", ())] \
            == 3.0
        assert flat[("repro_live_job_outcomes_total",
                     (("state", "completed"),
                      ("tenant", "acme")))] == 1.0
        # Histogram buckets are cumulative and end at +Inf.
        buckets = [(labels["le"], value) for labels, value
                   in samples["repro_service_queue_depth_samples_bucket"]]
        assert buckets[-1][0] == "+Inf"
        counts = [value for _le, value in buckets]
        assert counts == sorted(counts)

    def test_parse_rejects_garbage(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("what even is this line\n")


class TestSLOTracker:
    def make(self, slo, **kwargs):
        clock = FakeClock(tick=0.0)
        metrics = MetricsRegistry()
        tracer = Tracer(clock=FakeClock())
        tracker = SLOTracker(default_slo=slo, metrics=metrics,
                             tracer=tracer, clock=clock, **kwargs)
        return tracker, metrics, tracer, clock

    def test_breach_fires_once_and_rearms(self):
        slo = TenantSLO(target=0.5, min_events=2, breach_burn_rate=1.0)
        tracker, metrics, tracer, _clock = self.make(slo)
        assert not tracker.observe("acme", "completed")
        assert tracker.observe("acme", "shed", "deadline")
        # Already breached: a further miss does not re-fire.
        assert not tracker.observe("acme", "shed", "deadline")
        # Enough good events re-arm the breach...
        for _ in range(6):
            tracker.observe("acme", "completed")
        assert not tracker.snapshot()["acme"]["breached"]
        # ...and a new bad stretch fires a second breach.
        fired = [tracker.observe("acme", "quarantined")
                 for _ in range(8)]
        assert any(fired)
        snapshot = tracker.snapshot()["acme"]
        assert snapshot["breaches"] == 2
        assert metrics.counters[labeled("service.slo.breaches",
                                        tenant="acme")] == 2
        assert metrics.gauges[labeled("service.slo.burn_rate",
                                      tenant="acme")] > 1.0
        breach_spans = [s for s in tracer.spans if s.name == "SLO_BREACH"]
        assert len(breach_spans) == 2
        assert breach_spans[0].category == "service"
        assert breach_spans[0].attrs["tenant"] == "acme"

    def test_latency_objective_and_ignored_states(self):
        slo = TenantSLO(latency_objective_seconds=1.0, target=0.5,
                        min_events=1)
        tracker, _metrics, _tracer, _clock = self.make(slo)
        tracker.observe("acme", "cancelled")
        tracker.observe("acme", "rejected")
        assert tracker.snapshot() == {}  # ignored states open no window
        tracker.observe("acme", "completed", latency_seconds=0.2)
        assert tracker.burn_rate("acme") == 0.0
        fired = tracker.observe("acme", "completed", latency_seconds=5.0)
        assert fired  # slow completion burns budget
        assert tracker.burn_rate("acme") == pytest.approx(1.0)

    def test_window_prunes_old_events(self):
        slo = TenantSLO(target=0.5, window_seconds=10.0, min_events=1)
        tracker, _metrics, _tracer, clock = self.make(slo)
        tracker.observe("acme", "shed", "deadline")
        assert tracker.burn_rate("acme") == pytest.approx(2.0)
        clock.now = 100.0
        assert tracker.burn_rate("acme") == 0.0

    def test_untracked_tenant_is_free(self):
        tracker = SLOTracker(slos={"acme": TenantSLO()})
        assert not tracker.observe("other", "shed", "deadline")
        assert tracker.burn_rate("other") == 0.0

    def test_deadline_incomplete_completion_is_a_miss(self):
        slo = TenantSLO(target=0.5, min_events=1)
        assert slo.is_miss("completed", "deadline-incomplete", None)
        assert slo.is_miss("completed", "", None) is False
        assert slo.is_miss("cancelled", "", None) is None

    def test_invalid_objectives_rejected(self):
        for kwargs in ({"target": 1.5}, {"target": 0.0},
                       {"window_seconds": -1.0}, {"min_events": 0},
                       {"breach_burn_rate": 0.0},
                       {"latency_objective_seconds": 0.0}):
            with pytest.raises(ServiceError):
                TenantSLO(**kwargs)


class TestServiceConfigSLO:
    def test_slo_for_prefers_the_tenant_override(self):
        tight = TenantSLO(target=0.999)
        loose = TenantSLO(target=0.9)
        config = ServiceConfig(default_slo=loose, slos={"acme": tight})
        assert config.slo_for("acme") is tight
        assert config.slo_for("other") is loose
        assert config.tracks_slos
        assert not ServiceConfig().tracks_slos

    def test_non_slo_values_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(default_slo=0.99)
        with pytest.raises(ServiceError):
            ServiceConfig(slos={"acme": "tight"})


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One real server + one completed job, shared by endpoint tests."""
    tmp = tmp_path_factory.mktemp("live")
    folder = write_model(lotka_volterra(), tmp / "lv")
    config = ServiceConfig(
        default_slo=TenantSLO(latency_objective_seconds=60.0))
    bound = {}
    ready = threading.Event()

    def on_ready(addr):
        bound["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve_async("127.0.0.1", 0, config=config, ready=on_ready)),
        daemon=True)
    thread.start()
    assert ready.wait(15)
    host, port = bound["addr"]
    with Client(host, port, timeout=60.0) as client:
        job_id = client.submit(str(folder), t_span=(0.0, 2.0),
                               tenant="acme", chunk_size=16)
        client.wait(job_id, timeout=60)
        yield host, port
        client.shutdown()
    thread.join(15)


class TestMetricsEndpoint:
    def test_scrape_parses_and_carries_live_series(self, live_server):
        host, port = live_server
        samples = parse_prometheus_text(scrape_metrics(host, port))

        def value(name, **labels):
            for sample_labels, sample in samples.get(name, ()):
                if all(sample_labels.get(k) == v
                       for k, v in labels.items()):
                    return sample
            return None

        assert value("repro_service_jobs_admitted_total") >= 1.0
        assert value("repro_service_tenant_completed_total",
                     tenant="acme") >= 1.0
        assert value("repro_live_spans_seen_total") > 0.0
        assert value("repro_live_job_outcomes_total", tenant="acme",
                     state="completed") >= 1.0
        assert value("repro_service_slo_burn_rate",
                     tenant="acme") == 0.0
        assert value("repro_live_job_latency_seconds", tenant="acme",
                     quantile="0.50") is not None

    def test_unknown_path_is_404(self, live_server):
        import socket as socket_module
        host, port = live_server
        with socket_module.create_connection((host, port),
                                             timeout=10) as sock:
            sock.sendall(b"GET /nope HTTP/1.0\r\n\r\n")
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.0 404")

    def test_repro_top_once(self, live_server, capsys):
        host, port = live_server
        assert main(["top", "--once", "--host", host,
                     "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "acme" in out
        assert "spans=" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_scrape_helper_rejects_dead_port(self):
        with pytest.raises((ServiceError, OSError)):
            scrape_metrics("127.0.0.1", 1, timeout=0.5)


class TestTraceSummaryRollups:
    def make_spans(self):
        tracer = Tracer(clock=FakeClock())
        service = tracer.start("service", "service")
        for index, (state, wait) in enumerate(
                [("completed", 0.1), ("completed", 0.4),
                 ("shed", 2.0)]):
            job = tracer.start(f"job-{index}", "job", parent=service)
            tracer.end(job, tenant="acme" if index < 2 else "umbrella",
                       state=state, wait_seconds=wait)
        tracer.end(service)
        return tracer.spans

    def test_summarize_tenants(self):
        summary = summarize_tenants(self.make_spans())
        assert sorted(summary) == ["acme", "umbrella"]
        assert summary["acme"]["jobs"] == {"completed": 2}
        assert summary["umbrella"]["jobs"] == {"shed": 1}
        assert summary["acme"]["wait"]["p50"] is not None
        assert summary["acme"]["latency"]["p50"] <= \
            summary["acme"]["latency"]["p99"]
        assert summarize_tenants([]) == {}

    def test_render_summary_has_quantiles_and_tenants(self):
        text = render_summary(self.make_spans())
        assert "p50 s" in text and "p99 s" in text
        assert "tenants:" in text
        assert "acme: 2 completed" in text
        assert "umbrella: 1 shed" in text
        assert "wait: p50=" in text

    def test_cli_trace_summarize_prints_tenants(self, tmp_path, capsys):
        trace = write_trace_jsonl(self.make_spans(),
                                  tmp_path / "trace.jsonl")
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "tenants:" in out
        assert "acme" in out

"""Telemetry subsystem: tracer, metrics, exporters, engine/campaign
integration, and crash/resume trace continuity."""

import json

import numpy as np
import pytest

from repro.core import run_psa_1d
from repro.core.psa import ParameterRange, SweepTarget
from repro.errors import CampaignInterrupted, TelemetryError
from repro.gpu import BatchSimulator
from repro.gpu.engine import EngineReport
from repro.guards import MemoryGovernor
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import (CampaignConfig, FaultPlan,
                              default_retry_policy, run_campaign)
from repro.telemetry import (CATEGORIES, Histogram, JsonlSink,
                             MetricsRegistry, NULL_TRACER, Tracer,
                             as_tracer, nesting_allowed, read_trace_jsonl,
                             render_summary, to_chrome_trace,
                             validate_trace, write_chrome_trace)
from repro.telemetry.clock import FakeClock

T_EVAL = np.linspace(0.0, 2.0, 5)


def lv_batch(model, size=8, seed=7):
    rng = np.random.default_rng(seed)
    return perturbed_batch(model.nominal_parameterization(), size, rng)


class TestTracer:
    def test_structural_ids_and_durations(self):
        tracer = Tracer(clock=FakeClock())
        campaign = tracer.start("campaign", "campaign")
        chunk = tracer.start("chunk-0", "chunk", parent=campaign)
        tracer.end(chunk)
        tracer.end(campaign)
        ids = [span.span_id for span in tracer.spans]
        assert ids == ["campaign/chunk-0", "campaign"]
        # FakeClock ticks once per read: start/start/end/end.
        assert tracer.spans[0].duration == pytest.approx(1.0)
        assert tracer.spans[1].duration == pytest.approx(3.0)

    def test_sibling_names_are_deduplicated(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start("launch-0", "launch")
        first = tracer.start("compile", "phase", parent=root)
        tracer.end(first)
        second = tracer.start("compile", "phase", parent=root)
        tracer.end(second)
        tracer.end(root)
        ids = [span.span_id for span in tracer.spans]
        assert ids == ["launch-0/compile", "launch-0/compile#2",
                       "launch-0"]

    def test_context_manager_records_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("merge", "phase", launches=3):
            pass
        (span,) = tracer.spans
        assert span.name == "merge"
        assert span.attrs == {"launches": 3}

    def test_bad_nesting_rejected(self):
        tracer = Tracer(clock=FakeClock())
        launch = tracer.start("launch-0", "launch")
        with pytest.raises(TelemetryError):
            tracer.start("campaign", "campaign", parent=launch)

    def test_phase_in_phase_allowed(self):
        assert nesting_allowed("phase", "phase")
        assert not nesting_allowed("chunk", "launch")
        assert sorted(CATEGORIES) == ["campaign", "chunk", "job", "launch",
                                      "phase", "rung", "service", "worker"]
        assert nesting_allowed("worker", "campaign")
        assert nesting_allowed("chunk", "worker")
        assert not nesting_allowed("worker", "chunk")
        assert nesting_allowed("job", "service")
        assert nesting_allowed("campaign", "job")
        assert not nesting_allowed("service", "job")

    def test_unknown_category_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(clock=FakeClock()).start("x", "banana")

    def test_double_end_rejected(self):
        tracer = Tracer(clock=FakeClock())
        handle = tracer.start("chunk-0", "chunk")
        tracer.end(handle)
        with pytest.raises(TelemetryError):
            tracer.end(handle)

    def test_null_tracer_is_inert(self):
        handle = NULL_TRACER.start("campaign", "campaign")
        NULL_TRACER.end(handle)
        with NULL_TRACER.span("merge", "phase"):
            pass
        NULL_TRACER.flush()
        assert not NULL_TRACER.enabled

    def test_as_tracer_dispatch(self, tmp_path):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert as_tracer(tracer) is tracer
        assert isinstance(as_tracer(tmp_path / "t.jsonl"), Tracer)
        with pytest.raises(TelemetryError):
            as_tracer(42)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(path), clock=FakeClock())
        with tracer.span("campaign", "campaign", model="lv"):
            pass
        tracer.flush()
        (span,) = read_trace_jsonl(path)
        assert span.span_id == "campaign"
        assert span.attrs == {"model": "lv"}

    def test_malformed_trace_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "x"}\nnot json\n')
        with pytest.raises(TelemetryError):
            read_trace_jsonl(path)


class TestValidateAndExport:
    def spans(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start("campaign", "campaign")
        chunk = tracer.start("chunk-0", "chunk", parent=root)
        launch = tracer.start("launch-0", "launch", parent=chunk)
        tracer.end(launch)
        tracer.end(chunk)
        tracer.end(root)
        return tracer.spans

    def test_valid_trace_passes_containment(self):
        assert validate_trace(self.spans(), check_containment=True) == []

    def test_duplicate_and_orphan_detected(self):
        spans = self.spans()
        problems = validate_trace(spans + [spans[0]])
        assert any("duplicate" in p for p in problems)
        orphan = spans[0]
        orphan = type(orphan)(orphan.name, "lost", "no-such-parent",
                              orphan.category, orphan.t_start,
                              orphan.duration, {})
        assert any("missing parent" in p
                   for p in validate_trace(spans + [orphan]))

    def test_rank_violation_detected(self):
        tracer = Tracer(clock=FakeClock())
        chunk = tracer.start("chunk-0", "chunk")
        tracer.end(chunk)
        bad = type(tracer.spans[0])("campaign", "chunk-0/campaign",
                                    "chunk-0", "campaign", 0.0, 1.0, {})
        problems = validate_trace(tracer.spans + [bad])
        assert any("nest" in p for p in problems)

    def test_chrome_trace_shape(self, tmp_path):
        document = to_chrome_trace(self.spans())
        events = document["traceEvents"]
        assert len(events) == 3
        assert {event["ph"] for event in events} == {"X"}
        assert min(event["ts"] for event in events) == 0
        out = tmp_path / "trace.json"
        write_chrome_trace(self.spans(), out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_render_summary_mentions_categories(self):
        text = render_summary(self.spans())
        assert "campaign" in text and "chunk" in text

    def outcome_spans(self):
        tracer = Tracer(clock=FakeClock())
        service = tracer.start("service", "service")
        for index, state in enumerate(["completed", "quarantined"]):
            job = tracer.start(f"job-{index}", "job", parent=service)
            campaign = tracer.start("campaign", "campaign", parent=job)
            tracer.end(campaign, degraded=index == 1,
                       deadline_hit=False, cancelled=False,
                       quarantined=3 * index)
            tracer.end(job, state=state)
        tracer.end(service)
        return tracer.spans

    def test_summarize_outcomes(self):
        from repro.telemetry import summarize_outcomes

        spans = self.outcome_spans()
        assert validate_trace(spans) == []
        outcome = summarize_outcomes(spans)
        assert outcome["campaigns"] == 2
        assert outcome["degraded"] == 1
        assert outcome["cancelled"] == 0
        assert outcome["quarantined_rows"] == 3
        assert outcome["job_states"] == {"completed": 1,
                                         "quarantined": 1}

    def test_render_summary_surfaces_outcomes(self):
        text = render_summary(self.outcome_spans())
        assert "outcomes:" in text
        assert "1 degraded" in text
        assert "jobs completed: 1" in text
        assert "jobs quarantined: 1" in text
        # a trace with no campaign/job spans has no outcomes section
        assert "outcomes:" not in render_summary(self.spans()[:1])


class TestMetrics:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.count("steps.accepted", 3)
        metrics.count("steps.accepted")
        metrics.gauge("budget.doubles", 1024.0)
        metrics.observe("launch.rows", 8)
        assert metrics.counters["steps.accepted"] == 4
        assert bool(metrics)
        assert not bool(MetricsRegistry())

    def test_kind_collision_rejected(self):
        metrics = MetricsRegistry()
        metrics.count("x")
        with pytest.raises(TelemetryError):
            metrics.observe("x", 1.0)

    def test_merge_and_round_trip(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("a", 2)
        left.observe("h", 3.0)
        right.count("a", 5)
        right.observe("h", 9.0)
        left.merge(right)
        restored = MetricsRegistry.from_dict(left.to_dict())
        assert restored.counters["a"] == 7
        assert restored.histograms["h"].n == 2
        assert restored.histograms["h"].total == pytest.approx(12.0)
        assert restored.to_dict() == left.to_dict()

    def test_histogram_buckets_and_empty(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 1000.0):
            histogram.observe(value)
        restored = Histogram.from_dict(histogram.to_dict())
        assert restored.n == 3
        assert restored.maximum == 1000.0
        assert Histogram().to_dict()["min"] is None


class TestEngineIntegration:
    def test_launch_rung_phase_hierarchy(self):
        model = lotka_volterra()
        tracer = Tracer()
        simulator = BatchSimulator(model, method="dopri5",
                                   max_batch_per_launch=3, tracer=tracer)
        result = simulator.simulate((0.0, 2.0), T_EVAL, lv_batch(model))
        assert result.all_success
        assert validate_trace(tracer.spans, check_containment=True) == []
        categories = {span.category for span in tracer.spans}
        assert categories == {"launch", "rung", "phase"}
        phases = {span.name for span in tracer.spans
                  if span.category == "phase"}
        assert {"compile", "step-loop", "dense-output",
                "merge"} <= phases
        launches = [span for span in tracer.spans
                    if span.category == "launch"]
        assert len(launches) == 3  # 8 rows / 3 per launch

    def test_metrics_populated_on_report(self):
        model = lotka_volterra()
        simulator = BatchSimulator(model, method="dopri5",
                                   max_batch_per_launch=3)
        simulator.simulate((0.0, 2.0), T_EVAL, lv_batch(model))
        metrics = simulator.last_report.metrics
        assert metrics.counters["steps.accepted"] > 0
        assert metrics.counters["kernel.rhs_launches"] > 0
        assert metrics.histograms["launch.rows"].n == 3
        assert metrics.histograms["launch.working_set_doubles"].total > 0

    def test_retry_rungs_traced_and_counted(self):
        model = lotka_volterra()
        tracer = Tracer()
        simulator = BatchSimulator(
            model, method="dopri5", tracer=tracer,
            retry_policy=default_retry_policy(),
            fault_plan=FaultPlan(fail_launches=(0,)))
        simulator.simulate((0.0, 2.0), T_EVAL, lv_batch(model))
        rungs = sorted(span.name for span in tracer.spans
                       if span.category == "rung")
        assert rungs[0] == "rung-0" and len(rungs) > 1
        metrics = simulator.last_report.metrics
        assert metrics.counters["retry.retried_rows"] == 8
        assert metrics.counters["retry.rung1.rows"] == 8
        assert metrics.counters["retry.recovered_rows"] == 8

    def test_report_round_trip_with_quarantine_and_memory(self):
        model = lotka_volterra()
        simulator = BatchSimulator(
            model, method="auto",
            retry_policy=default_retry_policy(),
            memory_governor=MemoryGovernor(),
            fault_plan=FaultPlan(nan_rows=(2,), oom_launches=(0,),
                                 oom_fit_rows=3))
        simulator.simulate((0.0, 2.0), T_EVAL, lv_batch(model))
        report = simulator.last_report
        assert len(report.quarantine) == 1
        assert report.memory_events
        exported = json.loads(report.to_json())
        # the derived headline count travels in the dict...
        assert exported["n_quarantined"] == 1
        restored = EngineReport.from_dict(exported)
        assert restored.n_launches == report.n_launches
        assert restored.quarantine.rows().tolist() == [2]
        # ...and the round-trip re-derives it identically
        assert json.loads(restored.to_json())["n_quarantined"] == 1
        assert restored.memory_events == report.memory_events
        assert restored.guard_log.n_clamped_steps == \
            report.guard_log.n_clamped_steps
        assert restored.metrics.to_dict() == report.metrics.to_dict()
        assert np.array_equal(restored.routing[0].switched,
                              report.routing[0].switched)
        # The registry is the only store of kernel and retry counts...
        removed = {"counters", "n_retried_rows", "n_recovered_rows"}
        assert not removed & set(exported)
        # ...and older reports that still carry the copies load, with
        # the copies ignored.
        legacy = dict(exported, counters={"rhs_kernel_launches": 1},
                      n_retried_rows=99, n_recovered_rows=98)
        loaded = EngineReport.from_dict(legacy)
        assert loaded.to_dict() == restored.to_dict()


class TestCampaignTelemetry:
    def test_campaign_trace_and_metrics(self, tmp_path):
        model = lotka_volterra()
        trace_path = tmp_path / "trace.jsonl"
        campaign = run_campaign(
            model, (0.0, 2.0), T_EVAL, lv_batch(model),
            config=CampaignConfig(chunk_size=3),
            telemetry=trace_path)
        assert not campaign.incomplete
        spans = read_trace_jsonl(trace_path)
        assert validate_trace(spans, check_containment=True) == []
        roots = [span for span in spans if span.category == "campaign"]
        assert [root.span_id for root in roots] == ["campaign"]
        chunks = sorted(span.span_id for span in spans
                        if span.category == "chunk")
        assert chunks == ["campaign/chunk-0", "campaign/chunk-1",
                          "campaign/chunk-2"]
        assert campaign.metrics.counters["campaign.chunks.executed"] == 3
        assert campaign.metrics.counters["steps.accepted"] > 0

    def test_crash_resume_yields_one_coherent_trace(self, tmp_path):
        model = lotka_volterra()
        trace_path = tmp_path / "trace.jsonl"
        config = CampaignConfig(chunk_size=3,
                                checkpoint_path=tmp_path / "journal.json")
        with pytest.raises(CampaignInterrupted):
            run_campaign(model, (0.0, 2.0), T_EVAL, lv_batch(model),
                         config=config,
                         fault_plan=FaultPlan(crash_after_launches=2),
                         telemetry=trace_path)
        # The crashed run journaled (and flushed spans for) two chunks
        # but never wrote its campaign root.
        partial = read_trace_jsonl(trace_path)
        assert {span.category for span in partial} >= {"chunk"}
        assert [s for s in partial if s.category == "campaign"] == []

        resumed = run_campaign(model, (0.0, 2.0), T_EVAL,
                               lv_batch(model), config=config,
                               telemetry=trace_path)
        assert not resumed.incomplete
        assert resumed.resumed_chunks == 2
        spans = read_trace_jsonl(trace_path)
        # One well-formed tree: no duplicate ids, no orphans, exactly
        # one campaign root adopting the pre-crash chunk spans.
        assert validate_trace(spans) == []
        roots = [span for span in spans if span.category == "campaign"]
        assert [root.span_id for root in roots] == ["campaign"]
        chunk_ids = sorted(span.span_id for span in spans
                           if span.category == "chunk")
        assert chunk_ids == ["campaign/chunk-0", "campaign/chunk-1",
                             "campaign/chunk-2"]
        # Metrics rehydrate from journaled payloads: the resumed
        # chunks' step counts are still aggregated.
        assert resumed.metrics.counters["campaign.chunks.resumed"] == 2
        assert resumed.metrics.counters["campaign.chunks.executed"] == 1
        assert resumed.metrics.counters["steps.accepted"] > 0

    def test_psa_telemetry_knob(self, tmp_path):
        model = lotka_volterra()
        trace_path = tmp_path / "psa.jsonl"
        target = SweepTarget.rate_constant(model, 0,
                                           ParameterRange(0.5, 1.5))
        run_psa_1d(model, target, 6, (0.0, 2.0), T_EVAL,
                   telemetry=trace_path)
        spans = read_trace_jsonl(trace_path)
        assert validate_trace(spans) == []
        assert {span.category for span in spans} >= {"launch", "phase"}

    def test_rerun_of_completed_campaign_is_trace_idempotent(
            self, tmp_path):
        model = lotka_volterra()
        trace_path = tmp_path / "trace.jsonl"
        config = CampaignConfig(chunk_size=3,
                                checkpoint_path=tmp_path / "journal.json")
        run_campaign(model, (0.0, 2.0), T_EVAL, lv_batch(model),
                     config=config, telemetry=trace_path)
        before = trace_path.read_text()
        rerun = run_campaign(model, (0.0, 2.0), T_EVAL, lv_batch(model),
                             config=config, telemetry=trace_path)
        assert rerun.resumed_chunks == 3
        # The rerun executed nothing, so it appended nothing: still one
        # campaign root, no duplicate ids.
        assert trace_path.read_text() == before
        assert validate_trace(read_trace_jsonl(trace_path)) == []

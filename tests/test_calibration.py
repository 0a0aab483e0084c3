"""Perfmodel calibration: launch-cost records, table fitting, the
fitted report, and the ``repro calibrate`` CLI."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TelemetryError
from repro.gpu import BatchSimulator
from repro.io import write_model
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import FaultPlan, default_retry_policy
from repro.telemetry import (CalibrationReport, CalibrationTable,
                             JsonlSink, Tracer, read_trace_jsonl)
from repro.telemetry.calibration import (MAX_SAMPLES_PER_BUCKET,
                                         BucketCalibration, LaunchCost,
                                         bucket_exponent,
                                         calibrate_workload)

T_EVAL = np.linspace(0.0, 2.0, 5)


def cost(method="auto", rows=8, n_species=4, predicted=1.0,
         observed=4.0):
    return LaunchCost(method=method, rows=rows, n_species=n_species,
                      n_reactions=6, predicted_seconds=predicted,
                      observed_seconds=observed)


class TestLaunchCost:
    def test_ratios(self):
        record = cost(predicted=2.0, observed=6.0)
        assert record.time_ratio == pytest.approx(3.0)

    def test_degenerate_predictions_ratio_one(self):
        record = cost(predicted=0.0)
        assert record.time_ratio == 1.0

    def test_bucket_exponent_matches_histogram_rule(self):
        assert [bucket_exponent(v) for v in (0, 1, 2, 3, 8, 1000)] \
            == [0, 1, 2, 2, 4, 10]


class TestCalibrationTable:
    def test_fit_recovers_a_misscaled_perfmodel(self):
        """The acceptance bar: a 4x-off model calibrates to >= 2x
        smaller median error."""
        table = CalibrationTable()
        rng = np.random.default_rng(3)
        for _ in range(32):
            jitter = float(rng.uniform(3.8, 4.2))
            table.record(cost(observed=jitter))
        report = table.fit()
        assert report.n_records == 32
        bucket, = report.buckets
        assert bucket.time_factor == pytest.approx(4.0, rel=0.1)
        assert report.median_error() == pytest.approx(np.log(4.0),
                                                      rel=0.1)
        assert report.median_error(calibrated=True) < 0.1
        assert report.error_reduction() >= 2.0
        assert not report.drifting

    def test_bucket_sample_cap_keeps_counting(self):
        table = CalibrationTable()
        for _ in range(MAX_SAMPLES_PER_BUCKET + 50):
            table.record(cost())
        assert table.n_records == MAX_SAMPLES_PER_BUCKET + 50
        assert len(table.records()) == MAX_SAMPLES_PER_BUCKET
        assert table.fit().n_records == MAX_SAMPLES_PER_BUCKET + 50

    def test_drift_detection(self):
        table = CalibrationTable()
        for observed in [1.0] * 4 + [10.0] * 4:
            table.record(cost(observed=observed))
        report = table.fit()
        assert report.drifting
        assert report.buckets[0].drifting

    def test_ingest_span_feeds_the_launch_bucket(self):
        table = CalibrationTable()
        launch = SimpleNamespace(
            category="launch", duration=0.02,
            attrs={"method": "dopri5", "rows": 16, "species": 3,
                   "reactions": 4, "predicted_ms": 10.0})
        assert table.ingest_span(launch)
        # Non-launch spans and launches without predictions are skipped.
        assert not table.ingest_span(SimpleNamespace(
            category="phase", duration=0.1, attrs={}))
        assert not table.ingest_span(SimpleNamespace(
            category="launch", duration=0.1, attrs={}))
        record = table.records()[0]
        assert record.method == "dopri5"
        assert record.time_ratio == pytest.approx(2.0)


class TestCalibrationReport:
    def make_report(self):
        return CalibrationReport(
            buckets=(
                BucketCalibration("auto", 3, 3, 16, 4.0, 0.01, 1.4, 0.1),
                BucketCalibration("radau5", 3, 3, 16, 1.0, 0.05, 0.2, 0.1),
                BucketCalibration("bdf", 3, 3, 16, 1.0, 0.02, 0.2, 0.1),
            ),
            global_time_factor=3.0, n_records=48)

    def test_save_load_round_trip(self, tmp_path):
        report = self.make_report()
        path = report.save(tmp_path / "calib.json")
        loaded = CalibrationReport.load(path)
        assert loaded == report
        assert loaded.to_dict() == report.to_dict()

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TelemetryError, match="cannot load"):
            CalibrationReport.load(bad)
        with pytest.raises(TelemetryError):
            CalibrationReport.load(tmp_path / "missing.json")

    def test_render_lists_buckets(self):
        text = self.make_report().render()
        assert "48 launch(es)" in text
        assert "auto" in text and "bdf" in text
        assert "reduction" in text


def launch_spans(model, batch, **kwargs):
    """The launch spans of one traced ``simulate`` call."""
    tracer = Tracer()
    BatchSimulator(model, tracer=tracer, **kwargs).simulate(
        (0.0, 2.0), T_EVAL, batch)
    return [span for span in tracer.spans if span.category == "launch"]


class TestEngineLaunchCosts:
    def test_every_launch_records_a_cost(self):
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(5))
        spans = launch_spans(model, batch, method="dopri5",
                             max_batch_per_launch=4)
        assert len(spans) == 2  # 8 rows at 4 per launch
        for span in spans:
            assert span.attrs["method"] == "dopri5"
            assert span.attrs["rows"] == 4
            assert span.attrs["species"] == model.n_species
            assert span.duration > 0.0
            assert span.attrs["predicted_ms"] > 0.0

    def test_retry_work_is_priced_on_the_launch_that_incurred_it(self):
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(5))

        def costs(fault_plan):
            spans = launch_spans(model, batch, method="dopri5",
                                 max_batch_per_launch=4,
                                 retry_policy=default_retry_policy(),
                                 fault_plan=fault_plan)
            return [span.attrs["predicted_ms"] for span in spans]

        clean = costs(None)
        faulted = costs(FaultPlan(fail_launches=(1,)))
        assert faulted[0] == clean[0]
        assert faulted[1] > clean[1]

    def test_report_round_trip_keeps_costs(self, tmp_path):
        """A table fed from a trace file holds the records a live
        observer of the same spans holds."""
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(5))
        live = CalibrationTable()
        tracer = Tracer(sink=JsonlSink(tmp_path / "trace.jsonl"))
        tracer.add_observer(live.ingest_span)
        BatchSimulator(model, method="dopri5", max_batch_per_launch=4,
                       tracer=tracer).simulate((0.0, 2.0), T_EVAL, batch)
        tracer.flush()
        replayed = CalibrationTable()
        for span in read_trace_jsonl(tmp_path / "trace.jsonl"):
            replayed.ingest_span(span)
        assert live.n_records == replayed.n_records == 2
        assert replayed.records() == live.records()

    def test_calibrate_workload_meets_the_reduction_bar(self):
        table = calibrate_workload(lotka_volterra(), widths=(4, 8),
                                   repeats=2, t_eval=T_EVAL)
        assert table.n_records == 4
        report = table.fit()
        # The stock perfmodel is scaled for a GPU, not this host: the
        # fit must shrink the median |log error| at least 2x.
        assert report.error_reduction() >= 2.0


class TestCalibrateCLI:
    def test_calibrate_writes_a_loadable_report(self, tmp_path, capsys):
        folder = write_model(lotka_volterra(), tmp_path / "lv")
        out = tmp_path / "calib.json"
        assert main(["calibrate", str(folder), "--out", str(out),
                     "--widths", "4,8", "--repeats", "1"]) == 0
        text = capsys.readouterr().out
        assert "calibration:" in text
        assert "reduction" in text
        report = CalibrationReport.load(out)
        assert report.n_records == 2
        assert len(report.buckets) == 2

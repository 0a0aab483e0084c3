"""Perfmodel calibration: launch-cost records, table fitting, the
report's admission/routing hooks, and the ``repro calibrate`` CLI."""

import asyncio
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TelemetryError, WorkingSetExceeded
from repro.gpu import BatchSimulator, BatchedODEProblem, StiffnessRouter
from repro.gpu.engine import EngineReport
from repro.gpu.perfmodel import memory_footprint_doubles
from repro.io import write_model
from repro.model import ODESystem, perturbed_batch
from repro.models import lotka_volterra, robertson
from repro.resilience import FaultPlan, default_retry_policy
from repro.service import (CampaignService, JobRequest, ServiceConfig,
                           TenantQuota)
from repro.solvers import SolverOptions
from repro.telemetry import CalibrationReport, CalibrationTable
from repro.telemetry.calibration import (MAX_SAMPLES_PER_BUCKET,
                                         BucketCalibration, LaunchCost,
                                         bucket_exponent,
                                         calibrate_workload)

T_EVAL = np.linspace(0.0, 2.0, 5)


def cost(method="auto", rows=8, n_species=4, predicted=1.0,
         observed=4.0, predicted_doubles=100, actual_doubles=100):
    return LaunchCost(method=method, rows=rows, n_species=n_species,
                      n_reactions=6, predicted_seconds=predicted,
                      observed_seconds=observed,
                      predicted_doubles=predicted_doubles,
                      actual_doubles=actual_doubles)


class TestLaunchCost:
    def test_ratios(self):
        record = cost(predicted=2.0, observed=6.0,
                      predicted_doubles=100, actual_doubles=250)
        assert record.time_ratio == pytest.approx(3.0)
        assert record.ws_ratio == pytest.approx(2.5)

    def test_degenerate_predictions_ratio_one(self):
        record = cost(predicted=0.0, predicted_doubles=0)
        assert record.time_ratio == 1.0
        assert record.ws_ratio == 1.0

    def test_round_trip(self):
        record = cost()
        assert LaunchCost.from_dict(record.to_dict()) == record

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
        bucket = report.lookup("auto", 8, 4)
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
                   "reactions": 4, "predicted_ms": 10.0,
                   "predicted_doubles": 500, "actual_doubles": 600})
        assert table.ingest_span(launch)
        # Non-launch spans and launches without predictions are skipped.
        assert not table.ingest_span(SimpleNamespace(
            category="phase", duration=0.1, attrs={}))
        assert not table.ingest_span(SimpleNamespace(
            category="launch", duration=0.1, attrs={}))
        record = table.records()[0]
        assert record.method == "dopri5"
        assert record.time_ratio == pytest.approx(2.0)
        assert record.ws_ratio == pytest.approx(1.2)


class TestCalibrationReport:
    def make_report(self):
        return CalibrationReport(
            buckets=(
                BucketCalibration("auto", 3, 3, 16, 4.0, 2.0, 0.01,
                                  1.4, 0.1),
                BucketCalibration("radau5", 3, 3, 16, 1.0, 1.0, 0.05,
                                  0.2, 0.1),
                BucketCalibration("bdf", 3, 3, 16, 1.0, 1.0, 0.02,
                                  0.2, 0.1),
            ),
            global_time_factor=3.0, global_ws_factor=1.5, n_records=48)

    def test_lookup_prefers_nearest_same_method_bucket(self):
        report = self.make_report()
        assert report.lookup("auto", 8, 4).time_factor == 4.0
        # Far-off sizes still land on the only auto bucket...
        assert report.lookup("auto", 1024, 100).time_factor == 4.0
        # ...but an unknown method falls back to the globals.
        assert report.lookup("dopri5", 8, 4) is None
        assert report.time_correction("dopri5", 8, 4) == 3.0
        assert report.ws_correction("dopri5", 8, 4) == 1.5

    def test_calibrated_estimates(self):
        report = self.make_report()
        assert report.calibrated_seconds(2.0, "auto", 8, 4) == \
            pytest.approx(8.0)
        assert report.calibrated_doubles(100, "auto", 8, 4) == 200
        assert report.calibrated_doubles(0, "auto", 8, 4) == 1

    def test_preferred_stiff_method_needs_both_rungs(self):
        report = self.make_report()
        assert report.preferred_stiff_method(8, 4) == "bdf"
        radau_only = CalibrationReport(buckets=(
            BucketCalibration("radau5", 3, 3, 16, 1.0, 1.0, 0.05,
                              0.2, 0.1),))
        assert radau_only.preferred_stiff_method(8, 4) is None
        assert CalibrationReport().preferred_stiff_method(8, 4) is None

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


class TestEngineLaunchCosts:
    def test_every_launch_records_a_cost(self):
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(5))
        simulator = BatchSimulator(model, method="dopri5",
                                   max_batch_per_launch=4)
        simulator.simulate((0.0, 2.0), T_EVAL, batch)
        costs = simulator.last_report.launch_costs
        assert len(costs) == 2  # 8 rows at 4 per launch
        for record in costs:
            assert record.method == "dopri5"
            assert record.rows == 4
            assert record.n_species == model.n_species
            assert record.observed_seconds > 0.0
            assert record.predicted_seconds > 0.0
            assert record.predicted_doubles > 0
            assert record.actual_doubles == record.predicted_doubles

    def test_retry_work_is_priced_on_the_launch_that_incurred_it(self):
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(5))

        def costs(fault_plan):
            simulator = BatchSimulator(model, method="dopri5",
                                       max_batch_per_launch=4,
                                       retry_policy=default_retry_policy(),
                                       fault_plan=fault_plan)
            simulator.simulate((0.0, 2.0), T_EVAL, batch)
            return [cost.predicted_seconds
                    for cost in simulator.last_report.launch_costs]

        clean = costs(None)
        faulted = costs(FaultPlan(fail_launches=(1,)))
        assert faulted[0] == clean[0]
        assert faulted[1] > clean[1]

    def test_report_round_trip_keeps_costs(self):
        model = lotka_volterra()
        batch = perturbed_batch(model.nominal_parameterization(), 4,
                                np.random.default_rng(5))
        simulator = BatchSimulator(model, method="dopri5")
        simulator.simulate((0.0, 2.0), T_EVAL, batch)
        report = simulator.last_report
        restored = EngineReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert restored.launch_costs == report.launch_costs

    def test_calibrate_workload_meets_the_reduction_bar(self):
        table = calibrate_workload(lotka_volterra(), widths=(4, 8),
                                   repeats=2, t_eval=T_EVAL)
        assert table.n_records == 4
        report = table.fit()
        # The stock perfmodel is scaled for a GPU, not this host: the
        # fit must shrink the median |log error| at least 2x.
        assert report.error_reduction() >= 2.0


class _PreferBDF:
    def preferred_stiff_method(self, rows, n_species):
        return "bdf"


class _NoEvidence:
    def preferred_stiff_method(self, rows, n_species):
        return None


def stiff_problem(batch_size=4):
    model = robertson()
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(0))
    return BatchedODEProblem(ODESystem.from_model(model), batch)


class TestCalibratedRouting:
    OPTIONS = SolverOptions(max_steps=100_000)
    GRID = np.array([0.0, 1.0e3])

    def test_default_stiff_rung_is_radau(self):
        router = StiffnessRouter(self.OPTIONS,
                                 cost_model=_NoEvidence())
        result, decision = router.solve(stiff_problem(), (0, 1e3),
                                        self.GRID)
        assert result.all_success
        assert decision.stiff_method == "radau5"
        assert set(result.methods()) == {"radau5"}

    def test_calibrated_preference_switches_to_bdf(self):
        router = StiffnessRouter(self.OPTIONS, cost_model=_PreferBDF())
        result, decision = router.solve(stiff_problem(), (0, 1e3),
                                        self.GRID)
        assert result.all_success
        assert decision.stiff_method == "bdf"
        assert set(result.methods()) == {"bdf"}

    def test_engine_threads_cost_model_through(self):
        model = robertson()
        batch = perturbed_batch(model.nominal_parameterization(), 2,
                                np.random.default_rng(0))
        simulator = BatchSimulator(model, method="auto",
                                   options=self.OPTIONS,
                                   cost_model=_PreferBDF())
        result = simulator.simulate((0.0, 1.0e3), self.GRID, batch)
        assert result.all_success
        assert "bdf" in set(result.methods())

    def test_decision_round_trip_keeps_stiff_method(self):
        router = StiffnessRouter(self.OPTIONS, cost_model=_PreferBDF())
        _result, decision = router.solve(stiff_problem(), (0, 1e3),
                                         self.GRID)
        restored = type(decision).from_dict(decision.to_dict())
        assert restored.stiff_method == "bdf"


class TestCalibratedAdmission:
    def admit(self, config, request, calibration=None):
        async def _run():
            service = CampaignService(config=config,
                                      calibration=calibration)
            await service.start()
            try:
                return service.submit(request)
            finally:
                await service.stop(drain=False)
        return asyncio.run(_run())

    def make_request(self, model):
        batch = perturbed_batch(model.nominal_parameterization(), 6,
                                np.random.default_rng(11))
        return JobRequest(model=model, t_span=(0.0, 2.0), t_eval=T_EVAL,
                          parameters=batch, chunk_size=3)

    def test_calibration_flips_the_admission_verdict(self):
        model = lotka_volterra()
        raw = memory_footprint_doubles(3, model.n_species,
                                       model.n_reactions, len(T_EVAL))
        quota = TenantQuota(max_inflight_chunks=2,
                            working_set_doubles=3 * raw)
        config = ServiceConfig(default_quota=quota)
        # Uncalibrated: 2 chunks of `raw` fit the 3x budget.
        job = self.admit(config, self.make_request(model))
        assert job is not None
        # A measured 10x working-set blowup pushes it over.
        inflated = CalibrationReport(global_ws_factor=10.0)
        with pytest.raises(WorkingSetExceeded):
            self.admit(config, self.make_request(model),
                       calibration=inflated)
        # A measured shrink keeps an otherwise-borderline job in.
        tight = ServiceConfig(default_quota=TenantQuota(
            max_inflight_chunks=2, working_set_doubles=raw))
        with pytest.raises(WorkingSetExceeded):
            self.admit(tight, self.make_request(model))
        shrunk = CalibrationReport(global_ws_factor=0.25)
        job = self.admit(tight, self.make_request(model),
                         calibration=shrunk)
        assert job is not None

    def test_config_path_loads_the_report(self, tmp_path):
        path = CalibrationReport(global_ws_factor=2.0,
                                 n_records=9).save(tmp_path / "c.json")
        config = ServiceConfig(calibration_path=str(path))
        service = CampaignService(config=config)
        assert service.calibration.n_records == 9
        assert service.calibration.global_ws_factor == 2.0


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

"""Memory governor: launch planning under a device budget, injected
memory pressure, and bit-identical split/re-merge through the engine."""

import numpy as np
import pytest

from repro.errors import GuardError, ResilienceError
from repro.gpu import BatchSimulator, GTX_1650, TITAN_X
from repro.gpu.perfmodel import memory_footprint_doubles
from repro.guards import GuardConfig, MemoryGovernor
from repro.model import ParameterizationBatch, perturbed_batch
from repro.models import dimerization, lotka_volterra
from repro.resilience import FaultPlan


def replicated_batch(model, size):
    nominal = model.nominal_parameterization()
    return ParameterizationBatch.from_parameterizations([nominal] * size)


class TestGovernorPlanning:
    def test_within_budget_single_segment(self):
        plan = MemoryGovernor().plan(256, 3, 4, 100, "dopri5", TITAN_X)
        assert not plan.split
        assert plan.segments == ((0, 256),)
        assert plan.estimated_doubles == memory_footprint_doubles(
            256, 3, 4, 100, "dopri5")

    def test_over_budget_halves_until_fit(self):
        # budget covering ~1/3 of the launch forces two halvings
        full = memory_footprint_doubles(256, 3, 4, 100, "dopri5")
        budget_gb = (full / 3) * 8 / 1024 ** 3
        plan = MemoryGovernor(budget_gb=budget_gb).plan(
            256, 3, 4, 100, "dopri5", TITAN_X)
        assert plan.split and plan.n_splits == 2
        assert plan.segment_rows == 64

    def test_segments_partition_the_batch(self):
        plan = MemoryGovernor().plan(
            100, 3, 4, 50, "dopri5", TITAN_X, forced_fit_rows=13)
        covered = [row for start, stop in plan.segments
                   for row in range(start, stop)]
        assert covered == list(range(100))
        assert plan.injected
        assert max(stop - start for start, stop in plan.segments) <= 13

    def test_impossible_problem_raises(self):
        with pytest.raises(GuardError, match="does not fit"):
            MemoryGovernor(budget_gb=1e-9).plan(
                64, 3, 4, 100, "dopri5", GTX_1650)

    def test_backoff_exhaustion_raises(self):
        with pytest.raises(GuardError, match="backoff exhausted"):
            MemoryGovernor(max_splits=2).plan(
                4096, 3, 4, 100, "dopri5", TITAN_X, forced_fit_rows=1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(GuardError):
            MemoryGovernor(budget_gb=0.0)
        with pytest.raises(GuardError):
            MemoryGovernor(budget_fraction=1.5)
        with pytest.raises(GuardError):
            MemoryGovernor(max_splits=0)

    def test_budget_derived_from_device_fraction(self):
        governor = MemoryGovernor(budget_fraction=0.5)
        assert governor.budget_doubles(GTX_1650) == \
            int(0.5 * GTX_1650.memory_gb * 1024 ** 3) // 8

    def test_radau_footprint_exceeds_dopri5(self):
        assert memory_footprint_doubles(64, 20, 30, 100, "radau5") > \
            memory_footprint_doubles(64, 20, 30, 100, "dopri5")
        assert memory_footprint_doubles(64, 20, 30, 100, "bdf") > \
            memory_footprint_doubles(64, 20, 30, 100, "dopri5")


class TestFaultPlanMemoryPressure:
    def test_oom_fields_validated(self):
        with pytest.raises(ResilienceError):
            FaultPlan(oom_launches=(-1,))
        with pytest.raises(ResilienceError):
            FaultPlan(oom_fit_rows=0)
        with pytest.raises(ResilienceError):
            FaultPlan(drift_rate=float("nan"))

    def test_for_chunk_remaps_drift_and_oom(self):
        plan = FaultPlan(drift_rows=(3, 12), oom_launches=(1,),
                         nan_rows=(4,))
        local = plan.for_chunk(chunk_index=1, start=10, stop=20)
        assert local.drift_rows == (2,)
        assert local.oom_launches == (0,)
        assert local.nan_rows == ()
        unaffected = plan.for_chunk(chunk_index=0, start=0, stop=10)
        assert unaffected.oom_launches == ()
        assert unaffected.drift_rows == (3,)

    def test_forces_memory_pressure(self):
        plan = FaultPlan(oom_launches=(0, 2))
        assert plan.forces_memory_pressure(0)
        assert not plan.forces_memory_pressure(1)


class TestEngineGoverned:
    T_EVAL = np.linspace(0.0, 2.0, 9)

    def varied_batch(self, model, size=8):
        return perturbed_batch(model.nominal_parameterization(), size,
                               np.random.default_rng(11))

    def test_injected_oom_split_is_bit_identical(self):
        """The acceptance criterion: an injected over-budget launch is
        split, re-merged, and produces exactly the unsplit result."""
        model = lotka_volterra()
        batch = self.varied_batch(model)
        plain = BatchSimulator(model, method="dopri5")
        baseline = plain.simulate((0.0, 2.0), self.T_EVAL, batch)
        governed = BatchSimulator(
            model, method="dopri5",
            fault_plan=FaultPlan(oom_launches=(0,), oom_fit_rows=3))
        result = governed.simulate((0.0, 2.0), self.T_EVAL, batch)
        assert np.array_equal(baseline.y, result.y, equal_nan=True)
        assert np.array_equal(baseline.status_codes, result.status_codes)
        assert np.array_equal(baseline.n_steps, result.n_steps)
        # segments share the launch's account, counted exactly once
        assert governed.last_report.metrics.counters["kernel.rhs_evals"] \
            == plain.last_report.metrics.counters["kernel.rhs_evals"]
        events = governed.last_report.memory_events
        assert len(events) == 1
        assert events[0].injected and events[0].granted_rows <= 3
        assert "injected OOM" in events[0].describe()

    def test_real_budget_splits_and_merges(self):
        model = lotka_volterra()
        batch = self.varied_batch(model)
        full = memory_footprint_doubles(8, model.n_species,
                                        model.n_reactions,
                                        self.T_EVAL.size, "dopri5")
        governor = MemoryGovernor(budget_gb=(full / 2) * 8 / 1024 ** 3)
        simulator = BatchSimulator(model, method="dopri5",
                                   memory_governor=governor)
        result = simulator.simulate((0.0, 2.0), self.T_EVAL, batch)
        assert result.all_success
        events = simulator.last_report.memory_events
        assert len(events) == 1 and not events[0].injected
        baseline = BatchSimulator(model, method="dopri5").simulate(
            (0.0, 2.0), self.T_EVAL, batch)
        assert np.array_equal(baseline.y, result.y, equal_nan=True)

    def test_within_budget_governor_records_no_events(self):
        model = lotka_volterra()
        simulator = BatchSimulator(model, method="dopri5",
                                   memory_governor=MemoryGovernor())
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    self.varied_batch(model))
        assert result.all_success
        assert simulator.last_report.memory_events == []

    def test_oom_without_fit_rows_defaults_to_halving(self):
        model = lotka_volterra()
        simulator = BatchSimulator(
            model, method="dopri5",
            fault_plan=FaultPlan(oom_launches=(0,)))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    self.varied_batch(model))
        assert result.all_success
        events = simulator.last_report.memory_events
        assert len(events) == 1
        assert events[0].n_splits == 1
        assert events[0].granted_rows == 4

    def test_split_launch_counts_as_one_launch(self):
        model = lotka_volterra()
        simulator = BatchSimulator(
            model, method="dopri5",
            fault_plan=FaultPlan(oom_launches=(0,), oom_fit_rows=2))
        simulator.simulate((0.0, 2.0), self.T_EVAL,
                           self.varied_batch(model))
        assert simulator.last_report.n_launches == 1

    def test_governor_composes_with_guards_and_counters(self):
        model = dimerization()
        batch = replicated_batch(model, 6)
        simulator = BatchSimulator(
            model, method="dopri5", guard_config=GuardConfig(),
            fault_plan=FaultPlan(oom_launches=(0,), oom_fit_rows=2,
                                 drift_rows=(4,), drift_rate=0.5))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL, batch)
        report = simulator.last_report
        assert result.success_mask.sum() == 5
        assert report.guard_log.rows().tolist() == [4]
        assert len(report.memory_events) == 1
        assert result.statuses()[4] == "guard_violation"

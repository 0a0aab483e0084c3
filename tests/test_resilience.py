"""Resilience layer: retry escalation, quarantine, fault injection,
and the degradation paths of the analyses (PSA / SA / PE)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (ParameterRange, SweepTarget, endpoint_metric,
                        run_psa_2d, run_sobol_sa, simulate,
                        synthetic_target)
from repro.core.pe import FreeParameter, ParameterEstimation
from repro.errors import (AnalysisError, CampaignInterrupted,
                         ResilienceError)
from repro.gpu import BatchSimulator
from repro.model import perturbed_batch
from repro.resilience import (DEFAULT_RETRY_LADDER, FailureRecord,
                              FaultPlan, QuarantineLog, RetryAttempt,
                              RetryPolicy, RetryStage,
                              default_retry_policy)
from repro.solvers import SolverOptions


class TestRetryPolicy:
    def test_default_ladder_escalates_solver_and_tolerances(self):
        methods = [stage.method for stage in DEFAULT_RETRY_LADDER]
        assert methods == ["dopri5", "radau5", "bdf"]

    def test_derive_options_scales_tolerances_and_step_cap(self):
        base = SolverOptions(rtol=1e-6, atol=1e-9, max_steps=1000)
        stage = RetryStage("radau5", rtol_factor=0.1, atol_factor=0.5,
                           max_steps_factor=4.0)
        derived = stage.derive_options(base)
        assert derived.rtol == pytest.approx(1e-7)
        assert derived.atol == pytest.approx(5e-10)
        assert derived.max_steps == 4000

    def test_planned_stages_bounded_by_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert len(policy.planned_stages()) == 2

    def test_invalid_stage_rejected(self):
        with pytest.raises(ResilienceError):
            RetryStage("lsoda")
        with pytest.raises(ResilienceError):
            RetryStage("dopri5", rtol_factor=0.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=-1)
        # zero attempts is legal: quarantine immediately, no retries
        assert RetryPolicy(max_attempts=0).planned_stages() == ()

    def test_describe_mentions_every_rung(self):
        text = default_retry_policy().describe()
        for method in ("dopri5", "radau5", "bdf"):
            assert method in text


class TestFaultPlan:
    def test_nan_mask_uses_global_row_ids(self):
        plan = FaultPlan(nan_rows=(3, 10))
        mask = plan.nan_mask(np.array([2, 3, 4, 10]))
        assert mask.tolist() == [False, True, False, True]

    def test_for_chunk_rebases_rows_and_strips_campaign_faults(self):
        plan = FaultPlan(nan_rows=(2, 5, 9), fail_launches=(1,),
                         crash_after_launches=2, deadline_after_chunks=1)
        local = plan.for_chunk(1, start=4, stop=8)
        assert local.nan_rows == (1,)
        assert local.fail_launches == (0,)
        assert local.crash_after_launches is None
        assert local.deadline_after_chunks is None

    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultPlan(nan_rows=(-1,))
        with pytest.raises(ResilienceError):
            FaultPlan(crash_after_launches=-1)


class TestQuarantineLog:
    def make_record(self, row):
        return FailureRecord(row, np.array([0.5]), np.array([1.0, 2.0]),
                             [RetryAttempt("first-pass", "dopri5",
                                           "failed", 7, 1e-6, 1e-9, 100)])

    def test_merge_shifts_rows_into_campaign_space(self):
        chunk = QuarantineLog()
        chunk.add(self.make_record(1))
        campaign = QuarantineLog()
        campaign.merge(chunk, row_offset=8)
        assert campaign.rows().tolist() == [9]

    def test_dict_round_trip(self):
        log = QuarantineLog([self.make_record(4)])
        restored = QuarantineLog.from_dicts(log.to_dicts())
        assert restored.rows().tolist() == [4]
        assert restored.records[0].status_history() == ["failed"]
        assert restored.records[0].attempts[0].max_steps == 100

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=8))
    def test_mask_matches_rows(self, rows):
        log = QuarantineLog()
        for row in set(rows):
            log.add(FailureRecord(row, np.zeros(1), np.zeros(1)))
        mask = log.mask(64)
        assert int(mask.sum()) == len(set(rows))
        assert np.array_equal(np.flatnonzero(mask), log.rows())


class TestRetryEscalation:
    def batch(self, lv_model, size=8):
        rng = np.random.default_rng(7)
        return perturbed_batch(lv_model.nominal_parameterization(), size,
                               rng)

    def test_transient_launch_failure_recovered(self, lv_model):
        result = simulate(lv_model, (0.0, 2.0), np.linspace(0, 2, 5),
                          self.batch(lv_model),
                          retry_policy=default_retry_policy(),
                          fault_plan=FaultPlan(fail_launches=(0,)))
        assert result.all_success
        assert result.n_quarantined == 0
        counts = result.engine_report.metrics.counters
        assert counts["retry.recovered_rows"] == 8
        assert counts["retry.retried_rows"] >= 8

    def test_persistent_fault_exhausts_ladder_into_quarantine(self,
                                                              lv_model):
        result = simulate(lv_model, (0.0, 2.0), np.linspace(0, 2, 5),
                          self.batch(lv_model),
                          retry_policy=default_retry_policy(),
                          fault_plan=FaultPlan(nan_rows=(2, 5)))
        assert result.n_quarantined == 2
        assert result.quarantine.rows().tolist() == [2, 5]
        # the healthy rows are untouched
        assert result.raw.success_mask.sum() == 6
        for record in result.quarantine:
            # first pass + every ladder rung, all non-success
            assert record.n_attempts == 4
            assert record.attempts[0].stage == "first-pass"
            assert "success" not in record.status_history()
            assert record.rate_constants.shape == (lv_model.n_reactions,)

    def test_without_policy_failures_stay_unretried(self, lv_model):
        result = simulate(lv_model, (0.0, 2.0), np.linspace(0, 2, 5),
                          self.batch(lv_model),
                          fault_plan=FaultPlan(nan_rows=(2,)))
        assert result.n_quarantined == 0
        assert not result.raw.success_mask[2]

    def test_quarantine_rows_are_global_across_launches(self, lv_model):
        result = simulate(lv_model, (0.0, 2.0), np.linspace(0, 2, 5),
                          self.batch(lv_model, size=8),
                          max_batch_per_launch=3,
                          retry_policy=default_retry_policy(),
                          fault_plan=FaultPlan(nan_rows=(1, 6)))
        assert result.quarantine.rows().tolist() == [1, 6]

    def test_injected_crash_raises_campaign_interrupted(self, lv_model):
        simulator = BatchSimulator(lv_model, max_batch_per_launch=4,
                                   fault_plan=FaultPlan(
                                       crash_after_launches=1))
        with pytest.raises(CampaignInterrupted) as excinfo:
            simulator.simulate((0.0, 2.0), np.linspace(0, 2, 5),
                               self.batch(lv_model, size=8))
        assert excinfo.value.completed_chunks == 1


class TestAnalysesDegradation:
    def test_psa2d_masks_quarantined_cells(self, lv_model):
        target_x = SweepTarget.rate_constant(lv_model, 0,
                                             ParameterRange(0.5, 1.5))
        target_y = SweepTarget.initial_concentration(
            lv_model, "Y2", ParameterRange(2.0, 6.0))
        result = run_psa_2d(lv_model, target_x, target_y, 3, 3,
                            (0.0, 2.0), np.linspace(0, 2, 5),
                            metric=endpoint_metric(lv_model, "Y1"),
                            retry_policy=default_retry_policy(),
                            fault_plan=FaultPlan(nan_rows=(4,)))
        assert result.n_quarantined == 1
        assert not np.isfinite(result.metric_map[1, 1])  # row-major cell 4
        assert np.isfinite(result.metric_map).sum() == 8
        assert "?" in result.render_map()
        assert result.valid_mask.sum() == 8

    def test_sobol_indices_finite_with_quarantined_rows(self, lv_model):
        result = run_sobol_sa(
            lv_model, species=["Y1", "Y2"],
            ranges=[ParameterRange(5.0, 15.0), ParameterRange(2.0, 8.0)],
            output_species="Y1", base_samples=8, t_span=(0.0, 3.0),
            t_eval=np.linspace(0, 3, 7), bootstrap=20,
            retry_policy=default_retry_policy(),
            fault_plan=FaultPlan(nan_rows=(0, 9)))
        assert len(result.quarantine) == 2
        assert result.n_failed_simulations == 2
        # row 0 kills base sample 0 (A block), row 9 kills base sample
        # 1 (AB_1 block): 6 of 8 columns survive.
        assert result.n_surviving_base_samples == 6
        for array in (result.first_order, result.total_order,
                      result.first_order_ci, result.total_order_ci):
            assert np.isfinite(array).all()

    def test_sobol_refuses_too_few_survivors(self, lv_model):
        with pytest.raises(AnalysisError, match="survived"):
            run_sobol_sa(
                lv_model, species=["Y1", "Y2"],
                ranges=[ParameterRange(5.0, 15.0),
                        ParameterRange(2.0, 8.0)],
                output_species="Y1", base_samples=4, t_span=(0.0, 3.0),
                t_eval=np.linspace(0, 3, 7), bootstrap=10,
                retry_policy=RetryPolicy(max_attempts=1),
                fault_plan=FaultPlan(nan_rows=tuple(range(4))))

    def test_pe_converges_with_penalized_failing_region(self, lv_model):
        times, target = synthetic_target(lv_model, ["Y1", "Y2"],
                                         (0.0, 3.0), n_points=12)
        estimation = ParameterEstimation(
            lv_model, [FreeParameter(0, 0.1, 10.0)], ["Y1", "Y2"],
            times, target, retry_policy=RetryPolicy(max_attempts=1),
            fault_plan=FaultPlan(nan_rows=(0, 1)))
        result = estimation.estimate(optimizer="pso", swarm_size=8,
                                     n_iterations=10, seed=3)
        assert estimation.n_penalized > 0
        assert np.isfinite(result.fitness)
        assert result.fitness < estimation.failure_penalty
        # true k0 = 1.0; penalty rows must not keep the swarm from it
        assert 0.3 <= result.estimated_constants[0] <= 3.0

    def test_pe_rejects_non_finite_penalty(self, lv_model):
        times, target = synthetic_target(lv_model, ["Y1"], (0.0, 1.0),
                                         n_points=4)
        with pytest.raises(AnalysisError):
            ParameterEstimation(lv_model, [FreeParameter(0, 0.1, 10.0)],
                                ["Y1"], times, target,
                                failure_penalty=np.inf)

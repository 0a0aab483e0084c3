"""Numerical-integrity guards: config, violations, invariant monitor,
projection clamping, in-kernel guards and their engine integration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (ParameterRange, SweepTarget, endpoint_metric,
                        run_psa_1d, simulate)
from repro.errors import GuardError
from repro.gpu import GUARD, STATUS_NAMES, BatchSimulator
from repro.guards import (GUARD_KINDS, INVARIANT_DRIFT, NEGATIVE_STATE,
                          NON_FINITE, STEP_COLLAPSE, GuardConfig, GuardLog,
                          GuardViolation, InvariantMonitor, KernelGuard,
                          project_nonnegative)
from repro.model import ParameterizationBatch, perturbed_batch
from repro.models import (decay_chain, dimerization, michaelis_menten_cycle,
                          robertson)
from repro.resilience import FaultPlan, default_retry_policy


def replicated_batch(model, size):
    nominal = model.nominal_parameterization()
    return ParameterizationBatch.from_parameterizations([nominal] * size)


class TestGuardConfig:
    def test_defaults_validate(self):
        config = GuardConfig()
        assert config.enabled and config.check_invariants

    def test_invalid_tolerances_rejected(self):
        with pytest.raises(GuardError):
            GuardConfig(invariant_rtol=0.0)
        with pytest.raises(GuardError):
            GuardConfig(invariant_atol=-1.0)
        with pytest.raises(GuardError):
            GuardConfig(negativity_band=-1e-9)

    def test_replace_and_disabled(self):
        config = GuardConfig().replace(clamp_negatives=False)
        assert not config.clamp_negatives and config.check_invariants
        assert not GuardConfig.disabled().enabled


class TestGuardViolations:
    def test_unknown_kind_rejected(self):
        with pytest.raises(GuardError):
            GuardViolation("made-up", 0, 0.0, 1.0)

    def test_status_name_registered(self):
        assert STATUS_NAMES[GUARD] == "guard_violation"

    def test_log_counts_rows_and_roundtrip(self):
        log = GuardLog()
        log.add(GuardViolation(NEGATIVE_STATE, 3, 0.5, -1e-3))
        log.add(GuardViolation(NEGATIVE_STATE, 3, 0.7, -2e-3))
        log.add(GuardViolation(NON_FINITE, 1, 0.1, float("nan")))
        assert log.counts() == {NEGATIVE_STATE: 2, NON_FINITE: 1}
        assert log.rows().tolist() == [1, 3]
        restored = GuardLog.from_dicts(log.to_dicts())
        assert len(restored) == 3
        assert restored.by_kind(NEGATIVE_STATE)[0].row == 3
        assert "negative-state" in log.summary()

    def test_merge_shifts_rows(self):
        left, right = GuardLog(), GuardLog(n_clamped_steps=4)
        right.add(GuardViolation(STEP_COLLAPSE, 2, 1.0, 1e-18))
        left.merge(right, row_offset=10)
        assert left.rows().tolist() == [12]
        assert left.n_clamped_steps == 4

    def test_all_kinds_constructible(self):
        for kind in GUARD_KINDS:
            GuardViolation(kind, 0, 0.0, 0.0)


class TestInvariantExtraction:
    @pytest.mark.parametrize("factory,expected_laws", [
        (robertson, 1),             # A + B + C conserved
        (dimerization, 1),          # A + 2 D conserved
        (michaelis_menten_cycle, 1),  # S + P conserved
        (decay_chain, 1),           # closed chain: total mass conserved
    ])
    def test_curated_model_law_counts(self, factory, expected_laws):
        model = factory()
        laws = model.conservation_law_basis()
        assert laws.shape[0] == expected_laws
        # every law is annihilated by every reaction's net change
        assert np.allclose(model.matrices.net.astype(float) @ laws.T, 0.0,
                           atol=1e-10)

    def test_laws_annihilate_stoichiometry(self):
        model = dimerization()
        laws = model.conservation_law_basis()
        assert np.allclose(model.matrices.net.astype(float) @ laws.T, 0.0,
                           atol=1e-10)

    def test_drift_ratio_clean_vs_biased(self):
        model = dimerization()
        monitor = InvariantMonitor.from_model(model, GuardConfig())
        assert monitor.n_laws == 1
        x0 = np.array([[1.0, 0.0]])
        clean = np.repeat(x0[:, None, :], 5, axis=1)    # constant => exact
        assert monitor.drift_ratios(clean, x0)[0] == 0.0
        biased = clean.copy()
        biased[0, -1, :] += 0.5                          # off the subspace
        assert monitor.drift_ratios(biased, x0)[0] > 1.0

    def test_nan_tails_contribute_no_drift(self):
        model = dimerization()
        monitor = InvariantMonitor.from_model(model, GuardConfig())
        x0 = np.array([[1.0, 0.0]])
        trajectory = np.repeat(x0[:, None, :], 4, axis=1)
        trajectory[0, 2:, :] = np.nan
        assert monitor.drift_ratios(trajectory, x0)[0] == 0.0


class TestProjectionClamp:
    def test_plain_clamp_without_laws(self):
        states = np.array([[1.0, -0.25]])
        assert np.array_equal(project_nonnegative(states),
                              np.array([[1.0, 0.0]]))

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0),
                    min_size=2, max_size=2),
           st.floats(min_value=1e-12, max_value=1e-6))
    def test_clamping_never_increases_conservation_drift(self, x0_list,
                                                         dip):
        """The hypothesis property of the issue: projecting a state with
        a noise-band negative component back to the orthant never
        increases conservation drift — it restores the totals exactly."""
        model = dimerization()
        laws = model.conservation_law_basis()
        x0 = np.array([x0_list])
        reference = x0 @ laws.T
        # a state on the conservation subspace with one component dipped
        # slightly negative (the shape the integrator hands the guard)
        state = x0.copy()
        state[0, 0] = -dip
        state[0, 1] += (x0[0, 0] + dip) / 2.0   # stay on the law subspace
        drift_before = np.abs(state @ laws.T - reference).max()
        projected = project_nonnegative(state, laws, reference)
        drift_after = np.abs(projected @ laws.T - reference).max()
        assert drift_after <= drift_before + 1e-12
        assert drift_after <= 1e-9
        # the correction may reintroduce negativity of at most the
        # clamped magnitude (see project_nonnegative's contract)
        assert projected.min() >= -dip

    def test_projection_restores_totals_exactly(self):
        model = robertson()
        laws = model.conservation_law_basis()
        x0 = np.array([[0.7, 0.2, 0.1]])
        reference = x0 @ laws.T
        state = np.array([[0.7000001, -1e-8, 0.0999999]])
        projected = project_nonnegative(state, laws, reference)
        assert np.allclose(projected @ laws.T, reference, atol=1e-12)


class TestKernelGuardUnit:
    def make_guard(self, config=None, laws=None):
        log = GuardLog()
        x0 = np.array([[1.0, 1.0], [1.0, 1.0]])
        guard = KernelGuard(config or GuardConfig(), log, GUARD, x0, laws)
        return guard, log

    def test_nonfinite_state_deactivates_row(self):
        guard, log = self.make_guard()
        states = np.array([[1.0, np.nan], [1.0, 1.0]])
        status = np.zeros(2, dtype=np.int64)
        guard.after_accept(states, np.array([0, 1]), np.array([0, 1]),
                           np.array([0.1, 0.1]), status)
        assert status.tolist() == [GUARD, 0]
        assert log.counts() == {NON_FINITE: 1}

    def test_material_negative_deactivates_noise_band_clamps(self):
        guard, log = self.make_guard()
        states = np.array([[1.0, -0.5], [1.0, -1e-9]])
        status = np.zeros(2, dtype=np.int64)
        guard.after_accept(states, np.array([0, 1]), np.array([0, 1]),
                           np.array([0.1, 0.1]), status)
        assert status.tolist() == [GUARD, 0]
        assert log.counts() == {NEGATIVE_STATE: 1}
        assert log.n_clamped_steps == 1
        assert states[1].min() >= 0.0

    def test_disabled_guard_is_noop(self):
        guard, log = self.make_guard(config=GuardConfig(enabled=False))
        states = np.array([[1.0, np.nan], [1.0, -0.5]])
        status = np.zeros(2, dtype=np.int64)
        guard.after_accept(states, np.array([0, 1]), np.array([0, 1]),
                           np.array([0.1, 0.1]), status)
        guard.on_step_break(np.array([0]), np.array([0]),
                            np.array([0.1]), np.array([np.nan]), status)
        assert status.tolist() == [0, 0] and not log

    def test_step_break_classification(self):
        guard, log = self.make_guard()
        status = np.full(2, 3, dtype=np.int64)   # integrator said BROKEN
        guard.on_step_break(np.array([0, 1]), np.array([0, 1]),
                            np.array([0.5, 0.5]),
                            np.array([np.nan, 1e-250]), status)
        assert status.tolist() == [GUARD, GUARD]
        assert log.counts() == {NON_FINITE: 1, STEP_COLLAPSE: 1}


class TestEngineIntegration:
    T_EVAL = np.linspace(0.0, 2.0, 9)

    def test_clean_run_logs_nothing(self):
        model = dimerization()
        simulator = BatchSimulator(model, method="dopri5",
                                   guard_config=GuardConfig())
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    replicated_batch(model, 6))
        assert result.all_success
        assert not simulator.last_report.guard_log
        assert simulator.last_report.guard_log.summary() == "guards: clean"

    @pytest.mark.parametrize("method", ["dopri5", "radau5", "bdf"])
    def test_drift_injection_flags_row_in_every_integrator(self, method):
        model = dimerization()
        simulator = BatchSimulator(
            model, method=method, guard_config=GuardConfig(),
            fault_plan=FaultPlan(drift_rows=(2,), drift_rate=0.5))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    replicated_batch(model, 5))
        assert result.status_codes[2] == GUARD
        assert result.statuses()[2] == "guard_violation"
        assert result.success_mask.sum() == 4
        log = simulator.last_report.guard_log
        assert log.rows().tolist() == [2]
        assert log.by_kind(INVARIANT_DRIFT)

    def test_drift_defeats_retry_ladder_into_quarantine(self):
        model = dimerization()
        simulator = BatchSimulator(
            model, method="auto", guard_config=GuardConfig(),
            retry_policy=default_retry_policy(),
            fault_plan=FaultPlan(drift_rows=(1,), drift_rate=0.5))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    replicated_batch(model, 4))
        report = simulator.last_report
        assert result.status_codes[1] == GUARD
        assert report.metrics.counters["retry.recovered_rows"] == 0
        assert report.quarantine.rows().tolist() == [1]
        record = next(iter(report.quarantine))
        assert record.attempts[0].status == "guard_violation"
        assert all(a.status == "guard_violation" for a in record.attempts)

    def test_guard_rows_use_global_ids_across_launches(self):
        model = dimerization()
        simulator = BatchSimulator(
            model, method="dopri5", max_batch_per_launch=3,
            guard_config=GuardConfig(),
            fault_plan=FaultPlan(drift_rows=(1, 5), drift_rate=0.5))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    replicated_batch(model, 7))
        assert np.flatnonzero(result.status_codes == GUARD).tolist() == [1, 5]
        assert simulator.last_report.guard_log.rows().tolist() == [1, 5]

    def test_disabled_config_changes_nothing(self):
        model = dimerization()
        batch = replicated_batch(model, 4)
        plain = BatchSimulator(model, method="dopri5").simulate(
            (0.0, 2.0), self.T_EVAL, batch)
        guarded = BatchSimulator(
            model, method="dopri5",
            guard_config=GuardConfig.disabled()).simulate(
            (0.0, 2.0), self.T_EVAL, batch)
        assert np.array_equal(plain.y, guarded.y, equal_nan=True)

    def test_nan_rhs_is_classified_as_nonfinite_violation(self):
        model = dimerization()
        simulator = BatchSimulator(
            model, method="dopri5", guard_config=GuardConfig(),
            fault_plan=FaultPlan(nan_rows=(0,)))
        result = simulator.simulate((0.0, 2.0), self.T_EVAL,
                                    replicated_batch(model, 3))
        assert result.status_codes[0] == GUARD
        log = simulator.last_report.guard_log
        assert log.by_kind(NON_FINITE)


class TestAnalysisMasking:
    def test_psa1d_masks_drifting_row_like_a_solver_failure(self):
        model = dimerization()
        target = SweepTarget.rate_constant(model, 0,
                                           ParameterRange(1.0, 3.0))
        result = run_psa_1d(model, target, 5, (0.0, 2.0),
                            np.linspace(0, 2, 9),
                            metric=endpoint_metric(model, "D"),
                            retry_policy=default_retry_policy(),
                            guard_config=GuardConfig(),
                            fault_plan=FaultPlan(drift_rows=(2,),
                                                 drift_rate=0.5))
        assert result.quarantine.rows().tolist() == [2]
        assert not np.isfinite(result.metric_values[2])
        assert np.isfinite(np.delete(result.metric_values, 2)).all()

    def test_simulate_facade_forwards_guard_config(self, lv_model):
        batch = perturbed_batch(lv_model.nominal_parameterization(), 4,
                                np.random.default_rng(0))
        result = simulate(lv_model, (0.0, 2.0), np.linspace(0, 2, 5),
                          batch, guard_config=GuardConfig())
        assert result.all_success
        assert not result.engine_report.guard_log

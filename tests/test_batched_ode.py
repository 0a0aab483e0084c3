"""Tests for the batched RHS binding and kernel counters."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gpu import BatchedODEProblem, KernelCounters
from repro.model import ODESystem, perturbed_batch
from repro.telemetry import MetricsRegistry


@pytest.fixture
def problem(toy_model):
    system = ODESystem.from_model(toy_model)
    batch = perturbed_batch(toy_model.nominal_parameterization(), 6,
                            np.random.default_rng(0))
    return BatchedODEProblem(system, batch)


class TestBinding:
    def test_shapes(self, problem):
        assert problem.batch_size == 6
        assert problem.n_species == 4
        assert problem.initial_states().shape == (6, 4)

    def test_row_selection_uses_right_constants(self, problem):
        states = problem.initial_states()
        rows = np.array([0, 3, 5])
        selected = problem.fun(np.zeros(3), states[rows], rows)
        full = problem.fun(np.zeros(6), states, np.arange(6))
        assert np.allclose(selected, full[rows])

    def test_jacobian_row_selection(self, problem):
        states = problem.initial_states()
        rows = np.array([1, 4])
        selected = problem.jacobian(np.zeros(2), states[rows], rows)
        full = problem.jacobian(np.zeros(6), states, np.arange(6))
        assert np.allclose(selected, full[rows])

    def test_policy_validation(self, toy_model):
        system = ODESystem.from_model(toy_model)
        batch = toy_model.batch(2)
        with pytest.raises(SolverError):
            BatchedODEProblem(system, batch, policy="ludicrous")

    def test_shape_mismatch_rejected(self, toy_model, chain_model):
        system = ODESystem.from_model(toy_model)
        wrong_batch = chain_model.batch(2)
        with pytest.raises(SolverError):
            BatchedODEProblem(system, wrong_batch)

    def test_subset_shares_counters(self, problem):
        subset = problem.subset(np.array([0, 1]))
        assert subset.counters is problem.counters
        subset.fun(np.zeros(2), subset.initial_states(), np.arange(2))
        assert problem.counters.rhs_kernel_launches == 1


class TestCounters:
    def test_rhs_counting(self, problem):
        states = problem.initial_states()
        problem.fun(np.zeros(6), states, np.arange(6))
        problem.fun(np.zeros(2), states[:2], np.arange(2))
        counters = problem.counters
        assert counters.rhs_kernel_launches == 2
        assert counters.rhs_simulation_evaluations == 8

    def test_jacobian_counting(self, problem):
        states = problem.initial_states()
        problem.jacobian(np.zeros(6), states, np.arange(6))
        assert problem.counters.jacobian_kernel_launches == 1
        assert problem.counters.jacobian_simulation_evaluations == 6

    def test_metric_table_folds_and_reads_back(self):
        # The registry names are a published surface (dashboards and the
        # benchmark read them); the table is the only mapping. A zero
        # account still registers every name, so key sets never vary.
        metrics = MetricsRegistry()
        KernelCounters().fold_into(metrics)
        assert metrics.counters == dict.fromkeys(
            KernelCounters.METRIC_NAMES.values(), 0)
        account = KernelCounters(rhs_kernel_launches=1,
                                 rhs_simulation_evaluations=10,
                                 jacobian_kernel_launches=2,
                                 jacobian_simulation_evaluations=3,
                                 factorizations=4, newton_iterations=7)
        account.fold_into(metrics)
        account.fold_into(metrics)
        assert metrics.counters == {
            "kernel.rhs_launches": 2, "kernel.rhs_evals": 20,
            "kernel.jacobian_launches": 4, "kernel.jacobian_evals": 6,
            "newton.factorizations": 8, "newton.iterations": 14}
        totals = KernelCounters.from_metrics(metrics)
        assert totals == KernelCounters(2, 20, 4, 6, 8, 14)

"""Tests for the batched DOPRI5 integrator."""

import numpy as np
import pytest

from repro.gpu import BatchDopri5, BatchedODEProblem
from repro.gpu.batch_result import BROKEN, EXHAUSTED, OK, STIFF
from repro.model import ODESystem, perturbed_batch
from repro.models import decay_chain, lotka_volterra, robertson
from repro.solvers import ExplicitRungeKutta, SolverOptions
from repro.solvers.tableaus import DOPRI5

from .row_isolation import MIXED_OPTIONS, RowIsolationChecks, mixed_exit_launch


def make_problem(model, batch_size=8, seed=0, spread=0.25):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed), spread)
    return BatchedODEProblem(system, batch), batch


class TestAgainstScalar:
    def test_matches_scalar_dopri5_per_simulation(self):
        model = decay_chain(3)
        problem, batch = make_problem(model, 6)
        options = SolverOptions(rtol=1e-8, atol=1e-12)
        grid = np.linspace(0, 5, 11)
        batched = BatchDopri5(options).solve(problem, (0, 5), grid)
        assert batched.all_success
        scalar = ExplicitRungeKutta(DOPRI5, options)
        for index in range(batch.size):
            fun = problem.system.as_scipy_rhs(batch.rate_constants[index])
            reference = scalar.solve(fun, (0, 5),
                                     batch.initial_states[index], grid)
            assert np.allclose(batched.y[index], reference.y, rtol=1e-6,
                               atol=1e-9)

    def test_oscillatory_dynamics(self):
        model = lotka_volterra()
        problem, _ = make_problem(model, 4, spread=0.05)
        grid = np.linspace(0, 10, 51)
        result = BatchDopri5(SolverOptions(max_steps=50_000)).solve(
            problem, (0, 10), grid)
        assert result.all_success
        prey = result.y[:, :, 0]
        # Lotka-Volterra orbits return near their start.
        assert np.all(prey > 0)


class TestBatchSemantics:
    def test_per_simulation_step_counts_differ(self):
        """Perturbed constants make sims take different step counts."""
        model = lotka_volterra()
        problem, _ = make_problem(model, 8, spread=0.25)
        result = BatchDopri5().solve(problem, (0, 10),
                                     np.linspace(0, 10, 5))
        assert len(np.unique(result.n_steps)) > 1

    def test_save_grid_recorded_for_all(self):
        model = decay_chain(2)
        problem, _ = make_problem(model, 5)
        grid = np.linspace(0, 3, 7)
        result = BatchDopri5().solve(problem, (0, 3), grid)
        assert result.y.shape == (5, 7, model.n_species)
        assert not np.any(np.isnan(result.y))

    def test_grid_without_t0(self):
        model = decay_chain(2)
        problem, _ = make_problem(model, 3)
        grid = np.array([1.0, 2.0])
        result = BatchDopri5().solve(problem, (0, 2), grid)
        assert result.all_success
        assert result.y.shape[1] == 2

    def test_max_steps_marks_exhausted(self):
        model = lotka_volterra()
        problem, _ = make_problem(model, 3)
        result = BatchDopri5(SolverOptions(max_steps=3)).solve(
            problem, (0, 50), np.array([0.0, 50.0]))
        assert np.all(result.status_codes == EXHAUSTED)

    def test_initial_state_override(self):
        model = decay_chain(2)
        problem, batch = make_problem(model, 3)
        custom = batch.initial_states * 2.0
        result = BatchDopri5().solve(problem, (0, 1),
                                     np.array([0.0, 1.0]), custom)
        assert np.allclose(result.y[:, 0, :], custom)

    def test_counters_accumulate(self):
        model = decay_chain(2)
        problem, _ = make_problem(model, 4)
        BatchDopri5().solve(problem, (0, 2), np.linspace(0, 2, 5))
        assert problem.counters.rhs_kernel_launches > 0
        assert problem.counters.rhs_simulation_evaluations > 0


class TestStiffnessAbort:
    def test_robertson_flagged_stiff(self):
        problem, _ = make_problem(robertson(), 4, spread=0.1)
        solver = BatchDopri5(SolverOptions(max_steps=100_000),
                             abort_on_stiffness=True)
        result = solver.solve(problem, (0, 100), np.array([0.0, 100.0]))
        assert np.all(result.status_codes == STIFF)
        # Aborting must be far cheaper than exhausting the budget.
        assert np.all(result.n_steps < 10_000)

    def test_abort_disabled_by_default(self):
        problem, _ = make_problem(robertson(), 2, spread=0.1)
        solver = BatchDopri5(SolverOptions(max_steps=500))
        result = solver.solve(problem, (0, 100), np.array([0.0, 100.0]))
        assert np.all(result.status_codes == EXHAUSTED)

    def test_nonstiff_batch_unaffected(self):
        problem, _ = make_problem(decay_chain(3), 4)
        solver = BatchDopri5(abort_on_stiffness=True)
        result = solver.solve(problem, (0, 5), np.linspace(0, 5, 5))
        assert np.all(result.status_codes == OK)


class TestRowIsolation(RowIsolationChecks):
    def solver(self):
        return BatchDopri5(MIXED_OPTIONS, abort_on_stiffness=True)

    def test_launch_covers_every_exit_path(self):
        problem, log = mixed_exit_launch()
        result = self.solver().solve(problem, self.SPAN, self.GRID)
        assert result.status_codes.tolist() == [
            OK, OK, OK, EXHAUSTED, STIFF, BROKEN, OK, OK]
        # Rows leave at many different iterations.
        assert len(set(result.n_steps.tolist())) == 8
        assert log.n_clamped_steps > 0 and not log

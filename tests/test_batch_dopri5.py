"""Tests for the batched DOPRI5 integrator."""

import numpy as np
import pytest

from repro.gpu import BatchDopri5, BatchedODEProblem
from repro.gpu.batch_result import BROKEN, EXHAUSTED, GUARD, OK, STIFF
from repro.guards import GuardConfig, GuardLog, KernelGuard
from repro.model import (ODESystem, ParameterizationBatch,
                         ReactionBasedModel, perturbed_batch)
from repro.resilience import FaultPlan
from repro.models import decay_chain, lotka_volterra, robertson
from repro.solvers import ExplicitRungeKutta, SolverOptions
from repro.solvers.tableaus import DOPRI5


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


def mixed_exit_launch():
    """One launch whose rows leave the working set at different
    iterations, by every exit path.

    Each row couples a Lotka-Volterra oscillator (step count grows with
    its rate scale) to a decay A -> B (stiff at a huge rate). Row roles:
    0-2 finish the grid, 3 oscillates too fast for ``max_steps``, 4 is
    stiff, 5 returns NaN derivatives, 6 drifts slightly negative and is
    clamped by the guard on its way to finishing, 7 decays fast.
    """
    model = ReactionBasedModel("mixed-exits")
    for name, amount in (("P", 10.0), ("Q", 5.0), ("A", 1.0), ("B", 0.0)):
        model.add_species(name, amount)
    model.add("P -> 2 P @ 1.0")
    model.add("P + Q -> 2 Q @ 0.1")
    model.add("Q -> @ 1.0")
    model.add("A -> B @ 1.0")
    oscillator_scale = np.array([1.0, 2.0, 0.5, 12.0, 1.0, 1.0, 1.0, 1.0])
    decay_rate = np.array([1.0, 1.0, 1.0, 1.0, 1e5, 1.0, 1.0, 20.0])
    constants = np.column_stack([oscillator_scale * 1.0,
                                 oscillator_scale * 0.1,
                                 oscillator_scale * 1.0, decay_rate])
    initial = np.tile([10.0, 5.0, 1.0, 0.0], (constants.shape[0], 1))
    log = GuardLog()
    # NaN rows are left BROKEN (not claimed by the guard); the wide band
    # makes row 6's drift a clampable dip rather than a violation.
    guard = KernelGuard(GuardConfig(negativity_band=1e-2,
                                    check_nonfinite=False),
                        log, GUARD, initial)
    problem = BatchedODEProblem(
        ODESystem.from_model(model),
        ParameterizationBatch(constants, initial),
        fault_plan=FaultPlan(nan_rows=(5,), drift_rows=(6,),
                             drift_rate=-0.01),
        guard=guard)
    solver = BatchDopri5(SolverOptions(rtol=1e-5, atol=1e-8, max_steps=200),
                         abort_on_stiffness=True)
    return problem, solver, log


def row_bytes(result, row):
    return (result.y[row].tobytes(), result.status_codes[row].tobytes(),
            result.n_steps[row].tobytes(), result.n_accepted[row].tobytes(),
            result.n_rejected[row].tobytes())


class TestRowIsolation:
    SPAN = (0.0, 10.0)
    GRID = np.linspace(0.0, 10.0, 6)

    def test_launch_covers_every_exit_path(self):
        problem, solver, log = mixed_exit_launch()
        result = solver.solve(problem, self.SPAN, self.GRID)
        assert result.status_codes.tolist() == [
            OK, OK, OK, EXHAUSTED, STIFF, BROKEN, OK, OK]
        # Rows leave at many different iterations.
        assert len(set(result.n_steps.tolist())) == 8
        assert log.n_clamped_steps > 0 and not log

    def test_each_row_matches_its_width_one_launch(self):
        problem, solver, log = mixed_exit_launch()
        full = solver.solve(problem, self.SPAN, self.GRID)
        clamps = log.n_clamped_steps
        for row in range(problem.batch_size):
            alone = solver.solve(problem.subset(np.array([row])),
                                 self.SPAN, self.GRID)
            assert row_bytes(alone, 0) == row_bytes(full, row), row
        # The clamps of the mixed launch all recur row by row.
        assert log.n_clamped_steps == 2 * clamps

    def test_rows_survive_a_permutation(self):
        problem, solver, _ = mixed_exit_launch()
        full = solver.solve(problem, self.SPAN, self.GRID)
        order = np.random.default_rng(7).permutation(problem.batch_size)
        permuted = solver.solve(problem.subset(order), self.SPAN, self.GRID)
        for position, row in enumerate(order):
            assert row_bytes(permuted, position) == row_bytes(full, row)

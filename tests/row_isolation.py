"""Row-isolation checks shared by the batched integrators' tests.

One launch whose rows leave the working set at different iterations, by
every exit path, and one launch of a one-species model; each row's
result must be byte-identical to the row's own width-1 launch, also on
a save grid dense enough that single steps cross several save points,
and the mixed launch's rows survive a permutation of the launch. The
save grid does not move a row's steps: the same launch on a fine grid
and on the span's ends takes the same steps to the same final state.
"""

import numpy as np

from repro.gpu import BatchedODEProblem
from repro.gpu.batch_result import GUARD, OK
from repro.guards import GuardConfig, GuardLog, KernelGuard
from repro.model import (ODESystem, ParameterizationBatch,
                         ReactionBasedModel, perturbed_batch)
from repro.resilience import FaultPlan
from repro.solvers import SolverOptions

#: Options of the mixed launch; ``max_steps`` exhausts row 3.
MIXED_OPTIONS = SolverOptions(rtol=1e-5, atol=1e-8, max_steps=200)


def mixed_exit_launch():
    """``(problem, guard log)`` of a launch whose rows leave at
    different iterations.

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
    oscillator_scale = np.array([1.0, 2.2, 0.5, 12.0, 1.0, 1.0, 1.0, 1.0])
    decay_rate = np.array([1.0, 1.0, 1.0, 1.0, 1e5, 1.0, 1.0, 15.0])
    constants = np.column_stack([oscillator_scale * 1.0,
                                 oscillator_scale * 0.1,
                                 oscillator_scale * 1.0, decay_rate])
    initial = np.tile([10.0, 5.0, 1.0, 0.0], (constants.shape[0], 1))
    log = GuardLog()
    # NaN rows are left to the integrator (not claimed by the guard); the
    # wide band makes row 6's drift a clampable dip rather than a
    # violation.
    guard = KernelGuard(GuardConfig(negativity_band=1e-2,
                                    check_nonfinite=False),
                        log, GUARD, initial)
    problem = BatchedODEProblem(
        ODESystem.from_model(model),
        ParameterizationBatch(constants, initial),
        fault_plan=FaultPlan(nan_rows=(5,), drift_rows=(6,),
                             drift_rate=-0.01),
        guard=guard)
    return problem, log


def one_species_model():
    """A logistic model: its one species is the only axis a row's
    contractions leave, which is where library reductions stop rounding
    a row the same way at every launch width."""
    model = ReactionBasedModel("logistic")
    model.add_species("A", 0.5)
    model.add("A -> 2 A @ 1.3")
    model.add("2 A -> A @ 0.2")
    model.add("-> A @ 0.05")
    return model


def one_species_launch():
    """Six logistic rows; row 2 starts from ``-0.0``."""
    model = one_species_model()
    batch = perturbed_batch(model.nominal_parameterization(), 6,
                            np.random.default_rng(3))
    initial = batch.initial_states.copy()
    initial[2, 0] = -0.0
    return BatchedODEProblem(
        ODESystem.from_model(model),
        ParameterizationBatch(batch.rate_constants, initial))


def row_bytes(result, row):
    return (result.y[row].tobytes(), result.status_codes[row].tobytes(),
            result.n_steps[row].tobytes(), result.n_accepted[row].tobytes(),
            result.n_rejected[row].tobytes())


class RowIsolationChecks:
    """Row-isolation tests of one integrator on the mixed launch.

    Subclasses named ``Test*`` provide :meth:`solver`.
    """

    SPAN = (0.0, 10.0)
    GRID = np.linspace(0.0, 10.0, 6)
    #: So fine that single steps cross several save points.
    DENSE_GRID = np.linspace(0.0, 10.0, 201)

    def solver(self):
        raise NotImplementedError

    def test_each_row_matches_its_width_one_launch(self):
        problem, log = mixed_exit_launch()
        solver = self.solver()
        full = solver.solve(problem, self.SPAN, self.GRID)
        clamps = log.n_clamped_steps
        for row in range(problem.batch_size):
            alone = solver.solve(problem.subset(np.array([row])),
                                 self.SPAN, self.GRID)
            assert row_bytes(alone, 0) == row_bytes(full, row), row
        # The clamps of the mixed launch all recur row by row.
        assert log.n_clamped_steps == 2 * clamps

    def test_one_species_rows_match_their_width_one_launch(self):
        problem = one_species_launch()
        solver = self.solver()
        full = solver.solve(problem, self.SPAN, self.GRID)
        assert full.status_codes.tolist() == [OK] * problem.batch_size
        assert np.signbit(full.y[2, 0, 0])
        for row in range(problem.batch_size):
            alone = solver.solve(problem.subset(np.array([row])),
                                 self.SPAN, self.GRID)
            assert row_bytes(alone, 0) == row_bytes(full, row), row

    def test_rows_survive_a_permutation(self):
        problem, _ = mixed_exit_launch()
        solver = self.solver()
        full = solver.solve(problem, self.SPAN, self.GRID)
        order = np.random.default_rng(7).permutation(problem.batch_size)
        permuted = solver.solve(problem.subset(order), self.SPAN, self.GRID)
        for position, row in enumerate(order):
            assert row_bytes(permuted, position) == row_bytes(full, row)

    def test_steps_do_not_depend_on_the_save_grid(self):
        problem, _ = mixed_exit_launch()
        solver = self.solver()
        fine = solver.solve(problem, self.SPAN, np.linspace(0.0, 10.0, 11))
        ends = solver.solve(problem, self.SPAN, np.array(self.SPAN))
        for name in ("status_codes", "n_steps", "n_accepted", "n_rejected"):
            assert getattr(fine, name).tobytes() == \
                getattr(ends, name).tobytes(), name
        assert fine.y[:, -1].tobytes() == ends.y[:, -1].tobytes()

    def test_dense_grid_rows_match_their_width_one_launch(self):
        problem, _ = mixed_exit_launch()
        solver = self.solver()
        full = solver.solve(problem, self.SPAN, self.DENSE_GRID)
        finished = full.status_codes == OK
        assert finished.any()
        # Fewer accepted steps than save intervals: some steps crossed
        # several save points.
        assert (full.n_accepted[finished] < self.DENSE_GRID.size - 1).all()
        for row in range(problem.batch_size):
            alone = solver.solve(problem.subset(np.array([row])),
                                 self.SPAN, self.DENSE_GRID)
            assert row_bytes(alone, 0) == row_bytes(full, row), row

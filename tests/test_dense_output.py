"""The batched integrators' one save path: save points are interpolated
from each accepted step's continuous extension, not stepped onto."""

import numpy as np
import pytest

from repro.gpu import BatchBDF, BatchDopri5, BatchedODEProblem, BatchRadau5
from repro.gpu.batch_result import GUARD, METHOD_DOPRI5, OK, RUNNING, \
    allocate_result
from repro.gpu.working_set import WorkingSet
from repro.model import ODESystem, ParameterizationBatch, ReactionBasedModel
from repro.solvers import SolverOptions


class TestRecord:
    """:meth:`WorkingSet.record` on a hand-built set of one-species rows
    whose working state is ``-(row + 1)``; the extension returns
    ``100 * row + t``.
    """

    GRID = np.array([0.0, 1.0, 2.0, 3.0, 4.0])

    def working_set(self, t, save, status):
        rows = len(t)
        work = WorkingSet(
            rows=np.arange(rows), problem=None, t=np.array(t),
            h=np.ones(rows), y=-np.arange(1.0, rows + 1.0)[:, None],
            save=np.array(save), n_accepted=np.zeros(rows, dtype=np.int64),
            status=np.array(status), grid=self.GRID)
        return work, allocate_result(self.GRID, rows, 1, METHOD_DOPRI5)

    def test_saves_every_crossed_point(self):
        work, result = self.working_set(
            t=[2.0, 3.5, 0.5, 4.0, 3.0], save=[1, 1, 1, 4, 1],
            status=[RUNNING, RUNNING, RUNNING, RUNNING, GUARD])
        asked = []

        def interpolant(index, times):
            asked.append((index.copy(), times.copy()))
            return (100.0 * index + times)[:, None]

        work.record(interpolant, result)
        y = result.y[:, :, 0]
        # Row 0 crosses 1.0 and ends on 2.0; row 1 crosses three points.
        assert y[0, 1:3].tolist() == [1.0, -1.0]
        assert y[1, 1:4].tolist() == [101.0, 102.0, 103.0]
        # Row 2 crossed nothing, row 4 was stopped by the guard.
        assert np.isnan(y[2, 1:]).all() and np.isnan(y[4, 1:]).all()
        # Row 3 ends on the last point: saved, and done.
        assert y[3, 4] == -4.0
        assert work.save.tolist() == [3, 4, 1, 5, 1]
        assert work.status.tolist() == [RUNNING, RUNNING, RUNNING, OK,
                                        GUARD]
        # The extension is only asked for points inside a step.
        for index, times in asked:
            assert (times < work.t[index]).all()

    def test_save_at_the_step_end_keeps_the_working_state_bytes(self):
        work, result = self.working_set(t=[1.0], save=[1],
                                        status=[RUNNING])
        work.y[0, 0] = -0.0

        def interpolant(index, times):
            raise AssertionError("a step-end save went through the "
                                 "extension")

        work.record(interpolant, result)
        assert result.y[0, 1].tobytes() == work.y[0].tobytes()
        assert np.signbit(result.y[0, 1, 0])


def _decay_launch(rows=3):
    """``A -> B`` at three rates: ``A(t) = exp(-k t)`` in closed form."""
    model = ReactionBasedModel("decay")
    model.add_species("A", 1.0)
    model.add_species("B", 0.0)
    model.add("A -> B @ 1.0")
    rates = np.array([[0.5], [1.0], [3.0]])[:rows]
    problem = BatchedODEProblem(
        ODESystem.from_model(model),
        ParameterizationBatch(rates, np.tile([1.0, 0.0], (rows, 1))))
    return problem, rates[:, 0]


@pytest.mark.parametrize("solver, bound", [(BatchDopri5, 3e-7),
                                           (BatchRadau5, 3e-7),
                                           (BatchBDF, 3e-6)])
def test_interpolated_saves_follow_the_exact_solution(solver, bound):
    problem, rates = _decay_launch()
    grid = np.linspace(0.0, 4.0, 201)
    result = solver(SolverOptions(rtol=1e-6, atol=1e-10)).solve(
        problem, (0.0, 4.0), grid)
    assert result.all_success
    # Fewer steps than save intervals: steps crossed several saves.
    assert (result.n_accepted < grid.size - 1).all()
    exact = np.exp(-rates[:, None] * grid[None, :])
    assert np.abs(result.y[:, :, 0] - exact).max() < bound
    # Each extension is linear in the state, so it keeps A + B.
    assert np.allclose(result.y.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("solver", [BatchDopri5, BatchRadau5, BatchBDF])
def test_grid_overhanging_the_span_by_rounding(solver):
    """``t_eval`` may pass either end of the span by a rounding error;
    those saves record the states at the span's ends."""
    problem, rates = _decay_launch()
    grid = np.array([-1e-16, 1.0, 2.0 + 1e-13])
    result = solver(SolverOptions(rtol=1e-6, atol=1e-10)).solve(
        problem, (0.0, 2.0), grid)
    assert result.all_success
    assert result.y[:, 0].tolist() == [[1.0, 0.0]] * 3
    exact = np.exp(-rates[:, None] * np.array([0.0, 1.0, 2.0]))
    assert np.abs(result.y[:, :, 0] - exact).max() < 1e-5


@pytest.mark.parametrize("solver", [BatchDopri5, BatchRadau5, BatchBDF])
def test_last_step_short_of_the_end_by_rounding_lands_on_it(solver):
    """Ten steps of 0.1 from 0 reach 0.9999999999999999. The tenth ends
    on ``t1`` instead of leaving a 1.1e-16 step, which the step-size
    breakdown test would take for a collapse."""
    model = ReactionBasedModel("slow-decay")
    model.add_species("A", 1.0)
    model.add_species("B", 0.0)
    model.add("A -> B @ 1.0")
    problem = BatchedODEProblem(
        ODESystem.from_model(model),
        ParameterizationBatch(np.array([[1e-9]]), np.array([[1.0, 0.0]])))
    result = solver(SolverOptions(first_step=0.1, max_step=0.1)).solve(
        problem, (0.0, 1.0))
    assert result.all_success
    assert result.n_steps.tolist() == [10]
    assert np.allclose(result.y[0, -1], [1.0, 0.0], atol=1e-8)

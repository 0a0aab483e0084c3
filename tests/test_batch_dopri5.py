"""Tests for the batched DOPRI5 integrator."""

import numpy as np
import pytest

from repro.gpu import BatchDopri5, BatchedODEProblem, batch_dopri5
from repro.gpu.batch_result import BROKEN, EXHAUSTED, OK, RUNNING, STIFF
from repro.model import (ODESystem, ParameterizationBatch,
                         ReactionBasedModel, perturbed_batch)
from repro.models import decay_chain, lotka_volterra, robertson
from repro.solvers import SolverOptions
from repro.solvers.tableaus import DOPRI5
from repro.synth import generate_symmetric

from .row_isolation import (MIXED_OPTIONS, RowIsolationChecks,
                            mixed_exit_launch, one_species_model)
from .scalar_problems import scipy_rows


def make_problem(model, batch_size=8, seed=0, spread=0.25):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed), spread)
    return BatchedODEProblem(system, batch), batch


class TestAgainstScalar:
    """Against SciPy's ``RK45`` (the same Dormand-Prince pair) solving
    each row alone at the same tolerances."""

    def test_matches_scalar_dopri5_per_simulation(self):
        model = decay_chain(3)
        problem, batch = make_problem(model, 6)
        options = SolverOptions(rtol=1e-8, atol=1e-12)
        grid = np.linspace(0, 5, 11)
        batched = BatchDopri5(options).solve(problem, (0, 5), grid)
        assert batched.all_success
        reference = scipy_rows(problem.system, batch, (0, 5), grid, "RK45",
                               options.rtol, options.atol)
        assert np.allclose(batched.y, reference, rtol=1e-6, atol=1e-9)

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
        problem = BatchedODEProblem(
            problem.system, ParameterizationBatch(batch.rate_constants,
                                                  custom))
        result = BatchDopri5().solve(problem, (0, 1),
                                     np.array([0.0, 1.0]))
        assert np.array_equal(result.y[:, 0, :], custom)

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


def _strike_set(n_accepted, strikes, streak):
    """A DOPRI5 working set of one-species rows carrying only the
    stiffness test's bookkeeping."""
    rows = len(n_accepted)
    return batch_dopri5._Dopri5Set(
        rows=np.arange(rows), problem=None, t=np.zeros(rows),
        h=np.ones(rows), y=np.zeros((rows, 1)),
        save=np.zeros(rows, dtype=np.int64),
        n_accepted=np.array(n_accepted, dtype=np.int64),
        status=np.full(rows, RUNNING), grid=np.array([0.0, 1.0]),
        derivative=np.zeros((rows, 1)), previous_error=np.ones(rows),
        strikes=np.array(strikes, dtype=np.int64),
        streak=np.array(streak, dtype=np.int64))


def _accepted_step(work, violated):
    """The step loop's stiffness bookkeeping for a step every row
    accepts; returns the rows that ran the test."""
    accepted = np.ones(work.rows.size, dtype=bool)
    work.n_accepted += accepted
    tested = work.stiffness_test_due(accepted)
    work.count_stiffness(tested, np.array(violated))
    return tested


class TestStiffnessCadence:
    """Hairer's cadence: a row without strikes runs the test on every
    ``_STIFFNESS_CADENCE``-th accepted step, a row with strikes on every
    one until they clear."""

    CADENCE = batch_dopri5._STIFFNESS_CADENCE

    def test_a_row_with_strikes_is_tested_until_they_clear(self):
        work = _strike_set([0], [0], [0])
        tested = [_accepted_step(work, [False])[0]
                  for _ in range(self.CADENCE - 1)]
        assert not any(tested) and work.strikes[0] == 0
        # The due test finds a violation: one strike.
        assert _accepted_step(work, [True])[0]
        assert work.strikes[0] == 1
        recovery = batch_dopri5._STIFFNESS_RECOVERY
        for calm in range(1, recovery + 1):
            assert _accepted_step(work, [False])[0]
            assert work.strikes[0] == (0 if calm == recovery else 1)
        # Cleared: back to the cadence.
        assert not _accepted_step(work, [True])[0]
        assert work.strikes[0] == 0

    def test_untested_steps_leave_strikes_and_streak_alone(self):
        work = _strike_set([3, 3, 3], [5, 5, 0], [5, 5, 4])
        work.count_stiffness(np.array([True, False, False]),
                             np.array([False, False, True]))
        # Only the tested row counts its calm step, which clears it.
        assert work.strikes.tolist() == [0, 5, 0]
        assert work.streak.tolist() == [6, 5, 4]
        assert work.status.tolist() == [RUNNING] * 3

    def test_patience_counts_tests(self):
        work = _strike_set([self.CADENCE - 1], [0], [0])
        for _ in range(batch_dopri5._STIFFNESS_PATIENCE):
            assert _accepted_step(work, [True])[0]
        assert work.status[0] == STIFF

    def test_stiff_rows_step_alike_alone_and_in_a_wide_launch(self):
        """Each row keeps its own cadence: a stiff row leaves after the
        same attempts in a 64-row launch whose rows accept steps at
        different rates as it does alone."""
        model = ReactionBasedModel("oscillator-and-decay")
        for name, amount in (("P", 10.0), ("Q", 5.0), ("A", 1.0),
                             ("B", 0.0)):
            model.add_species(name, amount)
        model.add("P -> 2 P @ 1.0")
        model.add("P + Q -> 2 Q @ 0.1")
        model.add("Q -> @ 1.0")
        model.add("A -> B @ 1.0")
        rng = np.random.default_rng(4)
        scale = rng.uniform(0.5, 3.0, 64)
        decay = np.where(np.arange(64) % 4 == 0, 1e5,
                         rng.uniform(0.5, 2.0, 64))
        constants = np.column_stack([scale, 0.1 * scale, scale, decay])
        problem = BatchedODEProblem(
            ODESystem.from_model(model),
            ParameterizationBatch(constants,
                                  np.tile([10.0, 5.0, 1.0, 0.0], (64, 1))))
        solver = BatchDopri5(MIXED_OPTIONS, abort_on_stiffness=True)
        span, grid = RowIsolationChecks.SPAN, RowIsolationChecks.GRID
        wide = solver.solve(problem, span, grid)
        stiff = np.flatnonzero(wide.status_codes == STIFF)
        assert stiff.tolist() == list(range(0, 64, 4))
        assert (wide.status_codes[decay < 1e5] == OK).all()
        for row in stiff:
            alone = solver.solve(problem.subset(np.array([row])), span,
                                 grid)
            assert _result_bytes(alone) == _result_bytes(
                wide, slice(row, row + 1))


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


def _result_bytes(result, rows=slice(None)):
    return [array[rows].tobytes() for array in (
        result.y, result.status_codes, result.method_codes, result.n_steps,
        result.n_accepted, result.n_rejected)]


def _scalar_combination(weights, stages):
    """Reference stage sum in Python floats: per element, one rounded
    product and one rounded partial sum per stage, in stage order."""
    _, rows, n = stages.shape
    combined = np.empty((rows, n))
    for b in range(rows):
        for s in range(n):
            total = float(weights[0]) * float(stages[0, b, s])
            for j in range(1, len(weights)):
                total = total + float(weights[j]) * float(stages[j, b, s])
            combined[b, s] = total
    return combined


class TestStageCombination:
    """Every element of a stage combination is rounded the same way
    whatever the launch width and species count."""

    WEIGHTS = ([DOPRI5.a[i, :i] for i in range(1, DOPRI5.n_stages)]
               + [DOPRI5.b, DOPRI5.e])

    @pytest.mark.parametrize("width, n", [(1, 1), (4, 1), (1, 33), (4, 33),
                                          (15, 33), (256, 33)])
    def test_matches_in_order_scalar_sum(self, width, n):
        rng = np.random.default_rng(width * 100 + n)
        stage_k = (rng.standard_normal((DOPRI5.n_stages, width, n))
                   * np.exp(4.0 * rng.standard_normal((DOPRI5.n_stages,
                                                       width, n))))
        stage_k[:, :, ::7] = 0.0
        stage_k[:, ::3, ::5] = -0.0
        for weights in self.WEIGHTS:
            stages = stage_k[:weights.size]
            combined = batch_dopri5._combine_stages(weights, stages)
            assert combined.shape == (width, n)
            assert combined.tobytes() == \
                _scalar_combination(weights, stages).tobytes()

    @pytest.mark.parametrize("width, n", [(1, 1), (4, 1), (1, 33), (4, 33),
                                          (15, 33), (256, 33)])
    def test_step_accumulation_matches_combine_stages(self, width, n):
        """The step's one accumulator gives every stage state, ``b`` and
        ``e`` sum the bytes of ``_combine_stages`` over the same stages,
        non-finite stage entries included."""
        rng = np.random.default_rng(width * 100 + n + 1)
        stage_k = (rng.standard_normal((DOPRI5.n_stages, width, n))
                   * np.exp(4.0 * rng.standard_normal((DOPRI5.n_stages,
                                                       width, n))))
        stage_k[:, :, ::7] = 0.0
        stage_k[:, ::3, ::5] = -0.0
        stage_k[2, -1, -1] = np.inf
        stage_k[4, 0, 0] = np.nan
        columns = batch_dopri5._STAGE_COLUMNS
        with np.errstate(invalid="ignore", over="ignore"):
            acc = columns[0] * stage_k[0]
            for i in range(1, DOPRI5.n_stages):
                acc[i:] += columns[i] * stage_k[i]
            assert acc.shape == (len(self.WEIGHTS), width, n)
            for row, weights in enumerate(self.WEIGHTS):
                combined = batch_dopri5._combine_stages(
                    weights, stage_k[:weights.size])
                assert acc[row].tobytes() == combined.tobytes(), row

    @staticmethod
    def _launches():
        """One-species rows, and E1-model rows with -0.0 and +0.0
        initial entries."""
        model = one_species_model()
        yield (BatchedODEProblem(
                   ODESystem.from_model(model),
                   perturbed_batch(model.nominal_parameterization(), 6,
                                   np.random.default_rng(3))),
               SolverOptions(rtol=1e-6, atol=1e-10), (0.0, 5.0),
               np.linspace(0.0, 5.0, 6))
        model = generate_symmetric(32, seed=11)
        batch = perturbed_batch(model.nominal_parameterization(), 6,
                                np.random.default_rng(5))
        initial = batch.initial_states.copy()
        initial[::2, ::3] = -0.0
        initial[1::2, 1::4] = 0.0
        yield (BatchedODEProblem(
                   ODESystem.from_model(model),
                   ParameterizationBatch(batch.rate_constants, initial)),
               SolverOptions(rtol=1e-6, atol=1e-12), (0.0, 2.0),
               np.linspace(0.0, 2.0, 11))

    @pytest.mark.parametrize("launch", [0, 1],
                             ids=["one_species", "signed_zeros"])
    def test_rows_match_their_width_one_launch(self, launch):
        problem, options, span, grid = list(self._launches())[launch]
        solver = BatchDopri5(options, abort_on_stiffness=True)
        shipped = solver.solve(problem, span, grid)
        assert shipped.status_codes.tolist() == [OK] * 6
        if launch == 1:
            # Signed zeros reach the results unchanged.
            assert np.signbit(shipped.y[:, 0]).any()
        for row in range(6):
            alone = solver.solve(problem.subset(np.array([row])), span, grid)
            assert _result_bytes(alone) == _result_bytes(
                shipped, slice(row, row + 1))

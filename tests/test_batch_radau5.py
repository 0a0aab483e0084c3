"""Tests for the batched Radau IIA integrator."""

import warnings

import numpy as np
import pytest

from repro.gpu import BatchRadau5, BatchedODEProblem
from repro.gpu.batch_result import BROKEN, EXHAUSTED, OK
from repro.model import ODESystem, perturbed_batch
from repro.models import decay_chain, dimerization, robertson
from repro.solvers import SolverOptions

from .row_isolation import MIXED_OPTIONS, RowIsolationChecks, mixed_exit_launch
from .scalar_problems import scipy_rows


def make_problem(model, batch_size=6, seed=0, spread=0.25):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed), spread)
    return BatchedODEProblem(system, batch), batch


class TestAgainstScalar:
    """Against SciPy's ``Radau`` (the same Radau IIA method) solving each
    row alone at the same tolerances, with the model's Jacobian."""

    def test_matches_scalar_radau_on_robertson_batch(self):
        model = robertson()
        problem, batch = make_problem(model, 5, spread=0.2)
        options = SolverOptions(rtol=1e-6, atol=1e-10, max_steps=100_000)
        grid = np.array([0.0, 1e-2, 1.0, 1e2, 1e4])
        batched = BatchRadau5(options).solve(problem, (0, 1e4), grid)
        assert batched.all_success
        reference = scipy_rows(problem.system, batch, (0, 1e4), grid,
                               "Radau", options.rtol, options.atol)
        assert np.allclose(batched.y, reference, rtol=1e-5, atol=1e-12)

    def test_nonstiff_accuracy(self):
        model = decay_chain(3)
        problem, _ = make_problem(model, 4)
        grid = np.linspace(0, 4, 9)
        options = SolverOptions(rtol=1e-8, atol=1e-12)
        result = BatchRadau5(options).solve(problem, (0, 4), grid)
        assert result.all_success
        # Total mass conserved per simulation and time point.
        totals = result.y.sum(axis=2)
        assert np.allclose(totals, totals[:, :1], rtol=1e-8)


class TestBatchSemantics:
    def test_mass_conservation_on_stiff_batch(self):
        problem, _ = make_problem(robertson(), 6, spread=0.25)
        options = SolverOptions(max_steps=100_000)
        grid = np.array([0.0, 1e2, 1e4])
        result = BatchRadau5(options).solve(problem, (0, 1e4), grid)
        assert result.all_success
        assert np.allclose(result.y.sum(axis=2), 1.0, atol=1e-6)

    def test_conservation_laws_respected(self):
        model = dimerization()
        problem, _ = make_problem(model, 4)
        laws = model.conservation_law_basis()
        grid = np.linspace(0, 5, 6)
        result = BatchRadau5().solve(problem, (0, 5), grid)
        assert result.all_success
        invariants = np.einsum("btn,ln->btl", result.y, laws)
        assert np.allclose(invariants, invariants[:, :1, :], rtol=1e-6)

    def test_factorizations_counted(self):
        problem, _ = make_problem(robertson(), 3, spread=0.1)
        BatchRadau5(SolverOptions(max_steps=100_000)).solve(
            problem, (0, 10), np.array([0.0, 10.0]))
        assert problem.counters.factorizations > 0
        assert problem.counters.newton_iterations > 0

    def test_jacobian_reuse_policy_reduces_jacobian_kernels(self):
        grids = np.array([0.0, 1e2])
        launches = {}
        for reuse in (True, False):
            problem, _ = make_problem(robertson(), 3, spread=0.1)
            BatchRadau5(SolverOptions(max_steps=100_000),
                        reuse_jacobian=reuse).solve(problem, (0, 1e2), grids)
            launches[reuse] = \
                problem.counters.jacobian_simulation_evaluations
        assert launches[True] < launches[False]

    def test_per_simulation_step_counts_differ(self):
        problem, _ = make_problem(robertson(), 6, spread=0.25)
        result = BatchRadau5(SolverOptions(max_steps=100_000)).solve(
            problem, (0, 1e3), np.array([0.0, 1e3]))
        assert len(np.unique(result.n_steps)) > 1

    def test_save_grid_complete(self):
        problem, _ = make_problem(decay_chain(2), 3)
        grid = np.array([0.0, 0.5, 1.7, 3.0])
        result = BatchRadau5().solve(problem, (0, 3), grid)
        assert np.all(result.status_codes == OK)
        assert not np.any(np.isnan(result.y))

    def test_large_first_step_raises_no_fp_warning(self):
        # A first step far too large for Robertson makes the Newton
        # contraction rate overflow; that must stay inside the solver.
        problem, _ = make_problem(robertson(), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = BatchRadau5(SolverOptions(
                max_steps=100_000, first_step=1.0)).solve(
                    problem, (0, 1e4), np.array([0.0, 1e4]))
        assert result.all_success


class TestRowIsolation(RowIsolationChecks):
    """The mixed launch: rows finish, exhaust ``max_steps``, break on a
    NaN step and are clamped by the guard; along the way the launch
    refines error estimates, rejects steps, accepts only some rows and
    leaves some rows iterating Newton after others converged.
    """

    def solver(self):
        return BatchRadau5(MIXED_OPTIONS)

    def test_launch_covers_every_exit_path(self):
        problem, log = mixed_exit_launch()
        result = self.solver().solve(problem, self.SPAN, self.GRID)
        assert result.status_codes.tolist() == [
            OK, OK, OK, EXHAUSTED, OK, BROKEN, OK, OK]
        # Rows leave at many different iterations.
        assert len(set(result.n_steps.tolist())) == 8
        assert result.n_rejected.sum() > 0
        assert log.n_clamped_steps > 0 and not log


class TestRowIsolationNewtonFailures(RowIsolationChecks):
    """The mixed launch at loose tolerances from a large first step:
    Newton fails with a reused Jacobian (which is refreshed) and with a
    current one (the step is halved), and row 5's NaN right-hand side
    fails it on every step.
    """

    def solver(self):
        return BatchRadau5(SolverOptions(rtol=1e-3, atol=1e-6,
                                         max_steps=200, first_step=0.5))

    def test_nan_row_fails_newton_on_every_step(self):
        problem, _ = mixed_exit_launch()
        result = self.solver().solve(problem, self.SPAN, self.GRID)
        assert result.status_codes.tolist() == [
            OK, OK, OK, EXHAUSTED, OK, EXHAUSTED, OK, OK]
        assert result.n_accepted[5] == 0 and result.n_rejected[5] == 200

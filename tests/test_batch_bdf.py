"""Tests for the batched variable-order BDF (cupSODA-analog) engine."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpu import BatchBDF, BatchSimulator, BatchedODEProblem
from repro.gpu.batch_bdf import (_accept, _difference_output, _order_change,
                                 _predict, _rescale)
from repro.model import ODESystem, perturbed_batch
from repro.models import decay_chain, dimerization, robertson
from repro.solvers import SolverOptions
from repro.solvers.bdf import MAX_ORDER

from .row_isolation import MIXED_OPTIONS, RowIsolationChecks
from .scalar_problems import scipy_rows

OPTIONS = SolverOptions(rtol=1e-6, atol=1e-10, max_steps=200_000)


def make_problem(model, batch_size=6, seed=0, spread=0.25):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed), spread)
    return BatchedODEProblem(system, batch), batch


class TestAgainstScalar:
    """Against SciPy's ``BDF`` (the same NDF/BDF scheme) solving each row
    alone at the same tolerances, with the model's Jacobian."""

    def test_matches_scalar_bdf_on_nonstiff_batch(self):
        model = decay_chain(3)
        problem, batch = make_problem(model, 6)
        grid = np.linspace(0, 4, 9)
        batched = BatchBDF(OPTIONS).solve(problem, (0, 4), grid)
        assert batched.all_success
        reference = scipy_rows(problem.system, batch, (0, 4), grid, "BDF",
                               OPTIONS.rtol, OPTIONS.atol)
        assert np.allclose(batched.y, reference, rtol=1e-3, atol=1e-6)

    def test_stiff_robertson_batch(self):
        problem, batch = make_problem(robertson(), 8, seed=1)
        grid = np.array([0.0, 1e-2, 1.0, 1e2, 1e4])
        result = BatchBDF(OPTIONS).solve(problem, (0, 1e4), grid)
        assert result.all_success
        # Multistep efficiency: a few hundred steps across six decades.
        assert np.all(result.n_steps < 2_000)
        assert np.allclose(result.y[:, -1, :].sum(axis=1), 1.0, atol=1e-5)

    def test_robertson_factorizations_match_scipy(self):
        """Newton gives up only when SciPy's projected-rate test says so:
        stopping after two iterations re-factorizes about 40% more."""
        from scipy.integrate import solve_ivp
        problem, batch = make_problem(robertson(), 16, seed=0)
        result = BatchBDF(OPTIONS).solve(problem, (0, 100),
                                         np.array([0.0, 100.0]))
        assert result.all_success
        system = problem.system
        nlu = [solve_ivp(system.as_scipy_rhs(constants), (0, 100), state,
                         method="BDF", rtol=OPTIONS.rtol, atol=OPTIONS.atol,
                         jac=system.as_scipy_jacobian(constants)).nlu
               for constants, state in zip(batch.rate_constants,
                                           batch.initial_states)]
        per_row = problem.counters.factorizations / batch.size
        assert per_row == pytest.approx(np.mean(nlu), rel=0.1)

    def test_accuracy_against_high_precision_reference(self):
        """The truth is SciPy's ``Radau`` at rtol 1e-11, atol 1e-14."""
        problem, batch = make_problem(robertson(), 4, seed=1)
        grid = np.array([0.0, 1.0, 1e2, 1e4])
        result = BatchBDF(OPTIONS).solve(problem, (0, 1e4), grid)
        truth = scipy_rows(problem.system, batch, (0, 1e4), grid, "Radau",
                           1e-11, 1e-14)
        for index in range(batch.size):
            error = np.max(np.abs(truth[index] - result.y[index])
                           / (np.abs(truth[index]) + 1e-8))
            assert error < 1e-3


class TestBatchSemantics:
    def test_per_simulation_orders_diverge(self):
        """Different rows settle at different BDF orders — the
        per-thread order adaptation of the original tool."""
        problem, _ = make_problem(robertson(), 8, seed=2)
        solver = BatchBDF(OPTIONS)
        result = solver.solve(problem, (0, 1e2),
                              np.array([0.0, 1e2]))
        assert result.all_success
        assert len(np.unique(result.n_steps)) > 1

    def test_conservation_laws_respected(self):
        model = dimerization()
        problem, _ = make_problem(model, 4)
        laws = model.conservation_law_basis()
        grid = np.linspace(0, 5, 6)
        result = BatchBDF(OPTIONS).solve(problem, (0, 5), grid)
        assert result.all_success
        invariants = np.einsum("btn,ln->btl", result.y, laws)
        assert np.allclose(invariants, invariants[:, :1, :], rtol=1e-5)

    def test_max_steps_marks_exhausted(self):
        problem, _ = make_problem(robertson(), 3)
        result = BatchBDF(SolverOptions(max_steps=3)).solve(
            problem, (0, 1e4), np.array([0.0, 1e4]))
        assert set(result.statuses()) <= {"max_steps", "failed"}

    def test_save_grid_complete(self):
        problem, _ = make_problem(decay_chain(2), 4)
        grid = np.array([0.0, 0.4, 1.3, 3.0])
        result = BatchBDF(OPTIONS).solve(problem, (0, 3), grid)
        assert result.all_success
        assert not np.any(np.isnan(result.y))


class TestEngineIntegration:
    def test_engine_method_bdf(self):
        model = robertson()
        engine = BatchSimulator(model, OPTIONS, method="bdf")
        batch = perturbed_batch(model.nominal_parameterization(), 4,
                                np.random.default_rng(3))
        result = engine.simulate((0, 1e2), np.array([0.0, 1.0, 1e2]),
                                 batch)
        assert result.all_success
        assert set(result.methods()) == {"bdf"}
        radau = BatchSimulator(model, OPTIONS, method="radau5").simulate(
            (0, 1e2), np.array([0.0, 1.0, 1e2]), batch)
        assert np.allclose(result.y, radau.y, rtol=1e-3, atol=1e-7)


class TestRowIsolation(RowIsolationChecks):
    """The mixed launch on BDF: every row's bytes match its own width-1
    launch and survive a permutation."""

    def solver(self):
        return BatchBDF(MIXED_OPTIONS)


class TestOrderMasking:
    """Every kernel of a sweep gives a row at order k the bytes of a call
    whose rows are all at order k. Species 0 is ``-0.0`` in every slot,
    and the slots past k + 2, which no order-k kernel reads, hold
    non-finite values; the calls raise no floating-point exception."""

    ORDERS = np.array([1, 2, 3, 4, 5, 1, 3, 5, 2, 4])

    def tables(self):
        rng = np.random.default_rng(4)
        tables = rng.standard_normal((self.ORDERS.size, MAX_ORDER + 3, 3))
        tables[:, :, 0] = -0.0
        for row, order in enumerate(self.ORDERS):
            parked = tables[row, order + 3:]
            parked[:] = np.resize([np.inf, -np.inf, np.nan], parked.shape)
        return tables

    def assert_rows_match_uniform_calls(self, kernel, *per_row):
        """``kernel(orders, *per_row)`` on the mixed rows, against the
        same kernel on the rows of each order alone."""
        with np.errstate(all="raise"):
            mixed = kernel(self.ORDERS, *per_row)
            for order in range(1, MAX_ORDER + 1):
                rows = np.flatnonzero(self.ORDERS == order)
                alone = kernel(self.ORDERS[rows],
                               *(values[rows] for values in per_row))
                for got, want in zip(mixed, alone):
                    for position, row in enumerate(rows):
                        assert got[row].tobytes() == \
                            want[position].tobytes(), (order, row)

    def test_predictor_and_psi(self):
        tables = self.tables()
        self.assert_rows_match_uniform_calls(
            lambda orders, d: _predict(d, orders), tables)
        y, psi = _predict(tables, self.ORDERS)
        assert np.signbit(y[:, 0]).all() and np.signbit(psi[:, 0]).all()

    def test_rescale(self):
        tables = self.tables()
        factors = np.linspace(0.3, 1.7, self.ORDERS.size)
        self.assert_rows_match_uniform_calls(
            lambda orders, d, f: (_rescale(d, orders, f),), tables, factors)
        rescaled = _rescale(tables, self.ORDERS, factors)
        for row, order in enumerate(self.ORDERS):
            assert rescaled[row, order + 1:].tobytes() == \
                tables[row, order + 1:].tobytes()

    def test_rescale_by_one_is_the_identity_up_to_rounding(self):
        tables = self.tables()
        rescaled = _rescale(tables, self.ORDERS, np.ones(self.ORDERS.size))
        for row, order in enumerate(self.ORDERS):
            assert np.allclose(rescaled[row, :order + 1],
                               tables[row, :order + 1], rtol=1e-12,
                               atol=1e-12)

    def test_accept_update(self):
        tables = self.tables()
        correction = np.random.default_rng(5).standard_normal(
            (self.ORDERS.size, 3))
        correction[:, 0] = -0.0
        self.assert_rows_match_uniform_calls(
            lambda orders, d, c: (_accept(d, orders, c),), tables,
            correction)

    def test_order_change(self):
        tables = self.tables()
        err = np.linspace(0.05, 0.9, self.ORDERS.size)
        self.assert_rows_match_uniform_calls(
            lambda orders, d, e: _order_change(d, orders, e, OPTIONS),
            tables, err)

    def test_interpolant(self):
        tables = self.tables()
        h = np.linspace(0.1, 0.5, self.ORDERS.size)
        t = np.full(self.ORDERS.size, 2.0)
        times = t - 0.3 * h

        def interpolate(orders, d, step, end, at):
            work = SimpleNamespace(h=step, t=end, differences=d,
                                   orders=orders)
            index = np.arange(orders.size)
            return (_difference_output(work)(index, at),)

        self.assert_rows_match_uniform_calls(interpolate, tables, h, t,
                                             times)

"""Tests for the LSODA / VODE CPU baseline wrappers."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import (ScipyLSODA, ScipyVODE, SolverOptions,
                           make_cpu_baseline)


def decay(t, y):
    return -0.5 * y


@pytest.mark.parametrize("backend_class", [ScipyLSODA, ScipyVODE],
                         ids=["lsoda", "vode"])
class TestBackends:
    def test_accuracy_on_decay(self, backend_class):
        solver = backend_class(SolverOptions(rtol=1e-8, atol=1e-12))
        grid = np.linspace(0, 4, 9)
        result = solver.solve(decay, (0, 4), np.array([2.0]), grid)
        assert result.success
        assert np.allclose(result.y[:, 0], 2.0 * np.exp(-0.5 * grid),
                           atol=1e-7)

    def test_rhs_evaluations_counted(self, backend_class):
        solver = backend_class()
        result = solver.solve(decay, (0, 4), np.array([1.0]),
                              np.linspace(0, 4, 5))
        assert result.stats.n_rhs_evaluations > 0

    def test_steps_counted_from_odepack(self, backend_class):
        # NST from the integer work array: every step taken is counted
        # as accepted, and LSODA's work array has no rejected count.
        solver = backend_class()
        result = solver.solve(decay, (0, 4), np.array([1.0]),
                              np.linspace(0, 4, 5))
        assert result.stats.n_steps > 0
        assert result.stats.n_accepted == result.stats.n_steps
        assert result.stats.n_rejected == 0
        assert result.stats.n_rhs_evaluations >= result.stats.n_steps

    def test_grid_not_starting_at_zero(self, backend_class):
        solver = backend_class()
        grid = np.array([1.0, 2.0])
        result = solver.solve(decay, (0, 2), np.array([1.0]), grid)
        assert result.success
        assert np.allclose(result.y[:, 0], np.exp(-0.5 * grid), atol=1e-6)

    def test_method_name_recorded(self, backend_class):
        solver = backend_class()
        result = solver.solve(decay, (0, 1), np.array([1.0]))
        assert result.method in ("lsoda", "vode")


@pytest.mark.parametrize("engine", ["lsoda", "vode"])
def test_sequential_engines_report_steps(engine):
    from repro import simulate
    from repro.models import decay_chain
    result = simulate(decay_chain(3), (0, 3), np.linspace(0, 3, 4),
                      engine=engine)
    assert result.raw.n_steps[0] > 0
    assert result.raw.n_accepted[0] == result.raw.n_steps[0]
    assert result.raw.n_rejected[0] == 0


class TestStiff:
    def test_lsoda_handles_robertson(self):
        def robertson(t, y):
            return np.array([
                -0.04 * y[0] + 1e4 * y[1] * y[2],
                0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
                3e7 * y[1] ** 2,
            ])

        solver = ScipyLSODA(SolverOptions(max_steps=100_000))
        grid = np.array([0.0, 1e2, 1e4])
        result = solver.solve(robertson, (0, 1e4), np.array([1.0, 0, 0]),
                              grid)
        assert result.success
        assert np.allclose(result.y.sum(axis=1), 1.0, atol=1e-6)


class TestFactory:
    def test_factory_names(self):
        assert isinstance(make_cpu_baseline("lsoda"), ScipyLSODA)
        assert isinstance(make_cpu_baseline("VODE"), ScipyVODE)

    def test_factory_rejects_unknown(self):
        with pytest.raises(SolverError):
            make_cpu_baseline("cvode")

"""Tests for the scalar adaptive explicit Runge-Kutta solver."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import (BOGACKI_SHAMPINE_23, CASH_KARP_45, DOPRI5,
                           FEHLBERG_45, ExplicitRungeKutta, SolverOptions,
                           SUCCESS, MAX_STEPS)

ALL = [BOGACKI_SHAMPINE_23, FEHLBERG_45, CASH_KARP_45, DOPRI5]


def exponential(t, y):
    return -y


def oscillator(t, y):
    return np.array([y[1], -y[0]])


@pytest.mark.parametrize("tableau", ALL, ids=lambda t: t.name)
class TestAccuracy:
    def test_exponential_decay(self, tableau):
        solver = ExplicitRungeKutta(tableau, SolverOptions(rtol=1e-8,
                                                           atol=1e-12))
        grid = np.linspace(0, 5, 6)
        result = solver.solve(exponential, (0, 5), np.array([1.0]), grid)
        assert result.success
        assert np.allclose(result.y[:, 0], np.exp(-grid), atol=1e-6)

    def test_harmonic_oscillator(self, tableau):
        solver = ExplicitRungeKutta(tableau, SolverOptions(rtol=1e-9,
                                                           atol=1e-12))
        grid = np.linspace(0, 2 * np.pi, 9)
        result = solver.solve(oscillator, (0, 2 * np.pi),
                              np.array([1.0, 0.0]), grid)
        assert result.success
        assert np.allclose(result.y[:, 0], np.cos(grid), atol=1e-5)

    def test_tightening_tolerance_reduces_error(self, tableau):
        grid = np.array([0.0, 3.0])
        errors = []
        for rtol in (1e-4, 1e-8):
            solver = ExplicitRungeKutta(
                tableau, SolverOptions(rtol=rtol, atol=1e-14))
            result = solver.solve(exponential, (0, 3), np.array([1.0]), grid)
            errors.append(abs(result.y[-1, 0] - np.exp(-3.0)))
        assert errors[1] < errors[0]


class TestConvergenceOrder:
    @pytest.mark.parametrize("tableau,expected_order",
                             [(BOGACKI_SHAMPINE_23, 3), (DOPRI5, 5)],
                             ids=["bs23", "dopri5"])
    def test_fixed_step_convergence_order(self, tableau, expected_order):
        """Halving a forced fixed step divides the error by ~2^order."""

        def solve_fixed(h):
            options = SolverOptions(rtol=1e300, atol=1e300, first_step=h,
                                    max_step=h, max_steps=100_000,
                                    max_step_factor=1.0000001)
            solver = ExplicitRungeKutta(tableau, options,
                                        use_pi_controller=False)
            result = solver.solve(exponential, (0, 1), np.array([1.0]),
                                  np.array([0.0, 1.0]))
            return abs(result.y[-1, 0] - np.exp(-1.0))

        coarse = solve_fixed(0.1)
        fine = solve_fixed(0.05)
        observed_order = np.log2(coarse / fine)
        assert observed_order > expected_order - 0.7


class TestControlFlow:
    def test_save_grid_hit_exactly(self):
        solver = ExplicitRungeKutta(DOPRI5)
        grid = np.array([0.0, 0.37, 1.114, 2.0])
        result = solver.solve(exponential, (0, 2), np.array([1.0]), grid)
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[:, 0], np.exp(-grid), atol=1e-6)

    def test_step_ending_a_rounding_short_of_a_save_point(self):
        # Fixed 0.1 steps: the sixth ends on 0.5 + 0.1 == 0.6, one
        # rounding unit short of the save point linspace puts at
        # 0.6000000000000001. Clipping must absorb that gap instead of
        # leaving a 1e-16 step, which the underflow test takes for a
        # collapse.
        solver = ExplicitRungeKutta(DOPRI5, SolverOptions(first_step=0.1,
                                                          max_step=0.1))
        grid = np.linspace(0.0, 1.0, 11)
        result = solver.solve(lambda t, y: -1e-9 * y, (0.0, 1.0),
                              np.array([1.0]), grid)
        assert result.success
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[:, 0], np.exp(-1e-9 * grid))

    def test_grid_not_starting_at_t0(self):
        solver = ExplicitRungeKutta(DOPRI5)
        grid = np.array([0.5, 1.0])
        result = solver.solve(exponential, (0, 1), np.array([1.0]), grid)
        assert result.success
        assert np.allclose(result.y[:, 0], np.exp(-grid), atol=1e-6)

    def test_default_grid_is_span_endpoints(self):
        solver = ExplicitRungeKutta(DOPRI5)
        result = solver.solve(exponential, (0, 1), np.array([1.0]))
        assert np.allclose(result.t, [0.0, 1.0])

    def test_max_steps_reported(self):
        solver = ExplicitRungeKutta(DOPRI5, SolverOptions(max_steps=5))
        result = solver.solve(oscillator, (0, 100), np.array([1.0, 0.0]),
                              np.linspace(0, 100, 3))
        assert result.status == MAX_STEPS
        assert not result.success

    def test_invalid_grid_rejected(self):
        solver = ExplicitRungeKutta(DOPRI5)
        with pytest.raises(SolverError):
            solver.solve(exponential, (0, 1), np.array([1.0]),
                         np.array([0.0, 2.0]))
        with pytest.raises(SolverError):
            solver.solve(exponential, (1, 0), np.array([1.0]))

    def test_statistics_are_consistent(self):
        solver = ExplicitRungeKutta(DOPRI5)
        result = solver.solve(oscillator, (0, 10), np.array([1.0, 0.0]),
                              np.linspace(0, 10, 5))
        stats = result.stats
        assert stats.n_steps == stats.n_accepted + stats.n_rejected
        assert stats.n_rhs_evaluations >= 6 * stats.n_steps

    def test_pi_controller_not_worse_than_elementary(self):
        grid = np.array([0.0, 10.0])
        steps = {}
        for use_pi in (True, False):
            solver = ExplicitRungeKutta(DOPRI5, use_pi_controller=use_pi)
            result = solver.solve(oscillator, (0, 10),
                                  np.array([1.0, 0.0]), grid)
            steps[use_pi] = result.stats.n_steps
        assert steps[True] <= steps[False] * 1.5


class TestDenseOutput:
    def test_interpolant_matches_interior_solution(self):
        solver = ExplicitRungeKutta(DOPRI5, SolverOptions(rtol=1e-10,
                                                          atol=1e-12))
        result = solver.solve(oscillator, (0, 3), np.array([1.0, 0.0]),
                              np.array([0.0, 3.0]),
                              collect_interpolants=True)
        interpolants = result.interpolants
        assert interpolants
        for interpolant in interpolants[::3]:
            midpoint = 0.5 * (interpolant.t_start + interpolant.t_end)
            value = interpolant(midpoint)
            assert np.allclose(value, [np.cos(midpoint), -np.sin(midpoint)],
                               atol=1e-7)

    def test_interpolant_endpoints_exact(self):
        solver = ExplicitRungeKutta(DOPRI5)
        result = solver.solve(exponential, (0, 1), np.array([1.0]),
                              np.array([0.0, 1.0]),
                              collect_interpolants=True)
        first = result.interpolants[0]
        assert np.allclose(first(first.t_start), first._y_start)

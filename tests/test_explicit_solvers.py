"""Tests for DOPRI5, the explicit integrator, as the sequential
``dopri5`` engine runs it: the batched integrator on one-row launches."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gpu.batch_dopri5 import _quartic_output
from repro.solvers import SolverOptions

from .scalar_problems import decay, harmonic, solve_row


@pytest.mark.parametrize("engine", ["dopri5"])
class TestAccuracy:
    def test_exponential_decay(self, engine):
        grid = np.linspace(0, 5, 6)
        result, _ = solve_row(decay(), (0, 5), grid, engine,
                              SolverOptions(rtol=1e-8, atol=1e-12))
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-6)

    def test_harmonic_oscillator(self, engine):
        grid = np.linspace(0, 2 * np.pi, 9)
        result, _ = solve_row(harmonic(), (0, 2 * np.pi), grid, engine,
                              SolverOptions(rtol=1e-9, atol=1e-12))
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.cos(grid), atol=1e-5)

    def test_tightening_tolerance_reduces_error(self, engine):
        grid = np.array([0.0, 3.0])
        errors = []
        for rtol in (1e-4, 1e-8):
            result, _ = solve_row(decay(), (0, 3), grid, engine,
                                  SolverOptions(rtol=rtol, atol=1e-14))
            errors.append(abs(result.y[0, -1, 0] - np.exp(-3.0)))
        assert errors[1] < errors[0]


class TestConvergenceOrder:
    @pytest.mark.parametrize("engine,expected_order", [("dopri5", 5)],
                             ids=["dopri5"])
    def test_fixed_step_convergence_order(self, engine, expected_order):
        """Halving a forced fixed step divides the error by ~2^order."""

        def solve_fixed(h):
            options = SolverOptions(rtol=1e300, atol=1e300, first_step=h,
                                    max_step=h, max_steps=100_000,
                                    max_step_factor=1.0000001)
            result, _ = solve_row(decay(), (0, 1), np.array([0.0, 1.0]),
                                  engine, options)
            return abs(result.y[0, -1, 0] - np.exp(-1.0))

        coarse = solve_fixed(0.1)
        fine = solve_fixed(0.05)
        observed_order = np.log2(coarse / fine)
        assert observed_order > expected_order - 0.7


class TestControlFlow:
    def test_save_grid_hit_exactly(self):
        grid = np.array([0.0, 0.37, 1.114, 2.0])
        result, _ = solve_row(decay(), (0, 2), grid, "dopri5",
                              SolverOptions())
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-6)

    def test_step_ending_a_rounding_short_of_a_save_point(self):
        # Fixed 0.1 steps: the sixth ends on 0.5 + 0.1 == 0.6, one
        # rounding unit short of the save point linspace puts at
        # 0.6000000000000001, and the last ends a rounding error short
        # of the span's end. Neither may leave a 1e-16 step, which the
        # underflow test takes for a collapse.
        grid = np.linspace(0.0, 1.0, 11)
        result, _ = solve_row(decay(rate=1e-9), (0.0, 1.0), grid, "dopri5",
                              SolverOptions(first_step=0.1, max_step=0.1))
        assert result.all_success
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[0, :, 0], np.exp(-1e-9 * grid))

    def test_grid_not_starting_at_t0(self):
        grid = np.array([0.5, 1.0])
        result, _ = solve_row(decay(), (0, 1), grid, "dopri5",
                              SolverOptions())
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-6)

    def test_default_grid_is_span_endpoints(self):
        result, _ = solve_row(decay(), (0, 1), None, "dopri5",
                              SolverOptions())
        assert np.allclose(result.t, [0.0, 1.0])

    def test_max_steps_reported(self):
        result, _ = solve_row(harmonic(), (0, 100), np.linspace(0, 100, 3),
                              "dopri5", SolverOptions(max_steps=5))
        assert result.statuses() == ["max_steps"]
        assert not result.all_success

    def test_invalid_grid_rejected(self):
        with pytest.raises(SolverError):
            solve_row(decay(), (0, 1), np.array([0.0, 2.0]), "dopri5",
                      SolverOptions())
        with pytest.raises(SolverError):
            solve_row(decay(), (1, 0), None, "dopri5", SolverOptions())

    def test_statistics_are_consistent(self):
        result, counters = solve_row(harmonic(), (0, 10),
                                     np.linspace(0, 10, 5), "dopri5",
                                     SolverOptions())
        assert result.n_steps[0] == result.n_accepted[0] + \
            result.n_rejected[0]
        assert counters.rhs_simulation_evaluations >= 6 * result.n_steps[0]


class TestDenseOutput:
    def test_interpolant_matches_interior_solution(self):
        """Save points between step ends come from the quartic
        continuous extension."""
        grid = np.linspace(0, 3, 301)
        result, _ = solve_row(harmonic(), (0, 3), grid, "dopri5",
                              SolverOptions(rtol=1e-10, atol=1e-12))
        assert result.all_success
        assert result.n_steps[0] < grid.size
        assert np.allclose(result.y[0],
                           np.column_stack([np.cos(grid), -np.sin(grid)]),
                           atol=1e-7)

    def test_interpolant_endpoints_exact(self):
        rng = np.random.default_rng(0)
        t = np.array([0.5, 2.0])
        y_start = rng.standard_normal((2, 3))
        interpolate = _quartic_output(
            t, np.array([0.1, 0.3]), y_start, rng.standard_normal((2, 3)),
            rng.standard_normal((7, 2, 3)))
        assert np.array_equal(interpolate(np.arange(2), t), y_start)

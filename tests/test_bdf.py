"""Tests for the variable-order BDF method: its constants, the batched
integrator's difference-table rescale, and the integrator as the
sequential ``bdf`` engine runs it, on one-row launches."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.core import simulate
from repro.gpu.batch_bdf import _rescale
from repro.model import ODESystem
from repro.models import robertson
from repro.solvers import SolverOptions
from repro.solvers.bdf import ALPHA, ERROR_CONST, GAMMA, KAPPA, MAX_ORDER

from .scalar_problems import decay, harmonic, solve_row


class TestConstants:
    def test_gamma_is_harmonic_cumsum(self):
        assert GAMMA[0] == 0.0
        assert GAMMA[2] == pytest.approx(1.0 + 0.5)
        assert GAMMA[5] == pytest.approx(sum(1.0 / k for k in range(1, 6)))

    def test_alpha_relation(self):
        assert np.allclose(ALPHA, (1 - KAPPA) * GAMMA)

    def test_error_constants_positive_for_usable_orders(self):
        assert np.all(ERROR_CONST[1:MAX_ORDER + 1] > 0)

    def test_difference_rescaling_consistency(self):
        """Halving twice equals scaling by 1/4 (group property), at
        every order."""
        rng = np.random.default_rng(1)
        orders = np.arange(1, MAX_ORDER + 1)
        first = rng.standard_normal((orders.size, MAX_ORDER + 3, 3))
        halves = np.full(orders.size, 0.5)
        twice = _rescale(_rescale(first, orders, halves), orders, halves)
        once = _rescale(first, orders, np.full(orders.size, 0.25))
        assert not np.allclose(once, first)
        assert np.allclose(twice, once, atol=1e-12)


class TestAccuracy:
    def test_linear_decay(self):
        grid = np.linspace(0, 5, 6)
        result, _ = solve_row(decay(), (0, 5), grid, "bdf",
                              SolverOptions(rtol=1e-8, atol=1e-12))
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-7)

    def test_oscillator(self):
        grid = np.linspace(0, 2 * np.pi, 5)
        result, _ = solve_row(harmonic(), (0, 2 * np.pi), grid, "bdf",
                              SolverOptions(rtol=1e-8, atol=1e-12))
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.cos(grid), atol=1e-5)

    def test_robertson_against_scipy_bdf(self):
        model = robertson()
        grid = np.array([0.0, 1e-2, 1.0, 1e2, 1e4])
        result, _ = solve_row(model, (0, 1e4), grid, "bdf",
                              SolverOptions(rtol=1e-6, atol=1e-10,
                                            max_steps=200_000))
        assert result.all_success
        system = ODESystem.from_model(model)
        constants = model.rate_constants()
        reference = solve_ivp(system.as_scipy_rhs(constants), (0, 1e4),
                              model.initial_state(), method="BDF",
                              t_eval=grid, rtol=1e-10, atol=1e-13,
                              jac=system.as_scipy_jacobian(constants))
        assert np.allclose(result.y[0], reference.y.T, rtol=1e-3, atol=1e-9)

    def test_robertson_step_efficiency(self):
        """The multistep method cracks Robertson in a few hundred
        steps (the whole point of BDF)."""
        result, _ = solve_row(robertson(), (0, 1e4), np.array([0.0, 1e4]),
                              "bdf", SolverOptions(max_steps=200_000))
        assert result.all_success
        assert result.n_steps[0] < 1_000

    def test_mass_conservation(self):
        grid = np.array([0.0, 1e2, 1e4])
        result, _ = solve_row(robertson(), (0, 1e4), grid, "bdf",
                              SolverOptions(max_steps=200_000))
        assert np.allclose(result.y[0].sum(axis=1), 1.0, atol=1e-6)

    def test_tightening_tolerance_reduces_error(self):
        grid = np.array([0.0, 3.0])
        errors = []
        for rtol in (1e-4, 1e-9):
            result, _ = solve_row(decay(), (0, 3), grid, "bdf",
                                  SolverOptions(rtol=rtol, atol=1e-14))
            errors.append(abs(result.y[0, -1, 0] - np.exp(-3.0)))
        assert errors[1] < errors[0]


class TestBehaviour:
    def test_max_steps_status(self):
        result, _ = solve_row(robertson(), (0, 1e4), np.array([0.0, 1e4]),
                              "bdf", SolverOptions(max_steps=3))
        assert result.statuses() == ["max_steps"]

    def test_save_grid_hit_exactly(self):
        grid = np.array([0.0, 0.3, 0.77, 1.0])
        result, _ = solve_row(decay(), (0, 1), grid, "bdf", SolverOptions())
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-6)


class TestIntegration:
    def test_bdf_engine_in_facade(self):
        grid = np.array([0.0, 1.0, 100.0])
        result = simulate(robertson(), (0, 100), grid, engine="bdf",
                          options=SolverOptions(max_steps=200_000))
        assert result.all_success
        assert result.raw.methods()[0] == "bdf"
        batched = simulate(robertson(), (0, 100), grid,
                           options=SolverOptions(max_steps=200_000))
        assert np.allclose(result.y, batched.y, rtol=1e-3, atol=1e-8)

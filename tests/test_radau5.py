"""Tests for Radau IIA (order 5): the constants the batched integrator
derives at import, and the integrator as the sequential ``radau5``
engine runs it, on one-row launches."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.model import ODESystem
from repro.models import robertson
from repro.solvers import (MU_COMPLEX, MU_REAL, RADAU_A, RADAU_C, RADAU_T,
                           RADAU_TI, SolverOptions)

from .scalar_problems import decay, solve_row, van_der_pol


class TestDerivedConstants:
    """The transformation is derived numerically at import; check it
    against the known closed forms of the RADAU5 literature."""

    def test_mu_real_closed_form(self):
        expected = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
        assert MU_REAL == pytest.approx(expected, rel=1e-12)

    def test_mu_complex_closed_form(self):
        expected_real = 3.0 + 0.5 * (3.0 ** (1.0 / 3.0)
                                     - 3.0 ** (2.0 / 3.0))
        expected_imag = -0.5 * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0))
        assert MU_COMPLEX.real == pytest.approx(expected_real, rel=1e-12)
        assert MU_COMPLEX.imag == pytest.approx(expected_imag, rel=1e-12)

    def test_nodes_are_radau_points(self):
        sqrt6 = np.sqrt(6.0)
        assert np.allclose(RADAU_C, [(4 - sqrt6) / 10, (4 + sqrt6) / 10, 1])

    def test_stage_matrix_row_sums_are_nodes(self):
        assert np.allclose(RADAU_A.sum(axis=1), RADAU_C)

    def test_transformation_block_diagonalizes(self):
        a_inv = np.linalg.inv(RADAU_A)
        lam = RADAU_TI @ a_inv @ RADAU_T
        assert lam[0, 0] == pytest.approx(MU_REAL)
        assert abs(lam[0, 1]) < 1e-10 and abs(lam[0, 2]) < 1e-10
        assert abs(lam[1, 0]) < 1e-10 and abs(lam[2, 0]) < 1e-10
        # 2x2 rotation block [[alpha, beta], [-beta, alpha]].
        assert lam[1, 1] == pytest.approx(MU_COMPLEX.real)
        assert lam[2, 2] == pytest.approx(MU_COMPLEX.real)
        assert lam[1, 2] == pytest.approx(-MU_COMPLEX.imag)
        assert lam[2, 1] == pytest.approx(MU_COMPLEX.imag)

    def test_method_is_stiffly_accurate(self):
        """b equals the last row of A."""
        assert np.allclose(RADAU_A[-1], [(16 - np.sqrt(6)) / 36,
                                         (16 + np.sqrt(6)) / 36, 1 / 9])


class TestAccuracy:
    def test_linear_decay(self):
        grid = np.linspace(0, 5, 6)
        result, _ = solve_row(decay(), (0, 5), grid, "radau5",
                              SolverOptions(rtol=1e-9, atol=1e-12))
        assert result.all_success
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-8)

    def test_robertson_against_scipy_radau(self):
        model = robertson()
        grid = np.array([0.0, 1e-2, 1.0, 1e2, 1e4])
        result, _ = solve_row(model, (0, 1e4), grid, "radau5",
                              SolverOptions(rtol=1e-6, atol=1e-10,
                                            max_steps=100_000))
        assert result.all_success
        system = ODESystem.from_model(model)
        constants = model.rate_constants()
        reference = solve_ivp(system.as_scipy_rhs(constants), (0, 1e4),
                              model.initial_state(), method="Radau",
                              t_eval=grid, rtol=1e-10, atol=1e-13,
                              jac=system.as_scipy_jacobian(constants))
        assert np.allclose(result.y[0], reference.y.T, rtol=1e-4,
                           atol=1e-10)

    def test_robertson_mass_conservation(self):
        grid = np.array([0.0, 1e2, 1e4])
        result, _ = solve_row(robertson(), (0, 1e4), grid, "radau5",
                              SolverOptions(max_steps=100_000))
        assert np.allclose(result.y[0].sum(axis=1), 1.0, atol=1e-7)

    def test_van_der_pol_efficiency(self):
        """Radau solves stiff VdP in far fewer steps than its step cap."""
        result, _ = solve_row(van_der_pol(1000.0), (0, 3),
                              np.array([0.0, 3.0]), "radau5",
                              SolverOptions(max_steps=20_000))
        assert result.all_success
        assert result.n_steps[0] < 2_000


class TestBehaviour:
    def test_stats_accumulate(self):
        result, counters = solve_row(decay(), (0, 1), np.array([0.0, 1.0]),
                                     "radau5", SolverOptions())
        assert result.n_accepted[0] > 0
        assert counters.factorizations > 0
        assert counters.newton_iterations >= result.n_accepted[0]

    def test_jacobian_reuse_reduces_evaluations(self):
        grid = np.array([0.0, 1e2])
        evaluations = {}
        for reuse in (True, False):
            result, counters = solve_row(
                robertson(), (0, 1e2), grid, "radau5",
                SolverOptions(max_steps=100_000), reuse_jacobian=reuse)
            assert result.all_success
            evaluations[reuse] = counters.jacobian_simulation_evaluations
        assert evaluations[True] < evaluations[False]

    def test_max_steps_status(self):
        result, _ = solve_row(robertson(), (0, 1e4), np.array([0.0, 1e4]),
                              "radau5", SolverOptions(max_steps=3))
        assert result.statuses() == ["max_steps"]

    def test_save_grid_hit_exactly(self):
        grid = np.array([0.0, 0.21, 0.9, 1.0])
        result, _ = solve_row(decay(), (0, 1), grid, "radau5",
                              SolverOptions())
        assert np.array_equal(result.t, grid)
        assert np.allclose(result.y[0, :, 0], np.exp(-grid), atol=1e-7)

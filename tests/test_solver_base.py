"""Unit tests for shared solver definitions (options, grids, results)
and the batched integrators' error norm and starting-step heuristic."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gpu import BatchedODEProblem
from repro.gpu.batch_dopri5 import _scaled_error_norms
from repro.gpu.working_set import _initial_steps
from repro.model import ODESystem
from repro.solvers import (DEFAULT_OPTIONS, SolveResult, SolverOptions,
                           validate_time_grid)

from .scalar_problems import decay


def error_norm(error, reference, candidate, options):
    """The scaled RMS norm of one row's local error."""
    return float(_scaled_error_norms(error[None], reference[None],
                                     candidate[None], options)[0])


def initial_step_size(model, options):
    """Hairer's starting step for the model's nominal row (order 5)."""
    problem = BatchedODEProblem(ODESystem.from_model(model), model.batch(1))
    y0 = problem.initial_states()
    f0 = problem.fun(np.zeros(1), y0)
    return float(_initial_steps(problem, 0.0, y0, f0, 5, options,
                                options.max_step)[0])


class TestSolverOptions:
    def test_paper_defaults(self):
        assert DEFAULT_OPTIONS.rtol == 1e-6
        assert DEFAULT_OPTIONS.atol == 1e-12
        assert DEFAULT_OPTIONS.max_steps == 10_000
        assert DEFAULT_OPTIONS.stiffness_threshold == 500.0

    @pytest.mark.parametrize("kwargs", [
        {"rtol": 0.0},
        {"atol": -1.0},
        {"max_steps": 0},
        {"first_step": 0.0},
        {"min_step_factor": 1.5},
        {"max_step_factor": 0.5},
    ])
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(SolverError):
            SolverOptions(**kwargs)

    def test_replace_creates_modified_copy(self):
        modified = DEFAULT_OPTIONS.replace(rtol=1e-3)
        assert modified.rtol == 1e-3
        assert DEFAULT_OPTIONS.rtol == 1e-6
        assert modified.atol == DEFAULT_OPTIONS.atol


class TestErrorNorm:
    def test_zero_error(self):
        y = np.array([1.0, 2.0])
        assert error_norm(np.zeros(2), y, y, DEFAULT_OPTIONS) == 0.0

    def test_norm_is_scaled_rms(self):
        options = SolverOptions(rtol=0.1, atol=0.0)
        y = np.array([1.0, 1.0])
        error = np.array([0.1, 0.1])
        # scale = 0.1 * 1 => error/scale = 1 => rms = 1.
        assert error_norm(error, y, y, options) == pytest.approx(1.0)

    def test_uses_larger_of_old_and_new_state(self):
        options = SolverOptions(rtol=0.1, atol=0.0)
        old = np.array([1.0])
        new = np.array([10.0])
        value = error_norm(np.array([0.1]), old, new, options)
        assert value == pytest.approx(0.1)   # scale from the new state


class TestTimeGrid:
    def test_default_grid_is_span(self):
        grid = validate_time_grid((0.0, 2.0), None)
        assert np.allclose(grid, [0.0, 2.0])

    def test_decreasing_span_rejected(self):
        with pytest.raises(SolverError):
            validate_time_grid((1.0, 0.0), None)

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(SolverError):
            validate_time_grid((0.0, 1.0), np.array([0.0, 0.5, 0.4]))

    def test_grid_outside_span_rejected(self):
        with pytest.raises(SolverError):
            validate_time_grid((0.0, 1.0), np.array([0.0, 2.0]))

    def test_empty_grid_rejected(self):
        with pytest.raises(SolverError):
            validate_time_grid((0.0, 1.0), np.array([]))


class TestInitialStep:
    def test_reasonable_for_decay(self):
        assert 1e-4 < initial_step_size(decay(), DEFAULT_OPTIONS) < 1.0

    def test_respects_max_step(self):
        options = SolverOptions(max_step=1e-5)
        assert initial_step_size(decay(), options) <= 1e-5

    def test_degenerate_zero_state(self):
        assert initial_step_size(decay(initial=0.0), DEFAULT_OPTIONS) > 0.0


class TestStats:
    def test_result_helpers(self):
        result = SolveResult(np.array([0.0, 1.0]),
                             np.array([[1.0], [0.5]]), "success")
        assert result.success
        assert result.final_state()[0] == 0.5

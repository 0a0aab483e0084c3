"""Tests for the unified simulate() facade and sequential engines."""

import numpy as np
import pytest

from repro.core import SEQUENTIAL_ENGINES, SequentialSimulator, simulate
from repro.errors import AnalysisError
from repro.model import perturbed_batch
from repro.models import decay_chain, lotka_volterra, robertson


class TestFacade:
    def test_default_single_nominal_simulation(self, chain_model):
        result = simulate(chain_model, (0, 2), np.linspace(0, 2, 5))
        assert result.batch_size == 1
        assert result.all_success
        assert result.engine == "batched"

    def test_species_accessor(self, chain_model):
        grid = np.linspace(0, 2, 5)
        result = simulate(chain_model, (0, 2), grid)
        x0 = result.species("X0")
        assert x0.shape == (1, 5)
        assert x0[0, 0] == pytest.approx(10.0)
        with pytest.raises(AnalysisError):
            result.species("missing")

    def test_unknown_engine_rejected(self, chain_model):
        with pytest.raises(AnalysisError):
            simulate(chain_model, (0, 1), engine="quantum")

    def test_trajectory_and_final_states(self, chain_model):
        grid = np.linspace(0, 2, 5)
        result = simulate(chain_model, (0, 2), grid,
                          chain_model.batch(3))
        assert result.trajectory(1).shape == (5, chain_model.n_species)
        assert result.final_states().shape == (3, chain_model.n_species)


@pytest.mark.parametrize("engine", SEQUENTIAL_ENGINES)
class TestSequentialEngines:
    def test_engine_agrees_with_batched(self, engine):
        model = decay_chain(3)
        grid = np.linspace(0, 3, 7)
        batch = perturbed_batch(model.nominal_parameterization(), 3,
                                np.random.default_rng(0))
        batched = simulate(model, (0, 3), grid, batch, engine="batched")
        sequential = simulate(model, (0, 3), grid, batch, engine=engine)
        assert sequential.all_success
        assert np.allclose(sequential.y, batched.y, rtol=1e-4, atol=1e-7)

    def test_method_code_matches_engine(self, engine):
        model = decay_chain(2)
        result = simulate(model, (0, 1), np.array([0.0, 1.0]),
                          engine=engine)
        assert result.raw.methods()[0] == engine


@pytest.mark.parametrize("engine", ["dopri5", "radau5", "bdf"])
def test_engine_runs_the_batched_integrator_one_row_at_a_time(engine):
    """The sequential engine of a batched method gives every row the
    bytes of the batched engine forced onto that method."""
    model = lotka_volterra()
    batch = perturbed_batch(model.nominal_parameterization(), 3,
                            np.random.default_rng(2))
    grid = np.linspace(0, 5, 11)
    sequential = simulate(model, (0, 5), grid, batch, engine=engine)
    batched = simulate(model, (0, 5), grid, batch, engine="batched",
                       method=engine)
    assert sequential.all_success
    for field in ("y", "status_codes", "n_steps"):
        assert getattr(sequential.raw, field).tobytes() == \
            getattr(batched.raw, field).tobytes(), field


@pytest.mark.parametrize("engine", SEQUENTIAL_ENGINES + ("batched",))
def test_grid_starting_below_the_span_by_rounding(engine):
    """A save grid may start below ``t0`` by a rounding error; every
    engine saves the initial state there and finishes the row."""
    model = decay_chain(3)
    result = simulate(model, (0.0, 1.0), np.array([-1e-16, 0.5, 1.0]),
                      None, engine)
    assert result.all_success
    assert np.isfinite(result.y).all()
    assert np.array_equal(result.y[0, 0], model.initial_state())


@pytest.mark.parametrize("engine", SEQUENTIAL_ENGINES + ("batched",))
def test_grid_below_the_span_is_saved_at_t0(engine):
    """Every engine clips an overhanging save grid into the span: the
    returned times are the ones the states were saved at."""
    result = simulate(decay_chain(3), (0.0, 1.0),
                      np.array([-1e-16, 0.5, 1.0]), None, engine)
    assert result.t.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes()


class TestTimeBudget:
    def test_budget_cuts_off_batch(self):
        model = robertson()
        batch = perturbed_batch(model.nominal_parameterization(), 64,
                                np.random.default_rng(1))
        simulator = SequentialSimulator(model)
        result = simulator.simulate(
            (0, 1e4), np.array([0.0, 1e4]), batch,
            time_budget_seconds=0.05)
        statuses = result.statuses()
        assert statuses.count("failed") > 0
        assert result.elapsed_seconds < 5.0

    def test_unknown_sequential_engine_rejected(self):
        for engine in ("magic", "autoswitch"):
            with pytest.raises(AnalysisError):
                SequentialSimulator(decay_chain(2), engine=engine)

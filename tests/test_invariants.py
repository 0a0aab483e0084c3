"""Cross-cutting property tests on end-to-end simulations.

These hypothesis-driven tests assert the physical invariants every
engine must preserve on randomly generated mass-action networks:
conservation laws hold along trajectories, engines agree with each
other, and dynamics stay finite for the benchmark-style workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simulate
from repro.model import invariant_totals, perturbed_batch
from repro.solvers import SolverOptions
from repro.synth import generate_model, SyntheticModelSpec

OPTIONS = SolverOptions(max_steps=100_000)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 500))
def test_conservation_laws_hold_along_trajectories(seed):
    """Any conserved linear combination stays constant under the
    batched engine, for random synthetic networks."""
    model = generate_model(SyntheticModelSpec(6, 8, seed))
    laws = model.conservation_law_basis()
    grid = np.linspace(0, 1, 5)
    result = simulate(model, (0, 1), grid, options=OPTIONS)
    if not result.all_success:   # pathological random dynamics
        return
    trajectories = result.y[0]
    if laws.shape[0] == 0:
        return
    totals = invariant_totals(laws, trajectories)
    scale = np.max(np.abs(totals)) + 1.0
    assert np.allclose(totals, totals[0], atol=1e-5 * scale)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 500))
def test_batched_and_sequential_engines_agree(seed):
    """The GPU-style engine and the sequential LSODA loop (ODEPACK, a
    second implementation) compute the same dynamics on random
    networks."""
    model = generate_model(SyntheticModelSpec(5, 6, seed))
    grid = np.linspace(0, 0.5, 4)
    batch = perturbed_batch(model.nominal_parameterization(), 3,
                            np.random.default_rng(seed))
    batched = simulate(model, (0, 0.5), grid, batch, engine="batched",
                       options=OPTIONS)
    sequential = simulate(model, (0, 0.5), grid, batch, engine="lsoda",
                          options=OPTIONS)
    if batched.all_success and sequential.all_success:
        # Both run at rtol 1e-6 locally; global error on decaying
        # components can be a couple of orders larger.
        assert np.allclose(batched.y, sequential.y, rtol=3e-3, atol=1e-6)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 500), batch_size=st.integers(1, 6))
def test_batch_rows_are_independent(seed, batch_size):
    """Simulating a batch gives row-for-row the same answer as
    simulating each parameterization alone (no cross-talk)."""
    model = generate_model(SyntheticModelSpec(4, 5, seed))
    grid = np.array([0.0, 0.3])
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed + 1))
    together = simulate(model, (0, 0.3), grid, batch, options=OPTIONS)
    if not together.all_success:
        return
    for index in range(batch_size):
        alone = simulate(model, (0, 0.3), grid, batch[index],
                         options=OPTIONS)
        assert np.allclose(alone.y[0], together.y[index], rtol=1e-7,
                           atol=1e-10)


def test_robertson_long_horizon_totals():
    """The hard stiff benchmark conserves mass to tight tolerance over
    six decades of time."""
    from repro.models import robertson
    grid = np.geomspace(1e-3, 1e6, 10)
    grid = np.concatenate([[0.0], grid])
    result = simulate(robertson(), (0, 1e6), grid, options=OPTIONS)
    assert result.all_success
    assert np.allclose(result.y[0].sum(axis=1), 1.0, atol=1e-5)


def test_concentrations_remain_finite_on_benchmark_workload():
    """The E1-style workload (perturbed synthetic batch) stays finite."""
    model = generate_model(SyntheticModelSpec(16, 16, 1))
    batch = perturbed_batch(model.nominal_parameterization(), 32,
                            np.random.default_rng(0))
    result = simulate(model, (0, 2), np.linspace(0, 2, 5), batch,
                      options=OPTIONS)
    assert result.all_success
    assert np.all(np.isfinite(result.y))

"""Cross-engine agreement property tests.

Every engine in the library integrates the same mathematics; these
tests assert pairwise agreement on randomly generated networks — the
strongest global consistency check the suite runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simulate
from repro.model import ODESystem, perturbed_batch
from repro.solvers import SolverOptions
from repro.synth import SyntheticModelSpec, generate_model

from .scalar_problems import scipy_rows

OPTIONS = SolverOptions(rtol=1e-8, atol=1e-12, max_steps=200_000)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 300))
def test_batched_dopri5_and_radau_agree(seed):
    """Forcing either batched method on a non-stiff random model gives
    the same trajectories (explicit and implicit math agree)."""
    model = generate_model(SyntheticModelSpec(5, 6, seed))
    grid = np.linspace(0, 0.5, 4)
    explicit = simulate(model, (0, 0.5), grid, model.batch(2),
                        options=OPTIONS, method="dopri5")
    implicit = simulate(model, (0, 0.5), grid, model.batch(2),
                        options=OPTIONS, method="radau5")
    if explicit.all_success and implicit.all_success:
        assert np.allclose(explicit.y, implicit.y, rtol=1e-5, atol=1e-8)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 300))
def test_own_bdf_agrees_with_lsoda(seed):
    """Our multistep solver tracks ODEPACK's on random networks."""
    model = generate_model(SyntheticModelSpec(4, 5, seed))
    grid = np.linspace(0, 0.5, 4)
    own = simulate(model, (0, 0.5), grid, engine="bdf", options=OPTIONS)
    reference = simulate(model, (0, 0.5), grid, engine="lsoda",
                         options=OPTIONS)
    if own.all_success and reference.all_success:
        assert np.allclose(own.y, reference.y, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("engine", ["batched", "dopri5", "radau5", "bdf",
                                    "lsoda", "vode"])
def test_all_engines_on_one_reference_problem(engine):
    """Six engines, one problem, one answer."""
    from repro.models import decay_chain
    model = decay_chain(2, rate=1.0, initial=10.0)
    grid = np.linspace(0, 3, 7)
    result = simulate(model, (0, 3), grid, engine=engine, options=OPTIONS)
    assert result.all_success
    expected = 10.0 * np.exp(-grid)
    assert np.allclose(result.species("X0")[0], expected, rtol=1e-5,
                       atol=1e-8)


def test_perturbed_batch_consistency_across_engines():
    """A perturbed batch gives row-wise the same results run batched
    as solved row by row by SciPy's Radau."""
    from repro.models import cascade
    model = cascade()
    batch = perturbed_batch(model.nominal_parameterization(), 5,
                            np.random.default_rng(3))
    grid = np.linspace(0, 5, 6)
    batched = simulate(model, (0, 5), grid, batch, options=OPTIONS)
    assert batched.all_success
    sequential = scipy_rows(ODESystem.from_model(model), batch, (0, 5), grid,
                            "Radau", OPTIONS.rtol, OPTIONS.atol)
    assert np.allclose(batched.y, sequential, rtol=1e-5, atol=1e-8)

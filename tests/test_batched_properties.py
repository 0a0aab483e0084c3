"""Property tests of the batched integrators on generated networks.

For each method the batched engine offers, on random
:func:`~repro.synth.generate_model` networks and perturbed batches:

* each row's result is byte-identical however the engine splits the
  batch into launches;
* the rows that finish agree with the LSODA loop within tolerance.

The example budget comes from the Hypothesis profile (``dev`` locally,
``HYPOTHESIS_PROFILE=ci`` in CI).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import simulate
from repro.gpu.batch_result import OK
from repro.model import perturbed_batch
from repro.solvers import SolverOptions
from repro.synth import SyntheticModelSpec, generate_model

OPTIONS = SolverOptions(rtol=1e-8, atol=1e-12, max_steps=20_000)
SPAN = (0.0, 0.5)
GRID = np.linspace(0.0, 0.5, 4)
FIELDS = ("y", "status_codes", "method_codes", "n_steps", "n_accepted",
          "n_rejected")


@pytest.mark.parametrize("method", ["auto", "dopri5", "radau5", "bdf"])
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
       width=st.integers(1, 6))
def test_rows_split_alike_and_agree_with_lsoda(method, seed, rows, width):
    model = generate_model(SyntheticModelSpec(4, 5, seed))
    batch = perturbed_batch(model.nominal_parameterization(), rows,
                            np.random.default_rng(seed))
    whole = simulate(model, SPAN, GRID, batch, options=OPTIONS,
                     method=method).raw
    split = simulate(model, SPAN, GRID, batch, options=OPTIONS,
                     method=method, max_batch_per_launch=width).raw
    for row in range(rows):
        for name in FIELDS:
            assert getattr(split, name)[row].tobytes() == \
                getattr(whole, name)[row].tobytes(), (row, name)

    reference = simulate(model, SPAN, GRID, batch, engine="lsoda",
                         options=OPTIONS).raw
    done = (whole.status_codes == OK) & (reference.status_codes == OK)
    assert np.allclose(whole.y[done], reference.y[done], rtol=1e-4,
                       atol=1e-7)

"""Property tests of the batched integrators on generated networks.

For each method the batched engine offers, on random
:func:`~repro.synth.generate_model` networks and perturbed batches:

* each row's result is byte-identical however the engine splits the
  batch into launches;
* the rows that finish agree with the LSODA loop within tolerance.

Rate constants are drawn from the generator's default range or from one
spread wide enough that ``auto`` switches rows from DOPRI5 to Radau IIA
mid-span. The example budget comes from the Hypothesis profile (``dev``
locally, ``HYPOTHESIS_PROFILE=ci`` in CI).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
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
#: The generator's default rate range, and a spread wide enough that
#: ``auto`` rows switch to Radau IIA (all four rows of seed 6 do).
RATE_RANGES = (SyntheticModelSpec(1, 1).rate_range, (1e-6, 1e4))


@pytest.mark.parametrize("method", ["auto", "dopri5", "radau5", "bdf"])
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
       width=st.integers(1, 6), rate_range=st.sampled_from(RATE_RANGES))
@example(seed=6, rows=4, width=3, rate_range=RATE_RANGES[1])
def test_rows_split_alike_and_agree_with_lsoda(method, seed, rows, width,
                                               rate_range):
    model = generate_model(SyntheticModelSpec(4, 5, seed,
                                              rate_range=rate_range))
    batch = perturbed_batch(model.nominal_parameterization(), rows,
                            np.random.default_rng(seed))
    reference = simulate(model, SPAN, GRID, batch, engine="lsoda",
                         options=OPTIONS).raw
    # Runaway autocatalysis (states past 1e6 from starts of at most 1,
    # up to overflow) is left out: a few wide-spread networks grow to
    # 1e32 within the span, where the implicit integrators' Newton
    # matrices hold entries near 1e34 and their results stop being
    # reliable.
    assume(np.nanmax(np.abs(reference.y)) < 1e6)
    whole = simulate(model, SPAN, GRID, batch, options=OPTIONS,
                     method=method).raw
    split = simulate(model, SPAN, GRID, batch, options=OPTIONS,
                     method=method, max_batch_per_launch=width).raw
    for row in range(rows):
        for name in FIELDS:
            assert getattr(split, name)[row].tobytes() == \
                getattr(whole, name)[row].tobytes(), (row, name)

    done = (whole.status_codes == OK) & (reference.status_codes == OK)
    assert np.allclose(whole.y[done], reference.y[done], rtol=1e-4,
                       atol=1e-7)

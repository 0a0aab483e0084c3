"""Constants of the variable-order BDF method (orders 1-5).

The quasi-constant-step, fixed-leading-coefficient Backward
Differentiation Formulae are the algorithm family behind the LSODA/VODE
stiff modes this paper's simulators are benchmarked against. The
formulation follows the classical presentation (Byrne & Hindmarsh;
Shampine & Reichelt's ode15s; SciPy's BDF uses the same scheme); its
integrator is the batched :class:`~repro.gpu.batch_bdf.BatchBDF`.
"""

from __future__ import annotations

import numpy as np

MAX_ORDER = 5
NEWTON_MAXITER = 4

#: Fixed-leading-coefficient correction constants (order-indexed).
KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
GAMMA = np.hstack(([0.0], np.cumsum(1.0 / np.arange(1, MAX_ORDER + 1))))
ALPHA = (1.0 - KAPPA) * GAMMA
ERROR_CONST = KAPPA * GAMMA + 1.0 / np.arange(1, MAX_ORDER + 2)

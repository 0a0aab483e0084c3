"""Constants of the three-stage Radau IIA method (order 5).

The Radau IIA collocation method (RADAU5 of Hairer & Wanner, "Solving
ODEs II") is the stiff workhorse of this paper family: it is A-stable,
L-stable and stiffly accurate. Its integrator is the batched
:class:`~repro.gpu.batch_radau5.BatchRadau5`, which solves the
nonlinear stage system by a simplified Newton iteration on variables
transformed by the real similarity that splits the inverted Butcher
matrix into one real eigenvalue and one complex-conjugate pair, so each
Newton iteration costs one real and one complex solve.

The transformation constants are derived *numerically* at import time
from the exact Butcher matrix (no hand-copied magic constants); the
test suite checks them against the known closed forms.
"""

from __future__ import annotations

import numpy as np

_SQRT6 = np.sqrt(6.0)

#: Radau IIA (s=3) nodes.
RADAU_C = np.array([(4.0 - _SQRT6) / 10.0, (4.0 + _SQRT6) / 10.0, 1.0])

#: Radau IIA (s=3) stage matrix.
RADAU_A = np.array([
    [(88.0 - 7.0 * _SQRT6) / 360.0,
     (296.0 - 169.0 * _SQRT6) / 1800.0,
     (-2.0 + 3.0 * _SQRT6) / 225.0],
    [(296.0 + 169.0 * _SQRT6) / 1800.0,
     (88.0 + 7.0 * _SQRT6) / 360.0,
     (-2.0 - 3.0 * _SQRT6) / 225.0],
    [(16.0 - _SQRT6) / 36.0,
     (16.0 + _SQRT6) / 36.0,
     1.0 / 9.0],
])

#: Weights of the embedded order-3 error estimator (Hairer & Wanner).
RADAU_E = np.array([-13.0 - 7.0 * _SQRT6, -13.0 + 7.0 * _SQRT6, -1.0]) / 3.0


def _derive_transformation() -> tuple[float, complex, np.ndarray, np.ndarray]:
    """Real similarity splitting inv(A) into its eigenvalue blocks.

    Returns (mu_real, mu_complex, T, TI) with
    TI @ inv(A) @ T = [[mu_real, 0, 0], [0, alpha, beta], [0, -beta, alpha]]
    and mu_complex = alpha - i beta, so the transformed Newton system
    decouples into one real and one complex linear solve.
    """
    a_inv = np.linalg.inv(RADAU_A)
    eigenvalues, eigenvectors = np.linalg.eig(a_inv)
    real_index = int(np.argmin(np.abs(eigenvalues.imag)))
    complex_index = next(i for i in range(3)
                         if i != real_index and eigenvalues[i].imag > 0.0)
    mu_real = float(eigenvalues[real_index].real)
    lam = eigenvalues[complex_index]
    mu_complex = complex(lam.real, -lam.imag)
    v_real = eigenvectors[:, real_index].real
    v_complex = eigenvectors[:, complex_index]
    transformation = np.column_stack(
        [v_real / v_real[-1],
         v_complex.real / np.abs(v_complex[-1]),
         v_complex.imag / np.abs(v_complex[-1])])
    return (mu_real, mu_complex, transformation,
            np.linalg.inv(transformation))


MU_REAL, MU_COMPLEX, RADAU_T, RADAU_TI = _derive_transformation()

"""The Butcher tableau of DOPRI5, the embedded explicit Runge-Kutta pair
the batched :class:`~repro.gpu.batch_dopri5.BatchDopri5` integrates with.

A tableau packages the stage matrix ``a``, the nodes ``c``, the
higher-order weights ``b`` (used to advance the solution) and the error
weights ``e = b - b_hat`` (difference between the embedded orders, used
for the local error estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SolverError


@dataclass(frozen=True)
class ButcherTableau:
    """An embedded explicit Runge-Kutta pair.

    Attributes
    ----------
    name:
        Human-readable method name.
    order:
        Order of the propagating solution.
    error_order:
        Order of the embedded (error-estimating) solution.
    a, b, c, e:
        Butcher coefficients; ``e`` gives the local error as
        ``h * sum_i e_i k_i``.
    first_same_as_last:
        True when the last stage derivative equals f(t+h, y_new), so it
        can seed the next step (FSAL property).
    """

    name: str
    order: int
    error_order: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    e: np.ndarray
    first_same_as_last: bool = False

    @property
    def n_stages(self) -> int:
        return self.b.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        """Structural consistency checks; raises :class:`SolverError`.

        Explicit raises rather than ``assert`` so a corrupt tableau is
        still rejected under ``python -O`` (asserts are stripped).
        """
        n = self.n_stages
        if self.a.shape != (n, n):
            raise SolverError(
                f"tableau {self.name!r}: stage matrix has shape "
                f"{self.a.shape}, expected {(n, n)}")
        if self.c.shape != (n,):
            raise SolverError(
                f"tableau {self.name!r}: nodes have shape {self.c.shape}, "
                f"expected {(n,)}")
        if self.e.shape != (n,):
            raise SolverError(
                f"tableau {self.name!r}: error weights have shape "
                f"{self.e.shape}, expected {(n,)}")
        if not np.allclose(self.a.sum(axis=1), self.c, atol=tol):
            raise SolverError(
                f"tableau {self.name!r}: row-sum condition violated "
                "(a.sum(axis=1) != c)")
        if not abs(self.b.sum() - 1.0) < tol:
            raise SolverError(
                f"tableau {self.name!r}: propagating weights sum to "
                f"{self.b.sum()!r}, expected 1")
        if not abs(self.e.sum()) < tol:
            raise SolverError(
                f"tableau {self.name!r}: error weights sum to "
                f"{self.e.sum()!r}, expected 0")
        if not np.allclose(np.triu(self.a), 0.0, atol=tol):
            raise SolverError(
                f"tableau {self.name!r}: stage matrix is not strictly "
                "lower triangular (method would be implicit)")


def _tableau(name, order, error_order, a, b, b_hat, c, fsal=False):
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    b_hat = np.array(b_hat, dtype=np.float64)
    c = np.array(c, dtype=np.float64)
    return ButcherTableau(name, order, error_order, a, b, c, b - b_hat, fsal)


#: Dormand-Prince 5(4) pair — the paper family's non-stiff workhorse.
DOPRI5 = _tableau(
    "dopri5", 5, 4,
    a=[[0, 0, 0, 0, 0, 0, 0],
       [1 / 5, 0, 0, 0, 0, 0, 0],
       [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
       [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
       [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
       [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
        -5103 / 18656, 0, 0],
       [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0]],
    b=[35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    b_hat=[5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200,
           187 / 2100, 1 / 40],
    c=[0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1],
    fsal=True,
)

#: Coefficients of the quartic dense-output interpolant of DOPRI5
#: (Hairer, Norsett & Wanner, Solving ODEs I). Continuous extension:
#: y(t + theta h) = y + h * sum_i k_i * P_i(theta), with P_i expressed
#: below through the d_i correction coefficients.
DOPRI5_DENSE_D = np.array([
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
])

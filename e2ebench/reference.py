"""Frozen LSODA reference: the yardstick and correctness oracle.

The reference integrates one parameter row at a time with scipy's
``solve_ivp(method="LSODA")``, driving a mass-action right-hand side
and analytic Jacobian built here from ``model.reactions``. It never
calls :mod:`repro.model`'s evaluators, so a faster ``model`` layer
cannot speed the yardstick up and hide its own gain.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-6
ATOL = 1e-12
#: E7's accuracy band: max |y - ref| / (|ref| + floor) must stay below.
REL_BAND = 1e-3
#: E7 uses a floor of 1e-10, which asks 1e-13 absolute accuracy of
#: species near zero, a tenth of the ATOL both sides solve to. ATOL
#: bounds the error of one step; over a trajectory batched dopri5 ends
#: up to 2e-12 off on cascade species below 1e-9 (it returns -1.0e-12
#: for 6.9e-14), while its error on every larger value stays under
#: 1e-5 relative. This floor lets a value be off by ten ATOLs:
#: |y - ref| < REL_BAND * |ref| + 10 * ATOL.
REL_FLOOR = 10 * ATOL / REL_BAND


class MassActionReference:
    """Mass-action dX/dt = net^T (k * prod x^a) of one model, frozen."""

    def __init__(self, model) -> None:
        names = model.species.names
        index = {name: i for i, name in enumerate(names)}
        n, m = len(names), len(model.reactions)
        order = max(1, max(sum(r.reactants.values())
                           for r in model.reactions))
        # Reactant slots: species index repeated by its coefficient,
        # padded with index n, which points at a constant 1.0.
        slots = np.full((m, order), n, dtype=np.intp)
        net = np.zeros((m, n))
        for r, reaction in enumerate(model.reactions):
            if type(reaction.law).__name__ != "MassAction":
                raise ValueError(f"reaction {reaction.name!r} is not "
                                 f"mass-action: {reaction.law!r}")
            filled = [index[s] for s, c in reaction.reactants.items()
                      for _ in range(c)]
            slots[r, :len(filled)] = filled
            for s, c in reaction.reactants.items():
                net[r, index[s]] -= c
            for s, c in reaction.products.items():
                net[r, index[s]] += c
        self.n_species = n
        self.n_reactions = m
        self._slots = slots
        self._net_t = np.ascontiguousarray(net.T)
        self._rows = np.arange(m)

    def _extended(self, y: np.ndarray) -> np.ndarray:
        return np.append(y, 1.0)

    def rhs(self, k: np.ndarray, y: np.ndarray) -> np.ndarray:
        factors = self._extended(y)[self._slots]
        return self._net_t @ (k * factors.prod(axis=1))

    def jacobian(self, k: np.ndarray, y: np.ndarray) -> np.ndarray:
        factors = self._extended(y)[self._slots]
        partial = np.zeros((self.n_reactions, self.n_species + 1))
        for p in range(self._slots.shape[1]):
            others = np.delete(factors, p, axis=1).prod(axis=1)
            np.add.at(partial, (self._rows, self._slots[:, p]), k * others)
        return self._net_t @ partial[:, :self.n_species]

    def solve_row(self, k: np.ndarray, x0: np.ndarray,
                  t_span: tuple[float, float], t_eval: np.ndarray):
        """(trajectory (T, N), success) of one row under LSODA."""
        solution = solve_ivp(lambda t, y: self.rhs(k, y), t_span, x0,
                             method="LSODA", t_eval=t_eval, rtol=RTOL,
                             atol=ATOL, jac=lambda t, y: self.jacobian(k, y))
        return solution.y.T, bool(solution.success)

    def solve(self, rate_constants: np.ndarray, initial_states: np.ndarray,
              t_span: tuple[float, float], t_eval: np.ndarray):
        """Solve every row: (y (B, T, N), ok (B,), seconds per row (B,))."""
        batch = rate_constants.shape[0]
        y = np.full((batch, t_eval.size, self.n_species), np.nan)
        ok = np.zeros(batch, dtype=bool)
        seconds = np.zeros(batch)
        for row in range(batch):
            started = time.perf_counter()
            trajectory, ok[row] = self.solve_row(
                rate_constants[row], initial_states[row], t_span, t_eval)
            seconds[row] = time.perf_counter() - started
            y[row, :trajectory.shape[0]] = trajectory
        return y, ok, seconds


def relative_errors(y: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-row max E7 relative error of ``y`` against ``reference``.

    Non-finite values (a failed row's NaN tail) give an infinite error.
    """
    error = np.abs(y - reference) / (np.abs(reference) + REL_FLOOR)
    error = np.where(np.isfinite(error), error, np.inf)
    return error.reshape(error.shape[0], -1).max(axis=1)


"""CPU baseline solvers: SciPy's LSODA and VODE wrappers.

The paper family benchmarks its GPU engines against "vanilla" LSODA and
VODE as provided by SciPy (wrapping the Fortran ODEPACK solvers), which
is exactly what these adapters expose — normalized to this package's
:class:`~repro.solvers.base.SolveResult` schema, with RHS-evaluation
counting so workload statistics are comparable across engines.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import ode

from ..errors import SolverError
from .base import (DEFAULT_OPTIONS, FAILED, SUCCESS, SolveResult,
                   SolverOptions, SolverStats, validate_time_grid)


class _CountingFunction:
    """Wrap f(t, y) counting invocations."""

    def __init__(self, fun) -> None:
        self._fun = fun
        self.count = 0

    def __call__(self, t, y):
        self.count += 1
        return self._fun(t, y)


class _ScipyOdeSolver:
    """Common wrapper around the scipy.integrate.ode integrators.

    Step counts come from ODEPACK's integer work array: ``n_steps`` and
    ``n_accepted`` are NST (``IWORK(11)``), the steps taken so far.
    LSODA's work array holds no rejected-step count, so ``n_rejected``
    stays 0 for both integrators.
    """

    integrator_name = ""
    integrator_kwargs: dict = {}

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    @property
    def name(self) -> str:
        return self.integrator_name

    def solve(self, fun, t_span: tuple[float, float], y0: np.ndarray,
              t_eval: np.ndarray | None = None, jac=None) -> SolveResult:
        options = self.options
        t_eval = validate_time_grid(t_span, t_eval)
        t0 = float(t_span[0])
        y0 = np.asarray(y0, dtype=np.float64)

        counting_fun = _CountingFunction(fun)
        counting_jac = _CountingFunction(jac) if jac is not None else None
        integrator = ode(counting_fun, counting_jac)
        integrator.set_integrator(
            self.integrator_name, rtol=options.rtol, atol=options.atol,
            nsteps=options.max_steps, **self.integrator_kwargs)
        integrator.set_initial_value(y0, t0)

        output = np.empty((t_eval.size, y0.size))
        save_index = 0
        if t_eval[0] == t0:
            output[0] = y0
            save_index = 1
        stats = SolverStats()
        status = SUCCESS
        message = ""
        # A diverging solution overflows the right-hand side before
        # ODEPACK gives the run up; the status reports it, quietly.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for target in t_eval[save_index:]:
                state = integrator.integrate(target)
                if not integrator.successful():
                    status = FAILED
                    message = f"{self.integrator_name} failed at t={target:g}"
                    break
                output[save_index] = state
                save_index += 1
        stats.n_steps = stats.n_accepted = int(
            integrator._integrator.iwork[10])
        stats.n_rhs_evaluations = counting_fun.count
        if counting_jac is not None:
            stats.n_jacobian_evaluations = counting_jac.count
        return SolveResult(t_eval[:save_index].copy(),
                           output[:save_index].copy(), status, stats,
                           self.integrator_name, message)


class ScipyLSODA(_ScipyOdeSolver):
    """LSODA: Adams/BDF multistep with automatic stiffness switching."""

    integrator_name = "lsoda"


class ScipyVODE(_ScipyOdeSolver):
    """VODE: variable-coefficient Adams/BDF with startup heuristic."""

    integrator_name = "vode"
    integrator_kwargs = {"method": "bdf"}


def make_cpu_baseline(name: str,
                      options: SolverOptions = DEFAULT_OPTIONS):
    """Factory for the named CPU baseline ('lsoda' or 'vode')."""
    lowered = name.lower()
    if lowered == "lsoda":
        return ScipyLSODA(options)
    if lowered == "vode":
        return ScipyVODE(options)
    raise SolverError(f"unknown CPU baseline {name!r}; "
                      "expected 'lsoda' or 'vode'")

"""Textbook initial-value problems for the batched integrators, and
SciPy's ``solve_ivp`` as their independent reference.

The batched integrators integrate reaction models, so the classic
scalar test problems are written as models: decay ``y' = -k y``, the
harmonic oscillator ``x' = v, v' = -x`` and Van der Pol, the last two
through custom rate laws whose flux reads a species the reaction does
not consume. :func:`solve_row` runs one of them as a one-row launch, the
way the sequential ``dopri5``, ``radau5`` and ``bdf`` engines run each
simulation. :func:`scipy_rows` solves every row of a batch with SciPy's
implementation of a method, the second implementation the batched
integrators are checked against.
"""

import numpy as np
from scipy.integrate import solve_ivp

from repro.gpu import BatchedODEProblem
from repro.gpu.engine import INTEGRATORS
from repro.model import ODESystem, ReactionBasedModel
from repro.model.ratelaws import CustomLaw


def decay(rate: float = 1.0, initial: float = 1.0) -> ReactionBasedModel:
    """``y' = -rate * y`` from ``y(0) = initial``."""
    model = ReactionBasedModel("decay")
    model.add_species("Y", initial)
    model.add("Y -> 0", rate_constant=rate)
    return model


def harmonic() -> ReactionBasedModel:
    """``x' = v, v' = -x`` from ``(1, 0)``: ``x = cos t``."""
    model = ReactionBasedModel("harmonic")
    model.add_species("X", 1.0)
    model.add_species("V", 0.0)
    model.add("0 -> X", rate_constant=1.0,
              law=CustomLaw.from_string("k * V"))
    model.add("V -> 0", rate_constant=1.0,
              law=CustomLaw.from_string("k * X"))
    return model


def van_der_pol(mu: float) -> ReactionBasedModel:
    """``x' = v, v' = mu (1 - x^2) v - x`` from ``(2, 0)``."""
    model = ReactionBasedModel("van-der-pol")
    model.add_species("X", 2.0)
    model.add_species("V", 0.0)
    model.add("0 -> X", rate_constant=1.0,
              law=CustomLaw.from_string("k * V"))
    model.add("0 -> V", rate_constant=mu,
              law=CustomLaw.from_string("k * (1 - X ^ 2) * V"))
    model.add("V -> 0", rate_constant=1.0,
              law=CustomLaw.from_string("k * X"))
    return model


def solve_row(model, t_span, grid, method, options, **integrator_kwargs):
    """``(result, counters)`` of the model's nominal row as a one-row
    launch of the batched integrator ``method``."""
    problem = BatchedODEProblem(ODESystem.from_model(model), model.batch(1))
    result = INTEGRATORS[method](options, **integrator_kwargs).solve(
        problem, t_span, grid)
    return result, problem.counters


def scipy_rows(system, batch, t_span, grid, method, rtol, atol):
    """Every row of ``batch`` solved alone by ``solve_ivp`` with
    ``method``, shape (B, T, N); the implicit methods get the model's
    analytic Jacobian."""
    rows = []
    for constants, initial in zip(batch.rate_constants,
                                  batch.initial_states):
        implicit = {}
        if method != "RK45":
            implicit["jac"] = system.as_scipy_jacobian(constants)
        solution = solve_ivp(system.as_scipy_rhs(constants), t_span,
                             initial, method=method, t_eval=grid,
                             rtol=rtol, atol=atol, **implicit)
        assert solution.success, solution.message
        rows.append(solution.y.T)
    return np.array(rows)

"""E7 — numerical accuracy parity across all engines.

Regenerates the paper family's accuracy validation: the same problems
are integrated by the batched GPU-style engine, the sequential
``dopri5`` / ``radau5`` / ``bdf`` engines (the batched integrators one
row per launch) and the SciPy LSODA / VODE baselines, and the deviation
from a reference that none of them computed is measured: the closed
form of a non-stiff Bateman decay chain, and SciPy's own Radau IIA at
rtol 1e-11 on the stiff Robertson problem.

Expected shape: every engine stays within its tolerance band of the
reference, and the batched engine's Robertson error stays within 10x of
LSODA's (and never above 1e-4).
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.core import simulate
from repro.model import ODESystem
from repro.models import decay_chain, robertson
from repro.solvers import SolverOptions

from common import write_bench_json, write_report

OPTIONS = SolverOptions(rtol=1e-6, atol=1e-12, max_steps=200_000)

NONSTIFF_GRID = np.linspace(0.0, 4.0, 9)
STIFF_GRID = np.array([0.0, 1e-2, 1.0, 1e2, 1e4])

state = {"errors": {}}


def bateman_reference():
    """The 2-chain (rates 1.0 and 2/3, see ``decay_chain``) and its
    closed-form Bateman solution on the grid."""
    model = decay_chain(2, rate=1.0, initial=10.0)
    k1, k2 = model.rate_constants()
    x0 = 10.0 * np.exp(-k1 * NONSTIFF_GRID)
    x1 = 10.0 * k1 / (k2 - k1) * (np.exp(-k1 * NONSTIFF_GRID)
                                  - np.exp(-k2 * NONSTIFF_GRID))
    return model, np.column_stack([x0, x1, 10.0 - x0 - x1])


@pytest.fixture(scope="module")
def nonstiff():
    return bateman_reference()


@pytest.fixture(scope="module")
def stiff():
    """Robertson and SciPy's Radau solution with the model's Jacobian."""
    model = robertson()
    system = ODESystem.from_model(model)
    constants = model.rate_constants()
    reference = solve_ivp(system.as_scipy_rhs(constants), (0.0, 1e4),
                          model.initial_state(), method="Radau",
                          t_eval=STIFF_GRID, rtol=1e-11, atol=1e-14,
                          jac=system.as_scipy_jacobian(constants))
    assert reference.success, reference.message
    return model, reference.y.T


@pytest.mark.parametrize("engine", ["batched", "dopri5", "radau5", "bdf",
                                    "lsoda", "vode"])
def test_nonstiff_accuracy(benchmark, nonstiff, engine):
    model, reference = nonstiff

    def run():
        result = simulate(model, (0.0, 4.0), NONSTIFF_GRID, None, engine,
                          OPTIONS)
        error = np.max(np.abs(result.y[0] - reference)
                       / (np.abs(reference) + 1e-10))
        state["errors"][("bateman", engine)] = error
        return error

    error = benchmark.pedantic(run, rounds=1, iterations=1)
    assert error < 1e-3


@pytest.mark.parametrize("engine", ["batched", "radau5", "bdf", "lsoda",
                                    "vode"])
def test_stiff_accuracy(benchmark, stiff, engine):
    model, reference = stiff

    def run():
        result = simulate(model, (0.0, 1e4), STIFF_GRID, None, engine,
                          OPTIONS)
        if not result.all_success:
            state["errors"][("robertson", engine)] = float("nan")
            return None
        error = np.max(np.abs(result.y[0] - reference)
                       / (np.abs(reference) + 1e-10))
        state["errors"][("robertson", engine)] = error
        return error

    error = benchmark.pedantic(run, rounds=1, iterations=1)
    if engine == "vode":
        # SciPy's VODE genuinely gives up on Robertson's 1e4 horizon
        # ("excess work"); the paper family likewise reports VODE as
        # the weakest stiff baseline. Record the failure, don't hide it.
        if error is None:
            return
    assert error is not None and error < 1e-2


def test_report(benchmark):
    def render():
        lines = ["max relative error vs an independent reference "
                 "(Bateman: closed form; Robertson: SciPy Radau, "
                 "rtol 1e-11):", ""]
        for (problem, engine), error in sorted(state["errors"].items()):
            lines.append(f"  {problem:10s} {engine:7s} {error:.3e}")
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    write_report("e7_accuracy", text)
    # A failed engine's NaN is written as null (strict JSON).
    write_bench_json("e7_accuracy", {
        "tolerances": {"rtol": OPTIONS.rtol, "atol": OPTIONS.atol},
        "max_relative_error": {
            problem: {engine: None if math.isnan(error) else float(error)
                      for (name, engine), error in state["errors"].items()
                      if name == problem}
            for problem in ("bateman", "robertson")},
    })
    # Parity assertion: the batched engine within 10x of LSODA's error,
    # and never above 1e-4.
    batched = state["errors"][("robertson", "batched")]
    lsoda = state["errors"][("robertson", "lsoda")]
    assert batched < min(10 * lsoda, 1e-4)

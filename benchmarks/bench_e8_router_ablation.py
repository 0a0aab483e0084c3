"""E8 — ablation of the stiffness router (method selection).

Regenerates the design-choice study DESIGN.md calls out: on a batch
mixing non-stiff and stiff simulations, the auto-router is compared
against forcing DOPRI5 or Radau IIA for everything. A secondary series
ablates the Radau Jacobian-reuse policy.

Expected shape: the router tracks the better pure method on each
problem class — it avoids both the explicit method's collapse on stiff
simulations and the implicit method's overhead on non-stiff ones. Every
``auto`` row starts on DOPRI5 and a row it stops unfinished continues
in Radau IIA from where it stopped, so on the stiff Robertson half
``auto`` factorizes fewer Newton matrices than forcing Radau IIA from
``t0``.

A third series runs ``auto`` on the stiff_cascade call shape, where
DOPRI5 carries every row part of the span before its stiffness test
fires: all 16 rows switch, and each call makes exactly one implicit
launch. The numbers also go to ``out/BENCH_e8_router_ablation.json``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.gpu import BatchRadau5, BatchSimulator, BatchedODEProblem
from repro.model import ODESystem, ParameterizationBatch, perturbed_batch
from repro.models import decay_chain, robertson
from repro.rules.library import multisite_cascade
from repro.solvers import SolverOptions

from common import write_bench_json, write_report

OPTIONS = SolverOptions(max_steps=100_000)
GRID = np.array([0.0, 1.0, 10.0, 100.0])
CASCADE_OPTIONS = SolverOptions(rtol=1e-6, atol=1e-12)
CASCADE_GRID = np.linspace(0.0, 1.0, 6)
CASCADE_ROUNDS = 5

state = {}


def mixed_workloads():
    """A non-stiff batch and a stiff batch of equal size."""
    nonstiff_model = decay_chain(3)
    stiff_model = robertson()
    rng = np.random.default_rng(0)
    nonstiff = perturbed_batch(nonstiff_model.nominal_parameterization(),
                               16, rng)
    stiff = perturbed_batch(stiff_model.nominal_parameterization(), 16,
                            rng)
    return (nonstiff_model, nonstiff), (stiff_model, stiff)


@pytest.mark.parametrize("method", ["auto", "dopri5", "radau5"])
def test_router_methods(benchmark, method):
    (nonstiff_model, nonstiff), (stiff_model, stiff) = mixed_workloads()
    # Forcing DOPRI5 onto Robertson would burn the full step budget; a
    # smaller cap keeps the ablation honest and bounded.
    options = OPTIONS if method != "dopri5" else \
        OPTIONS.replace(max_steps=20_000)

    def run():
        started = time.perf_counter()
        first = BatchSimulator(nonstiff_model, options,
                               method=method).simulate(
            (0.0, 100.0), GRID, nonstiff)
        stiff_simulator = BatchSimulator(stiff_model, options,
                                         method=method)
        second = stiff_simulator.simulate((0.0, 100.0), GRID, stiff)
        counters = stiff_simulator.last_report.metrics.counters
        state[method] = {
            "seconds": time.perf_counter() - started,
            "nonstiff_steps": int(first.n_steps.sum()),
            "stiff_steps": int(second.n_steps.sum()),
            "nonstiff_ok": bool(first.all_success),
            "stiff_ok": bool(second.all_success),
            "stiff_factorizations": counters.get("newton.factorizations",
                                                 0),
        }

    benchmark.pedantic(run, rounds=1, iterations=1)


def cascade_call():
    """The stiff_cascade call shape: 16 perturbed cascade rows, row 0 at
    half rates."""
    model = multisite_cascade(5, kinase_rate=1e3).expand()
    sampled = perturbed_batch(model.nominal_parameterization(), 16,
                              np.random.default_rng(1))
    constants = sampled.rate_constants
    constants[0] *= 0.5
    return model, ParameterizationBatch(constants, sampled.initial_states)


def test_cascade_switch(benchmark, monkeypatch):
    model, batch = cascade_call()
    simulator = BatchSimulator(model, CASCADE_OPTIONS)
    implicit_launches = []
    solve = BatchRadau5.solve

    def counting(self, *args, **kwargs):
        implicit_launches[-1] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(BatchRadau5, "solve", counting)

    def run():
        seconds, switched = [], []
        for _ in range(CASCADE_ROUNDS):
            implicit_launches.append(0)
            started = time.perf_counter()
            result = simulator.simulate((0.0, 1.0), CASCADE_GRID, batch)
            seconds.append(time.perf_counter() - started)
            switched.append(simulator.last_report.metrics.counters[
                "router.switched_rows"])
        state["cascade"] = {
            "rows": batch.size,
            "rounds": CASCADE_ROUNDS,
            "median_seconds": statistics.median(seconds),
            "radau5_launches_per_call": implicit_launches,
            "switched_rows_per_call": switched,
            "ok": bool(result.all_success),
        }

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("reuse", [True, False],
                         ids=["reuse-jac", "fresh-jac"])
def test_jacobian_reuse_ablation(benchmark, reuse):
    model = robertson()
    batch = perturbed_batch(model.nominal_parameterization(), 8,
                            np.random.default_rng(1))
    problem = BatchedODEProblem(ODESystem.from_model(model), batch)

    def run():
        started = time.perf_counter()
        BatchRadau5(OPTIONS, reuse_jacobian=reuse).solve(
            problem, (0.0, 100.0), GRID)
        state[f"jac-reuse-{reuse}"] = {
            "seconds": time.perf_counter() - started,
            "jacobian_evals":
                problem.counters.jacobian_simulation_evaluations,
        }

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_report(benchmark):
    def render():
        lines = ["router ablation on a mixed 16+16 workload "
                 "(non-stiff decay chain + stiff Robertson):", ""]
        for method in ("auto", "dopri5", "radau5"):
            data = state[method]
            lines.append(
                f"  {method:8s} time={data['seconds']:6.2f} s  "
                f"nonstiff steps={data['nonstiff_steps']:6d} "
                f"(ok={data['nonstiff_ok']})  "
                f"stiff steps={data['stiff_steps']:6d} "
                f"(ok={data['stiff_ok']}) "
                f"stiff factorizations={data['stiff_factorizations']:6d}")
        lines.append("")
        lines.append("Radau Jacobian-reuse ablation (8 stiff sims):")
        for reuse in (True, False):
            data = state[f"jac-reuse-{reuse}"]
            label = "reuse" if reuse else "fresh"
            lines.append(
                f"  {label:6s} time={data['seconds']:6.2f} s  "
                f"jacobian sim-evals={data['jacobian_evals']}")
        cascade = state["cascade"]
        lines.append("")
        lines.append(f"auto on the stiff_cascade call shape "
                     f"({cascade['rows']} rows, row 0 at half rates, "
                     f"{cascade['rounds']} calls):")
        lines.append(
            f"  median time={cascade['median_seconds']:6.2f} s  "
            f"radau5 launches per call="
            f"{cascade['radau5_launches_per_call']}  "
            f"switched rows per call="
            f"{cascade['switched_rows_per_call']}  "
            f"(ok={cascade['ok']})")
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    write_report("e8_router_ablation", text)
    write_bench_json("e8_router_ablation", {
        "mixed_16_16": {method: state[method]
                        for method in ("auto", "dopri5", "radau5")},
        "jacobian_reuse": {str(reuse): state[f"jac-reuse-{reuse}"]
                           for reuse in (True, False)},
        "stiff_cascade_auto": state["cascade"],
    })

    # Shape assertions.
    auto = state["auto"]
    assert auto["nonstiff_ok"] and auto["stiff_ok"]
    # Pure DOPRI5 fails (or at best crawls through) the stiff half.
    assert not state["dopri5"]["stiff_ok"] or \
        state["dopri5"]["stiff_steps"] > 5 * auto["stiff_steps"]
    # The router spends far fewer non-stiff steps than pure Radau spends
    # stiff-solving machinery on the easy half... compare step counts:
    assert auto["nonstiff_steps"] <= state["radau5"]["nonstiff_steps"] * 2
    # Jacobian reuse saves work.
    assert state["jac-reuse-True"]["jacobian_evals"] < \
        state["jac-reuse-False"]["jacobian_evals"]
    # Switched rows resume where DOPRI5 stopped them, so the stiff half
    # factorizes less than Radau IIA run from t0.
    assert auto["stiff_factorizations"] < \
        state["radau5"]["stiff_factorizations"]
    # Every cascade row switches, all in one Radau5 launch per call.
    assert set(state["cascade"]["radau5_launches_per_call"]) == {1}
    assert set(state["cascade"]["switched_rows_per_call"]) == {16}

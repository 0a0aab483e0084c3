"""Unified simulation front-end.

``simulate()`` is the one-call API of the library: it accepts a model,
a time window and (optionally) a batch of parameterizations, runs them
on the selected engine and returns a :class:`SimulationResult` with
species-name-aware accessors.

Engines
-------
``"batched"``
    The GPU-style :class:`~repro.gpu.engine.BatchSimulator`
    (fine + coarse grained, auto method routing) — the paper family's
    contribution.
``"lsoda"``, ``"vode"``
    Sequential CPU baselines: one SciPy/ODEPACK integration per
    simulation, exactly how the paper family benchmarks CPUs.
``"dopri5"``, ``"radau5"``, ``"bdf"``
    Sequential runs of the batched integrator of that name, one
    one-row launch per simulation (the fine-grained-only reference
    points). Rows do not depend on the launch width, so each row has
    the bytes of ``engine="batched", method=name``; a sequential run
    that switches between explicit and implicit integration is
    ``engine="batched", max_batch_per_launch=1``.
``"ssa"``, ``"tau-leaping"``
    Batched stochastic engines (exact Gillespie / tau-leaping) at a
    volume given by the ``volume`` engine kwarg; trajectories are
    returned in concentration units so all downstream analyses apply
    unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..gpu.batch_result import (BROKEN, EXHAUSTED, METHOD_BDF, METHOD_DOPRI5,
                                METHOD_LSODA, METHOD_RADAU5, METHOD_VODE, OK,
                                BatchSolveResult, allocate_result)
from ..gpu.batched_ode import BatchedODEProblem
from ..gpu.engine import INTEGRATORS, BatchSimulator, EngineReport
from ..resilience.quarantine import QuarantineLog
from ..model import (ODESystem, Parameterization, ParameterizationBatch,
                     ReactionBasedModel)
from ..solvers import ScipyLSODA, ScipyVODE
from ..solvers.base import (DEFAULT_OPTIONS, SUCCESS, SolverOptions,
                           validate_time_grid)
from ..telemetry import clock

SEQUENTIAL_ENGINES = ("lsoda", "vode", "dopri5", "radau5", "bdf")
STOCHASTIC_ENGINES = ("ssa", "tau-leaping")
ENGINES = ("batched",) + SEQUENTIAL_ENGINES + STOCHASTIC_ENGINES

_SEQUENTIAL_METHOD_CODES = {
    "lsoda": METHOD_LSODA, "vode": METHOD_VODE, "dopri5": METHOD_DOPRI5,
    "radau5": METHOD_RADAU5, "bdf": METHOD_BDF,
}


@dataclass
class SimulationResult:
    """Batch trajectories with model-aware accessors.

    ``engine_report`` is populated by the batched engine only; it
    carries routing decisions, the metrics registry (kernel and retry
    counts) and — when the engine ran with a retry policy — the
    quarantine log of rows that exhausted the retry ladder.
    """

    model: ReactionBasedModel
    raw: BatchSolveResult
    engine: str
    elapsed_seconds: float
    species_names: list[str] = field(default_factory=list)
    engine_report: EngineReport | None = None

    def __post_init__(self) -> None:
        if not self.species_names:
            self.species_names = self.model.species.names

    @property
    def t(self) -> np.ndarray:
        return self.raw.t

    @property
    def y(self) -> np.ndarray:
        """Trajectories, shape (B, T, N)."""
        return self.raw.y

    @property
    def batch_size(self) -> int:
        return self.raw.batch_size

    @property
    def all_success(self) -> bool:
        return self.raw.all_success

    def species_index(self, name: str) -> int:
        try:
            return self.species_names.index(name)
        except ValueError:
            raise AnalysisError(f"unknown species {name!r}") from None

    def species(self, name: str) -> np.ndarray:
        """One species' trajectories across the batch, shape (B, T)."""
        return self.raw.y[:, :, self.species_index(name)]

    def trajectory(self, index: int = 0) -> np.ndarray:
        """One simulation's full trajectory, shape (T, N)."""
        return self.raw.y[index]

    def final_states(self) -> np.ndarray:
        return self.raw.final_states()

    def statuses(self) -> list[str]:
        return self.raw.statuses()

    @property
    def quarantine(self) -> QuarantineLog:
        """Rows quarantined by the engine's retry ladder (may be empty)."""
        if self.engine_report is not None:
            return self.engine_report.quarantine
        return QuarantineLog()

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantine)


class SequentialSimulator:
    """CPU baseline: integrate the batch one simulation at a time.

    This is the execution model of the sequential comparisons in the
    paper family: LSODA/VODE loops for the CPU columns of the maps,
    and this package's batched integrators one row per launch for the
    fine-grained-only reference.
    """

    def __init__(self, model: ReactionBasedModel,
                 options: SolverOptions = DEFAULT_OPTIONS,
                 engine: str = "lsoda") -> None:
        if engine not in SEQUENTIAL_ENGINES:
            raise AnalysisError(f"unknown sequential engine {engine!r}; "
                                f"expected one of {SEQUENTIAL_ENGINES}")
        self.model = model
        self.system = ODESystem.from_model(model)
        self.options = options
        self.engine = engine

    def simulate(self, t_span: tuple[float, float],
                 t_eval: np.ndarray | None = None,
                 parameters: ParameterizationBatch | Parameterization |
                 None = None,
                 time_budget_seconds: float | None = None
                 ) -> BatchSolveResult:
        """Integrate the batch sequentially.

        ``time_budget_seconds`` stops the loop once exceeded, leaving
        remaining simulations BROKEN — this reproduces the paper
        family's "how many simulations fit in a time budget" runs.
        """
        batch = _normalize(self.model, parameters)
        t_eval = validate_time_grid(t_span, t_eval)
        result = allocate_result(t_eval, batch.size, self.model.n_species,
                                 _SEQUENTIAL_METHOD_CODES[self.engine])
        started = clock.monotonic()
        completed = 0
        for index in range(batch.size):
            if time_budget_seconds is not None and \
                    clock.monotonic() - started > time_budget_seconds:
                break
            row = np.array([index])
            result.merge_rows(
                self._solve_row(batch.subset(row), t_span, t_eval), row)
            completed += 1
        result.status_codes[completed:] = BROKEN
        result.elapsed_seconds = clock.monotonic() - started
        return result

    def _solve_row(self, row: ParameterizationBatch,
                   t_span: tuple[float, float],
                   t_eval: np.ndarray) -> BatchSolveResult:
        """One simulation as a one-row result."""
        if self.engine in INTEGRATORS:
            return INTEGRATORS[self.engine](self.options).solve(
                BatchedODEProblem(self.system, row), t_span, t_eval)
        baseline = ScipyLSODA if self.engine == "lsoda" else ScipyVODE
        constants = row.rate_constants[0]
        single = baseline(self.options).solve(
            self.system.as_scipy_rhs(constants), t_span,
            row.initial_states[0], t_eval,
            jac=self.system.as_scipy_jacobian(constants))
        result = allocate_result(t_eval, 1, self.model.n_species,
                                 _SEQUENTIAL_METHOD_CODES[self.engine])
        result.y[0, :single.y.shape[0]] = single.y
        result.status_codes[0] = OK if single.status == SUCCESS else BROKEN
        result.n_steps[0] = single.stats.n_steps
        result.n_accepted[0] = single.stats.n_accepted
        result.n_rejected[0] = single.stats.n_rejected
        return result


def simulate(model: ReactionBasedModel, t_span: tuple[float, float],
             t_eval: np.ndarray | None = None,
             parameters: ParameterizationBatch | Parameterization |
             None = None,
             engine: str = "batched",
             options: SolverOptions = DEFAULT_OPTIONS,
             **engine_kwargs) -> SimulationResult:
    """Simulate a model batch on the selected engine (see module docs)."""
    report = None
    if engine == "batched":
        simulator = BatchSimulator(model, options, **engine_kwargs)
        raw = simulator.simulate(t_span, t_eval, parameters)
        report = simulator.last_report
    elif engine in SEQUENTIAL_ENGINES:
        simulator = SequentialSimulator(model, options, engine)
        raw = simulator.simulate(t_span, t_eval, parameters, **engine_kwargs)
    elif engine in STOCHASTIC_ENGINES:
        raw = _simulate_stochastic(model, t_span, t_eval, parameters,
                                   engine, **engine_kwargs)
    else:
        raise AnalysisError(f"unknown engine {engine!r}; expected one "
                            f"of {ENGINES}")
    return SimulationResult(model, raw, engine, raw.elapsed_seconds,
                            engine_report=report)


def _simulate_stochastic(model, t_span, t_eval, parameters, engine,
                         volume: float = 1000.0, seed: int = 0,
                         n_replicates: int = 1,
                         max_events: int = 1_000_000) -> BatchSolveResult:
    """Run a stochastic engine and adapt its result to the facade
    schema (concentration units)."""
    from ..gpu.batch_result import METHOD_SSA, METHOD_TAU_LEAPING
    from ..stochastic import StochasticSimulator
    from ..stochastic.results import OK as STOCH_OK

    simulator = StochasticSimulator(model, volume=volume, method=engine,
                                    seed=seed, max_events=max_events)
    stochastic = simulator.simulate(t_span, t_eval, parameters,
                                    n_replicates=n_replicates)
    method_code = METHOD_SSA if engine == "ssa" else METHOD_TAU_LEAPING
    adapted = BatchSolveResult(
        t=stochastic.t,
        y=stochastic.concentrations(),
        status_codes=np.where(stochastic.status_codes == STOCH_OK, OK,
                              EXHAUSTED),
        method_codes=np.full(stochastic.batch_size, method_code,
                             dtype=np.int64),
        n_steps=stochastic.n_events + stochastic.n_leaps,
        n_accepted=stochastic.n_events + stochastic.n_leaps,
        n_rejected=np.zeros(stochastic.batch_size, dtype=np.int64),
    )
    adapted.elapsed_seconds = stochastic.elapsed_seconds
    return adapted


def _normalize(model: ReactionBasedModel, parameters) -> ParameterizationBatch:
    if parameters is None:
        parameters = model.nominal_parameterization()
    if isinstance(parameters, Parameterization):
        model.check_parameterization(parameters)
        parameters = ParameterizationBatch.from_parameterizations([parameters])
    if not isinstance(parameters, ParameterizationBatch):
        raise AnalysisError(
            "parameters must be a Parameterization, ParameterizationBatch "
            f"or None, got {type(parameters)!r}")
    return parameters

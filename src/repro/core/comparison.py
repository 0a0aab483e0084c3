"""Simulator comparison maps (best-engine-per-cell harness).

Reproduces the comparison-map experiments of the paper family: for a
grid of (model size) x (number of parallel simulations) cells, every
engine is timed on the same workload and the fastest one wins the cell.
Sequential CPU engines may be cut off by a time budget; their cost is
then linearly extrapolated from the completed fraction (the paper
reports the same "only n simulations finished in the budget" figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..gpu.engine import BatchSimulator
from ..model import ReactionBasedModel, perturbed_batch
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..telemetry import clock
from .simulate import SEQUENTIAL_ENGINES, SequentialSimulator

#: Engine identifiers the map understands. ``batched-*`` selects the
#: substrate evaluation policy of the batched engine.
MAP_ENGINES = ("lsoda", "vode", "batched-hybrid", "batched-coarse",
               "batched-fine")


@dataclass
class CellTiming:
    """All engine timings of one (model, batch size) cell."""

    model_label: str
    batch_size: int
    seconds: dict[str, float] = field(default_factory=dict)
    extrapolated: dict[str, bool] = field(default_factory=dict)

    @property
    def best_engine(self) -> str:
        return min(self.seconds, key=self.seconds.get)

    def speedup_over(self, baseline: str) -> dict[str, float]:
        """Speedup of every engine relative to a baseline engine."""
        if baseline not in self.seconds:
            raise AnalysisError(f"no timing recorded for {baseline!r}")
        reference = self.seconds[baseline]
        return {name: reference / value
                for name, value in self.seconds.items()}


@dataclass
class ComparisonMap:
    """Grid of best engines over model sizes x batch sizes."""

    model_labels: list[str]
    batch_sizes: list[int]
    cells: dict[tuple[str, int], CellTiming] = field(default_factory=dict)

    def best(self, model_label: str, batch_size: int) -> str:
        return self.cells[(model_label, batch_size)].best_engine

    def best_grid(self) -> list[list[str]]:
        """Rows = model sizes, columns = batch sizes."""
        return [[self.best(label, batch) for batch in self.batch_sizes]
                for label in self.model_labels]

    def render(self) -> str:
        """Plain-text map mirroring the paper's comparison figures."""
        width = max(len(engine) for cell in self.cells.values()
                    for engine in cell.seconds)
        width = max(width, 10)
        header = f"{'model':>16s} | " + " ".join(
            f"{batch:>{width}d}" for batch in self.batch_sizes)
        lines = [header, "-" * len(header)]
        for label in self.model_labels:
            row = " ".join(f"{self.best(label, batch):>{width}s}"
                           for batch in self.batch_sizes)
            lines.append(f"{label:>16s} | {row}")
        return "\n".join(lines)


def time_engine(model: ReactionBasedModel, engine: str, batch_size: int,
                t_span: tuple[float, float], t_eval: np.ndarray,
                options: SolverOptions = DEFAULT_OPTIONS, seed: int = 0,
                time_budget_seconds: float | None = None,
                spread: float = 0.25) -> tuple[float, bool]:
    """Wall-clock one engine on a perturbed batch of one model.

    Returns (seconds, extrapolated): when a sequential engine hits the
    time budget before finishing the batch, the cost of the full batch
    is extrapolated from the fraction it ran and flagged. A row that
    ran and failed counts as run.
    """
    rng = np.random.default_rng(seed)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            rng, spread)
    if engine.startswith("batched"):
        policy = engine.partition("-")[2] or "hybrid"
        simulator = BatchSimulator(model, options, policy=policy)
        started = clock.monotonic()
        simulator.simulate(t_span, t_eval, batch)
        return clock.monotonic() - started, False
    if engine not in SEQUENTIAL_ENGINES:
        raise AnalysisError(f"unknown map engine {engine!r}; expected "
                            f"one of {MAP_ENGINES + SEQUENTIAL_ENGINES}")
    simulator = SequentialSimulator(model, options, engine)
    started = clock.monotonic()
    result = simulator.simulate(t_span, t_eval, batch,
                                time_budget_seconds=time_budget_seconds)
    elapsed = clock.monotonic() - started
    completed = sum(s != "running" for s in result.statuses())
    if completed < batch_size:
        if completed == 0:
            return float("inf"), True
        return elapsed * batch_size / completed, True
    return elapsed, False


def run_comparison_map(models: list[tuple[str, ReactionBasedModel]],
                       batch_sizes: list[int],
                       t_span: tuple[float, float], t_eval: np.ndarray,
                       engines: tuple[str, ...] = MAP_ENGINES,
                       options: SolverOptions = DEFAULT_OPTIONS,
                       seed: int = 0,
                       time_budget_seconds: float | None = None
                       ) -> ComparisonMap:
    """Time every engine in every cell and record the winners."""
    comparison = ComparisonMap([label for label, _ in models],
                               list(batch_sizes))
    for label, model in models:
        for batch_size in batch_sizes:
            cell = CellTiming(label, batch_size)
            for engine in engines:
                seconds, extrapolated = time_engine(
                    model, engine, batch_size, t_span, t_eval, options,
                    seed, time_budget_seconds)
                cell.seconds[engine] = seconds
                cell.extrapolated[engine] = extrapolated
            comparison.cells[(label, batch_size)] = cell
    return comparison

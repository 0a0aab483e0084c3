"""Tests for the simulator comparison-map harness."""

import numpy as np
import pytest

from repro.core import (CellTiming, MAP_ENGINES, run_comparison_map,
                        time_engine)
from repro.errors import AnalysisError
from repro.models import decay_chain
from repro.solvers import SolverOptions
from repro.synth import generate_symmetric


class TestCellTiming:
    def test_best_engine(self):
        cell = CellTiming("m", 4, seconds={"a": 2.0, "b": 0.5, "c": 1.0})
        assert cell.best_engine == "b"

    def test_speedup_over_baseline(self):
        cell = CellTiming("m", 4, seconds={"lsoda": 2.0, "batched": 0.5})
        speedups = cell.speedup_over("lsoda")
        assert speedups["batched"] == pytest.approx(4.0)
        assert speedups["lsoda"] == pytest.approx(1.0)

    def test_missing_baseline_rejected(self):
        cell = CellTiming("m", 4, seconds={"a": 1.0})
        with pytest.raises(AnalysisError):
            cell.speedup_over("lsoda")


class TestTimeEngine:
    def test_batched_engine_timed(self):
        model = decay_chain(2)
        seconds, extrapolated = time_engine(
            model, "batched-hybrid", 8, (0, 1), np.array([0.0, 1.0]))
        assert seconds > 0
        assert not extrapolated

    def test_sequential_engine_timed(self):
        model = decay_chain(2)
        seconds, extrapolated = time_engine(
            model, "lsoda", 4, (0, 1), np.array([0.0, 1.0]))
        assert seconds > 0
        assert not extrapolated

    def test_failed_rows_count_as_run(self):
        """Rows that ran and failed are timed, not extrapolated."""
        model = decay_chain(2)
        seconds, extrapolated = time_engine(
            model, "lsoda", 4, (0, 1), np.array([0.0, 1.0]),
            options=SolverOptions(max_steps=1))
        assert np.isfinite(seconds) and seconds > 0
        assert not extrapolated

    def test_budget_extrapolation(self):
        model = generate_symmetric(16, seed=0)
        seconds, extrapolated = time_engine(
            model, "lsoda", 256, (0, 2), np.array([0.0, 2.0]),
            options=SolverOptions(max_steps=100_000),
            time_budget_seconds=0.05)
        assert extrapolated
        assert seconds > 0.05

    def test_unknown_engine_rejected(self):
        with pytest.raises(AnalysisError):
            time_engine(decay_chain(2), "abacus", 2, (0, 1),
                        np.array([0.0, 1.0]))


class TestComparisonMap:
    def test_map_structure_and_rendering(self):
        models = [("8x8", generate_symmetric(8, seed=1)),
                  ("16x16", generate_symmetric(16, seed=1))]
        comparison = run_comparison_map(
            models, [1, 8], (0, 0.5), np.array([0.0, 0.5]),
            engines=("lsoda", "batched-hybrid"),
            options=SolverOptions(max_steps=50_000))
        grid = comparison.best_grid()
        assert len(grid) == 2 and len(grid[0]) == 2
        for row in grid:
            for winner in row:
                assert winner in ("lsoda", "batched-hybrid")
        rendered = comparison.render()
        assert "8x8" in rendered and "16x16" in rendered

    def test_batched_wins_large_batches(self):
        """The paper's headline shape: at large batch sizes the batched
        engine beats the sequential CPU loop."""
        model = generate_symmetric(16, seed=2)
        comparison = run_comparison_map(
            [("16x16", model)], [64], (0, 1), np.array([0.0, 1.0]),
            engines=("lsoda", "batched-hybrid"),
            options=SolverOptions(max_steps=50_000))
        assert comparison.best("16x16", 64) == "batched-hybrid"

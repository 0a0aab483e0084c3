"""E1 — headline speedup of the batched engine vs batch size.

Regenerates the paper family's central claim: the batched GPU-style
engine amortizes its overhead over the batch, so its advantage over the
per-simulation CPU loop (SciPy LSODA) grows with the number of parallel
simulations. The report table lists, per batch size, the median batched
wall-clock, the median (budgeted, extrapolated) LSODA wall-clock, the
speedup, and the batched microseconds per row-step (the median wall
over the run's accepted plus rejected steps, summed over its rows; at
batch 1 this is the cost of one step).

Each batch size runs ``ROUNDS`` paired rounds: one batched run and one
LSODA run back to back, alternating which goes first, so a slow spell
on the host hits both sides of a pair. The speedup is the median of the
per-round ratios, reported with its interquartile range.

Expected shape: speedup < 1 (or ~1) for a single simulation, growing
monotonically with the batch size.
"""

import time

import numpy as np
import pytest

from repro.bench import format_table
from repro.core.comparison import time_engine
from repro.gpu import BatchSimulator
from repro.model import perturbed_batch
from repro.solvers import SolverOptions
from repro.synth import generate_symmetric

from common import write_bench_json, write_report

BATCH_SIZES = [1, 4, 16, 64, 256]
ROUNDS = 7
MODEL = generate_symmetric(32, seed=11)
T_SPAN = (0.0, 2.0)
T_EVAL = np.linspace(0.0, 2.0, 11)
OPTIONS = SolverOptions(max_steps=50_000)

#: Per batch size, one ``(batched_seconds, lsoda_seconds)`` per round.
rounds: dict[int, list[tuple[float, float]]] = {}
#: Per batch size, the batched run's row-steps (accepted + rejected).
row_steps: dict[int, int] = {}


def _batched(batch_size: int) -> float:
    """Wall seconds of the batched engine on the rows ``time_engine``
    draws for ``seed=0``; records the run's row-steps."""
    batch = perturbed_batch(MODEL.nominal_parameterization(), batch_size,
                            np.random.default_rng(0))
    simulator = BatchSimulator(MODEL, OPTIONS)
    started = time.perf_counter()
    simulator.simulate(T_SPAN, T_EVAL, batch)
    seconds = time.perf_counter() - started
    counters = simulator.last_report.metrics.counters
    row_steps[batch_size] = (counters["steps.accepted"]
                             + counters["steps.rejected"])
    return seconds


def _lsoda(batch_size: int) -> float:
    return time_engine(MODEL, "lsoda", batch_size, T_SPAN, T_EVAL,
                       OPTIONS, seed=0, time_budget_seconds=5.0)[0]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_paired_rounds(benchmark, batch_size):
    pairs = rounds.setdefault(batch_size, [])

    def run():
        if len(pairs) % 2 == 0:
            batched = _batched(batch_size)
            lsoda = _lsoda(batch_size)
        else:
            lsoda = _lsoda(batch_size)
            batched = _batched(batch_size)
        pairs.append((batched, lsoda))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


def _summary(batch_size: int) -> dict:
    batched, lsoda = np.array(rounds[batch_size]).T
    q1, median, q3 = np.percentile(lsoda / batched, [25, 50, 75])
    return {"batched_seconds": float(np.median(batched)),
            "lsoda_seconds": float(np.median(lsoda)),
            "speedup": float(median), "speedup_iqr": [float(q1), float(q3)],
            "batched_us_per_step":
                float(np.median(batched)) / row_steps[batch_size] * 1e6}


def test_report(benchmark):
    summaries = {b: _summary(b) for b in BATCH_SIZES if b in rounds}

    def render():
        rows = []
        for batch_size, summary in summaries.items():
            q1, q3 = summary["speedup_iqr"]
            rows.append((batch_size,
                         f"{summary['batched_seconds'] * 1e3:.1f} ms",
                         f"{summary['lsoda_seconds'] * 1e3:.1f} ms",
                         f"{summary['speedup']:.2f}x",
                         f"{q1:.2f}-{q3:.2f}x",
                         f"{summary['batched_us_per_step']:.1f} us"))
        return format_table(
            ["batch", "batched-hybrid", "lsoda loop", "speedup",
             "speedup IQR", "batched per row-step"], rows)

    table = benchmark.pedantic(render, rounds=1, iterations=1)
    write_report("e1_speedup_vs_batch", table)
    write_bench_json("e1_speedup_vs_batch", {
        "batch_sizes": BATCH_SIZES,
        "rounds": ROUNDS,
        "batched_seconds": {str(b): s["batched_seconds"]
                            for b, s in summaries.items()},
        "lsoda_seconds": {str(b): s["lsoda_seconds"]
                          for b, s in summaries.items()},
        "speedups": {str(b): s["speedup"] for b, s in summaries.items()},
        "speedup_iqr": {str(b): s["speedup_iqr"]
                        for b, s in summaries.items()},
        "row_steps": {str(b): row_steps[b] for b in summaries},
        "batched_us_per_step": {str(b): s["batched_us_per_step"]
                                for b, s in summaries.items()},
        "metrics": _traced_metrics(BATCH_SIZES[-2]),
    })
    # Shape assertion: the speedup at the largest batch exceeds the
    # single-simulation speedup.
    largest = summaries[BATCH_SIZES[-1]]["speedup"]
    smallest = summaries[1]["speedup"]
    assert largest > smallest


def _traced_metrics(batch_size: int) -> dict:
    """Kernel metrics of one instrumented headline run, embedded in the
    artifact so a speedup shift can be attributed (step counts vs
    per-step cost) without re-running under a profiler."""
    from repro.gpu import BatchSimulator
    from repro.model import perturbed_batch

    batch = perturbed_batch(MODEL.nominal_parameterization(), batch_size,
                            np.random.default_rng(0))
    simulator = BatchSimulator(MODEL, OPTIONS)
    simulator.simulate(T_SPAN, T_EVAL, batch)
    return simulator.last_report.metrics.to_dict()

"""Micro-benchmark: the retry layer must be free when nothing fails.

Runs the same all-success batch through the engine with and without a
retry policy and asserts the policy adds less than 5% wall-clock
overhead (the failed-row scan is the only extra work on the happy
path), gated on the median of paired per-round ratios like the guard,
telemetry and live-hub gates. Executed as a plain script by the CI
fault-injection job::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.gpu import BatchSimulator
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import default_retry_policy

from common import write_bench_json

BATCH_SIZE = 256
REPEATS = 7
MAX_OVERHEAD = 0.05
T_EVAL = np.linspace(0.0, 5.0, 21)


def one_run(simulator: BatchSimulator, batch) -> float:
    started = time.perf_counter()
    result = simulator.simulate((0.0, 5.0), T_EVAL, batch)
    elapsed = time.perf_counter() - started
    assert result.all_success, "benchmark batch must be all-success"
    return elapsed


def main() -> int:
    model = lotka_volterra()
    rng = np.random.default_rng(42)
    batch = perturbed_batch(model.nominal_parameterization(), BATCH_SIZE,
                            rng, spread=0.05)

    plain = BatchSimulator(model)
    retrying = BatchSimulator(model, retry_policy=default_retry_policy())
    one_run(plain, batch), one_run(retrying, batch)  # warm-up

    # Pair the measurements back-to-back, alternating which side runs
    # first, and take the median of the per-pair ratios: machine drift
    # (thermal, cache, scheduler) hits both sides of a pair alike and
    # cancels, and neither side always runs on the warmer cache.
    ratios, baselines, retryings = [], [], []
    for round_index in range(REPEATS):
        if round_index % 2 == 0:
            baseline = one_run(plain, batch)
            with_retry = one_run(retrying, batch)
        else:
            with_retry = one_run(retrying, batch)
            baseline = one_run(plain, batch)
        baselines.append(baseline)
        retryings.append(with_retry)
        ratios.append(with_retry / baseline)

    overhead = float(np.median(ratios)) - 1.0
    print(f"baseline      : {min(baselines) * 1e3:8.2f} ms (best)")
    print(f"with retry    : {min(retryings) * 1e3:8.2f} ms (best)")
    print(f"overhead      : {overhead * 100:+7.2f}%  "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    write_bench_json("resilience_overhead", {
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "max_overhead": MAX_OVERHEAD,
        "baseline_seconds": baselines,
        "retry_seconds": retryings,
        "ratios": ratios,
        "overhead": overhead,
    })
    if overhead > MAX_OVERHEAD:
        print("FAIL: retry layer is not free on the all-success path")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shard-executor throughput and overhead gate.

Runs the E1 workload (32-species symmetric synthetic RBM) as a chunked
campaign serially and through the supervised shard executor at
increasing worker counts, reporting chunk throughput per configuration
and persisting the numbers as a schema-versioned
``benchmarks/out/BENCH_executor.json`` artifact.

Two assertions gate the run (executed as a plain script by the CI
``executor-chaos`` job)::

    PYTHONPATH=src python benchmarks/bench_executor.py

* every sharded result is *byte-identical* to the serial reference;
* the overhead of ``workers=1`` vs serial stays within 5% — the
  supervision machinery (heartbeats, polling tick, queue transfer)
  must be cheap when nothing fails. The overhead is the median over
  rounds of each round's ratio of the ``workers=1`` time to the serial
  time, the two run back to back in alternating order, so drift of a
  shared machine between rounds cancels. The ratio of the two arms' unpaired medians is
  reported beside it (``workers_1_overhead_of_medians``) but not gated:
  on a shared 2-vCPU machine it swings more than the budget.

Both arms of the gate run with ``max_batch_per_launch=CHUNK_SIZE``, so
each runs one launch per chunk and the gate compares supervision cost,
not launch width. The serial loop's default, which coalesces all
chunks into one launch, is timed alongside as
``serial_coalesced_seconds`` and held to the same bytes, and so is
``workers=2`` at that default launch cap
(``sharded_coalesced_seconds``), where the executor runs the loop's
one coalesced launch group in a worker process. Both are reported
only; no gate is attached to them.

Higher worker counts are reported for shape only: on the in-process
NumPy substrate real speedup depends on BLAS thread contention, so no
gate is attached to them.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from repro.resilience import CampaignConfig, run_campaign
from repro.model import perturbed_batch
from repro.solvers import SolverOptions
from repro.synth import generate_symmetric

from common import write_bench_json

MODEL = generate_symmetric(32, seed=11)
T_SPAN = (0.0, 100.0)
T_EVAL = np.linspace(0.0, 100.0, 21)
OPTIONS = SolverOptions(max_steps=50_000)
BATCH_SIZE = 128
CHUNK_SIZE = 32
WORKER_COUNTS = [1, 2, 4]
REPEATS = 5
MAX_OVERHEAD = 0.05

#: Relaxed liveness knobs: a sparse heartbeat cadence (every wake of
#: the blocked supervisor preempts a worker on small machines) with a
#: generous timeout — the gate measures the supervision machinery's
#: happy-path cost, not fault-detection latency.
SUPERVISION = dict(heartbeat_interval=0.25, heartbeat_timeout=5.0,
                   restart_backoff=0.01, restart_backoff_cap=0.05)


def one_run(batch, workers: int, coalesce: bool = False):
    config = CampaignConfig(chunk_size=CHUNK_SIZE, workers=workers,
                            **(SUPERVISION if workers else {}))
    launch_cap = {} if coalesce else {"max_batch_per_launch": CHUNK_SIZE}
    started = time.perf_counter()
    outcome = run_campaign(MODEL, T_SPAN, T_EVAL, batch, config=config,
                           options=OPTIONS, **launch_cap)
    elapsed = time.perf_counter() - started
    assert not outcome.incomplete and not outcome.degraded
    return elapsed, outcome


def signature(outcome) -> bytes:
    result = outcome.result
    return (result.y.tobytes() + result.status_codes.tobytes()
            + result.method_codes.tobytes() + result.n_steps.tobytes())


def main() -> int:
    rng = np.random.default_rng(42)
    batch = perturbed_batch(MODEL.nominal_parameterization(), BATCH_SIZE,
                            rng, spread=0.05)
    n_chunks = -(-BATCH_SIZE // CHUNK_SIZE)

    # Warm-up: compile caches, fork machinery, BLAS init.
    _, reference = one_run(batch, 0)
    one_run(batch, 1)
    serial_signature = signature(reference)

    # Paired measurements: serial and each worker count interleaved in
    # every round. The gate's two arms, serial and workers=1, run back
    # to back, in alternating order (the second run of a pair tends to
    # be the slower one), and the gate takes the median of the
    # per-round ratios.
    serial_times: list[float] = []
    coalesced_times: list[float] = []
    sharded_coalesced_times: list[float] = []
    sharded_times: dict[int, list[float]] = {w: [] for w in WORKER_COUNTS}
    for round_index in range(REPEATS):
        gate_arms = [0, 1] if round_index % 2 == 0 else [1, 0]
        for workers in gate_arms + WORKER_COUNTS[1:]:
            elapsed, outcome = one_run(batch, workers)
            if workers == 0:
                serial_times.append(elapsed)
                continue
            sharded_times[workers].append(elapsed)
            assert signature(outcome) == serial_signature, \
                f"workers={workers} result is not byte-identical to serial"
        elapsed, outcome = one_run(batch, 0, coalesce=True)
        coalesced_times.append(elapsed)
        assert signature(outcome) == serial_signature, \
            "coalesced serial result is not byte-identical to serial"
        elapsed, outcome = one_run(batch, 2, coalesce=True)
        sharded_coalesced_times.append(elapsed)
        assert signature(outcome) == serial_signature, \
            "coalesced workers=2 result is not byte-identical to serial"

    serial_median = statistics.median(serial_times)
    coalesced_median = statistics.median(coalesced_times)
    sharded_coalesced_median = statistics.median(sharded_coalesced_times)
    medians = {w: statistics.median(sharded_times[w])
               for w in WORKER_COUNTS}
    throughput = {w: n_chunks / medians[w] for w in WORKER_COUNTS}

    print(f"serial      : {serial_median * 1e3:8.1f} ms  "
          f"({n_chunks / serial_median:6.1f} chunks/s)")
    print(f"coalesced   : {coalesced_median * 1e3:8.1f} ms  "
          f"({n_chunks / coalesced_median:6.1f} chunks/s)")
    print(f"coalesced 2w: {sharded_coalesced_median * 1e3:8.1f} ms  "
          f"({n_chunks / sharded_coalesced_median:6.1f} chunks/s)")
    for workers in WORKER_COUNTS:
        print(f"workers={workers:<4}: {medians[workers] * 1e3:8.1f} ms  "
              f"({throughput[workers]:6.1f} chunks/s)")
    overhead = statistics.median(
        sharded / serial
        for sharded, serial in zip(sharded_times[1], serial_times)) - 1.0
    overhead_of_medians = medians[1] / serial_median - 1.0
    print(f"workers=1 overhead: {overhead * 100:+6.2f}% paired  "
          f"(budget {MAX_OVERHEAD * 100:.0f}%), "
          f"{overhead_of_medians * 100:+6.2f}% of medians")

    write_bench_json("executor", {
        "workload": {"model": MODEL.name, "batch_size": BATCH_SIZE,
                     "chunk_size": CHUNK_SIZE, "n_chunks": n_chunks,
                     "t_span": list(T_SPAN), "n_save_points": len(T_EVAL)},
        "serial_seconds": serial_median,
        "serial_coalesced_seconds": coalesced_median,
        "sharded_coalesced_seconds": sharded_coalesced_median,
        "sharded_seconds": {str(w): medians[w] for w in WORKER_COUNTS},
        "chunks_per_second": {"serial": n_chunks / serial_median,
                              **{str(w): throughput[w]
                                 for w in WORKER_COUNTS}},
        "workers_1_overhead": overhead,
        "workers_1_overhead_of_medians": overhead_of_medians,
        "bit_identical": True,
    })

    if overhead > MAX_OVERHEAD:
        print("FAIL: single-worker sharding is not within budget of serial")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

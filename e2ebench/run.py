"""End-to-end benchmark of the batched engine against a frozen LSODA.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload single_sim --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all          # every workload, one table

Around every operation (one simulate call, or one round of service
jobs) the benchmark solves the same rows with its own frozen LSODA
reference (``reference.py``). Timed metrics are ratios to that
reference, which cancels the machine's speed drift, and the reference
doubles as the correctness oracle. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the public entry points of
each ``repro`` layer (``tracing.py``) and reports per-layer metrics,
writes every span and a self-time table under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP must be pinned before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Median seconds of one yardstick solve (the frozen reference on E1's
#: nominal row) on the machine the benchmark was calibrated on, a
#: 2-vCPU x86-64 VM. ``setup_s`` is set-up time in units of that
#: solve, timed next to it, times this constant: seconds on that
#: machine, with the drift of the machine at hand cancelled.
YARDSTICK_NOMINAL_S = 3.9e-3
#: Set-up samples per run (each a block of back-to-back set-ups).
SETUP_SAMPLES = 15
#: Operations whose counts are reported (deterministic per seed); all
#: are traced in a traced run. After them, blocks of ``period``
#: operations alternate untraced and traced, so that each traced
#: operation has an untraced twin of the same kind to compare with.
COUNTED_OPS = 4
#: Operations every run makes, however slow the machine. Peak memory is
#: read after them, so that it covers the same work in every run.
MIN_OPS = 8
#: Rows per operation the reference solves (every k-th row, the offset
#: rotating with the operation); their median seconds per row, scaled
#: to all rows, is the operation's reference time. Solving all 256 rows
#: of a wide call took ten times the call itself and left 20 calls per
#: run, too few for a steady p90. Half the rows are solved right before
#: the operation and half right after: on a shared VM the reference's
#: seconds per row moved 2x between consecutive operations.
REF_ROWS = 32


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    from workloads import workloads
    named = workloads()
    if args.workload not in named:
        print(f"e2ebench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(named)} or all", file=sys.stderr)
        return 2
    workload = named[args.workload]
    # One CPU for the whole process. With the interpreter lock the
    # service's two client threads never use more than one CPU anyway;
    # left free to migrate between CPUs, they made serve_jobs' ratios
    # move 11-25% between runs of one seed, pinned 1.5-4.5%.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print_environment(workload)
    summary = measure(workload, args.seed, args.seconds, bool(args.trace))
    print_table(workload.name, summary["table"])
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every table."""
    from workloads import workloads
    results = {}
    for name in workloads():
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        results[name] = json.loads(completed.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def print_environment(workload) -> None:
    import scipy
    print(f"# workload {workload.name}: {workload.why}")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else "all"
    print(f"# nproc={os.cpu_count()} pinned_cpus={cpus} blas_threads="
          f"{os.environ['OPENBLAS_NUM_THREADS']} python="
          f"{platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__}")


def print_table(name: str, table: list) -> None:
    print(f"# {name}: metric | value | unit | samples")
    for metric, value, unit, samples in table:
        print(f"{name:>14} {metric:<40} {value:>14.6g} {unit:<8} n={samples}")


# ----------------------------------------------------------------------
# measurement


def yardstick():
    """A timer of one fixed reference solve (E1's nominal row)."""
    from reference import MassActionReference
    from workloads import E1_T_EVAL, E1_T_SPAN, e1_model
    model = e1_model()
    reference = MassActionReference(model)
    nominal = model.nominal_parameterization()

    def timed() -> float:
        started = time.perf_counter()
        reference.solve_row(nominal.rate_constants, nominal.initial_state,
                            E1_T_SPAN, E1_T_EVAL)
        return time.perf_counter() - started

    timed()
    return timed


def measure_setup(workload, recorder):
    """Time ``SETUP_SAMPLES`` blocks of set-ups, each next to a
    yardstick solve; returns (ratios, raw seconds, a live state)."""
    time_yardstick = yardstick()
    ratios, raw = [], []
    state = None
    for sample in range(SETUP_SAMPLES):
        if recorder is not None:
            recorder.op = ("setup", sample)
            recorder.install()
        started = time.perf_counter()
        states = [workload.setup() for _ in range(workload.setup_block)]
        seconds = (time.perf_counter() - started) / workload.setup_block
        if recorder is not None:
            recorder.uninstall()
        for extra in states[1:] + ([state] if state is not None else []):
            workload.teardown(extra)
        state = states[0]
        raw.append(seconds)
        ratios.append(seconds / time_yardstick())
    return ratios, raw, state


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from reference import REL_BAND, MassActionReference, relative_errors
    from tracing import Recorder

    recorder = Recorder() if trace else None
    setup_ratios, setup_raw, state = measure_setup(workload, recorder)
    reference = MassActionReference(workload.model(state))
    rng = np.random.default_rng(seed)
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                    dir=scratch_root))
    workload.journal_root = scratch
    ops = []
    peak_rss_mb = None
    try:
        started = time.perf_counter()
        while len(ops) < MIN_OPS or \
                time.perf_counter() - started < seconds:
            index = len(ops)
            inputs = workload.inputs(state, rng)
            constants, states = workload.parameters(inputs)
            step = max(1, len(constants) // REF_ROWS)
            sample = np.arange(index % step, len(constants), step)
            halves = sample[::2], sample[1::2]
            before = reference.solve(constants[halves[0]],
                                     states[halves[0]], workload.t_span,
                                     workload.t_eval)
            traced = recorder is not None and (
                index < COUNTED_OPS
                or (index - COUNTED_OPS) // workload.period % 2 == 1)
            if traced:
                recorder.op = index
                recorder.install()
            try:
                outcome = workload.run(state, inputs)
            finally:
                if traced:
                    recorder.uninstall()
            after = reference.solve(constants[halves[1]], states[halves[1]],
                                    workload.t_span, workload.t_eval)
            sample = np.concatenate(halves)
            ref_y, ref_ok, ref_seconds = (np.concatenate(parts) for parts
                                          in zip(before, after))
            errors = relative_errors(outcome.y[sample], ref_y)
            good = outcome.ok.copy()
            good[sample] &= ref_ok & (errors < REL_BAND)
            outcome.y = None
            if len(ops) + 1 == MIN_OPS:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops.append({"outcome": outcome, "traced": traced,
                        "ref_seconds": ref_seconds, "sample": sample,
                        "ref_total": float(np.median(ref_seconds))
                        * len(constants),
                        "good": good, "errors": errors})
    finally:
        workload.teardown(state)
        shutil.rmtree(scratch, ignore_errors=True)
    summary = correctness(workload, ops)
    summary["peak_rss_mb"] = peak_rss_mb
    if trace:
        from layers import layer_metrics
        summary["metrics"], summary["table"] = layer_metrics(
            workload, recorder, ops, setup_raw, COUNTED_OPS,
            ROOT / ".bench_out")
    else:
        summary["metrics"], summary["table"] = end_to_end(
            ops, setup_ratios, setup_raw, summary)
    return summary


def correctness(workload, ops) -> dict:
    """Rows (jobs, for the service) attempted and failed."""
    attempted = failed = 0
    for op in ops:
        for rows, _wall in op["outcome"].units:
            good = op["good"][rows]
            if workload.counts_jobs:
                attempted += 1
                failed += int(not good.all())
            else:
                attempted += good.size
                failed += int((~good).sum())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed}


def unit_reference_seconds(op, rows: slice) -> float:
    """Reference seconds for a slice of an operation's rows."""
    inside = (op["sample"] >= rows.start) & (op["sample"] < rows.stop)
    return float(np.median(op["ref_seconds"][inside])) * (
        rows.stop - rows.start)


def end_to_end(ops, setup_ratios, setup_raw, summary):
    speedups = [op["ref_total"] / op["outcome"].wall for op in ops]
    latencies = [wall / unit_reference_seconds(op, rows)
                 for op in ops for rows, wall in op["outcome"].units]
    ok_frac = 1.0 - summary["failed"] / summary["attempted"]
    rows = [
        ("speedup_vs_lsoda", statistics.median(speedups), "x", len(ops)),
        ("latency_vs_lsoda_p50", float(np.percentile(latencies, 50)),
         "ratio", len(latencies)),
        ("latency_vs_lsoda_p90", float(np.percentile(latencies, 90)),
         "ratio", len(latencies)),
        ("setup_s", statistics.median(setup_ratios) * YARDSTICK_NOMINAL_S,
         "s", len(setup_ratios)),
        ("peak_rss_mb", summary["peak_rss_mb"], "MiB", MIN_OPS),
        ("ok_frac", ok_frac, "fraction", summary["attempted"]),
    ]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _n in rows}
    table = rows + [("setup_raw_s (diagnostic)",
                     statistics.median(setup_raw), "s", len(setup_raw))]
    return metrics, table


if __name__ == "__main__":
    sys.exit(main())

"""Micro-benchmark: the backend protocol indirection must be free.

The batched kernels call every array op through the ``xp`` namespace
(:mod:`repro.backend`) instead of importing numpy. On the numpy
substrate each ``xp.<op>`` attribute IS the numpy callable, so the
port may cost at most one extra attribute hop per call site. This
bench pairs the E1 workload (symmetric synthetic model, batched
dopri5) run through the shipped substrate against the same workload
with the gpu modules' ``xp`` swapped for a raw numpy namespace built
without :class:`~repro.backend.NumpyBackend`, and gates:

* the median paired wall-clock ratio at 2%, and
* *exact* result equality (``tobytes``) between the two runs — the
  indirection must add nothing numerically, not just nothing
  measurable.

Executed as a plain script by the CI deep-lint job::

    PYTHONPATH=src python benchmarks/bench_backend_overhead.py
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

import numpy as np

import repro.gpu
from repro.backend import REQUIRED_OPS, validate_backend, xp
from repro.gpu import BatchSimulator
from repro.model import perturbed_batch
from repro.synth import generate_symmetric

from common import write_bench_json

BATCH_SIZE = 256
REPEATS = 9
SIMS_PER_SAMPLE = 3
MAX_OVERHEAD = 0.02
T_SPAN = (0.0, 2.0)
T_EVAL = np.linspace(0.0, 2.0, 11)

#: Every gpu module that binds ``xp`` at import time.
XP_MODULES = tuple(
    info.name for info in pkgutil.iter_modules(repro.gpu.__path__)
    if hasattr(importlib.import_module(f"repro.gpu.{info.name}"), "xp"))


def raw_numpy_namespace():
    """A protocol-complete namespace assembled straight from numpy —
    the 'what the kernels did before the port' reference point."""

    class _Raw:
        name = "raw-numpy"

    raw = _Raw()
    for op in REQUIRED_OPS:
        if hasattr(np, op):
            setattr(raw, op, getattr(np, op))
    raw.inv = np.linalg.inv
    raw.batched_inv = np.linalg.inv
    raw.norm = np.linalg.norm
    raw.batched_matvec = (
        lambda matrices, vectors: np.einsum("bij,bj->bi",
                                            matrices, vectors))
    return validate_backend(raw)


def swap_backend(namespace) -> dict:
    """Point every gpu module at ``namespace``; returns the previous
    bindings for :func:`restore_backend`."""
    previous = {}
    for name in XP_MODULES:
        module = __import__(f"repro.gpu.{name}", fromlist=[name])
        previous[name] = module.xp
        module.xp = namespace
    return previous


def restore_backend(previous: dict) -> None:
    for name, namespace in previous.items():
        module = __import__(f"repro.gpu.{name}", fromlist=[name])
        module.xp = namespace


def one_run(simulator: BatchSimulator, batch):
    started = time.perf_counter()
    for _ in range(SIMS_PER_SAMPLE):
        result = simulator.simulate(T_SPAN, T_EVAL, batch)
    elapsed = time.perf_counter() - started
    return elapsed / SIMS_PER_SAMPLE, result


def main() -> int:
    model = generate_symmetric(32, seed=11)
    rng = np.random.default_rng(42)
    batch = perturbed_batch(model.nominal_parameterization(), BATCH_SIZE,
                            rng, spread=0.05)
    simulator = BatchSimulator(model, method="dopri5")
    raw = raw_numpy_namespace()

    one_run(simulator, batch)  # warm-up (allocators, caches)

    # Pair the measurements back-to-back and take the median of the
    # per-pair ratios: machine drift hits both sides of a pair alike
    # and cancels. The order inside each pair alternates so whichever
    # side runs second (warmer caches) doesn't get a systematic edge.
    ratios, raw_seconds, backend_seconds = [], [], []
    rows_identical = True
    for repeat in range(REPEATS):
        def timed_raw():
            previous = swap_backend(raw)
            try:
                return one_run(simulator, batch)
            finally:
                restore_backend(previous)

        if repeat % 2 == 0:
            baseline, raw_result = timed_raw()
            through_backend, backend_result = one_run(simulator, batch)
        else:
            through_backend, backend_result = one_run(simulator, batch)
            baseline, raw_result = timed_raw()
        raw_seconds.append(baseline)
        backend_seconds.append(through_backend)
        ratios.append(through_backend / baseline)
        rows_identical &= (
            raw_result.y.tobytes() == backend_result.y.tobytes()
            and raw_result.status_codes.tobytes()
            == backend_result.status_codes.tobytes()
            and raw_result.n_steps.tobytes()
            == backend_result.n_steps.tobytes())

    overhead = float(np.median(ratios)) - 1.0
    print(f"raw numpy     : {min(raw_seconds) * 1e3:8.2f} ms (best)")
    print(f"via backend   : {min(backend_seconds) * 1e3:8.2f} ms (best)")
    print(f"overhead      : {overhead * 100:+7.2f}%  "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    print(f"rows identical: {rows_identical}")
    write_bench_json("backend_overhead", {
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "sims_per_sample": SIMS_PER_SAMPLE,
        "max_overhead": MAX_OVERHEAD,
        "raw_seconds": raw_seconds,
        "backend_seconds": backend_seconds,
        "ratios": ratios,
        "overhead": overhead,
        "rows_identical": rows_identical,
        "backend": xp.name,
    })
    if not rows_identical:
        print("FAIL: backend indirection changed the E1 result rows")
        return 1
    if overhead > MAX_OVERHEAD:
        print("FAIL: backend indirection is not free on the hot path")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Budget check: the project analysis must stay fast enough for CI.

``repro lint --deep --shapes --conc`` (one pass: one project index,
every rule family over it) runs on every push (and the pre-commit
loop), so the full-package analysis has a hard wall-clock budget. The
dataflow engine memoizes per definition and caches per-function scopes
— and the concurrency model is built once per index and shared by its
nine rules — which keeps the pass near-linear in the source size; this
check pins that property so an accidentally exponential rule (an
interpreter recursion without the visiting-set guard, a per-use
re-walk of the def-use graph, an uncached call-graph closure) fails CI
instead of silently turning the lint gate into the slowest job.

Timing goes through the sanctioned wall-clock boundary
(:mod:`repro.telemetry.clock`), not raw ``time.*`` — the package's
own determinism lint (``DET005``) polices that boundary, and the
tooling follows the same rule it enforces. Executed as a plain script
by the CI deep-lint job::

    PYTHONPATH=src python benchmarks/bench_lint_runtime.py
"""

from __future__ import annotations

import sys

from repro.lint import lint_project
from repro.telemetry.clock import REAL_CLOCK

from common import write_bench_json

#: Full-package budget of the project analysis (every family), seconds.
#: Measured a few seconds on the CI class of machine; the headroom
#: absorbs slow runners without masking a complexity regression
#: (which shows up as 10-100x, not 2x).
BUDGET_SECONDS = 12.0
REPEATS = 3


def main() -> int:
    samples = []
    n_files = 0
    for _ in range(REPEATS):
        started = REAL_CLOCK.monotonic()
        report = lint_project()
        samples.append(REAL_CLOCK.monotonic() - started)
        n_files = len(report.metadata["files"])
        if report.at_or_above("warning"):
            print("FAIL: the package no longer lints clean")
            return 1
    best = min(samples)
    print(f"files analyzed: {n_files}")
    print(f"best of {REPEATS} : {best:6.2f} s "
          f"(budget {BUDGET_SECONDS:.0f} s)")
    write_bench_json("lint_runtime", {
        "budget_seconds": BUDGET_SECONDS,
        "repeats": REPEATS,
        "samples_seconds": samples,
        "best_seconds": best,
        "n_files": n_files,
    })
    if best > BUDGET_SECONDS:
        print("FAIL: the full-package project analysis exceeds its "
              "budget")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

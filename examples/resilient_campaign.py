"""Resilient campaigns: retry escalation, quarantine, crash resume.

A realistic large sweep never finishes cleanly: some parameter points
are unintegrable, the machine gets preempted, the time budget runs out.
This example walks the full degradation ladder on a PSA-2D map of the
Lotka-Volterra model using deterministic fault injection:

1. a persistent fault (NaN right-hand side for two rows) climbs the
   dopri5 -> radau5 -> bdf retry ladder and lands in the quarantine
   log, while the map renders the dead cells as '?';
2. a transient launch failure is recovered by the first retry rung —
   nothing is lost and nothing is quarantined;
3. a mid-campaign crash is resumed from the JSON checkpoint journal,
   reproducing the uninterrupted map bit-for-bit;
4. an injected deadline degrades the campaign to a partial result
   instead of raising.

Run:  python examples/resilient_campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (CampaignConfig, FaultPlan, ParameterRange, SweepTarget,
                   default_retry_policy, run_campaign, simulate)
from repro.core import endpoint_metric, run_psa_2d
from repro.errors import CampaignInterrupted
from repro.model import perturbed_batch
from repro.models import lotka_volterra

GRID = 6
T_SPAN = (0.0, 4.0)
T_EVAL = np.linspace(*T_SPAN, 17)


def quarantine_demo(model) -> None:
    print("== 1. persistent fault -> retry ladder -> quarantine ==")
    target_x = SweepTarget.rate_constant(model, 0, ParameterRange(0.5, 1.5))
    target_y = SweepTarget.initial_concentration(model, "Y2",
                                                 ParameterRange(2.0, 8.0))
    psa = run_psa_2d(model, target_x, target_y, GRID, GRID, T_SPAN, T_EVAL,
                     metric=endpoint_metric(model, "Y1"),
                     retry_policy=default_retry_policy(),
                     fault_plan=FaultPlan(nan_rows=(8, 27)))
    print(f"retry ladder: {default_retry_policy().describe()}")
    print(psa.quarantine.summary())
    print(psa.render_map())
    print()


def recovery_demo(model, batch) -> None:
    print("== 2. transient launch failure -> recovered by retry ==")
    result = simulate(model, T_SPAN, T_EVAL, batch,
                      retry_policy=default_retry_policy(),
                      fault_plan=FaultPlan(fail_launches=(0,)))
    counts = result.engine_report.metrics.counters
    print(f"retried {counts['retry.retried_rows']} row-attempts, recovered "
          f"{counts['retry.recovered_rows']}/{batch.size}; "
          f"all_success={result.all_success}, "
          f"quarantined={result.n_quarantined}")
    print()


def resume_demo(model, batch, journal: Path) -> None:
    print("== 3. mid-campaign crash -> resume from journal ==")
    config = CampaignConfig(chunk_size=8, checkpoint_path=journal)
    reference = run_campaign(model, T_SPAN, T_EVAL, batch,
                             config=CampaignConfig(chunk_size=8))
    try:
        run_campaign(model, T_SPAN, T_EVAL, batch, config=config,
                     fault_plan=FaultPlan(crash_after_launches=2))
    except CampaignInterrupted as error:
        print(f"crashed: {error} (journal: {error.checkpoint_path})")
    resumed = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
    identical = np.array_equal(resumed.result.y, reference.result.y,
                               equal_nan=True)
    print(f"resumed: {resumed.summary()}")
    print(f"bit-for-bit identical to the uninterrupted run: {identical}")
    print()


def deadline_demo(model, batch) -> None:
    print("== 4. deadline -> graceful partial result ==")
    partial = run_campaign(model, T_SPAN, T_EVAL, batch,
                           config=CampaignConfig(chunk_size=8),
                           fault_plan=FaultPlan(deadline_after_chunks=2))
    print(f"{partial.summary()}; "
          f"{int(partial.pending_mask.sum())} row(s) never started")


def main() -> None:
    model = lotka_volterra()
    rng = np.random.default_rng(1)
    batch = perturbed_batch(model.nominal_parameterization(), 32, rng)

    quarantine_demo(model)
    recovery_demo(model, batch)
    with tempfile.TemporaryDirectory() as tmp:
        resume_demo(model, batch, Path(tmp) / "campaign.json")
    deadline_demo(model, batch)


if __name__ == "__main__":
    main()

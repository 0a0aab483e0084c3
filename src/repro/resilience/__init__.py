"""Campaign resilience layer: retry escalation, failure quarantine,
checkpoint/resume and deterministic fault injection.

The large-ensemble workloads of the paper family (PSA maps, Sobol SA,
PE over millions of parameter points) only deliver their speedup if one
diverging simulation cannot poison a batch or force a whole campaign
re-run. This package provides the pieces the engine and the analyses
thread together:

* :class:`RetryPolicy` / :class:`RetryStage` — the solver escalation
  ladder applied to the failed-row subset of every launch.
* :class:`QuarantineLog` / :class:`FailureRecord` — structured records
  of rows that exhausted the ladder, surfaced on
  :class:`~repro.gpu.engine.EngineReport` and the analysis results.
* :func:`run_campaign` / :class:`CampaignConfig` — chunked campaign
  execution with a JSON journal
  (:class:`~repro.io.checkpoint.CampaignCheckpoint`) for crash
  resume and a wall-clock deadline that degrades to a partial result;
  :class:`CampaignPeer` campaigns share its engine launches.
* :class:`FaultPlan` — deterministic fault injection (NaN rows, forced
  launch failures, simulated crashes, deadlines and worker-process
  kills/hangs) proving every degradation path end-to-end.
* :func:`run_sharded` / :class:`WorkerFailure` — the supervised
  multiprocess shard executor behind ``CampaignConfig.workers``
  (:mod:`repro.resilience.executor`), which runs the campaign loop's
  own launch groups in worker processes, and the quarantine record it
  files for rows of poison chunks.

``campaign`` is imported lazily (PEP 562) because it sits *above*
:mod:`repro.core.simulate` in the layering while the leaf modules here
are imported *by* :mod:`repro.gpu.engine`.
"""

from __future__ import annotations

from .faults import FaultPlan
from .policy import (DEFAULT_RETRY_LADDER, RETRY_METHODS, RetryPolicy,
                     RetryStage, default_retry_policy)
from .quarantine import (FailureRecord, QuarantineLog, RetryAttempt,
                         WorkerFailure)

_CAMPAIGN_NAMES = ("CampaignConfig", "CampaignPeer", "CampaignResult",
                   "run_campaign", "campaign_fingerprint")
_EXECUTOR_NAMES = ("ShardSupervisor", "run_sharded")

__all__ = [
    "FaultPlan",
    "DEFAULT_RETRY_LADDER", "RETRY_METHODS", "RetryPolicy", "RetryStage",
    "default_retry_policy",
    "FailureRecord", "QuarantineLog", "RetryAttempt", "WorkerFailure",
    *_CAMPAIGN_NAMES,
    *_EXECUTOR_NAMES,
]


def __getattr__(name: str):
    if name in _CAMPAIGN_NAMES:
        from . import campaign
        return getattr(campaign, name)
    if name in _EXECUTOR_NAMES:
        from . import executor
        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

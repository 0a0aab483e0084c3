"""Multi-tenant campaign-service load generator and fairness gate.

Drives :class:`repro.service.CampaignService` with a storm of small
synthetic campaigns — 240 jobs across 4 symmetric tenants by default
(plus a misbehaving "flood" tenant whose quota rejects most of its
burst) — under injected scheduler faults (kills and hangs addressed by
admission index), client cancellations and queued-past-deadline jobs,
then audits the wreckage::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke]

Four assertions gate the run (the CI ``service-chaos`` job executes
``--smoke``, a 48-job variant of the same storm):

* **no job lost** — every admitted job sits in exactly one terminal
  state and ``admitted == completed + shed + cancelled + quarantined``
  (and ``submitted == admitted + rejected``);
* **fair shares** — Jain's fairness index over the symmetric tenants'
  weight-normalized granted rows stays >= 0.9;
* **every fault observed** — the injected kill/hang count is reflected
  in ``service.jobs.faults``;
* **launches shared** — jobs started together still share engine
  launches (``service.launches.shared`` > 0) through the kills, hangs,
  cancels and sheds.

The numbers land in ``benchmarks/out/BENCH_service.json``: per-state
counts, Jain index, p50/p99 queue-wait seconds, throughput, shared
launches and engine launches per completed job.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.errors import AdmissionError
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import FaultPlan
from repro.service import (CampaignService, JobRequest, JobState,
                           ServiceConfig, TenantQuota)

from common import write_bench_json

MODEL = lotka_volterra()
T_SPAN = (0.0, 2.0)
T_EVAL = np.linspace(0.0, 2.0, 5)
TENANTS = ("alpha", "bravo", "charlie", "delta")
ROWS_PER_JOB = 4
CHUNK_SIZE = 2
FLOOD_JOBS = 12
FLOOD_QUOTA = 4
DOOMED_JOBS = 8
CANCELLED_JOBS = 6
FAULT_STRIDE = 16          # every 16th admitted job is killed or hung
MIN_JAIN = 0.9


def jain(values) -> float:
    values = [float(v) for v in values]
    total = sum(values)
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares) if squares else 1.0


def build_config(n_jobs: int) -> ServiceConfig:
    return ServiceConfig(
        max_running_jobs=6,
        max_inflight_chunks=8,
        queue_capacity=n_jobs + DOOMED_JOBS + FLOOD_QUOTA + 8,
        default_quota=TenantQuota(max_queued=n_jobs,
                                  max_inflight_chunks=4),
        quotas={"flood": TenantQuota(max_queued=FLOOD_QUOTA)},
        max_job_attempts=2,
        attempt_timeout=0.5,
    )


def build_fault_plan(n_jobs: int) -> FaultPlan:
    return FaultPlan(
        sched_kill_jobs=tuple(range(5, n_jobs, FAULT_STRIDE)),
        sched_hang_jobs=tuple(range(11, n_jobs, FAULT_STRIDE)),
    )


def request(tenant: str, batch, priority: int, **kwargs) -> JobRequest:
    return JobRequest(model=MODEL, t_span=T_SPAN, t_eval=T_EVAL,
                      parameters=batch, chunk_size=CHUNK_SIZE,
                      tenant=tenant, priority=priority, **kwargs)


async def drive(n_jobs: int):
    """Submit the storm, cancel a few victims, drain, return the
    service plus the records of every submission."""
    config = build_config(n_jobs)
    plan = build_fault_plan(n_jobs)
    service = CampaignService(config=config, fault_plan=plan)
    rng = np.random.default_rng(2024)
    batch = perturbed_batch(MODEL.nominal_parameterization(),
                            ROWS_PER_JOB, rng, spread=0.05)
    await service.start()

    admitted = []
    rejections = 0
    # the main storm: symmetric tenants, rotating priorities
    for index in range(n_jobs):
        job = service.submit(request(TENANTS[index % len(TENANTS)],
                                     batch, priority=index % 3))
        admitted.append(job)
    # doomed stragglers: lowest priority, deadline far shorter than the
    # drain time of the queue ahead of them -> shed while queued
    for index in range(DOOMED_JOBS):
        admitted.append(service.submit(
            request(TENANTS[index % len(TENANTS)], batch, priority=-5,
                    deadline_seconds=0.05)))
    # the flood tenant bursts past its own quota
    for _ in range(FLOOD_JOBS):
        try:
            admitted.append(service.submit(
                request("flood", batch, priority=0)))
        except AdmissionError:
            rejections += 1
    # client cancels a deterministic spread of still-queued storm jobs
    # (stride 7 touches every tenant), picked off the fault grid so
    # every injected fault still fires
    faulted = set(plan.sched_kill_jobs) | set(plan.sched_hang_jobs)
    victims = [admitted[index] for index in range(3, n_jobs, 7)
               if index not in faulted]
    for job in victims[:CANCELLED_JOBS]:
        service.cancel(job.job_id)

    await service.drain()
    await service.stop()
    return service, admitted, rejections


def audit(service, admitted, rejections, n_jobs, elapsed):
    counters = service.metrics.counters
    failures = []

    states = {}
    for job in admitted:
        states[job.state] = states.get(job.state, 0) + 1
        if not job.terminal:
            failures.append(f"job {job.job_id} not terminal: {job.state}")
    terminal_sum = sum(
        counters.get(f"service.jobs.{state}", 0)
        for state in (JobState.COMPLETED, JobState.SHED,
                      JobState.CANCELLED, JobState.QUARANTINED))
    if counters.get("service.jobs.admitted", 0) != terminal_sum:
        failures.append(
            f"conservation broken: admitted "
            f"{counters.get('service.jobs.admitted')} != terminal "
            f"{terminal_sum}")
    if counters.get("service.jobs.submitted", 0) != \
            counters.get("service.jobs.admitted", 0) \
            + counters.get("service.jobs.rejected", 0):
        failures.append("submitted != admitted + rejected")
    if counters.get("service.jobs.rejected", 0) != rejections:
        failures.append("rejected counter disagrees with raised errors")

    plan = service.fault_plan
    injected = len(plan.sched_kill_jobs) + len(plan.sched_hang_jobs)
    if counters.get("service.jobs.faults", 0) < injected:
        failures.append(
            f"only {counters.get('service.jobs.faults', 0)} of "
            f"{injected} injected faults observed")

    stats = service.scheduler.stats()
    shares = [stats[tenant]["granted_rows"] / stats[tenant]["weight"]
              for tenant in TENANTS]
    fairness = jain(shares)
    if fairness < MIN_JAIN:
        failures.append(f"Jain index {fairness:.3f} < {MIN_JAIN}")

    shared = counters.get("service.launches.shared", 0)
    if not shared:
        failures.append("no engine launch was shared between jobs")
    launches = service.engine_metrics.counters.get("campaign.launches", 0)

    waits = sorted(job.wait_seconds for job in admitted
                   if job.wait_seconds is not None)
    p50, p99 = (float(np.percentile(waits, 50)),
                float(np.percentile(waits, 99))) if waits else (0.0, 0.0)
    completed = states.get(JobState.COMPLETED, 0)
    degraded = sum(1 for job in admitted if job.degraded)

    print(f"jobs: {n_jobs} main + {DOOMED_JOBS} doomed + {FLOOD_JOBS} "
          f"flood across {len(TENANTS)}+1 tenants")
    print(f"states: " + ", ".join(f"{state}={count}" for state, count
                                  in sorted(states.items()))
          + f", rejected={rejections}")
    print(f"faults injected/observed: {injected}/"
          f"{counters.get('service.jobs.faults', 0)}, "
          f"degraded jobs: {degraded}")
    print(f"tenant rows: " + ", ".join(
        f"{tenant}={stats[tenant]['granted_rows']}"
        for tenant in TENANTS))
    print(f"Jain fairness: {fairness:.4f}  (gate >= {MIN_JAIN})")
    print(f"queue wait: p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms")
    print(f"throughput: {completed / elapsed:.1f} completed jobs/s "
          f"({elapsed:.2f} s wall)")
    print(f"launches: {launches} ({shared} shared), "
          f"{launches / max(completed, 1):.2f} per completed job")

    payload = {
        "workload": {"model": MODEL.name, "n_jobs": n_jobs,
                     "doomed_jobs": DOOMED_JOBS,
                     "flood_jobs": FLOOD_JOBS,
                     "rows_per_job": ROWS_PER_JOB,
                     "chunk_size": CHUNK_SIZE,
                     "tenants": list(TENANTS)},
        "states": dict(sorted(states.items())),
        "rejected": rejections,
        "faults_injected": injected,
        "faults_observed": counters.get("service.jobs.faults", 0),
        "degraded_jobs": degraded,
        "jain_fairness": fairness,
        "tenant_granted_rows": {tenant: stats[tenant]["granted_rows"]
                                for tenant in TENANTS},
        "wait_seconds": {"p50": p50, "p99": p99},
        "elapsed_seconds": elapsed,
        "jobs_per_second": completed / elapsed,
        "shared_launches": shared,
        "launches_per_completed_job": launches / max(completed, 1),
        "conserved": not failures,
    }
    return failures, payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="48-job variant for CI")
    parser.add_argument("--jobs", type=int, default=None,
                        help="override the main-storm job count")
    args = parser.parse_args()
    n_jobs = args.jobs if args.jobs is not None \
        else (48 if args.smoke else 240)

    started = time.perf_counter()
    service, admitted, rejections = asyncio.run(drive(n_jobs))
    elapsed = time.perf_counter() - started

    failures, payload = audit(service, admitted, rejections, n_jobs,
                              elapsed)
    write_bench_json("service", payload)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

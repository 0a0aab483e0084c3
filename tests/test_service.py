"""Tests for the multi-tenant campaign service.

Covers the four pillars of :mod:`repro.service`: typed admission
control (quotas, queue bounds, working-set budgets, priority
shedding), deficit-fair chunk scheduling across tenants, the overload
degradation ladder, and job supervision (scheduler-fault injection,
attempt timeouts, cooperative cancellation, preemption) — plus the
JSON-line TCP server and the ``submit_campaign`` convenience wrapper.

The conservation law threaded through everything: every admitted job
ends in exactly one terminal state, and
``submitted == admitted + rejected``.
"""

import asyncio
import queue
import threading

import numpy as np
import pytest

from repro.errors import (QueueFull, QuotaExceeded, ServiceError,
                          WorkingSetExceeded)
from repro.gpu.perfmodel import memory_footprint_doubles
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import FaultPlan, run_campaign
from repro.resilience.campaign import CampaignConfig
from repro.service import (CampaignService, ChunkScheduler,
                           DegradationLadder, JobRequest, JobState,
                           ServiceConfig, TenantQuota, submit_campaign)
from repro.service.jobs import JobRecord
from repro.service.scheduler import (LADDER_NORMAL, LADDER_OVERLOADED,
                                     LADDER_SERIAL)
from repro.service.server import Client, serve_async
from repro.telemetry import read_trace_jsonl, validate_trace

T_EVAL = np.linspace(0.0, 2.0, 5)
T_SPAN = (0.0, 2.0)


@pytest.fixture(scope="module")
def lv_model():
    return lotka_volterra()


@pytest.fixture(scope="module")
def lv_batch(lv_model):
    rng = np.random.default_rng(11)
    return perturbed_batch(lv_model.nominal_parameterization(), 6, rng)


def request_for(lv_model, lv_batch, **kwargs):
    kwargs.setdefault("chunk_size", 3)
    return JobRequest(model=lv_model, t_span=T_SPAN, t_eval=T_EVAL,
                      parameters=lv_batch, **kwargs)


def jain(values):
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is worst."""
    values = [float(v) for v in values]
    total = sum(values)
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares) if squares else 1.0


def conservation(service):
    """Assert the service's job-accounting conservation law."""
    counters = service.metrics.counters
    submitted = counters.get("service.jobs.submitted", 0)
    admitted = counters.get("service.jobs.admitted", 0)
    rejected = counters.get("service.jobs.rejected", 0)
    assert submitted == admitted + rejected
    terminal = sum(counters.get(f"service.jobs.{state}", 0)
                   for state in (JobState.COMPLETED, JobState.SHED,
                                 JobState.CANCELLED, JobState.QUARANTINED))
    assert admitted == terminal
    for job in service._jobs.values():
        assert job.terminal


class TestConfigValidation:
    def test_quota_fields_validated(self):
        with pytest.raises(ServiceError, match="max_queued"):
            TenantQuota(max_queued=0)
        with pytest.raises(ServiceError, match="max_inflight_chunks"):
            TenantQuota(max_inflight_chunks=0)
        with pytest.raises(ServiceError, match="weight"):
            TenantQuota(weight=0.0)
        with pytest.raises(ServiceError, match="working_set_doubles"):
            TenantQuota(working_set_doubles=0)

    def test_service_fields_validated(self):
        with pytest.raises(ServiceError, match="max_running_jobs"):
            ServiceConfig(max_running_jobs=0)
        with pytest.raises(ServiceError, match="queue_capacity"):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ServiceError, match="serial_pressure"):
            ServiceConfig(overload_pressure=4, serial_pressure=4)
        with pytest.raises(ServiceError, match="TenantQuota"):
            ServiceConfig(quotas={"a": object()})

    def test_quota_lookup_falls_back_to_default(self):
        config = ServiceConfig(quotas={"a": TenantQuota(max_queued=1)})
        assert config.quota_for("a").max_queued == 1
        assert config.quota_for("b").max_queued \
            == config.default_quota.max_queued


class TestAdmission:
    """Admission decisions are synchronous: submitting between
    ``start()`` and the dispatcher's first tick exercises them in
    isolation, and ``stop(drain=False)`` sheds whatever was queued."""

    def run_admission(self, scenario, config):
        async def _run():
            service = CampaignService(config=config)
            await service.start()
            try:
                scenario(service)
            finally:
                await service.stop(drain=False)
            return service
        return asyncio.run(_run())

    def test_submit_before_start_raises(self, lv_model, lv_batch):
        service = CampaignService()
        with pytest.raises(ServiceError, match="not accepting"):
            service.submit(request_for(lv_model, lv_batch))

    def test_tenant_queue_quota(self, lv_model, lv_batch):
        config = ServiceConfig(
            default_quota=TenantQuota(max_queued=2))

        def scenario(service):
            service.submit(request_for(lv_model, lv_batch, tenant="a"))
            service.submit(request_for(lv_model, lv_batch, tenant="a"))
            with pytest.raises(QuotaExceeded, match="quota 2") as info:
                service.submit(request_for(lv_model, lv_batch,
                                           tenant="a"))
            assert info.value.tenant == "a"
            # another tenant still gets in
            service.submit(request_for(lv_model, lv_batch, tenant="b"))

        service = self.run_admission(scenario, config)
        rejected = [job for job in service._jobs.values()
                    if job.state == JobState.REJECTED]
        assert len(rejected) == 1
        assert rejected[0].reason == "QuotaExceeded"
        assert rejected[0].done.is_set()
        conservation(service)

    def test_working_set_budget(self, lv_model, lv_batch):
        config = ServiceConfig(
            default_quota=TenantQuota(working_set_doubles=10))

        def scenario(service):
            with pytest.raises(WorkingSetExceeded, match="budget 10"):
                service.submit(request_for(lv_model, lv_batch))

        service = self.run_admission(scenario, config)
        conservation(service)

    def test_working_set_budget_prices_every_inflight_chunk(self, lv_model,
                                                            lv_batch):
        # The estimate is the analytic footprint of one chunk times the
        # tenant's in-flight chunk cap: 2 chunks of `raw` fit a 3x
        # budget and do not fit a 1x one.
        raw = memory_footprint_doubles(3, lv_model.n_species,
                                       lv_model.n_reactions, len(T_EVAL))

        def budget(doubles):
            return ServiceConfig(default_quota=TenantQuota(
                max_inflight_chunks=2, working_set_doubles=doubles))

        def fits(service):
            job = service.submit(request_for(lv_model, lv_batch))
            assert job.state == JobState.QUEUED

        def does_not_fit(service):
            with pytest.raises(WorkingSetExceeded, match="2 chunk"):
                service.submit(request_for(lv_model, lv_batch))

        conservation(self.run_admission(fits, budget(3 * raw)))
        conservation(self.run_admission(does_not_fit, budget(raw)))

    def test_queue_full_same_priority_rejected(self, lv_model, lv_batch):
        config = ServiceConfig(queue_capacity=2)

        def scenario(service):
            service.submit(request_for(lv_model, lv_batch))
            service.submit(request_for(lv_model, lv_batch))
            with pytest.raises(QueueFull, match="capacity"):
                service.submit(request_for(lv_model, lv_batch))

        service = self.run_admission(scenario, config)
        conservation(service)

    def test_queue_full_sheds_lowest_priority(self, lv_model, lv_batch):
        config = ServiceConfig(queue_capacity=2)

        def scenario(service):
            service.submit(request_for(lv_model, lv_batch, priority=0))
            service.submit(request_for(lv_model, lv_batch, priority=5))
            strong = service.submit(
                request_for(lv_model, lv_batch, priority=3))
            assert strong.state == JobState.QUEUED
            # the newest priority-0 job was displaced, not the 5
            victim = service.get(0)
            assert victim.state == JobState.SHED
            assert victim.reason == "displaced"
            assert service.ladder.pressure >= 1

        service = self.run_admission(scenario, config)
        assert service.metrics.counters["service.jobs.shed"] >= 1
        conservation(service)

    def test_cancel_queued_job(self, lv_model, lv_batch):
        def scenario(service):
            job = service.submit(request_for(lv_model, lv_batch))
            cancelled = service.cancel(job.job_id)
            assert cancelled.state == JobState.CANCELLED
            assert cancelled.reason == "client-cancel"
            # cancelling a terminal job is a no-op
            assert service.cancel(job.job_id).state == JobState.CANCELLED
            with pytest.raises(ServiceError, match="unknown job id"):
                service.get(999)

        service = self.run_admission(scenario, ServiceConfig())
        conservation(service)


class TestChunkScheduler:
    def test_gate_requires_registration(self):
        scheduler = ChunkScheduler(2)
        with pytest.raises(ServiceError, match="not registered"):
            scheduler.gate("ghost")
        scheduler.register("a")
        gate = scheduler.gate("a")
        assert gate.try_acquire(4)
        gate.release(4)

    def test_capacity_and_lane_caps(self):
        scheduler = ChunkScheduler(2)
        scheduler.register("a", max_inflight_chunks=1)
        scheduler.register("b", max_inflight_chunks=2)
        assert scheduler.try_acquire("a", 1)
        assert not scheduler.try_acquire("a", 1)   # lane cap
        assert scheduler.try_acquire("b", 1)
        assert not scheduler.try_acquire("b", 1)   # global cap
        scheduler.release("a", 1)
        assert scheduler.try_acquire("b", 1)

    def test_try_acquire_never_jumps_better_deficit(self):
        scheduler = ChunkScheduler(1)
        scheduler.register("greedy")
        scheduler.register("starved")
        # greedy builds up consumption and holds the only grant
        assert scheduler.try_acquire("greedy", 100)
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(
                scheduler.acquire("starved", 1)))
        waiter.start()
        for _ in range(200):
            if scheduler._waiting:
                break
            threading.Event().wait(0.005)
        assert scheduler._waiting
        # full pool: nobody gets in
        assert not scheduler.try_acquire("greedy", 1)
        scheduler.release("greedy", 100)
        # the freed grant belongs to the starved waiter; greedy must
        # not steal it even if it asks first
        assert not scheduler.try_acquire("greedy", 1)
        waiter.join(timeout=5.0)
        assert results == [True]
        stats = scheduler.stats()
        assert stats["starved"]["granted_chunks"] == 1
        assert stats["greedy"]["granted_rows"] == 100

    def test_cancel_event_unblocks_acquire(self):
        scheduler = ChunkScheduler(1)
        scheduler.register("a")
        scheduler.register("b")
        assert scheduler.try_acquire("a", 1)
        cancel = threading.Event()
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(
                scheduler.acquire("b", 1, cancel)))
        waiter.start()
        cancel.set()
        waiter.join(timeout=5.0)
        assert results == [False]

    def test_stop_fails_acquires(self):
        scheduler = ChunkScheduler(1)
        scheduler.register("a")
        scheduler.stop()
        assert not scheduler.acquire("a", 1)
        assert not scheduler.try_acquire("a", 1)

    def test_weight_buys_throughput_accounting(self):
        scheduler = ChunkScheduler(4)
        scheduler.register("heavy", weight=2.0, max_inflight_chunks=4)
        scheduler.register("light", weight=1.0, max_inflight_chunks=4)
        assert scheduler.try_acquire("heavy", 10)
        assert scheduler.try_acquire("light", 10)
        lanes = scheduler._lanes
        assert lanes["heavy"].consumed == pytest.approx(5.0)
        assert lanes["light"].consumed == pytest.approx(10.0)


class TestDegradationLadder:
    def test_pressure_transitions(self):
        ladder = DegradationLadder(
            ServiceConfig(overload_pressure=2, serial_pressure=4))
        assert ladder.state == LADDER_NORMAL
        assert not ladder.degrades_results
        ladder.note_shed()
        ladder.note_job_fault()
        assert ladder.state == LADDER_OVERLOADED
        assert ladder.degrades_results
        ladder.note_pool_collapse()
        assert ladder.state == LADDER_SERIAL
        for _ in range(10):
            ladder.note_job_ok()
        assert ladder.pressure == 0
        assert ladder.state == LADDER_NORMAL

    def test_effective_limits(self):
        config = ServiceConfig(max_running_jobs=4, max_inflight_chunks=8,
                               overload_pressure=1, serial_pressure=3)
        ladder = DegradationLadder(config)
        assert ladder.effective_max_running() == 4
        assert ladder.effective_inflight_chunks() == 8
        assert ladder.effective_workers(2) == 2
        ladder.note_shed()
        assert ladder.effective_inflight_chunks() == 4
        assert ladder.effective_max_running() == 4
        ladder.note_pool_collapse()
        assert ladder.state == LADDER_SERIAL
        assert ladder.effective_max_running() == 1
        assert ladder.effective_inflight_chunks() == 1
        assert ladder.effective_workers(2) == 0


class TestServiceRuns:
    def test_single_job_matches_direct_campaign(self, lv_model,
                                                lv_batch):
        direct = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                              config=CampaignConfig(chunk_size=3))
        job = submit_campaign(lv_model, T_SPAN, t_eval=T_EVAL,
                              parameters=lv_batch, chunk_size=3)
        assert job.state == JobState.COMPLETED
        assert not job.degraded
        assert job.wait_seconds is not None
        assert job.result.result.y.tobytes() \
            == direct.result.y.tobytes()

    def test_multi_tenant_fairness_and_conservation(self, lv_model,
                                                    lv_batch):
        config = ServiceConfig(max_running_jobs=4, max_inflight_chunks=4)

        async def _run():
            service = CampaignService(config=config)
            await service.start()
            for round_index in range(3):
                for tenant in ("t0", "t1", "t2", "t3"):
                    service.submit(request_for(lv_model, lv_batch,
                                               tenant=tenant,
                                               chunk_size=2))
            await service.drain()
            await service.stop()
            return service

        service = asyncio.run(_run())
        conservation(service)
        states = {job.state for job in service._jobs.values()}
        assert states == {JobState.COMPLETED}
        stats = service.scheduler.stats()
        assert set(stats) == {"t0", "t1", "t2", "t3"}
        shares = [lane["granted_rows"] / lane["weight"]
                  for lane in stats.values()]
        assert jain(shares) >= 0.9
        counters = service.metrics.counters
        assert counters["service.jobs.admitted"] == 12
        assert counters["service.jobs.completed"] == 12
        assert "service.queue.wait_seconds" in service.metrics.histograms
        assert "service.queue.depth_samples" in service.metrics.histograms

    def test_trace_is_one_tree(self, lv_model, lv_batch, tmp_path):
        trace = tmp_path / "service.jsonl"

        async def _run():
            service = CampaignService(telemetry=trace)
            await service.start()
            for tenant in ("a", "b"):
                service.submit(request_for(lv_model, lv_batch,
                                           tenant=tenant))
            await service.drain()
            await service.stop()

        asyncio.run(_run())
        spans = read_trace_jsonl(trace)
        assert validate_trace(spans) == []
        by_category = {}
        for span in spans:
            by_category.setdefault(span.category, []).append(span)
        assert len(by_category["service"]) == 1
        service_span = by_category["service"][0]
        assert service_span.parent_id is None
        jobs = by_category["job"]
        assert sorted(span.name for span in jobs) == ["job-0", "job-1"]
        assert all(span.parent_id == service_span.span_id
                   for span in jobs)
        assert all(span.attrs["state"] == "completed" for span in jobs)
        job_ids = {span.span_id for span in jobs}
        assert all(span.parent_id in job_ids
                   for span in by_category["campaign"])

    def test_snapshot_shape(self, lv_model, lv_batch):
        async def _run():
            service = CampaignService()
            await service.start()
            service.submit(request_for(lv_model, lv_batch))
            await service.drain()
            snapshot = service.snapshot()
            await service.stop()
            return snapshot

        snapshot = asyncio.run(_run())
        assert snapshot["ladder"] == LADDER_NORMAL
        assert snapshot["queued"] == 0
        assert snapshot["states"] == {"completed": 1}
        assert "default" in snapshot["tenants"]
        assert "metrics" in snapshot


class TestSchedulerFaults:
    def test_injected_kill_retries_then_completes(self, lv_model,
                                                  lv_batch):
        plan = FaultPlan(sched_kill_jobs=(0,))
        job = submit_campaign(lv_model, T_SPAN, t_eval=T_EVAL,
                              parameters=lv_batch)

        async def _run():
            service = CampaignService(fault_plan=plan)
            await service.start()
            record = service.submit(request_for(lv_model, lv_batch))
            await service.wait(record.job_id, timeout=30.0)
            await service.stop()
            return service, record

        service, record = asyncio.run(_run())
        assert record.state == JobState.COMPLETED
        assert record.attempts == 2
        assert service.metrics.counters["service.jobs.faults"] >= 1
        assert record.result.result.y.tobytes() \
            == job.result.result.y.tobytes()
        conservation(service)

    def test_persistent_kill_quarantines(self, lv_model, lv_batch):
        plan = FaultPlan(sched_kill_jobs=(0,), sched_fault_attempts=100)

        async def _run():
            service = CampaignService(
                config=ServiceConfig(max_job_attempts=2), fault_plan=plan)
            await service.start()
            record = service.submit(request_for(lv_model, lv_batch))
            await service.wait(record.job_id, timeout=30.0)
            await service.stop()
            return service, record

        service, record = asyncio.run(_run())
        assert record.state == JobState.QUARANTINED
        assert record.reason == "injected-kill"
        assert record.attempts == 2
        assert service.metrics.counters["service.jobs.quarantined"] == 1
        conservation(service)

    def test_injected_hang_recovers(self, lv_model, lv_batch):
        plan = FaultPlan(sched_hang_jobs=(0,))

        async def _run():
            service = CampaignService(
                config=ServiceConfig(attempt_timeout=0.2),
                fault_plan=plan)
            await service.start()
            record = service.submit(request_for(lv_model, lv_batch))
            await service.wait(record.job_id, timeout=30.0)
            await service.stop()
            return service, record

        service, record = asyncio.run(_run())
        assert record.state == JobState.COMPLETED
        assert record.attempts == 2
        conservation(service)

    def test_sched_fault_fields_validated(self):
        from repro.errors import ResilienceError
        with pytest.raises(ResilienceError, match="sched_kill_jobs"):
            FaultPlan(sched_kill_jobs=(-1,))
        with pytest.raises(ResilienceError, match="sched_fault_attempts"):
            FaultPlan(sched_fault_attempts=0)

    def test_for_chunk_strips_sched_faults(self):
        plan = FaultPlan(sched_kill_jobs=(0,), sched_hang_jobs=(1,))
        local = plan.for_chunk(0, 0, 3)
        assert local.sched_kill_jobs == ()
        assert local.sched_hang_jobs == ()

    def test_sched_accessors_honor_attempt_budget(self):
        plan = FaultPlan(sched_kill_jobs=(2,), sched_hang_jobs=(3,),
                         sched_fault_attempts=2)
        assert plan.kills_job(2, 1) and plan.kills_job(2, 2)
        assert not plan.kills_job(2, 3)
        assert not plan.kills_job(1, 1)
        assert plan.hangs_job(3, 1)
        assert not plan.hangs_job(3, 3)


class TestCancellationAndDeadlines:
    def test_cancel_running_job(self, lv_model, lv_batch):
        # The job hangs (injected) for up to attempt_timeout; the
        # cancel arrives while it is running and must win.
        plan = FaultPlan(sched_hang_jobs=(0,))

        async def _run():
            service = CampaignService(
                config=ServiceConfig(attempt_timeout=30.0),
                fault_plan=plan)
            await service.start()
            record = service.submit(request_for(lv_model, lv_batch))
            while record.state != JobState.RUNNING:
                await asyncio.sleep(0.005)
            service.cancel(record.job_id)
            await service.wait(record.job_id, timeout=30.0)
            await service.stop()
            return service, record

        service, record = asyncio.run(_run())
        assert record.state == JobState.CANCELLED
        assert record.reason == "client-cancel"
        conservation(service)

    def test_queued_job_past_deadline_is_shed(self, lv_model, lv_batch):
        # Job 0 hangs and occupies the single slot; job 1's deadline
        # expires while it is still queued.
        plan = FaultPlan(sched_hang_jobs=(0,))

        async def _run():
            service = CampaignService(
                config=ServiceConfig(max_running_jobs=1,
                                     attempt_timeout=0.5),
                fault_plan=plan)
            await service.start()
            service.submit(request_for(lv_model, lv_batch))
            doomed = service.submit(
                request_for(lv_model, lv_batch, deadline_seconds=0.05))
            await service.wait(doomed.job_id, timeout=30.0)
            state, reason = doomed.state, doomed.reason
            await service.drain()
            await service.stop()
            return service, state, reason

        service, state, reason = asyncio.run(_run())
        assert state == JobState.SHED
        assert reason == "deadline"
        assert service.metrics.counters["service.jobs.shed"] == 1
        conservation(service)

    def test_attempt_timeout_quarantines_slow_job(self, lv_model):
        rng = np.random.default_rng(3)
        batch = perturbed_batch(lv_model.nominal_parameterization(), 60,
                                rng)

        async def _run():
            service = CampaignService(
                config=ServiceConfig(attempt_timeout=0.01,
                                     max_job_attempts=2))
            await service.start()
            record = service.submit(
                request_for(lv_model, batch, chunk_size=1))
            await service.wait(record.job_id, timeout=60.0)
            await service.stop()
            return service, record

        service, record = asyncio.run(_run())
        assert record.state == JobState.QUARANTINED
        assert record.reason == "attempt-timeout"
        assert record.attempts == 2
        conservation(service)

    def test_ladder_preempts_and_requeues(self, lv_model, lv_batch):
        # Both jobs hang on their first attempt; once both are running
        # further job faults push the ladder to SERIAL, so the
        # dispatcher preempts the weaker job back to the queue.
        # Everything still completes.
        plan = FaultPlan(sched_hang_jobs=(0, 1))
        config = ServiceConfig(max_running_jobs=2, attempt_timeout=0.3,
                               overload_pressure=3, serial_pressure=6)

        async def _run():
            service = CampaignService(config=config, fault_plan=plan)
            await service.start()
            first = service.submit(request_for(lv_model, lv_batch))
            second = service.submit(request_for(lv_model, lv_batch))
            while not (first.state == JobState.RUNNING
                       and second.state == JobState.RUNNING):
                await asyncio.sleep(0.005)
            while service.ladder.state != LADDER_SERIAL:
                service.ladder.note_job_fault()
            await service.drain()
            await service.stop()
            return service, first, second

        service, first, second = asyncio.run(_run())
        assert first.state == JobState.COMPLETED
        assert second.state == JobState.COMPLETED
        assert service.metrics.counters.get("service.jobs.preempted",
                                            0) >= 1
        # jobs that ran under a degraded ladder are flagged
        assert second.degraded
        conservation(service)

    def test_stop_without_drain_sheds_and_cancels(self, lv_model,
                                                  lv_batch):
        plan = FaultPlan(sched_hang_jobs=(0,))

        async def _run():
            service = CampaignService(
                config=ServiceConfig(max_running_jobs=1,
                                     attempt_timeout=30.0),
                fault_plan=plan)
            await service.start()
            running = service.submit(request_for(lv_model, lv_batch))
            queued = service.submit(request_for(lv_model, lv_batch))
            while running.state != JobState.RUNNING:
                await asyncio.sleep(0.005)
            await service.stop(drain=False)
            return service, running, queued

        service, running, queued = asyncio.run(_run())
        assert queued.state == JobState.SHED
        assert queued.reason == "shutdown"
        assert running.state == JobState.CANCELLED
        conservation(service)


class TestWakeUps:
    def test_service_never_sleeps_on_a_tick(self, lv_model, lv_batch,
                                            monkeypatch):
        # Every waiter wakes on a change the service announces or on
        # its own deadline; a fixed-tick sleep anywhere fails the test.
        def no_tick(*args, **kwargs):
            pytest.fail("the service slept on a fixed tick")
        monkeypatch.setattr(asyncio, "sleep", no_tick)
        plan = FaultPlan(sched_hang_jobs=(1,))

        async def _run():
            service = CampaignService(
                config=ServiceConfig(max_running_jobs=1,
                                     attempt_timeout=0.5),
                fault_plan=plan)
            await service.start()
            first = service.submit(request_for(lv_model, lv_batch))
            await service.wait(first.job_id, timeout=30.0)
            # Job 1 hangs in the only slot; job 2's deadline expires
            # while it is still queued behind it.
            hanging = service.submit(request_for(lv_model, lv_batch))
            doomed = service.submit(
                request_for(lv_model, lv_batch, deadline_seconds=0.05))
            await service.drain()
            await service.stop()
            return service, first, hanging, doomed

        service, first, hanging, doomed = asyncio.run(_run())
        assert first.state == JobState.COMPLETED
        assert hanging.state == JobState.COMPLETED
        assert (doomed.state, doomed.reason) == (JobState.SHED,
                                                 "deadline")
        # The dispatcher woke at the deadline, not when the slot freed.
        assert doomed.finished_at < hanging.finished_at
        conservation(service)


def run_jobs(requests, config=None, fault_plan=None, during=None):
    """Submit every request to a fresh service at once (so one
    dispatcher pass starts them), run ``during(service, jobs)``, drain
    and stop."""
    async def _run():
        service = CampaignService(config=config, fault_plan=fault_plan)
        await service.start()
        jobs = [service.submit(request) for request in requests]
        if during is not None:
            await during(service, jobs)
        await service.drain()
        await service.stop()
        return service, jobs

    return asyncio.run(_run())


def batch_of(model, size, seed):
    return perturbed_batch(model.nominal_parameterization(), size,
                           np.random.default_rng(seed))


def alone(model, batch, chunk_size):
    return run_campaign(model, T_SPAN, T_EVAL, batch,
                        config=CampaignConfig(chunk_size=chunk_size))


def same_rows(job, reference) -> bool:
    ours, theirs = job.result.result, reference.result
    return all(getattr(ours, name).tobytes() == getattr(theirs, name)
               .tobytes() for name in ("y", "status_codes", "method_codes",
                                       "n_steps", "n_accepted",
                                       "n_rejected"))


async def until_running(service, jobs):
    while not all(job.state == JobState.RUNNING for job in jobs):
        await asyncio.sleep(0.005)


class TestLaunchGroups:
    """Jobs one dispatcher pass starts share engine launches when the
    merge key matches; each keeps the bytes it gets alone."""

    def test_two_compatible_jobs_share_one_launch(self, lv_model):
        batches = [batch_of(lv_model, 6, seed) for seed in (1, 2)]
        service, jobs = run_jobs([
            JobRequest(model=lv_model, t_span=T_SPAN, t_eval=T_EVAL,
                       parameters=batch, chunk_size=3, tenant=tenant)
            for batch, tenant in zip(batches, ("a", "b"))])
        assert [job.state for job in jobs] == [JobState.COMPLETED] * 2
        assert service.metrics.counters["service.launches.shared"] == 1
        assert service.engine_metrics.counters["campaign.launches"] == 1
        for job, batch in zip(jobs, batches):
            assert same_rows(job, alone(lv_model, batch, 3))
        conservation(service)

    def test_member_counters_sum_to_the_one_launch(self, lv_model):
        from repro.gpu.engine import BatchSimulator
        from repro.model import ParameterizationBatch
        batches = [batch_of(lv_model, 4, seed) for seed in (1, 2)]
        service, jobs = run_jobs([request_for(lv_model, batch,
                                              chunk_size=2)
                                  for batch in batches])
        summed = {}
        for job in jobs:
            for name, value in job.result.metrics.counters.items():
                if not name.startswith("campaign."):
                    summed[name] = summed.get(name, 0) + value
        simulator = BatchSimulator(lv_model)
        simulator.simulate(T_SPAN, T_EVAL, ParameterizationBatch(
            np.concatenate([batch.rate_constants for batch in batches]),
            np.concatenate([batch.initial_states for batch in batches])))
        assert summed == simulator.last_report.metrics.counters
        assert {name: value for name, value
                in service.engine_metrics.counters.items()
                if not name.startswith("campaign.")} == summed

    @pytest.mark.parametrize("kind", [
        "deadline", "request-fault-plan", "workers", "sched-kill",
        "sched-hang", "retry", "other-model", "other-grid", "options",
        "retry-policy", "engine", "too-wide"])
    def test_ineligible_job_runs_alone(self, lv_model, lv_batch, kind):
        from repro.models import lotka_volterra as another
        from repro.resilience import default_retry_policy
        from repro.solvers import SolverOptions
        changes = {
            "deadline": {"deadline_seconds": 60.0},
            "request-fault-plan": {"fault_plan": FaultPlan()},
            "workers": {"workers": 1},
            "other-model": {"model": another()},
            "other-grid": {"t_eval": T_EVAL[:-1]},
            "options": {"options": SolverOptions(rtol=1e-7)},
            "retry-policy": {"retry_policy": default_retry_policy()},
            "engine": {"engine": "lsoda"},
            "too-wide": {"parameters": batch_of(lv_model, 510, 3)},
        }
        plan = {"sched-kill": FaultPlan(sched_kill_jobs=(1,)),
                "sched-hang": FaultPlan(sched_hang_jobs=(1,))}.get(kind)
        service = CampaignService(fault_plan=plan)
        jobs = []
        for number in range(3):
            request = request_for(lv_model, lv_batch)
            if number == 1:
                for name, value in changes.get(kind, {}).items():
                    setattr(request, name, value)
            job = JobRecord(number, request, admission_index=number)
            if number == 1 and kind == "retry":
                job.attempts = 1
            jobs.append(job)
        groups = service._launch_groups(jobs)
        assert [job for job, _ in groups] == jobs
        first, second, third = (group for _, group in groups)
        assert second is None
        assert first is third and first is not None

    def test_equal_request_fields_share_a_group(self, lv_model,
                                                lv_batch):
        # Equal values, not the same objects: the grid as a list, a
        # second options instance, another tenant and chunking.
        from repro.solvers import SolverOptions
        service = CampaignService()
        requests = [request_for(lv_model, lv_batch,
                                options=SolverOptions()),
                    request_for(lv_model, batch_of(lv_model, 5, 4),
                                options=SolverOptions(), chunk_size=2,
                                tenant="other")]
        requests[1].t_eval = list(T_EVAL)
        jobs = [JobRecord(number, request, admission_index=number)
                for number, request in enumerate(requests)]
        (_, first), (_, second) = service._launch_groups(jobs)
        assert first is second and first is not None

    def test_deadline_job_runs_alone_end_to_end(self, lv_model, lv_batch):
        service, jobs = run_jobs([
            request_for(lv_model, lv_batch),
            request_for(lv_model, lv_batch, deadline_seconds=60.0)])
        assert [job.state for job in jobs] == [JobState.COMPLETED] * 2
        assert "service.launches.shared" not in service.metrics.counters
        # One launch for the first job, one per chunk under a deadline.
        assert service.engine_metrics.counters["campaign.launches"] == 3

    @pytest.mark.parametrize("victim", [0, 1])
    def test_cancelled_member_leaves_the_other_running(self, lv_model,
                                                       victim):
        # One grant at a time: the leader's chunks run one launch each
        # and the peer's wait, so the cancel lands between launches.
        batches = [batch_of(lv_model, 40, 1), batch_of(lv_model, 3, 2)]

        async def cancel_one(service, jobs):
            await until_running(service, jobs)
            service.cancel(jobs[victim].job_id)

        service, jobs = run_jobs(
            [request_for(lv_model, batch, chunk_size=1, tenant=tenant)
             for batch, tenant in zip(batches, ("a", "b"))],
            config=ServiceConfig(max_inflight_chunks=1),
            during=cancel_one)
        survivor = 1 - victim
        assert jobs[victim].state == JobState.CANCELLED
        assert jobs[survivor].state == JobState.COMPLETED
        # The cancelled job's result reached it when it dropped out,
        # not when the group's thread ended.
        assert jobs[victim].finished_at < jobs[survivor].finished_at
        assert same_rows(jobs[survivor],
                         alone(lv_model, batches[survivor], 1))
        conservation(service)

    def test_preempted_member_requeues_alone(self, lv_model):
        batches = [batch_of(lv_model, 40, 1), batch_of(lv_model, 3, 2)]
        config = ServiceConfig(max_inflight_chunks=1, overload_pressure=3,
                               serial_pressure=6)

        async def go_serial(service, jobs):
            await until_running(service, jobs)
            while service.ladder.state != LADDER_SERIAL:
                service.ladder.note_job_fault()

        service, jobs = run_jobs(
            [request_for(lv_model, batch, chunk_size=1, tenant=tenant)
             for batch, tenant in zip(batches, ("a", "b"))],
            config=config, during=go_serial)
        assert service.metrics.counters["service.jobs.preempted"] == 1
        for job, batch in zip(jobs, batches):
            assert job.state == JobState.COMPLETED
            assert same_rows(job, alone(lv_model, batch, 1))
        # The newer job was preempted and ran its second attempt alone.
        assert jobs[1].attempts == 2
        conservation(service)

    def test_timed_out_member_retries_alone(self, lv_model):
        # The small leader finishes in the first launch; the wide
        # follower is still running when its attempt times out.
        batches = [batch_of(lv_model, 1, 1), batch_of(lv_model, 400, 2)]
        service, jobs = run_jobs(
            [request_for(lv_model, batch, chunk_size=1, tenant=tenant)
             for batch, tenant in zip(batches, ("a", "b"))],
            config=ServiceConfig(attempt_timeout=0.15, max_job_attempts=2))
        small, wide = jobs
        assert small.state == JobState.COMPLETED
        assert same_rows(small, alone(lv_model, batches[0], 1))
        assert wide.attempts == 2
        if wide.state == JobState.COMPLETED:
            assert same_rows(wide, alone(lv_model, batches[1], 1))
        else:
            assert (wide.state, wide.reason) == (JobState.QUARANTINED,
                                                 "attempt-timeout")
        conservation(service)

    def test_failed_shared_launch_retries_each_member_alone(
            self, lv_model, monkeypatch):
        from repro.errors import SolverError
        from repro.resilience import campaign
        original = campaign._run_chunk

        def shared_launches_fail(spec, parts, tracer=None, parent=None):
            if len(parts) > 1:
                raise SolverError("shared launch exploded")
            return original(spec, parts, tracer, parent)

        monkeypatch.setattr(campaign, "_run_chunk", shared_launches_fail)
        batches = [batch_of(lv_model, 4, seed) for seed in (1, 2)]
        service, jobs = run_jobs([request_for(lv_model, batch)
                                  for batch in batches])
        assert service.metrics.counters["service.jobs.faults"] == 2
        for job, batch in zip(jobs, batches):
            assert job.state == JobState.COMPLETED
            assert job.attempts == 2
            assert same_rows(job, alone(lv_model, batch, 3))
        assert "service.launches.shared" not in service.metrics.counters
        conservation(service)


class TestServer:
    @pytest.fixture()
    def model_folder(self, lv_model, tmp_path):
        from repro.io import write_model
        folder = tmp_path / "lv"
        write_model(lv_model, folder)
        return folder

    def test_round_trip(self, model_folder):
        ports = queue.Queue()
        thread = threading.Thread(
            target=lambda: asyncio.run(serve_async(
                port=0, ready=lambda bound: ports.put(bound[1]))),
            daemon=True)
        thread.start()
        port = ports.get(timeout=30.0)
        with Client(port=port) as client:
            job_id = client.submit(str(model_folder),
                                   t_span=[0.0, 2.0],
                                   t_eval=list(T_EVAL),
                                   chunk_size=3, tenant="acme")
            job = client.wait(job_id, timeout=60.0)
            assert job["state"] == "completed"
            assert job["tenant"] == "acme"
            assert "complete" in job["result"]
            status = client.status(job_id)
            assert status["state"] == "completed"
            stats = client.stats()
            assert stats["states"] == {"completed": 1}
            assert "acme" in stats["tenants"]
            with pytest.raises(ServiceError, match="unknown job id"):
                client.status(999)
            with pytest.raises(ServiceError, match="BadRequest"):
                client.call({"op": "status"})  # missing job_id
            with pytest.raises(ServiceError, match="unknown operation"):
                client.call({"op": "frobnicate"})
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    @pytest.fixture()
    def server_port(self):
        ports = queue.Queue()
        thread = threading.Thread(
            target=lambda: asyncio.run(serve_async(
                port=0, ready=lambda bound: ports.put(bound[1]))),
            daemon=True)
        thread.start()
        port = ports.get(timeout=30.0)
        yield port
        with Client(port=port) as client:
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    @staticmethod
    def _exchange(sock, line: bytes) -> dict:
        import json
        sock.sendall(line)
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection without a reply"
            reply += chunk
        return json.loads(reply)

    def _assert_bad_request_in_step(self, port, line, reason):
        """``line`` gets a typed BadRequest and the next request on the
        same connection is read in step."""
        import socket
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30.0) as sock:
            for _ in range(2):
                reply = self._exchange(sock, line)
                assert reply["ok"] is False
                assert reply["kind"] == "BadRequest"
                assert reason in reply["error"]
                assert self._exchange(sock, b'{"op": "stats"}\n')["ok"]

    def test_oversize_line_is_a_bad_request(self, server_port):
        from repro.service.server import MAX_LINE_BYTES
        line = (b'{"op": "stats", "pad": "'
                + b"x" * (4 * MAX_LINE_BYTES) + b'"}\n')
        self._assert_bad_request_in_step(server_port, line, "longer than")

    @pytest.mark.parametrize("line", [b"[1]\n", b'"stats"\n', b"null\n"])
    def test_non_object_line_is_a_bad_request(self, server_port, line):
        self._assert_bad_request_in_step(server_port, line, "JSON object")

    @pytest.mark.parametrize("engine", ["autoswitch", "magic"])
    def test_unknown_engine_is_a_bad_request(self, server_port, engine,
                                             tmp_path):
        """The engine is checked before the (missing) model is loaded,
        and the rejected line is never counted as a submission."""
        import json
        line = json.dumps({"op": "submit", "engine": engine,
                           "model": str(tmp_path / "missing")}).encode()
        self._assert_bad_request_in_step(server_port, line + b"\n",
                                         "unknown engine")
        with Client(port=server_port) as client:
            stats = client.stats()
        assert stats["states"] == {}
        assert "service.jobs.submitted" not in stats["metrics"]["counters"]

    @pytest.mark.parametrize("field, value", [("chunk_size", 0),
                                              ("chunk_size", -1),
                                              ("workers", -1)])
    def test_unrunnable_chunking_is_a_bad_request(self, server_port,
                                                  model_folder, field,
                                                  value):
        """A chunking or worker count the campaign cannot run is
        refused at the boundary: never admitted, never counted as a
        submission, and no supervisor crash."""
        import json
        line = json.dumps({"op": "submit", "model": str(model_folder),
                           "t_span": [0.0, 2.0], field: value}).encode()
        self._assert_bad_request_in_step(server_port, line + b"\n", field)
        with Client(port=server_port) as client:
            stats = client.stats()
        assert stats["states"] == {}
        counters = stats["metrics"]["counters"]
        assert "service.jobs.submitted" not in counters
        assert "service.supervisor.crashes" not in counters

    def test_worker_count_is_bounded_by_the_cpus(self, lv_model):
        """Checked without a server: an accepted count would fork one
        process per worker."""
        import os

        from repro.service.server import _request_from_payload

        class Models:
            def __init__(self):
                self.loaded = []

            def model(self, path):
                self.loaded.append(path)
                return lv_model

        cpus = os.cpu_count() or 1
        state = Models()
        with pytest.raises(ValueError, match="workers"):
            _request_from_payload(state, {"model": "lv",
                                          "workers": cpus + 1})
        assert state.loaded == []
        request = _request_from_payload(state, {"model": "lv",
                                                "workers": cpus})
        assert request.workers == cpus

    def test_shutdown_ends_idle_connections_on_eof(self, caplog):
        """Another client's open connection is closed before the server
        returns, so ``asyncio.run`` never cancels its handler mid-read
        (which logs a ``CancelledError`` traceback from the stream
        protocol's callback)."""
        ports = queue.Queue()
        thread = threading.Thread(
            target=lambda: asyncio.run(serve_async(
                port=0, ready=lambda bound: ports.put(bound[1]))),
            daemon=True)
        with caplog.at_level("ERROR", logger="asyncio"):
            thread.start()
            port = ports.get(timeout=30.0)
            with Client(port=port) as idle:
                idle.stats()
                with Client(port=port) as closer:
                    closer.shutdown()
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

    def test_admission_errors_cross_the_wire(self, model_folder):
        ports = queue.Queue()
        config = ServiceConfig(
            default_quota=TenantQuota(working_set_doubles=10))
        thread = threading.Thread(
            target=lambda: asyncio.run(serve_async(
                port=0, config=config,
                ready=lambda bound: ports.put(bound[1]))),
            daemon=True)
        thread.start()
        port = ports.get(timeout=30.0)
        with Client(port=port) as client:
            with pytest.raises(ServiceError,
                               match="WorkingSetExceeded"):
                client.submit(str(model_folder), t_span=[0.0, 2.0])
            client.shutdown()
        thread.join(timeout=30.0)

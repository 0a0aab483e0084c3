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
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import FaultPlan, run_campaign
from repro.resilience.campaign import CampaignConfig
from repro.service import (CampaignService, ChunkScheduler,
                           DegradationLadder, JobRequest, JobState,
                           ServiceConfig, TenantQuota, submit_campaign)
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
        # the ladder is forced to SERIAL, so the dispatcher preempts
        # the weaker job back to the queue. Everything still completes.
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
            service.ladder.pressure = config.serial_pressure
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

"""Chaos suite for the supervised shard executor.

Every test drives :func:`repro.resilience.run_campaign` with
``CampaignConfig.workers > 0`` under FaultPlan-injected worker kills,
hangs, slowness, crashes, and pool collapse, and holds the executor to
its core contract: the merged result is *byte-identical* to the serial
in-process run, no matter what the supervision ladder had to do to get
there.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.errors import CampaignInterrupted, ResilienceError
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import (CampaignConfig, FaultPlan, WorkerFailure,
                              run_campaign)
from repro.solvers import SolverOptions
from repro.telemetry import read_trace_jsonl, validate_trace

T_EVAL = np.linspace(0.0, 2.0, 5)
T_SPAN = (0.0, 2.0)

#: Fast supervision knobs shared by the chaos runs: tight heartbeats,
#: near-immediate restarts, but timeouts generous enough for slow CI.
FAST = dict(chunk_size=3, heartbeat_interval=0.02, heartbeat_timeout=1.0,
            restart_backoff=0.01, restart_backoff_cap=0.05)


@pytest.fixture(scope="module")
def lv_model():
    return lotka_volterra()


@pytest.fixture(scope="module")
def lv_batch(lv_model):
    rng = np.random.default_rng(11)
    return perturbed_batch(lv_model.nominal_parameterization(), 10, rng)


@pytest.fixture(scope="module")
def serial(lv_model, lv_batch):
    """The serial in-process reference every chaos run must reproduce."""
    return run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                        config=CampaignConfig(chunk_size=3))


def assert_bit_identical(outcome, serial):
    reference = serial.result
    result = outcome.result
    assert result.y.tobytes() == reference.y.tobytes()
    assert result.status_codes.tobytes() == reference.status_codes.tobytes()
    assert result.method_codes.tobytes() == reference.method_codes.tobytes()
    assert result.n_steps.tobytes() == reference.n_steps.tobytes()


class TestShardedCleanPath:
    def test_bit_identical_to_serial(self, lv_model, lv_batch, serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **FAST))
        assert not outcome.incomplete
        assert not outcome.degraded
        assert outcome.completed_chunks == 4
        assert_bit_identical(outcome, serial)
        assert outcome.metrics.counters["campaign.chunks.executed"] == 4
        assert outcome.metrics.gauges["campaign.executor.workers"] == 2

    def test_single_worker_identical(self, lv_model, lv_batch, serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=1, **FAST))
        assert_bit_identical(outcome, serial)

    def test_worker_spans_in_trace(self, lv_model, lv_batch, tmp_path):
        trace = tmp_path / "trace.jsonl"
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                     config=CampaignConfig(workers=2, **FAST),
                     telemetry=trace)
        spans = read_trace_jsonl(trace)
        assert validate_trace(spans) == []
        by_category = {}
        for span in spans:
            by_category.setdefault(span.category, []).append(span)
        assert len(by_category["campaign"]) == 1
        assert {s.name for s in by_category["worker"]} \
            == {"worker-0", "worker-1"}
        assert {s.name for s in by_category["chunk"]} \
            == {f"chunk-{i}" for i in range(4)}
        # every chunk span hangs off a worker lane, lanes off the root
        lane_ids = {s.span_id for s in by_category["worker"]}
        assert all(s.parent_id in lane_ids for s in by_category["chunk"])


class TestChaosBitIdentity:
    def test_worker_kill_recovers(self, lv_model, lv_batch, serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **FAST),
            fault_plan=FaultPlan(worker_kill_chunks=(1,)))
        assert not outcome.incomplete
        assert_bit_identical(outcome, serial)
        counters = outcome.metrics.counters
        assert counters["campaign.executor.worker_deaths"] >= 1
        assert counters["campaign.executor.reassignments"] >= 1

    def test_worker_hang_recovers(self, lv_model, lv_batch, serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **{**FAST,
                                                "heartbeat_timeout": 0.3}),
            fault_plan=FaultPlan(worker_hang_chunks=(2,)))
        assert not outcome.incomplete
        assert_bit_identical(outcome, serial)
        counters = outcome.metrics.counters
        assert counters["campaign.executor.hangs"] >= 1
        assert counters["campaign.executor.reassignments"] >= 1

    def test_slow_worker_counted_not_failed(self, lv_model, lv_batch,
                                            serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, slow_chunk_seconds=0.05,
                                  **FAST),
            fault_plan=FaultPlan(worker_slow_chunks=(0,),
                                 worker_slow_seconds=0.2))
        assert not outcome.incomplete
        assert_bit_identical(outcome, serial)
        counters = outcome.metrics.counters
        assert counters["campaign.executor.slow_chunks"] >= 1
        assert "campaign.executor.reassignments" not in counters

    def test_chunk_timeout_reassigns(self, lv_model, lv_batch, serial):
        # First attempt of chunk 3 sleeps past the per-chunk timeout;
        # the supervisor terminates it and the clean retry succeeds.
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, chunk_timeout=0.3, **FAST),
            fault_plan=FaultPlan(worker_slow_chunks=(3,),
                                 worker_slow_seconds=5.0))
        assert not outcome.incomplete
        assert_bit_identical(outcome, serial)
        assert outcome.metrics.counters[
            "campaign.executor.chunk_timeouts"] >= 1

    def test_combined_faults(self, lv_model, lv_batch, serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **{**FAST,
                                                "heartbeat_timeout": 0.3}),
            fault_plan=FaultPlan(worker_kill_chunks=(0,),
                                 worker_hang_chunks=(2,)))
        assert not outcome.incomplete
        assert_bit_identical(outcome, serial)


class TestPoisonChunks:
    def test_poison_chunk_split_then_quarantined(self, lv_model, lv_batch,
                                                 serial):
        # Chunk 0 kills its worker on *every* attempt: the ladder must
        # split it down to single rows, quarantine those, and leave the
        # other nine rows byte-identical to the serial run.
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, max_chunk_attempts=2,
                                  max_worker_restarts=50, **FAST),
            fault_plan=FaultPlan(worker_kill_chunks=(0,),
                                 worker_fault_attempts=1000))
        assert not outcome.incomplete
        assert outcome.quarantine.rows().tolist() == [0, 1, 2]
        assert all(isinstance(record, WorkerFailure)
                   for record in outcome.quarantine)
        assert all(record.final_status == "worker-killed"
                   for record in outcome.quarantine)
        counters = outcome.metrics.counters
        assert counters["campaign.executor.splits"] >= 2
        assert counters["campaign.executor.quarantined_rows"] == 3
        healthy = np.delete(np.arange(10), outcome.quarantine.rows())
        assert outcome.result.y[healthy].tobytes() \
            == serial.result.y[healthy].tobytes()

    def test_worker_failure_journal_round_trip(self, lv_model, lv_batch,
                                               tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(workers=2, max_chunk_attempts=1,
                                max_worker_restarts=50,
                                checkpoint_path=journal, **FAST)
        plan = FaultPlan(worker_kill_chunks=(1,),
                         worker_fault_attempts=1000)
        first = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                             config=config, fault_plan=plan)
        assert first.quarantine.rows().tolist() == [3, 4, 5]
        # Resume re-reads the journaled quarantine: the records must
        # still be WorkerFailure objects, not plain FailureRecords.
        resumed = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                               config=config)
        assert resumed.resumed_chunks == 4
        assert resumed.quarantine.rows().tolist() == [3, 4, 5]
        assert all(isinstance(record, WorkerFailure)
                   for record in resumed.quarantine)
        assert resumed.result.y.tobytes() == first.result.y.tobytes()


class TestCrashResume:
    def test_supervisor_crash_resumes_exactly_once(self, lv_model,
                                                   lv_batch, serial,
                                                   tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(workers=2, checkpoint_path=journal, **FAST)
        with pytest.raises(CampaignInterrupted) as info:
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         fault_plan=FaultPlan(crash_after_launches=2))
        # in-flight chunks may land between the threshold and the next
        # supervision tick, but never all of them
        crashed = info.value.completed_chunks
        assert 2 <= crashed < 4
        assert info.value.checkpoint_path == journal

        resumed = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                               config=config)
        assert not resumed.incomplete
        # no chunk lost, none duplicated: every journaled chunk resumes
        # and every lost chunk re-executes exactly once
        assert resumed.resumed_chunks == crashed
        assert resumed.completed_chunks == 4
        assert resumed.metrics.counters["campaign.chunks.executed"] \
            == 4 - crashed
        assert resumed.metrics.counters["campaign.chunks.resumed"] \
            == crashed
        assert_bit_identical(resumed, serial)

    def test_crash_resume_trace_is_one_tree(self, lv_model, lv_batch,
                                            tmp_path):
        journal = tmp_path / "campaign.json"
        trace = tmp_path / "trace.jsonl"
        config = CampaignConfig(workers=2, checkpoint_path=journal, **FAST)
        with pytest.raises(CampaignInterrupted):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         fault_plan=FaultPlan(crash_after_launches=2),
                         telemetry=trace)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                     telemetry=trace)
        spans = read_trace_jsonl(trace)
        assert validate_trace(spans) == []
        chunk_names = sorted(s.name for s in spans
                             if s.category == "chunk")
        assert chunk_names == [f"chunk-{i}" for i in range(4)]

    def test_serial_journal_resumes_under_workers(self, lv_model,
                                                  lv_batch, serial,
                                                  tmp_path):
        # A journal written by the serial loop is a valid starting
        # point for a sharded run (and vice versa): the chunks are the
        # same bit-identical units either way.
        journal = tmp_path / "campaign.json"
        with pytest.raises(CampaignInterrupted):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                         config=CampaignConfig(chunk_size=3,
                                               checkpoint_path=journal),
                         fault_plan=FaultPlan(crash_after_launches=3))
        resumed = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, checkpoint_path=journal,
                                  **FAST))
        assert resumed.resumed_chunks == 3
        assert_bit_identical(resumed, serial)


class TestDegradation:
    def test_pool_collapse_degrades_to_serial(self, lv_model, lv_batch,
                                              serial):
        # Every chunk poisons every worker and the restart budget is
        # one: the pool collapses and the supervisor must finish the
        # campaign in-process, bit-identically, with the flag raised.
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, max_worker_restarts=1,
                                  max_chunk_attempts=100, **FAST),
            fault_plan=FaultPlan(worker_kill_chunks=(0, 1, 2, 3),
                                 worker_fault_attempts=1000))
        assert not outcome.incomplete
        assert outcome.degraded
        assert "degraded to serial" in outcome.summary()
        assert_bit_identical(outcome, serial)
        counters = outcome.metrics.counters
        assert counters["campaign.executor.degradations"] == 1
        assert counters["campaign.executor.worker_deaths"] >= 2

    def test_degraded_run_still_journals(self, lv_model, lv_batch,
                                         serial, tmp_path):
        journal = tmp_path / "campaign.json"
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=1, max_worker_restarts=0,
                                  max_chunk_attempts=100,
                                  checkpoint_path=journal, **FAST),
            fault_plan=FaultPlan(worker_kill_chunks=(0, 1, 2, 3),
                                 worker_fault_attempts=1000))
        assert outcome.degraded and not outcome.incomplete
        assert_bit_identical(outcome, serial)
        resumed = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=1, checkpoint_path=journal,
                                  **FAST))
        assert resumed.resumed_chunks == 4
        assert not resumed.degraded


class AllowThenCancel:
    """Chunk gate granting ``allow`` chunks, then firing the cancel
    event — drives a deterministic mid-flight cooperative cancel."""

    def __init__(self, allow, cancel_event):
        self.allow = allow
        self.cancel_event = cancel_event

    def _grant(self):
        if self.allow <= 0:
            self.cancel_event.set()
            return False
        self.allow -= 1
        return True

    def acquire(self, width, cancel_event=None):
        return self._grant()

    def try_acquire(self, width):
        return self._grant()

    def release(self, width):
        pass


class TestCooperativeCancel:
    def test_preset_cancel_stops_before_first_chunk(self, lv_model,
                                                    lv_batch):
        import threading

        cancel = threading.Event()
        cancel.set()
        outcome = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                               config=CampaignConfig(chunk_size=3),
                               cancel_event=cancel)
        assert outcome.cancelled
        assert outcome.incomplete
        assert outcome.completed_chunks == 0
        assert "cancelled" in outcome.summary()

    def test_serial_cancel_mid_flight_resumes_exact_once(
            self, lv_model, lv_batch, serial, tmp_path):
        import threading

        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        cancel = threading.Event()
        first = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                             config=config,
                             chunk_gate=AllowThenCancel(2, cancel),
                             cancel_event=cancel)
        assert first.cancelled and first.incomplete
        assert first.completed_chunks == 2
        assert first.pending_mask.sum() == 4  # rows 6..9 never ran

        resumed = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                               config=config)
        assert not resumed.cancelled and not resumed.incomplete
        assert resumed.resumed_chunks == 2
        assert resumed.metrics.counters["campaign.chunks.executed"] == 2
        assert_bit_identical(resumed, serial)

    def test_sharded_cancel_resumes_exact_once(self, lv_model, lv_batch,
                                               serial, tmp_path):
        import threading

        journal = tmp_path / "campaign.json"
        cancel = threading.Event()
        first = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, checkpoint_path=journal,
                                  **FAST),
            chunk_gate=AllowThenCancel(2, cancel), cancel_event=cancel)
        assert first.cancelled
        assert not first.degraded
        assert first.completed_chunks < 4

        resumed = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, checkpoint_path=journal,
                                  **FAST))
        assert not resumed.incomplete and not resumed.cancelled
        assert resumed.resumed_chunks == first.completed_chunks
        assert_bit_identical(resumed, serial)


class TestDeadlines:
    def test_sharded_deadline_partial_result(self, lv_model, lv_batch):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **FAST),
            fault_plan=FaultPlan(deadline_after_chunks=1))
        assert outcome.incomplete
        assert outcome.deadline_hit
        assert outcome.completed_chunks < 4
        assert outcome.pending_mask.any()

    def test_serial_post_chunk_deadline_check(self, lv_model, lv_batch,
                                              monkeypatch):
        # The wall clock jumps past the deadline *during* chunk 0: the
        # post-chunk check must flag it without waiting for (or
        # running) chunk 1.
        from repro.telemetry import clock

        times = iter([0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        monkeypatch.setattr(clock, "monotonic",
                            lambda: next(times, 10.0))
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(chunk_size=3, deadline_seconds=5.0))
        assert outcome.deadline_hit
        assert outcome.incomplete
        assert outcome.completed_chunks == 1

    def test_serial_predictive_deadline_check(self, lv_model, lv_batch,
                                              monkeypatch):
        # Chunk 0 takes 2s of a 5s budget. Before chunk 1 the clock
        # reads 4s: one wall-second of budget remains, but no chunk has
        # ever finished in under 2s — the predictive check must stop
        # the campaign *before* starting a chunk doomed to overshoot.
        from repro.telemetry import clock

        times = iter([0.0, 0.0, 0.0, 2.0, 4.0])
        monkeypatch.setattr(clock, "monotonic",
                            lambda: next(times, 4.0))
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(chunk_size=3, deadline_seconds=5.0))
        assert outcome.deadline_hit
        assert outcome.incomplete
        assert outcome.completed_chunks == 1
        assert outcome.pending_mask.sum() == 7


class TestConfigValidation:
    def test_worker_fields_validated(self):
        with pytest.raises(ResilienceError, match="workers"):
            CampaignConfig(workers=-1)
        with pytest.raises(ResilienceError, match="heartbeat_timeout"):
            CampaignConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ResilienceError, match="max_chunk_attempts"):
            CampaignConfig(max_chunk_attempts=0)
        with pytest.raises(ResilienceError, match="chunk_timeout"):
            CampaignConfig(chunk_timeout=0.0)
        with pytest.raises(ResilienceError, match="backoff"):
            CampaignConfig(restart_backoff=-1.0)

    def test_fault_plan_worker_fields_validated(self):
        with pytest.raises(ResilienceError, match="worker_kill_chunks"):
            FaultPlan(worker_kill_chunks=(-1,))
        with pytest.raises(ResilienceError,
                           match="worker_fault_attempts"):
            FaultPlan(worker_fault_attempts=0)
        with pytest.raises(ResilienceError, match="worker_slow_seconds"):
            FaultPlan(worker_slow_seconds=-0.5)

    def test_for_chunk_strips_worker_faults(self):
        plan = FaultPlan(worker_kill_chunks=(0,), worker_hang_chunks=(1,),
                         worker_slow_chunks=(2,))
        local = plan.for_chunk(0, 0, 3)
        assert local.worker_kill_chunks == ()
        assert local.worker_hang_chunks == ()
        assert local.worker_slow_chunks == ()

    def test_fault_accessors_honor_attempt_budget(self):
        plan = FaultPlan(worker_kill_chunks=(5,), worker_fault_attempts=2)
        assert plan.kills_worker(5, 1)
        assert plan.kills_worker(5, 2)
        assert not plan.kills_worker(5, 3)
        assert not plan.kills_worker(4, 1)


class TestFingerprintNumerics:
    def test_resume_with_different_tolerances_raises(self, lv_model,
                                                     lv_batch, tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                     options=SolverOptions(rtol=1e-6))
        with pytest.raises(ResilienceError, match="different campaign"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         options=SolverOptions(rtol=1e-4))

    def test_resume_with_different_retry_ladder_raises(self, lv_model,
                                                       lv_batch,
                                                       tmp_path):
        from repro.resilience import default_retry_policy

        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                     retry_policy=default_retry_policy(3))
        with pytest.raises(ResilienceError, match="different campaign"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         retry_policy=default_retry_policy(1))

    def test_journal_of_clipped_save_steps_does_not_resume(
            self, lv_model, lv_batch, tmp_path):
        """A journal whose numerics digest predates the numerics version
        (written while steps were clipped onto save points) is refused
        rather than spliced into interpolated results."""
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        options = SolverOptions(rtol=1e-6)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                     options=options)
        document = json.loads(journal.read_text())
        unversioned = {"options": dataclasses.asdict(options),
                       "retry": None}
        document["fingerprint"]["numerics_sha"] = hashlib.sha256(
            json.dumps(unversioned, sort_keys=True).encode()
        ).hexdigest()[:16]
        journal.write_text(json.dumps(document))
        with pytest.raises(ResilienceError, match="different campaign"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         options=options)

    @staticmethod
    def _refuses_numerics_version(version, lv_model, lv_batch, tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        options = SolverOptions(rtol=1e-6)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                     options=options)
        document = json.loads(journal.read_text())
        older = {"options": dataclasses.asdict(options), "retry": None,
                 "numerics": version}
        document["fingerprint"]["numerics_sha"] = hashlib.sha256(
            json.dumps(older, sort_keys=True).encode()
        ).hexdigest()[:16]
        journal.write_text(json.dumps(document))
        with pytest.raises(ResilienceError, match="different campaign"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config,
                         options=options)

    def test_journal_of_numerics_version_2_does_not_resume(
            self, lv_model, lv_batch, tmp_path):
        """A journal written before the batched BDF's order-masked sums
        and the end-of-span clip rule (numerics version 2) is refused."""
        self._refuses_numerics_version(2, lv_model, lv_batch, tmp_path)

    def test_journal_of_numerics_version_3_does_not_resume(
            self, lv_model, lv_batch, tmp_path):
        """A journal written before DOPRI5's stiffness-test cadence
        (numerics version 3) is refused."""
        self._refuses_numerics_version(3, lv_model, lv_batch, tmp_path)

    def test_journal_of_numerics_version_4_does_not_resume(
            self, lv_model, lv_batch, tmp_path):
        """A journal written while the sequential dopri5, radau5 and bdf
        engines ran their own scalar integrators (numerics version 4)
        is refused."""
        self._refuses_numerics_version(4, lv_model, lv_batch, tmp_path)

    def test_journal_of_numerics_version_6_does_not_resume(
            self, lv_model, lv_batch, tmp_path):
        """A journal written while the ``auto`` router probed stiffness
        at ``t0`` and restarted handed-back rows there (numerics version
        6) is refused."""
        self._refuses_numerics_version(6, lv_model, lv_batch, tmp_path)

    def test_same_numerics_resume_fine(self, lv_model, lv_batch,
                                       tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        options = SolverOptions(rtol=1e-6)
        first = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                             config=config, options=options)
        again = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                             config=config, options=SolverOptions(rtol=1e-6))
        assert again.resumed_chunks == 4
        assert again.result.y.tobytes() == first.result.y.tobytes()


class TestCorruptChunkArchive:
    def test_truncated_chunk_names_file(self, lv_model, lv_batch,
                                        tmp_path):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config)
        chunk = tmp_path / "campaign.chunk00002.npz"
        chunk.write_bytes(chunk.read_bytes()[:32])
        with pytest.raises(ResilienceError,
                           match="campaign.chunk00002.npz"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config)

    @pytest.mark.parametrize("keep", [0.5, 0.9])
    def test_archive_cut_short_names_file(self, lv_model, lv_batch,
                                          tmp_path, keep):
        """Cut inside a member or inside the zip directory, a
        three-member archive still names the file to delete."""
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config)
        chunk = tmp_path / "campaign.chunk00001.npz"
        data = chunk.read_bytes()
        chunk.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(ResilienceError,
                           match=r"delete campaign\.chunk00001\.npz"):
            run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config)

    def test_deleting_named_file_reexecutes_chunk(self, lv_model,
                                                  lv_batch, tmp_path,
                                                  serial):
        journal = tmp_path / "campaign.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch, config=config)
        (tmp_path / "campaign.chunk00002.npz").unlink()
        healed = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                              config=config)
        assert healed.resumed_chunks == 3
        assert healed.metrics.counters["campaign.chunks.executed"] == 1
        assert_bit_identical(healed, serial)


def assert_rows_identical(outcome, serial, rows):
    for name in ("y", "status_codes", "method_codes", "n_steps",
                 "n_accepted", "n_rejected"):
        assert getattr(outcome.result, name)[rows].tobytes() \
            == getattr(serial.result, name)[rows].tobytes()


class TestCoalescedUnits:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_clean_run_launches_like_the_serial_loop(self, lv_model,
                                                     lv_batch, serial,
                                                     workers):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=workers, **FAST))
        assert serial.metrics.counters["campaign.launches"] == 1
        assert outcome.metrics.counters["campaign.launches"] == 1
        assert outcome.metrics.counters["campaign.chunks.executed"] == 4
        assert_bit_identical(outcome, serial)

    def test_worker_fault_chunk_runs_alone(self, lv_model, lv_batch,
                                           serial):
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=2, **FAST),
            fault_plan=FaultPlan(worker_kill_chunks=(1,)))
        # [0], then [1] alone (killed once, then reassigned), then [2, 3]
        assert outcome.metrics.counters["campaign.launches"] == 3
        assert_bit_identical(outcome, serial)


class TestDegradedFallback:
    #: Every chunk kills its worker on every attempt, one attempt per
    #: unit: chunk 0 splits row by row, each death spends a restart.
    POISON = FaultPlan(worker_kill_chunks=(0, 1, 2, 3),
                       worker_fault_attempts=1000)

    def test_keeps_quarantined_rows(self, lv_model, lv_batch, serial):
        # Deaths on [0:3], [0:1], [1:3], [1:2], [2:3] quarantine chunk
        # 0's rows; the fifth death finds no restart left, and the
        # serial loop runs chunks 1-3.
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=1, max_chunk_attempts=1,
                                  max_worker_restarts=4, **FAST),
            fault_plan=self.POISON)
        assert outcome.degraded and not outcome.incomplete
        assert outcome.quarantine.rows().tolist() == [0, 1, 2]
        assert all(isinstance(record, WorkerFailure)
                   for record in outcome.quarantine)
        assert_rows_identical(outcome, serial, np.arange(3, 10))

    def test_finishes_a_half_split_chunk(self, lv_model, lv_batch, serial,
                                         tmp_path):
        # The third death, on [1:3], leaves its halves pending: the
        # serial loop runs them as pieces, and chunk 0 is journaled
        # once its pieces cover it, row 0 still quarantined.
        journal = tmp_path / "campaign.json"
        outcome = run_campaign(
            lv_model, T_SPAN, T_EVAL, lv_batch,
            config=CampaignConfig(workers=1, max_chunk_attempts=1,
                                  max_worker_restarts=2,
                                  checkpoint_path=journal, **FAST),
            fault_plan=self.POISON)
        assert outcome.degraded and not outcome.incomplete
        assert outcome.quarantine.rows().tolist() == [0]
        assert_rows_identical(outcome, serial, np.arange(1, 10))
        resumed = run_campaign(lv_model, T_SPAN, T_EVAL, lv_batch,
                               config=CampaignConfig(
                                   chunk_size=3, checkpoint_path=journal))
        assert resumed.resumed_chunks == 4
        assert resumed.quarantine.rows().tolist() == [0]
        assert resumed.result.y.tobytes() == outcome.result.y.tobytes()

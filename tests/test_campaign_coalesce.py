"""Coalesced campaign launches: consecutive pending chunks share one
engine launch, and each launch is journaled in one atomic commit.

The reference for every byte comparison is the same campaign run with
``max_batch_per_launch=chunk_size``, which gives one launch per chunk.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CampaignInterrupted
from repro.gpu.engine import BatchSimulator
from repro.guards import GuardConfig
from repro.io.checkpoint import CampaignCheckpoint
from repro.model import ParameterizationBatch, perturbed_batch
from repro.models import dimerization, lotka_volterra
from repro.resilience import (CampaignConfig, FaultPlan,
                              default_retry_policy, run_campaign)
from repro.rules.library import multisite_cascade
from repro.telemetry import Tracer

T_SPAN = (0.0, 2.0)
T_EVAL = np.linspace(0.0, 2.0, 5)

#: Counters the campaign runner adds itself; everything else in
#: ``CampaignResult.metrics`` comes from the journaled launch payloads.
RUNNER_COUNTERS = ("campaign.chunks.executed", "campaign.chunks.resumed",
                   "campaign.launches")


def batch_of(model, size, seed=11):
    return perturbed_batch(model.nominal_parameterization(), size,
                           np.random.default_rng(seed))


def result_bytes(outcome) -> bytes:
    result = outcome.result
    return b"".join(array.tobytes() for array in (
        result.y, result.status_codes, result.method_codes, result.n_steps,
        result.n_accepted, result.n_rejected))


def engine_counters(outcome) -> dict:
    return {name: value for name, value in outcome.metrics.counters.items()
            if name not in RUNNER_COUNTERS}


class CountingSimulate:
    """Wraps ``BatchSimulator.simulate``: one entry per engine call, its
    number of launches."""

    def __init__(self, monkeypatch):
        self.launches: list[int] = []
        original = BatchSimulator.simulate
        recorder = self

        def simulate(simulator, *args, **kwargs):
            result = original(simulator, *args, **kwargs)
            recorder.launches.append(simulator.last_report.n_launches)
            return result

        monkeypatch.setattr(BatchSimulator, "simulate", simulate)


class RecordingGate:
    """Chunk gate with ``capacity`` concurrent grants; logs every call."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.inflight = 0
        self.calls: list[tuple[str, int, bool]] = []

    def acquire(self, width, cancel_event=None):
        assert self.inflight < self.capacity
        self.inflight += 1
        self.calls.append(("acquire", width, True))
        return True

    def try_acquire(self, width):
        granted = self.inflight < self.capacity
        self.inflight += int(granted)
        self.calls.append(("try_acquire", width, granted))
        return granted

    def release(self, width):
        self.inflight -= 1
        self.calls.append(("release", width, True))


class TestMergeIsLaunchWidthIndependent:
    @given(size=st.integers(1, 13), chunk_size=st.integers(1, 5),
           cap=st.integers(1, 12),
           nan_rows=st.sets(st.integers(0, 12), max_size=2),
           drift_rows=st.sets(st.integers(0, 12), max_size=2),
           guarded=st.booleans())
    def test_matches_one_launch_per_chunk(self, size, chunk_size, cap,
                                          nan_rows, drift_rows, guarded):
        model = dimerization()
        batch = batch_of(model, size)
        kwargs = dict(retry_policy=default_retry_policy(),
                      fault_plan=FaultPlan(nan_rows=tuple(sorted(nan_rows)),
                                           drift_rows=tuple(
                                               sorted(drift_rows)),
                                           drift_rate=0.5),
                      guard_config=GuardConfig() if guarded else None)
        config = CampaignConfig(chunk_size=chunk_size)
        coalesced = run_campaign(model, T_SPAN, T_EVAL, batch,
                                 config=config, max_batch_per_launch=cap,
                                 **kwargs)
        per_chunk = run_campaign(model, T_SPAN, T_EVAL, batch,
                                 config=config,
                                 max_batch_per_launch=chunk_size, **kwargs)
        assert result_bytes(coalesced) == result_bytes(per_chunk)
        assert coalesced.quarantine.to_dicts() == \
            per_chunk.quarantine.to_dicts()
        chunks = -(-size // chunk_size)
        assert per_chunk.metrics.counters["campaign.launches"] == chunks
        assert coalesced.metrics.counters["campaign.launches"] <= chunks
        assert coalesced.metrics.counters["steps.accepted"] == \
            per_chunk.metrics.counters["steps.accepted"]

    @pytest.mark.parametrize("chunk_size", [3, 4])
    def test_stiff_routed_cascade(self, chunk_size):
        model = multisite_cascade(3, kinase_rate=1e3).expand()
        batch = batch_of(model, 8, seed=3)
        rates = batch.rate_constants.copy()
        rates[0] *= 1e-3
        batch = ParameterizationBatch(rates, batch.initial_states)
        config = CampaignConfig(chunk_size=chunk_size)
        t_eval = np.linspace(0.0, 5.0, 4)
        coalesced = run_campaign(model, (0.0, 5.0), t_eval, batch,
                                 config=config)
        per_chunk = run_campaign(model, (0.0, 5.0), t_eval, batch,
                                 config=config,
                                 max_batch_per_launch=chunk_size)
        assert "radau5" in coalesced.result.methods()
        assert coalesced.metrics.counters["campaign.launches"] == 1
        assert result_bytes(coalesced) == result_bytes(per_chunk)


class TestLaunchesAndJournal:
    def test_four_chunks_one_launch_four_entries(self, tmp_path,
                                                 monkeypatch):
        model = lotka_volterra()
        counting = CountingSimulate(monkeypatch)
        journal = tmp_path / "j.json"
        outcome = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 16),
                               config=CampaignConfig(
                                   chunk_size=4, checkpoint_path=journal))
        assert counting.launches == [1]
        assert outcome.metrics.counters["campaign.launches"] == 1
        assert outcome.metrics.counters["campaign.chunks.executed"] == 4
        data = json.loads(journal.read_text())
        assert sorted(data["chunks"]) == ["0", "1", "2", "3"]
        assert {entry["launch"] for entry in data["chunks"].values()} == {0}
        assert list(data["payloads"]) == ["metrics-0"]

    def test_chunk_spans_name_their_launch(self):
        model = lotka_volterra()
        tracer = Tracer()
        run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 10),
                     config=CampaignConfig(chunk_size=3), telemetry=tracer,
                     max_batch_per_launch=6)
        chunks = {span.span_id: span for span in tracer.spans
                  if span.category == "chunk"}
        assert {span_id: span.attrs["launch"]
                for span_id, span in chunks.items()} == {
            "campaign/chunk-0": 0, "campaign/chunk-1": 0,
            "campaign/chunk-2": 2, "campaign/chunk-3": 2}
        launches = [span.parent_id for span in tracer.spans
                    if span.category == "launch"]
        assert launches == ["campaign/chunk-0", "campaign/chunk-2"]

    def test_gate_grants_one_acquire_then_try_acquires(self, monkeypatch):
        model = lotka_volterra()
        counting = CountingSimulate(monkeypatch)
        gate = RecordingGate(capacity=2)
        outcome = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 16),
                               config=CampaignConfig(chunk_size=4),
                               chunk_gate=gate)
        assert counting.launches == [1, 1]
        assert outcome.metrics.counters["campaign.launches"] == 2
        assert gate.calls == [
            ("acquire", 4, True), ("try_acquire", 4, True),
            ("try_acquire", 4, False), ("release", 4, True),
            ("release", 4, True),
            ("acquire", 4, True), ("try_acquire", 4, True),
            ("release", 4, True), ("release", 4, True)]
        assert gate.inflight == 0

    def test_failed_launch_chunk_runs_alone(self):
        model = lotka_volterra()
        batch = batch_of(model, 12)
        config = CampaignConfig(chunk_size=3)
        policy = default_retry_policy()
        clean = run_campaign(model, T_SPAN, T_EVAL, batch, config=config,
                             retry_policy=policy)
        faulted = run_campaign(model, T_SPAN, T_EVAL, batch, config=config,
                               retry_policy=policy,
                               fault_plan=FaultPlan(fail_launches=(1,)))
        # [0], [1] alone, then [2, 3]; only chunk 1's rows were retried.
        assert faulted.metrics.counters["campaign.launches"] == 3
        assert faulted.metrics.counters["retry.retried_rows"] == 3
        clean_rows = np.r_[0:3, 6:12]
        for name in ("y", "status_codes", "method_codes", "n_steps",
                     "n_accepted", "n_rejected"):
            assert getattr(faulted.result, name)[clean_rows].tobytes() == \
                getattr(clean.result, name)[clean_rows].tobytes()


class TestCrashAndResume:
    def test_crash_journals_the_same_chunks_and_resumes_once(self,
                                                             tmp_path):
        model = lotka_volterra()
        batch = batch_of(model, 10)
        journal = tmp_path / "j.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(model, T_SPAN, T_EVAL, batch, config=config,
                         fault_plan=FaultPlan(crash_after_launches=2))
        assert excinfo.value.completed_chunks == 2
        assert sorted(json.loads(journal.read_text())["chunks"]) == \
            ["0", "1"]
        resumed = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        assert resumed.resumed_chunks == 2
        assert resumed.metrics.counters["campaign.chunks.executed"] == 2
        # The crash split the work into launches [0, 1] and [2, 3]; an
        # uninterrupted run with the same launches counts the same.
        same_launches = run_campaign(model, T_SPAN, T_EVAL, batch,
                                     config=CampaignConfig(chunk_size=3),
                                     max_batch_per_launch=6)
        uninterrupted = run_campaign(model, T_SPAN, T_EVAL, batch,
                                     config=CampaignConfig(chunk_size=3))
        assert result_bytes(resumed) == result_bytes(uninterrupted)
        assert engine_counters(resumed) == engine_counters(same_launches)
        assert resumed.metrics.counters["steps.accepted"] == \
            uninterrupted.metrics.counters["steps.accepted"]

    def test_interrupt_while_journaling_loses_no_metrics(self, tmp_path,
                                                         monkeypatch):
        model = lotka_volterra()
        batch = batch_of(model, 9)
        journal = tmp_path / "j.json"
        config = CampaignConfig(chunk_size=3, checkpoint_path=journal)
        uninterrupted = run_campaign(model, T_SPAN, T_EVAL, batch,
                                     config=CampaignConfig(chunk_size=3))
        original = CampaignCheckpoint.set_payload
        calls = []

        def interrupt_once(self, key, value):
            calls.append(key)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return original(self, key, value)

        monkeypatch.setattr(CampaignCheckpoint, "set_payload",
                            interrupt_once)
        with pytest.raises(BaseException) as excinfo:
            run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        assert excinfo.type is CampaignInterrupted
        resumed = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        assert resumed.metrics.counters["steps.accepted"] == \
            uninterrupted.metrics.counters["steps.accepted"]
        assert result_bytes(resumed) == result_bytes(uninterrupted)


class TestNonContiguousResume:
    @pytest.mark.parametrize("deleted", [(1,), (0,), (1, 3), (0, 2)])
    def test_only_deleted_chunks_rerun_one_launch_per_gap(
            self, tmp_path, deleted):
        model = lotka_volterra()
        batch = batch_of(model, 16)
        journal = tmp_path / "j.json"
        config = CampaignConfig(chunk_size=4, checkpoint_path=journal)
        first = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        checkpoint = CampaignCheckpoint.open(journal, json.loads(
            journal.read_text())["fingerprint"])
        for index in deleted:
            checkpoint.chunk_file(index).unlink()
        repaired = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        assert repaired.resumed_chunks == 4 - len(deleted)
        assert repaired.metrics.counters["campaign.chunks.executed"] == \
            len(deleted)
        assert repaired.metrics.counters["campaign.launches"] == \
            len(deleted)
        assert result_bytes(repaired) == result_bytes(first)
        # The original launch stays counted once and every re-run
        # launch is added; a later full resume reads the same totals.
        again = run_campaign(model, T_SPAN, T_EVAL, batch, config=config)
        assert again.resumed_chunks == 4
        assert engine_counters(again) == engine_counters(repaired)
        assert again.metrics.counters["steps.accepted"] > \
            first.metrics.counters["steps.accepted"]

"""Coalesced campaign launches: consecutive pending chunks share one
engine launch, and each launch is journaled in one atomic commit.
Campaigns run together share launches too, each with the bytes it
gives alone.

The reference for every byte comparison is the same campaign run with
``max_batch_per_launch=chunk_size``, which gives one launch per chunk.
"""

import json
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CampaignInterrupted, ResilienceError, SolverError
from repro.gpu.engine import BatchSimulator
from repro.guards import GuardConfig
from repro.io.checkpoint import CampaignCheckpoint
from repro.model import ParameterizationBatch, perturbed_batch
from repro.models import dimerization, lotka_volterra
from repro.resilience import (CampaignConfig, CampaignPeer, FaultPlan,
                              default_retry_policy, run_campaign)
from repro.rules.library import multisite_cascade
from repro.solvers import SolverOptions
from repro.telemetry import Tracer

T_SPAN = (0.0, 2.0)
T_EVAL = np.linspace(0.0, 2.0, 5)

#: Counters the campaign runner adds itself; everything else in
#: ``CampaignResult.metrics`` comes from the journaled launch payloads.
RUNNER_COUNTERS = ("campaign.chunks.executed", "campaign.chunks.resumed",
                   "campaign.launches", "campaign.launches.shared")


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
           guarded=st.booleans(), workers=st.sampled_from([0, 1]))
    def test_matches_one_launch_per_chunk(self, size, chunk_size, cap,
                                          nan_rows, drift_rows, guarded,
                                          workers):
        model = dimerization()
        batch = batch_of(model, size)
        kwargs = dict(retry_policy=default_retry_policy(),
                      fault_plan=FaultPlan(nan_rows=tuple(sorted(nan_rows)),
                                           drift_rows=tuple(
                                               sorted(drift_rows)),
                                           drift_rate=0.5),
                      guard_config=GuardConfig() if guarded else None)
        config = CampaignConfig(chunk_size=chunk_size)
        # One worker process runs the same launch groups as the loop.
        coalesced = run_campaign(model, T_SPAN, T_EVAL, batch,
                                 config=CampaignConfig(chunk_size=chunk_size,
                                                       workers=workers),
                                 max_batch_per_launch=cap, **kwargs)
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

    @pytest.mark.parametrize("peered", [False, True])
    def test_identical_campaigns_leave_identical_journals(self, tmp_path,
                                                          peered):
        """Journal JSON and chunk archives repeat byte for byte, for a
        campaign alone and for campaigns sharing launches as peers."""
        model = lotka_volterra()
        directories = []
        for run in ("first", "second"):
            directory = tmp_path / run
            peers = [CampaignPeer(
                batch_of(model, 5, seed=5),
                CampaignConfig(chunk_size=2,
                               checkpoint_path=directory / "peer.json"),
                lambda outcome: None)] if peered else []
            run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 7),
                         config=CampaignConfig(
                             chunk_size=3,
                             checkpoint_path=directory / "lead.json"),
                         peers=peers)
            directories.append({path.name: path.read_bytes()
                                for path in sorted(directory.iterdir())})
        first, second = directories
        assert len(first) == (2 + 3 + 3 if peered else 1 + 3)
        assert first == second

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


class TestCampaignsShareLaunches:
    """Campaigns run together (the leading call plus
    :class:`CampaignPeer` s) give each campaign the result, chunk
    archives and quarantine it gives alone."""

    OPTIONS = SolverOptions(max_steps=40)

    @staticmethod
    def spread_batch(model, size, seed):
        """Rows at rates up to e^4 times nominal: with ``max_steps=40``
        the fast ones fail, climb the retry ladder or quarantine."""
        rng = np.random.default_rng(seed)
        batch = batch_of(model, size, seed=seed)
        scale = np.exp(rng.uniform(0.0, 4.0, (size, 1)))
        return ParameterizationBatch(batch.rate_constants * scale,
                                     batch.initial_states)

    def run(self, model, batch, config, cap, peers=()):
        return run_campaign(model, T_SPAN, T_EVAL, batch, config=config,
                            options=self.OPTIONS,
                            retry_policy=default_retry_policy(),
                            peers=peers, max_batch_per_launch=cap)

    @staticmethod
    def archives(config, chunks) -> list[bytes]:
        path = Path(config.checkpoint_path)
        return [(path.parent / f"{path.stem}.chunk{index:05d}.npz")
                .read_bytes() for index in range(chunks)]

    @given(members=st.lists(st.tuples(st.integers(1, 9),
                                      st.integers(1, 4),
                                      st.integers(0, 3)),
                            min_size=2, max_size=3),
           cap=st.integers(1, 20))
    def test_matches_each_campaign_alone(self, members, cap):
        model = dimerization()
        with tempfile.TemporaryDirectory() as root:
            alone, configs, batches = [], [], []
            for number, (size, chunk_size, resumed) in enumerate(members):
                batch = self.spread_batch(model, size, seed=number)
                reference = CampaignConfig(
                    chunk_size=chunk_size,
                    checkpoint_path=Path(root) / f"alone-{number}.json")
                config = CampaignConfig(
                    chunk_size=chunk_size,
                    checkpoint_path=Path(root) / f"group-{number}.json")
                alone.append(self.run(model, batch, reference, cap))
                # The member resumes its first `resumed` chunks.
                self.run(model, batch, config, cap)
                chunks = -(-size // chunk_size)
                checkpoint = CampaignCheckpoint.open(
                    config.checkpoint_path, json.loads(Path(
                        config.checkpoint_path).read_text())["fingerprint"])
                for index in range(min(resumed, chunks), chunks):
                    checkpoint.chunk_file(index).unlink()
                configs.append(config)
                batches.append(batch)
            delivered = [[] for _ in members[1:]]
            lead = self.run(model, batches[0], configs[0], cap, peers=[
                CampaignPeer(batch, config, outcomes.append)
                for batch, config, outcomes
                in zip(batches[1:], configs[1:], delivered)])
            together = [lead] + [outcomes[0] for outcomes in delivered]
            assert all(len(outcomes) == 1 for outcomes in delivered)
            for (size, chunk_size, resumed), one, shared, number in zip(
                    members, alone, together, range(len(members))):
                chunks = -(-size // chunk_size)
                assert not shared.incomplete
                assert shared.resumed_chunks == min(resumed, chunks)
                assert result_bytes(shared) == result_bytes(one)
                assert shared.quarantine.to_dicts() == \
                    one.quarantine.to_dicts()
                assert self.archives(configs[number], chunks) == \
                    self.archives(CampaignConfig(
                        chunk_size=chunk_size,
                        checkpoint_path=Path(root) / f"alone-{number}.json"),
                        chunks)

    def test_one_launch_counted_once_with_its_lead(self, monkeypatch):
        model = lotka_volterra()
        counting = CountingSimulate(monkeypatch)
        delivered, led = [], []
        lead = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 6),
                            config=CampaignConfig(chunk_size=3),
                            peers=[CampaignPeer(
                                batch_of(model, 4, seed=5),
                                CampaignConfig(chunk_size=2),
                                delivered.append)],
                            deliver=led.append)
        peer, = delivered
        assert led == [lead]
        assert counting.launches == [1]
        assert lead.metrics.counters["campaign.launches"] == 1
        assert lead.metrics.counters["campaign.launches.shared"] == 1
        assert "campaign.launches" not in peer.metrics.counters
        assert peer.metrics.counters["campaign.chunks.executed"] == 2
        assert engine_counters(peer) == {}
        both = run_campaign(model, T_SPAN, T_EVAL, ParameterizationBatch(
            np.concatenate([batch_of(model, 6).rate_constants,
                            batch_of(model, 4, seed=5).rate_constants]),
            np.concatenate([batch_of(model, 6).initial_states,
                            batch_of(model, 4, seed=5).initial_states])),
            config=CampaignConfig(chunk_size=10))
        assert engine_counters(lead) == engine_counters(both)

    def test_followers_spans_name_the_leading_chunk(self):
        model = lotka_volterra()
        tracer = Tracer()
        lead_span = tracer.start("job-0", "job")
        peer_span = tracer.start("job-1", "job")
        run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 4),
                     config=CampaignConfig(chunk_size=2), telemetry=tracer,
                     trace_parent=lead_span,
                     peers=[CampaignPeer(batch_of(model, 4, seed=5),
                                         CampaignConfig(chunk_size=2),
                                         lambda outcome: None,
                                         trace_parent=peer_span)])
        chunks = {span.span_id: span.attrs for span in tracer.spans
                  if span.category == "chunk"}
        assert chunks["job-0/campaign/chunk-1"] == {"rows": 2, "launch": 0}
        for index in (0, 1):
            assert chunks[f"job-1/campaign/chunk-{index}"] == {
                "rows": 2, "launch": 0,
                "shared_launch": "job-0/campaign/chunk-0"}
        launches = [span.parent_id for span in tracer.spans
                    if span.category == "launch"]
        assert launches == ["job-0/campaign/chunk-0"]

    def test_gate_refusal_defers_a_peer_chunk(self, monkeypatch):
        model = lotka_volterra()
        counting = CountingSimulate(monkeypatch)
        gate = RecordingGate(capacity=1)
        delivered = []
        run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 2),
                     config=CampaignConfig(chunk_size=2),
                     peers=[CampaignPeer(batch_of(model, 2, seed=5),
                                         CampaignConfig(chunk_size=2),
                                         delivered.append,
                                         chunk_gate=gate)])
        # The lead is ungated; the peer's own gate refuses nothing, so
        # both run in one launch.
        assert counting.launches == [1]
        lead_gate = RecordingGate(capacity=1)
        counting.launches.clear()
        run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 2),
                     config=CampaignConfig(chunk_size=2),
                     chunk_gate=lead_gate,
                     peers=[CampaignPeer(batch_of(model, 2, seed=5),
                                         CampaignConfig(chunk_size=2),
                                         delivered.append,
                                         chunk_gate=lead_gate)])
        # One shared gate with one grant: the peer's chunk waits for
        # the next launch, which it leads.
        assert counting.launches == [1, 1]
        assert [call[0] for call in lead_gate.calls] == [
            "acquire", "try_acquire", "release", "acquire", "release"]
        assert len(delivered) == 2 and not delivered[1].incomplete

    def test_a_failed_open_fails_only_that_member(self, tmp_path):
        model = lotka_volterra()
        journal = tmp_path / "j.json"
        run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 4),
                     config=CampaignConfig(chunk_size=2,
                                           checkpoint_path=journal))
        delivered = []
        lead = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 4),
                            config=CampaignConfig(chunk_size=2),
                            peers=[CampaignPeer(
                                batch_of(model, 4, seed=5),
                                CampaignConfig(chunk_size=2,
                                               checkpoint_path=journal),
                                delivered.append)])
        error, = delivered
        assert isinstance(error, ResilienceError)
        assert not lead.incomplete

    def test_a_failed_launch_fails_every_member_in_it(self, monkeypatch):
        from repro.resilience import campaign

        def explode(spec, parts, tracer=None, parent=None):
            raise SolverError("launch exploded")

        monkeypatch.setattr(campaign, "_run_chunk", explode)
        model = lotka_volterra()
        delivered = []
        with pytest.raises(SolverError, match="launch exploded"):
            run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 2),
                         config=CampaignConfig(chunk_size=2),
                         peers=[CampaignPeer(batch_of(model, 2, seed=5),
                                             CampaignConfig(chunk_size=2),
                                             delivered.append)])
        error, = delivered
        assert isinstance(error, SolverError)

    def test_a_cancelled_member_drops_out_before_the_next_launch(self):
        model = lotka_volterra()
        cancel = threading.Event()
        cancel.set()
        delivered = []
        lead = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 4),
                            config=CampaignConfig(chunk_size=2),
                            peers=[CampaignPeer(batch_of(model, 4, seed=5),
                                                CampaignConfig(chunk_size=2),
                                                delivered.append,
                                                cancel_event=cancel)])
        peer, = delivered
        assert peer.cancelled and peer.completed_chunks == 0
        alone = run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 4),
                             config=CampaignConfig(chunk_size=2))
        assert result_bytes(lead) == result_bytes(alone)

    @pytest.mark.parametrize("kwargs", [
        {"engine": "lsoda"}, {"fault_plan": FaultPlan(nan_rows=(0,))},
        {"config": CampaignConfig(chunk_size=2, workers=1)},
        {"config": CampaignConfig(chunk_size=2, deadline_seconds=5.0)}])
    def test_unshareable_campaigns_are_refused(self, kwargs):
        model = lotka_volterra()
        kwargs.setdefault("config", CampaignConfig(chunk_size=2))
        with pytest.raises(ResilienceError, match="share launches"):
            run_campaign(model, T_SPAN, T_EVAL, batch_of(model, 2),
                         peers=[CampaignPeer(batch_of(model, 2),
                                             CampaignConfig(chunk_size=2),
                                             lambda outcome: None)],
                         **kwargs)

"""Checkpoint/resume, deadlines and journaled campaign execution."""

import json
import zipfile

import numpy as np
import pytest

from repro.core import ParameterRange, SweepTarget, endpoint_metric, run_psa_1d
from repro.core.pe import (FreeParameter, ParameterEstimation,
                           estimate_multi_start)
from repro.core.simulate import simulate
from repro.errors import CampaignInterrupted, ResilienceError
from repro.io.checkpoint import CampaignCheckpoint
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.resilience import (CampaignConfig, FaultPlan, QuarantineLog,
                              default_retry_policy, run_campaign)
from repro.core import synthetic_target
from repro.synth import generate_symmetric


@pytest.fixture
def lv_batch(lv_model):
    rng = np.random.default_rng(11)
    return perturbed_batch(lv_model.nominal_parameterization(), 10, rng)


T_EVAL = np.linspace(0.0, 2.0, 5)


class TestCheckpointJournal:
    def test_open_creates_then_reloads(self, tmp_path):
        path = tmp_path / "j.json"
        fingerprint = {"kind": "campaign", "model": "x"}
        first = CampaignCheckpoint.open(path, fingerprint)
        assert path.is_file()
        first.set_payload("start-0", {"fitness": 1.0})
        second = CampaignCheckpoint.open(path, fingerprint)
        assert second.get_payload("start-0") == {"fitness": 1.0}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        CampaignCheckpoint.open(path, {"model": "a"})
        with pytest.raises(ResilienceError, match="different campaign"):
            CampaignCheckpoint.open(path, {"model": "b"})

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ResilienceError, match="version"):
            CampaignCheckpoint.open(path, {})

    def test_format_one_journal_is_refused(self, tmp_path, lv_model,
                                           lv_batch):
        """A journal of the ten-member archive format names its version
        instead of resuming."""
        config = CampaignConfig(chunk_size=5,
                                checkpoint_path=tmp_path / "j.json")
        run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch, config=config)
        document = json.loads(config.checkpoint_path.read_text())
        document["format_version"] = 1
        config.checkpoint_path.write_text(json.dumps(document))
        with pytest.raises(ResilienceError,
                           match=r"journal format version 1 in"):
            run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                         config=config)

    def test_chunk_archive_holds_three_uncompressed_members(
            self, tmp_path, lv_model, lv_batch):
        raw = simulate(lv_model, (0.0, 2.0), T_EVAL, lv_batch).raw
        checkpoint = CampaignCheckpoint.open(tmp_path / "j.json", {})
        checkpoint.save_chunk(0, raw)
        with zipfile.ZipFile(checkpoint.chunk_file(0)) as archive:
            members = archive.infolist()
        assert sorted(member.filename for member in members) == \
            ["counts.npy", "t.npy", "y.npy"]
        assert {member.compress_type for member in members} == \
            {zipfile.ZIP_STORED}
        with np.load(checkpoint.chunk_file(0)) as archive:
            counts = archive["counts"]
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            getattr(raw, name).tolist() for name in (
                "status_codes", "method_codes", "n_steps", "n_accepted",
                "n_rejected")]
        loaded, _ = checkpoint.load_chunk(0)
        for name in ("t", "y", "status_codes", "method_codes", "n_steps",
                     "n_accepted", "n_rejected"):
            assert getattr(loaded, name).tobytes() == \
                getattr(raw, name).tobytes(), name
            assert getattr(loaded, name).dtype == getattr(raw, name).dtype

    def test_journal_is_compact_sorted_json(self, tmp_path):
        path = tmp_path / "j.json"
        checkpoint = CampaignCheckpoint.open(path, {"model": "x"})
        checkpoint.set_payload("start-0", {"b": 1, "a": [1.5, 2]})
        assert path.read_text(encoding="utf-8") == json.dumps(
            json.loads(path.read_text(encoding="utf-8")), sort_keys=True)
        assert "\n" not in path.read_text(encoding="utf-8")

    def test_chunk_round_trip_with_quarantine(self, tmp_path, lv_model,
                                              lv_batch):
        raw = simulate(lv_model, (0.0, 2.0), T_EVAL, lv_batch).raw
        checkpoint = CampaignCheckpoint.open(tmp_path / "j.json", {})
        entry = [{"row": 3, "rate_constants": [1.0], "initial_state": [2.0],
                  "attempts": []}]
        checkpoint.save_chunk(0, raw, entry)
        assert checkpoint.has_chunk(0)
        loaded, quarantine = checkpoint.load_chunk(0)
        assert np.array_equal(loaded.y, raw.y, equal_nan=True)
        assert QuarantineLog.from_dicts(quarantine).rows().tolist() == [3]

    def test_cleanup_removes_journal_and_chunks(self, tmp_path, lv_model,
                                                lv_batch):
        raw = simulate(lv_model, (0.0, 2.0), T_EVAL, lv_batch).raw
        checkpoint = CampaignCheckpoint.open(tmp_path / "j.json", {})
        checkpoint.save_chunk(0, raw)
        checkpoint.cleanup()
        assert not any(tmp_path.iterdir())


class TestRunCampaign:
    def test_matches_single_shot_simulation(self, lv_model, lv_batch):
        direct = simulate(lv_model, (0.0, 2.0), T_EVAL, lv_batch)
        outcome = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                               config=CampaignConfig(chunk_size=3))
        assert not outcome.incomplete
        assert outcome.total_chunks == 4
        assert np.allclose(outcome.result.y, direct.y)
        assert np.array_equal(outcome.result.status_codes,
                              direct.raw.status_codes)

    def test_crash_resume_is_bit_for_bit(self, tmp_path, lv_model,
                                         lv_batch):
        config = CampaignConfig(chunk_size=3,
                                checkpoint_path=tmp_path / "j.json")
        reference = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                                 config=CampaignConfig(chunk_size=3))
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                         config=config,
                         fault_plan=FaultPlan(crash_after_launches=2))
        assert excinfo.value.completed_chunks == 2
        assert excinfo.value.checkpoint_path == config.checkpoint_path
        resumed = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                               config=config)
        assert resumed.resumed_chunks == 2
        assert np.array_equal(resumed.result.y, reference.result.y,
                              equal_nan=True)
        assert np.array_equal(resumed.result.status_codes,
                              reference.result.status_codes)

    def test_identical_runs_leave_identical_chunk_archives(
            self, tmp_path, lv_model, lv_batch):
        """Chunk archives carry no wall-clock time, so the same campaign
        journals the same bytes."""
        archives = []
        for run in ("first", "second"):
            journal = tmp_path / run / "j.json"
            run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                         config=CampaignConfig(chunk_size=3,
                                               checkpoint_path=journal))
            archives.append({path.name: path.read_bytes() for path in
                             sorted(journal.parent.glob("j.chunk*.npz"))})
        assert len(archives[0]) == 4
        assert archives[0] == archives[1]

    def test_keyboard_interrupt_becomes_campaign_interrupted(
            self, lv_model, lv_batch, monkeypatch):
        import repro.resilience.campaign as campaign_module

        def explode(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(campaign_module, "_run_chunk", explode)
        with pytest.raises(CampaignInterrupted):
            run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                         config=CampaignConfig(chunk_size=5))

    def test_deadline_degrades_to_partial_result(self, lv_model,
                                                 lv_batch):
        outcome = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                               config=CampaignConfig(chunk_size=3),
                               fault_plan=FaultPlan(
                                   deadline_after_chunks=2))
        assert outcome.incomplete and outcome.deadline_hit
        assert outcome.completed_chunks == 2
        assert outcome.pending_mask.sum() == 4
        assert "incomplete" in outcome.summary()

    def test_quarantine_rows_mapped_to_campaign_space(self, tmp_path,
                                                      lv_model, lv_batch):
        config = CampaignConfig(chunk_size=4,
                                checkpoint_path=tmp_path / "j.json")
        outcome = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                               config=config,
                               retry_policy=default_retry_policy(),
                               fault_plan=FaultPlan(nan_rows=(1, 6)))
        assert outcome.quarantine.rows().tolist() == [1, 6]
        # resume path restores the same quarantine from the journal
        # (the retry ladder is part of the numerics fingerprint, so the
        # resume must present the same policy)
        resumed = run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch,
                               config=config,
                               retry_policy=default_retry_policy())
        assert resumed.resumed_chunks == resumed.total_chunks
        assert resumed.quarantine.rows().tolist() == [1, 6]

    def test_mismatched_campaign_rejected(self, tmp_path, lv_model,
                                          lv_batch):
        config = CampaignConfig(chunk_size=5,
                                checkpoint_path=tmp_path / "j.json")
        run_campaign(lv_model, (0.0, 2.0), T_EVAL, lv_batch, config=config)
        with pytest.raises(ResilienceError):
            run_campaign(lv_model, (0.0, 2.0), np.linspace(0, 2, 9),
                         lv_batch, config=config)

    def test_journal_of_another_batch_rejected(self, tmp_path):
        """A journal does not resume for another batch of the same model
        and size: the batch's rate constants and initial states are part
        of the campaign's identity."""
        model = generate_symmetric(8, seed=1)
        config = CampaignConfig(chunk_size=2,
                                checkpoint_path=tmp_path / "j.json")
        first, second = (
            perturbed_batch(model.nominal_parameterization(), 4,
                            np.random.default_rng(seed))
            for seed in (1, 2))
        run_campaign(model, (0.0, 1.0), T_EVAL / 2, first, config=config)
        with pytest.raises(ResilienceError, match="different campaign"):
            run_campaign(model, (0.0, 1.0), T_EVAL / 2, second,
                         config=config)
        again = run_campaign(model, (0.0, 1.0), T_EVAL / 2, first,
                             config=config)
        assert again.resumed_chunks == again.total_chunks

    def test_config_validation(self):
        with pytest.raises(ResilienceError):
            CampaignConfig(chunk_size=0)
        with pytest.raises(ResilienceError):
            CampaignConfig(deadline_seconds=0.0)


class TestAnalysesOnCampaigns:
    def test_psa1d_resumes_from_journal(self, tmp_path, lv_model):
        target = SweepTarget.rate_constant(lv_model, 0,
                                           ParameterRange(0.5, 1.5))
        kwargs = dict(metric=endpoint_metric(lv_model, "Y1"))
        plain = run_psa_1d(lv_model, target, 9, (0.0, 2.0), T_EVAL,
                           **kwargs)
        config = CampaignConfig(chunk_size=4,
                                checkpoint_path=tmp_path / "psa.json")
        first = run_psa_1d(lv_model, target, 9, (0.0, 2.0), T_EVAL,
                           campaign=config, **kwargs)
        again = run_psa_1d(lv_model, target, 9, (0.0, 2.0), T_EVAL,
                           campaign=config, **kwargs)
        assert np.allclose(first.metric_values, plain.metric_values)
        assert np.array_equal(first.metric_values, again.metric_values)

    def test_pe_multi_start_resumes_finished_starts(self, tmp_path,
                                                    lv_model):
        times, target = synthetic_target(lv_model, ["Y1", "Y2"],
                                         (0.0, 3.0), n_points=10)
        free = [FreeParameter(0, 0.1, 10.0)]

        def fresh():
            return ParameterEstimation(lv_model, free, ["Y1", "Y2"],
                                       times, target)
        path = tmp_path / "pe.json"
        first = estimate_multi_start(fresh(), n_starts=2, swarm_size=6,
                                     n_iterations=4, checkpoint_path=path)
        rerun_estimation = fresh()
        second = estimate_multi_start(rerun_estimation, n_starts=2,
                                      swarm_size=6, n_iterations=4,
                                      checkpoint_path=path)
        assert rerun_estimation.n_simulations == 0  # all starts resumed
        assert second.fitness == first.fitness
        assert np.allclose(second.estimated_constants,
                           first.estimated_constants)
        assert second.n_simulations == first.n_simulations

    def test_pe_checkpoint_rejects_changed_protocol(self, tmp_path,
                                                    lv_model):
        times, target = synthetic_target(lv_model, ["Y1"], (0.0, 1.0),
                                         n_points=4)
        estimation = ParameterEstimation(lv_model,
                                         [FreeParameter(0, 0.1, 10.0)],
                                         ["Y1"], times, target)
        path = tmp_path / "pe.json"
        estimate_multi_start(estimation, n_starts=1, swarm_size=4,
                             n_iterations=2, checkpoint_path=path)
        with pytest.raises(ResilienceError):
            estimate_multi_start(estimation, n_starts=2, swarm_size=4,
                                 n_iterations=2, checkpoint_path=path)

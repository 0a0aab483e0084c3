"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import SEQUENTIAL_ENGINES
from repro.io import read_batch, read_model, write_model
from repro.models import robertson


@pytest.fixture
def model_folder(tmp_path):
    folder = tmp_path / "rob"
    write_model(robertson(), folder)
    return folder


class TestInfo:
    def test_info_on_folder(self, model_folder, capsys):
        assert main(["info", str(model_folder)]) == 0
        out = capsys.readouterr().out
        assert "N=3" in out and "M=3" in out
        assert "conservation laws : 1" in out

    def test_info_on_sbml(self, tmp_path, model_folder, capsys):
        xml = tmp_path / "rob.xml"
        assert main(["convert", str(model_folder), str(xml)]) == 0
        assert main(["info", str(xml)]) == 0
        assert "N=3" in capsys.readouterr().out

    def test_info_on_missing_path(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_writes_csv(self, model_folder, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        code = main(["simulate", str(model_folder), "--t-end", "1",
                     "--points", "5", "--max-steps", "100000",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "simulation,time,A,B,C"
        assert len(lines) == 1 + 5

    def test_simulate_perturbed_batch(self, model_folder, capsys):
        code = main(["simulate", str(model_folder), "--t-end", "1",
                     "--points", "3", "--perturb", "6",
                     "--max-steps", "100000"])
        assert code == 0
        assert "6 parameterization(s)" in capsys.readouterr().out

    def test_simulate_uses_shipped_batch(self, tmp_path, capsys):
        from repro.model import perturbed_batch
        model = robertson()
        folder = tmp_path / "swept"
        batch = perturbed_batch(model.nominal_parameterization(), 4,
                                np.random.default_rng(0))
        write_model(model, folder, batch=batch,
                    t_vector=np.array([0.0, 0.5, 1.0]))
        code = main(["simulate", str(folder), "--t-grid",
                     "--max-steps", "100000"])
        assert code == 0
        assert "4 parameterization(s)" in capsys.readouterr().out

    def test_sequential_engine_choice(self, model_folder, capsys):
        for engine in SEQUENTIAL_ENGINES:
            code = main(["simulate", str(model_folder), "--t-end", "1",
                         "--points", "3", "--engine", engine,
                         "--max-steps", "100000"])
            assert code == 0
            assert f"'{engine}'" in capsys.readouterr().out


class TestConvertAndGenerate:
    def test_round_trip_through_cli(self, model_folder, tmp_path):
        xml = tmp_path / "m.xml"
        back = tmp_path / "back"
        assert main(["convert", str(model_folder), str(xml)]) == 0
        assert main(["convert", str(xml), str(back)]) == 0
        original = read_model(model_folder)
        final = read_model(back)
        assert np.array_equal(original.matrices.net, final.matrices.net)

    def test_generate_with_batch(self, tmp_path, capsys):
        destination = tmp_path / "synthetic"
        code = main(["generate", str(destination), "--species", "10",
                     "--reactions", "12", "--seed", "5", "--batch", "7"])
        assert code == 0
        model = read_model(destination)
        assert model.size == (10, 12)
        assert read_batch(destination).size == 7

    def test_generated_model_simulates_via_cli(self, tmp_path):
        destination = tmp_path / "synthetic"
        assert main(["generate", str(destination), "--species", "8",
                     "--reactions", "8"]) == 0
        assert main(["simulate", str(destination), "--t-end", "0.5",
                     "--points", "3", "--max-steps", "100000"]) == 0


class TestTrace:
    @pytest.fixture
    def lv_folder(self, tmp_path):
        from repro.models import lotka_volterra
        folder = tmp_path / "lv"
        write_model(lotka_volterra(), folder)
        return folder

    def test_record_summarize_export(self, lv_folder, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(["trace", "record", str(lv_folder),
                     "--out", str(trace), "--batch", "9",
                     "--chunk-size", "4", "--t-end", "2",
                     "--points", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign complete: 3/3 chunks" in out
        assert "steps.accepted" in out

        assert main(["trace", "summarize", str(trace)]) == 0
        assert "campaign" in capsys.readouterr().out

        exported = tmp_path / "trace.json"
        assert main(["trace", "export", str(trace),
                     "--out", str(exported)]) == 0
        capsys.readouterr()
        import json

        events = json.loads(exported.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)

    def test_record_overwrites_stale_trace(self, lv_folder, tmp_path,
                                           capsys):
        trace = tmp_path / "trace.jsonl"
        arguments = ["trace", "record", str(lv_folder), "--out",
                     str(trace), "--batch", "4", "--chunk-size", "4",
                     "--t-end", "1", "--points", "3"]
        assert main(arguments) == 0
        assert main(arguments) == 0
        capsys.readouterr()
        # A fresh (checkpoint-free) recording replaced the old trace:
        # one campaign root, not two.
        from repro.telemetry import read_trace_jsonl, validate_trace

        spans = read_trace_jsonl(trace)
        assert validate_trace(spans) == []
        assert len([s for s in spans if s.category == "campaign"]) == 1

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

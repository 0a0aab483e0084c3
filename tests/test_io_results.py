"""Tests for the npz result persistence layer."""

import numpy as np
import pytest

from repro.core import simulate
from repro.errors import FormatError
from repro.gpu import METHOD_NAMES
from repro.io import load_result, save_result
from repro.models import decay_chain
from repro.solvers import SolverOptions


@pytest.fixture
def sample_result(chain_model):
    result = simulate(chain_model, (0, 2), np.linspace(0, 2, 5),
                      chain_model.batch(3),
                      options=SolverOptions(max_steps=50_000))
    return result


class TestRoundTrip:
    def test_exact_round_trip(self, sample_result, tmp_path):
        path = save_result(tmp_path / "run.npz", sample_result.raw,
                           sample_result.species_names)
        loaded, names = load_result(path)
        assert np.array_equal(loaded.t, sample_result.raw.t)
        assert np.array_equal(loaded.y, sample_result.raw.y)
        assert np.array_equal(loaded.status_codes,
                              sample_result.raw.status_codes)
        assert np.array_equal(loaded.n_steps, sample_result.raw.n_steps)
        assert loaded.elapsed_seconds == pytest.approx(
            sample_result.raw.elapsed_seconds)
        assert names == sample_result.species_names

    def test_suffix_added_automatically(self, sample_result, tmp_path):
        path = save_result(tmp_path / "run", sample_result.raw)
        assert path.suffix == ".npz"
        loaded, names = load_result(path)
        assert names == []
        assert loaded.batch_size == 3

    def test_methods_survive(self, sample_result, tmp_path):
        """Every method code decodes, including retired ones (such as
        ``autoswitch``) that archives written earlier still carry."""
        raw = sample_result.raw
        for code, name in METHOD_NAMES.items():
            raw.method_codes[:] = code
            path = save_result(tmp_path / f"run-{code}.npz", raw)
            loaded, _ = load_result(path)
            assert loaded.methods() == [name] * raw.batch_size


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_result(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(Exception):
            load_result(path)

    def test_wrong_version_rejected(self, sample_result, tmp_path):
        path = save_result(tmp_path / "run.npz", sample_result.raw)
        data = dict(np.load(path))
        data["format_version"] = np.array(99)
        np.savez_compressed(path, **data)
        with pytest.raises(FormatError):
            load_result(path)

"""Tests for the batch result container."""

import numpy as np
import pytest

from repro.gpu.batch_result import (BROKEN, EXHAUSTED, METHOD_DOPRI5,
                                    METHOD_RADAU5, OK, RUNNING,
                                    BatchSolveResult, allocate_result)


@pytest.fixture
def fresh():
    return allocate_result(np.linspace(0, 1, 4), batch_size=3, n_species=2,
                           method_code=METHOD_DOPRI5)


class TestAllocation:
    def test_shapes_and_defaults(self, fresh):
        assert fresh.y.shape == (3, 4, 2)
        assert np.all(np.isnan(fresh.y))
        assert np.all(fresh.status_codes == RUNNING)
        assert fresh.batch_size == 3
        assert fresh.n_species == 2

    def test_statuses_and_methods(self, fresh):
        fresh.status_codes[:] = [OK, EXHAUSTED, BROKEN]
        assert fresh.statuses() == ["success", "max_steps", "failed"]
        assert fresh.methods() == ["dopri5"] * 3

    def test_success_mask_and_all_success(self, fresh):
        fresh.status_codes[:] = OK
        assert fresh.all_success
        fresh.status_codes[1] = BROKEN
        assert not fresh.all_success
        assert fresh.success_mask.tolist() == [True, False, True]

    def test_trajectory_and_final_states(self, fresh):
        fresh.y[:] = np.arange(24.0).reshape(3, 4, 2)
        assert fresh.trajectory(1).shape == (4, 2)
        assert np.allclose(fresh.final_states()[0], [6.0, 7.0])


class TestMergeRows:
    def test_merge_overwrites_selected_rows(self, fresh):
        part = allocate_result(fresh.t, batch_size=2, n_species=2,
                               method_code=METHOD_RADAU5)
        part.y[:] = 7.0
        part.status_codes[:] = OK
        part.n_steps[:] = 11
        rows = np.array([0, 2])
        fresh.merge_rows(part, rows)
        assert np.all(fresh.y[rows] == 7.0)
        assert np.all(np.isnan(fresh.y[1]))
        assert fresh.status_codes.tolist() == [OK, RUNNING, OK]
        assert fresh.method_codes.tolist() == [METHOD_RADAU5,
                                               METHOD_DOPRI5,
                                               METHOD_RADAU5]
        assert fresh.n_steps.tolist() == [11, 0, 11]


class TestMasksAndTakeRows:
    def test_failed_mask_complements_success_mask(self, fresh):
        fresh.status_codes[:] = [OK, BROKEN, EXHAUSTED]
        assert fresh.failed_mask.tolist() == [False, True, True]
        assert np.array_equal(fresh.failed_mask, ~fresh.success_mask)

    def test_take_rows_copies_subset_with_fresh_counters(self, fresh):
        # Kernel counts live in the launch's KernelCounters account, not
        # on results; the subset's per-row step counters are its own copy.
        fresh.y[:] = np.arange(24.0).reshape(3, 4, 2)
        fresh.status_codes[:] = [OK, BROKEN, OK]
        fresh.n_steps[:] = [3, 5, 7]
        part = fresh.take_rows(np.array([0, 2]))
        assert part.batch_size == 2
        assert np.array_equal(part.y, fresh.y[[0, 2]])
        assert part.status_codes.tolist() == [OK, OK]
        assert part.n_steps.tolist() == [3, 7]
        assert not hasattr(part, "counters")
        part.y[:] = -1.0
        part.n_steps[:] = 0
        assert np.all(fresh.y[0] == np.arange(8.0).reshape(4, 2))
        assert fresh.n_steps.tolist() == [3, 5, 7]

"""Checks of the benchmark itself: oracle, counts and self-time sums."""

import numpy as np
import pytest

import run
from layers import PER_LAYER
from reference import REL_BAND, MassActionReference, relative_errors
from tracing import Span, self_times
from workloads import workloads

COUNT_UNITS = ("count", "Gflop")


@pytest.mark.parametrize("name", ["single_sim", "stiff_cascade",
                                  "serve_jobs"])
def test_reference_agrees_with_sequential_lsoda(name, tmp_path):
    from repro.core import SequentialSimulator
    from repro.model import ParameterizationBatch
    from workloads import options

    workload = workloads()[name]
    workload.journal_root = tmp_path
    state = workload.setup()
    try:
        model = workload.model(state)
        inputs = workload.inputs(state, np.random.default_rng(7))
        constants, states = workload.parameters(inputs)
    finally:
        workload.teardown(state)
    constants, states = constants[:4], states[:4]
    reference = MassActionReference(model)
    ref_y, ref_ok, _seconds = reference.solve(
        constants, states, workload.t_span, workload.t_eval)
    sequential = SequentialSimulator(model, options(), engine="lsoda") \
        .simulate(workload.t_span, workload.t_eval,
                  ParameterizationBatch(constants, states))
    assert ref_ok.all()
    assert relative_errors(sequential.y, ref_y).max() < REL_BAND


@pytest.mark.parametrize("name", sorted(workloads()))
def test_counts_repeat_for_a_seed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    first, second = (run.measure(workloads()[name], 3, 0.0, True)
                     for _ in range(2))
    # Journal bytes ("B") are left out: each chunk archive stores the
    # chunk's wall-clock seconds, compressed, so its size varies by a
    # byte or two from run to run.
    counts = [name for name, unit in PER_LAYER if unit in COUNT_UNITS]
    assert first["failed"] == second["failed"] == 0
    assert {c: first["metrics"][c] for c in counts} == \
        {c: second["metrics"][c] for c in counts}
    assert first["metrics"]["report.steps"]["value"] > 0


def _span(layer, start, end, parent=None, thread=1):
    span = Span(layer, start, parent, thread, 0)
    span.end = end
    return span


def test_self_times_add_up_to_covered_wall():
    engine = _span("gpu.engine", 0.0, 10.0)
    rhs = _span("model.rhs", 2.0, 5.0, engine)
    other = _span("io.checkpoint.save", 4.0, 6.0, thread=2)
    wait = _span("service.scheduler.gate_wait", 0.0, 12.0, thread=3)
    times = self_times([engine, rhs, other, wait])
    # 4..5 and 5..6 are shared by two threads: half each.
    assert times["model.rhs"] == pytest.approx(2.5)
    assert times["io.checkpoint.save"] == pytest.approx(1.0)
    assert times["gpu.engine"] == pytest.approx(6.5)
    # The wait only gets the time no thread spends working.
    assert times["service.scheduler.gate_wait"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(12.0)

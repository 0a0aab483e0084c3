"""Tests for the stiffness router and the batch engine."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gpu import (BatchDopri5, BatchRadau5, BatchSimulator,
                       BatchedODEProblem, RoutingDecision, StiffnessRouter)
from repro.gpu.batch_result import OK
from repro.gpu.working_set import RowStates
from repro.lint import stiffness_risk_score
from repro.model import ODESystem, ParameterizationBatch, perturbed_batch
from repro.models import decay_chain, robertson
from repro.solvers import SolverOptions
from repro.telemetry import Tracer

from .row_isolation import row_bytes


def make_problem(model, batch_size=4, seed=0):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed))
    return BatchedODEProblem(system, batch)


def cascade_call():
    """``(model, batch)`` of the stiff_cascade call shape: 16 perturbed
    cascade rows, row 0 at half rates. DOPRI5 carries every row to
    t = 0.39-0.85 of the span before the stiffness test stops it."""
    from repro.rules.library import multisite_cascade
    model = multisite_cascade(5, kinase_rate=1e3).expand()
    sampled = perturbed_batch(model.nominal_parameterization(), 16,
                              np.random.default_rng(1))
    constants = sampled.rate_constants
    constants[0] *= 0.5
    return model, ParameterizationBatch(constants, sampled.initial_states)


CASCADE_OPTIONS = SolverOptions(rtol=1e-6, atol=1e-12)
CASCADE_GRID = np.linspace(0.0, 1.0, 6)


class TestDopri5First:
    """Every row starts on DOPRI5; only the rows it stops unfinished run
    Radau IIA."""

    def test_no_radau5_launch_without_a_switch(self, monkeypatch):
        launches = []
        monkeypatch.setattr(BatchRadau5, "solve",
                            lambda *args, **kwargs: launches.append(args))
        StiffnessRouter().solve(make_problem(decay_chain(3), 4), (0, 2))
        assert launches == []

    def test_unswitched_rows_are_a_direct_dopri5_solve(self):
        """The router's bytes for rows that never switch are those of a
        direct DOPRI5 solve with the stiffness abort."""
        problem = make_problem(decay_chain(3), 6)
        grid = np.linspace(0, 2, 5)
        routed, decision = StiffnessRouter().solve(problem, (0, 2), grid)
        assert decision.n_stiff == 0
        direct = BatchDopri5(abort_on_stiffness=True).solve(
            problem, (0, 2), grid)
        for name in ("y", "status_codes", "method_codes", "n_steps",
                     "n_accepted", "n_rejected"):
            assert getattr(routed, name).tobytes() == \
                getattr(direct, name).tobytes(), name


class TestStaticPrefilter:
    """A batch's static rate spread (``stiffness_risk_score``) gates
    nothing: DOPRI5's stiffness test examines every row, costs a
    low-risk batch nothing and still stops the rows of a high-risk one."""

    def test_low_risk_batch_skips_probe(self):
        """Benign rows pay for no stiff work: the router's bytes are
        those of DOPRI5 without the stiffness test."""
        problem = make_problem(decay_chain(3), 4)
        assert stiffness_risk_score(problem.parameters.rate_constants) < 1.0
        grid = np.linspace(0, 2, 5)
        routed, decision = StiffnessRouter().solve(problem, (0, 2), grid)
        assert decision.switched.tolist() == [False] * 4
        plain = BatchDopri5().solve(problem, (0, 2), grid)
        for name in ("y", "status_codes", "method_codes", "n_steps",
                     "n_accepted", "n_rejected"):
            assert getattr(routed, name).tobytes() == \
                getattr(plain, name).tobytes(), name

    def test_high_risk_batch_still_probed(self, monkeypatch):
        """A high-risk batch runs DOPRI5 with the stiffness test first,
        in one launch, and every row it stops switches."""
        problem = make_problem(robertson(), 4)
        assert stiffness_risk_score(problem.parameters.rate_constants) > 8.0
        launches = []
        solve = BatchDopri5.solve

        def recording(self, *args, **kwargs):
            launches.append((args[0].batch_size, self.abort_on_stiffness))
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(BatchDopri5, "solve", recording)
        _, decision = StiffnessRouter(
            SolverOptions(max_steps=100_000)).solve(
                problem, (0, 1e3), np.array([0.0, 1e3]))
        assert launches == [(4, True)]
        assert decision.switched.tolist() == [True] * 4

    def test_prefilter_never_engages_on_wide_spread(self):
        problem = make_problem(robertson(), 2)
        result, decision = StiffnessRouter(
            SolverOptions(max_steps=100_000)).solve(
                problem, (0, 1e3), np.array([0.0, 1e3]))
        assert result.all_success
        assert decision.switched.tolist() == [True, True]
        assert decision.n_stiff == 2


class TestRouter:
    def test_stiff_batch_lands_on_radau(self):
        problem = make_problem(robertson(), 4)
        router = StiffnessRouter(SolverOptions(max_steps=100_000))
        result, decision = router.solve(problem, (0, 1e3),
                                        np.array([0.0, 1e3]))
        assert result.all_success
        assert set(result.methods()) == {"radau5"}

    def test_nonstiff_batch_lands_on_dopri5(self):
        problem = make_problem(decay_chain(3), 4)
        router = StiffnessRouter()
        result, decision = router.solve(problem, (0, 2),
                                        np.linspace(0, 2, 5))
        assert result.all_success
        assert set(result.methods()) == {"dopri5"}
        assert decision.n_stiff == 0
        assert decision.switched.tolist() == [False] * 4

    def test_switched_rows_resume_in_one_radau5_launch(self, monkeypatch):
        """One Radau5 launch continues every row DOPRI5 stops, each from
        its own stop state: a row keeps DOPRI5's saves before its stop,
        takes those of its own Radau5 launch from there, and counts the
        steps of both integrators."""
        model, batch = cascade_call()
        problem = BatchedODEProblem(ODESystem.from_model(model), batch)
        launches = []
        solve = BatchRadau5.solve

        def counting(self, *args, **kwargs):
            launches.append(args[0].batch_size)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(BatchRadau5, "solve", counting)
        result, decision = StiffnessRouter(CASCADE_OPTIONS).solve(
            problem, (0.0, 1.0), CASCADE_GRID)
        assert launches == [batch.size]
        assert decision.switched.tolist() == [True] * batch.size
        assert decision.n_stiff == batch.size
        assert result.all_success
        assert set(result.methods()) == {"radau5"}

        row = problem.subset(np.array([0]))
        stops = RowStates.empty(1, problem.n_species)
        explicit = BatchDopri5(CASCADE_OPTIONS, abort_on_stiffness=True)\
            .solve(row, (0.0, 1.0), CASCADE_GRID, stops)
        assert explicit.status_codes[0] != OK
        assert 0.0 < stops.t[0] < 1.0
        resumed = solve(BatchRadau5(CASCADE_OPTIONS), row, (0.0, 1.0),
                        CASCADE_GRID, stops)
        start = int(stops.save[0])
        assert 0 < start < CASCADE_GRID.size
        assert result.y[0, :start].tobytes() == \
            explicit.y[0, :start].tobytes()
        assert result.y[0, start:].tobytes() == \
            resumed.y[0, start:].tobytes()
        assert np.isnan(resumed.y[0, :start]).all()
        assert result.n_steps[0] == explicit.n_steps[0] + resumed.n_steps[0]

    def test_saves_on_the_switch_step(self):
        """On a grid dense enough that DOPRI5's steps cross saves, a row
        that switches keeps the saves its last DOPRI5 step crossed: they
        are those of DOPRI5 without the stiffness test run to the same
        step, and the row's result is that of its width-1 router call."""
        model, batch = cascade_call()
        problem = BatchedODEProblem(ODESystem.from_model(model), batch)
        span, grid = (0.0, 1.0), np.linspace(0.0, 1.0, 201)
        routed, decision = StiffnessRouter(CASCADE_OPTIONS).solve(
            problem, span, grid)
        assert decision.switched.all()
        stops = RowStates.empty(batch.size, problem.n_species)
        explicit = BatchDopri5(CASCADE_OPTIONS, abort_on_stiffness=True)\
            .solve(problem, span, grid, stops)
        crossed = 0
        for index in range(4):
            row = problem.subset(np.array([index]))
            alone, _ = StiffnessRouter(CASCADE_OPTIONS).solve(row, span, grid)
            assert row_bytes(routed, index) == row_bytes(alone, 0), index
            steps = int(explicit.n_steps[index])
            plain = BatchDopri5(CASCADE_OPTIONS.replace(max_steps=steps))\
                .solve(row, span, grid)
            kept = grid <= stops.t[index]
            assert np.isfinite(routed.y[index, kept]).all()
            assert routed.y[index, kept].tobytes() == \
                plain.y[0, kept].tobytes(), index
            before = RowStates.empty(1, problem.n_species)
            BatchDopri5(CASCADE_OPTIONS.replace(max_steps=steps - 1))\
                .solve(row, span, grid, before)
            crossed += np.count_nonzero(kept & (grid > before.t[0]))
        assert crossed > 0


class TestRoutingDecision:
    def test_round_trip_keeps_the_handed_back_mask(self):
        """A decision written before rows resumed loads its handed-back
        rows as the switched ones, and round-trips."""
        legacy = {"stiff_mask": [True, False, False], "threshold": 500.0,
                  "handed_back": [False, True, False]}
        restored = RoutingDecision.from_dict(legacy)
        assert restored.switched.tolist() == [False, True, False]
        assert restored.n_stiff == 1
        again = RoutingDecision.from_dict(restored.to_dict())
        assert again.switched.tolist() == [False, True, False]
        assert again.to_dict() == restored.to_dict()

    def test_dict_without_the_mask_loads_as_all_false(self):
        legacy = {"stiff_mask": [True, False], "threshold": 500.0}
        restored = RoutingDecision.from_dict(legacy)
        assert restored.switched.tolist() == [False, False]
        assert restored.n_stiff == 0


class TestEngine:
    def test_auto_method_on_developing_stiffness(self):
        """Robertson is non-stiff at t=0 but the engine still solves it
        (stiffness abort, then Radau IIA from where DOPRI5 stopped)."""
        model = robertson()
        engine = BatchSimulator(model, SolverOptions(max_steps=100_000))
        batch = perturbed_batch(model.nominal_parameterization(), 8,
                                np.random.default_rng(1))
        result = engine.simulate((0, 1e4),
                                 np.array([0.0, 1.0, 1e2, 1e4]), batch)
        assert result.all_success
        assert set(result.methods()) == {"radau5"}

    def test_launch_chunking(self):
        model = decay_chain(2)
        engine = BatchSimulator(model, max_batch_per_launch=3)
        batch = model.batch(10)
        result = engine.simulate((0, 1), np.array([0.0, 1.0]), batch)
        assert result.batch_size == 10
        assert result.all_success
        assert engine.last_report.n_launches == 4

    def test_chunked_results_identical_to_single_launch(self):
        model = decay_chain(3)
        batch = perturbed_batch(model.nominal_parameterization(), 9,
                                np.random.default_rng(2))
        grid = np.linspace(0, 2, 5)
        single = BatchSimulator(model, max_batch_per_launch=512).simulate(
            (0, 2), grid, batch)
        chunked = BatchSimulator(model, max_batch_per_launch=2).simulate(
            (0, 2), grid, batch)
        assert np.allclose(single.y, chunked.y, rtol=1e-12, atol=1e-15)

    def test_forced_methods(self):
        model = decay_chain(2)
        batch = model.batch(3)
        grid = np.array([0.0, 1.0])
        explicit = BatchSimulator(model, method="dopri5").simulate(
            (0, 1), grid, batch)
        implicit = BatchSimulator(model, method="radau5").simulate(
            (0, 1), grid, batch)
        assert set(explicit.methods()) == {"dopri5"}
        assert set(implicit.methods()) == {"radau5"}
        assert np.allclose(explicit.y, implicit.y, rtol=1e-5, atol=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            BatchSimulator(decay_chain(2), method="cranknicolson")

    def test_report_contents(self):
        model = decay_chain(2)
        engine = BatchSimulator(model)
        engine.simulate((0, 1), np.array([0.0, 1.0]), model.batch(4))
        report = engine.last_report
        assert report.elapsed_seconds > 0
        assert report.n_launches == 1
        assert len(report.routing) == 1
        assert report.modeled_device_time is not None
        assert report.modeled_device_time.total_seconds > 0

    def test_counts_why_rows_ran_radau5(self):
        """The registry and the rung span count the rows that switched
        to Radau IIA."""
        model, batch = cascade_call()
        tracer = Tracer()
        engine = BatchSimulator(model, CASCADE_OPTIONS, tracer=tracer)
        engine.simulate((0.0, 1.0), CASCADE_GRID, batch)
        counters = engine.last_report.metrics.counters
        assert counters["router.switched_rows"] == batch.size
        (rung,) = [span for span in tracer.spans if span.name == "rung-0"]
        assert rung.attrs["switched_rows"] == batch.size

        forced = BatchSimulator(model, CASCADE_OPTIONS, method="radau5")
        forced.simulate((0.0, 1.0), CASCADE_GRID, batch)
        assert forced.last_report.metrics.counters[
            "router.switched_rows"] == 0

    def test_single_parameterization_accepted(self):
        model = decay_chain(2)
        engine = BatchSimulator(model)
        result = engine.simulate((0, 1), np.array([0.0, 1.0]),
                                 model.nominal_parameterization())
        assert result.batch_size == 1

    @pytest.mark.parametrize("policy", ["hybrid", "coarse", "fine"])
    def test_policies_give_same_dynamics(self, policy):
        model = decay_chain(3)
        batch = perturbed_batch(model.nominal_parameterization(), 4,
                                np.random.default_rng(3))
        grid = np.linspace(0, 2, 5)
        result = BatchSimulator(model, policy=policy).simulate(
            (0, 2), grid, batch)
        reference = BatchSimulator(model, policy="hybrid").simulate(
            (0, 2), grid, batch)
        assert np.allclose(result.y, reference.y, rtol=1e-12, atol=1e-15)


class TestWidthIndependentRouting:
    """A row's switch depends on that row alone, so its result does not
    depend on its launch neighbours."""

    def test_cascade_rows_match_across_launch_widths(self):
        """The stiff_cascade call shape, where every row switches."""
        model, batch = cascade_call()
        whole = BatchSimulator(model, CASCADE_OPTIONS).simulate(
            (0.0, 1.0), CASCADE_GRID, batch)
        split = BatchSimulator(model, CASCADE_OPTIONS,
                               max_batch_per_launch=4).simulate(
            (0.0, 1.0), CASCADE_GRID, batch)
        assert split.method_codes.tobytes() == whole.method_codes.tobytes()
        for row in range(batch.size):
            assert row_bytes(split, row) == row_bytes(whole, row), row

    def test_split_and_joined_launches_count_the_same_work(self):
        """Switched cascade rows count the same ``kernel.rhs_evals`` and
        switch alike in one launch as in two, with one Radau5 launch per
        router call."""
        model, batch = cascade_call()
        reports = []
        for width in (16, 8):
            engine = BatchSimulator(model, CASCADE_OPTIONS,
                                    max_batch_per_launch=width)
            engine.simulate((0.0, 1.0), CASCADE_GRID, batch)
            reports.append(engine.last_report)
        joined, split = reports
        assert len(split.routing) == 2
        assert split.metrics.counters["kernel.rhs_evals"] \
            == joined.metrics.counters["kernel.rhs_evals"]
        assert split.metrics.counters["router.switched_rows"] \
            == joined.metrics.counters["router.switched_rows"] == batch.size
        assert np.concatenate(
            [decision.switched for decision in split.routing]
        ).tobytes() == joined.routing[0].switched.tobytes()

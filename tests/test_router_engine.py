"""Tests for the stiffness router and the batch engine."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gpu import (BatchDopri5, BatchRadau5, BatchSimulator,
                       BatchedODEProblem, RoutingDecision, StiffnessRouter,
                       classify_batch)
from repro.gpu.batch_result import OK
from repro.model import ODESystem, ParameterizationBatch, perturbed_batch
from repro.models import decay_chain, robertson
from repro.solvers import SolverOptions
from repro.solvers.stiffness import power_iteration_matvec
from repro.telemetry import Tracer


def make_problem(model, batch_size=4, seed=0):
    system = ODESystem.from_model(model)
    batch = perturbed_batch(model.nominal_parameterization(), batch_size,
                            np.random.default_rng(seed))
    return BatchedODEProblem(system, batch)


def cascade_call():
    """``(model, batch)`` of the stiff_cascade call shape: 16 perturbed
    cascade rows, row 0 at half rates (DOPRI5 first, handed back)."""
    from repro.rules.library import multisite_cascade
    model = multisite_cascade(5, kinase_rate=1e3).expand()
    sampled = perturbed_batch(model.nominal_parameterization(), 16,
                              np.random.default_rng(1))
    constants = sampled.rate_constants
    constants[0] *= 0.5
    return model, ParameterizationBatch(constants, sampled.initial_states)


CASCADE_OPTIONS = SolverOptions(rtol=1e-6, atol=1e-12)
CASCADE_GRID = np.linspace(0.0, 1.0, 6)


class TestClassification:
    def test_mixed_batch_split(self):
        """Stiff and benign parameterizations of one model separate."""
        model = robertson()
        nominal = model.nominal_parameterization()
        soft = nominal.with_rate_constant(1, 1.0).with_rate_constant(2, 1.0)
        batch = ParameterizationBatch.from_parameterizations(
            [nominal, soft])
        # Start with some B so the Jacobian sees the fast reactions.
        states = batch.initial_states.copy()
        states[:, 1] = 1e-3
        problem = BatchedODEProblem(ODESystem.from_model(model),
                                    ParameterizationBatch(
                                        batch.rate_constants, states))
        decision = classify_batch(problem, 0.0, threshold=500.0)
        assert decision.stiff_mask.tolist() == [True, False]
        assert decision.n_stiff == 1

    def test_threshold_is_respected(self):
        problem = make_problem(decay_chain(3))
        decision = classify_batch(problem, 0.0, threshold=1e-9)
        assert decision.n_stiff == problem.batch_size


class TestStaticPrefilter:
    def test_low_risk_batch_skips_probe(self):
        """Rate spread under STIFFNESS_SAFE_DECADES: no power iteration."""
        problem = make_problem(decay_chain(3), 4)
        decision = classify_batch(problem, 0.0, threshold=500.0,
                                  static_risk=0.5)
        assert decision.probe_skipped
        assert decision.n_stiff == 0
        assert np.all(decision.spectral_radii == 0.0)

    def test_high_risk_batch_still_probed(self):
        problem = make_problem(decay_chain(3), 4)
        decision = classify_batch(problem, 0.0, threshold=500.0,
                                  static_risk=8.0)
        assert not decision.probe_skipped
        assert np.all(decision.spectral_radii > 0.0)

    def test_router_applies_prefilter_automatically(self):
        problem = make_problem(decay_chain(3), 4)
        result, decision = StiffnessRouter().solve(
            problem, (0, 2), np.linspace(0, 2, 5))
        assert decision.probe_skipped
        assert result.all_success
        assert set(result.methods()) == {"dopri5"}

    def test_prefilter_never_engages_on_wide_spread(self):
        problem = make_problem(robertson(), 2)
        _, decision = StiffnessRouter(
            SolverOptions(max_steps=100_000)).solve(
                problem, (0, 1e3), np.array([0.0, 1e3]))
        assert not decision.probe_skipped

    def test_prefilter_results_match_probed_results(self):
        """The probe the prefilter skips would route every row to DOPRI5
        too, so the router's bytes are those of a direct DOPRI5 solve
        with the stiffness abort."""
        problem = make_problem(decay_chain(3), 6)
        grid = np.linspace(0, 2, 5)
        probed = classify_batch(problem, 0.0,
                                SolverOptions().stiffness_threshold)
        assert not probed.probe_skipped
        assert probed.n_stiff == 0
        routed, decision = StiffnessRouter().solve(problem, (0, 2), grid)
        assert decision.probe_skipped
        direct = BatchDopri5(abort_on_stiffness=True).solve(
            problem, (0, 2), grid)
        for name in ("y", "status_codes", "method_codes", "n_steps",
                     "n_accepted", "n_rejected"):
            assert getattr(routed, name).tobytes() == \
                getattr(direct, name).tobytes(), name


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
        assert decision.n_handed_back == 0

    def test_handed_back_rows_join_the_stiff_launch(self, monkeypatch):
        """One Radau5 launch runs the probe-stiff rows and the row DOPRI5
        hands back; that row's bytes are those of its own Radau5 launch
        and its step count adds both integrators' attempts."""
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
        assert decision.handed_back.tolist() == [True] + [False] * 15
        assert decision.n_handed_back == 1
        assert decision.n_stiff == batch.size - 1
        assert set(result.methods()) == {"radau5"}

        row = problem.subset(np.array([0]))
        explicit = BatchDopri5(CASCADE_OPTIONS, abort_on_stiffness=True)\
            .solve(row, (0.0, 1.0), CASCADE_GRID)
        assert explicit.status_codes[0] != OK
        alone = solve(BatchRadau5(CASCADE_OPTIONS), row, (0.0, 1.0),
                      CASCADE_GRID)
        assert result.y[0].tobytes() == alone.y[0].tobytes()
        assert result.n_steps[0] == explicit.n_steps[0] + alone.n_steps[0]


class TestRoutingDecision:
    def test_round_trip_keeps_the_handed_back_mask(self):
        decision = RoutingDecision(np.array([True, False, False]),
                                   np.array([900.0, 3.0, 0.0]), 500.0,
                                   handed_back=np.array([False, True,
                                                         False]))
        restored = RoutingDecision.from_dict(decision.to_dict())
        assert restored.handed_back.tolist() == [False, True, False]
        assert restored.n_handed_back == 1
        assert restored.n_stiff == 1
        assert restored.to_dict() == decision.to_dict()

    def test_dict_without_the_mask_loads_as_all_false(self):
        legacy = {"stiff_mask": [True, False],
                  "spectral_radii": [900.0, 3.0], "threshold": 500.0,
                  "probe_skipped": False}
        restored = RoutingDecision.from_dict(legacy)
        assert restored.handed_back.tolist() == [False, False]
        assert restored.n_handed_back == 0


class TestEngine:
    def test_auto_method_on_developing_stiffness(self):
        """Robertson is non-stiff at t=0 but the engine still solves it
        (stiffness abort + Radau re-execution)."""
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
        """The registry and the rung span count the probe-stiff and the
        handed-back rows of a call."""
        model, batch = cascade_call()
        tracer = Tracer()
        engine = BatchSimulator(model, CASCADE_OPTIONS, tracer=tracer)
        engine.simulate((0.0, 1.0), CASCADE_GRID, batch)
        counters = engine.last_report.metrics.counters
        assert counters["router.probe_stiff_rows"] == 15
        assert counters["router.handed_back_rows"] == 1
        (rung,) = [span for span in tracer.spans if span.name == "rung-0"]
        assert rung.attrs["probe_stiff_rows"] == 15
        assert rung.attrs["handed_back_rows"] == 1

        forced = BatchSimulator(model, CASCADE_OPTIONS, method="radau5")
        forced.simulate((0.0, 1.0), CASCADE_GRID, batch)
        counters = forced.last_report.metrics.counters
        assert counters["router.probe_stiff_rows"] == 0
        assert counters["router.handed_back_rows"] == 0

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
    """A row's routing depends on that row alone, so its result does not
    depend on its launch neighbours."""

    def test_cascade_rows_match_across_launch_widths(self):
        """The stiff_cascade call shape: 16 perturbed cascade rows, row 0
        at half rates. Once, start vectors by launch position, estimates
        overwritten until the slowest row converged and a launch-wide
        risk score moved rows between DOPRI5-first and Radau5."""
        from .row_isolation import row_bytes
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
        """The probe evaluates only the rows still iterating, so E1 rows
        whose probes converge at different iterations count the same
        ``kernel.rhs_evals`` in one launch as in two, and route alike."""
        from repro.synth import generate_symmetric
        model = generate_symmetric(32, seed=11)
        batch = perturbed_batch(model.nominal_parameterization(), 16,
                                np.random.default_rng(7))
        grid = np.linspace(0.0, 2.0, 11)
        reports = []
        for width in (16, 8):
            engine = BatchSimulator(model, max_batch_per_launch=width)
            engine.simulate((0.0, 2.0), grid, batch)
            reports.append(engine.last_report)
        joined, split = reports
        assert len(split.routing) == 2
        assert not joined.routing[0].probe_skipped
        assert split.metrics.counters["kernel.rhs_evals"] \
            == joined.metrics.counters["kernel.rhs_evals"]
        for field in ("stiff_mask", "spectral_radii", "handed_back"):
            assert np.concatenate(
                [getattr(decision, field) for decision in split.routing]
            ).tobytes() == getattr(joined.routing[0], field).tobytes()

    def test_probe_estimates_are_those_of_width_one_probes(self):
        scales = np.array([1.0, 40.0, 3.0, 900.0])
        spectra = np.array([[1.0, -0.9, 0.2], [2.0, 1.9, 1.0],
                            [0.5, 0.3, -0.45], [1.0, 0.2, 0.1]])
        matrices = scales[:, None] * spectra

        def probe(rows):
            return power_iteration_matvec(
                lambda vectors, live: matrices[rows][live] * vectors,
                np.ones((rows.size, 3)))

        whole = probe(np.arange(4))
        for row in range(4):
            alone = probe(np.array([row]))
            assert alone.spectral_radius[0] == whole.spectral_radius[row]
            assert alone.converged[0] == whole.converged[row]

    def test_static_prefilter_scores_each_row(self):
        problem = make_problem(decay_chain(3), 2)
        decision = classify_batch(problem, 0.0, threshold=1e-9,
                                  static_risk=np.array([0.5, 8.0]))
        assert not decision.probe_skipped
        assert decision.spectral_radii[0] == 0.0
        assert decision.stiff_mask.tolist() == [False, True]

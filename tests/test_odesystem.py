"""Unit and property tests for the compiled ODE systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.gpu.batched_ode import BatchedODEProblem
from repro.model import (CustomLaw, Hill, MichaelisMenten, ODESystem,
                         ParameterizationBatch, ReactionBasedModel)
from repro.model import odesystem
from repro.rules import multisite_cascade
from repro.synth import generate_symmetric

from .conftest import finite_difference_jacobian


class TestFlux:
    def test_mass_action_flux_values(self, toy_system, toy_model):
        state = np.array([[1.0, 2.0, 0.5, 0.3]])
        constants = toy_model.rate_constants()
        flux = toy_system.flux(state, constants)[0]
        # A+B -> C: 0.5 * 1 * 2; C -> A+B: 0.2 * 0.5; 2A -> D: 0.1 * 1;
        # 0 -> A: 0.01; D -> 0: 0.3 * 0.3.
        assert flux == pytest.approx([1.0, 0.1, 0.1, 0.01, 0.09])

    def test_second_order_same_species_uses_square(self):
        model = ReactionBasedModel("sq")
        model.add_species("A", 3.0)
        model.add("2 A -> B @ 2.0")
        system = ODESystem.from_model(model)
        flux = system.flux(np.array([[3.0, 0.0]]), np.array([2.0]))
        assert flux[0, 0] == pytest.approx(2.0 * 9.0)

    def test_high_order_generic_path(self):
        model = ReactionBasedModel("cubic")
        model.add_species("X", 2.0)
        model.add_species("Y", 3.0)
        model.add("2 X + Y -> 3 X @ 0.5")
        system = ODESystem.from_model(model)
        flux = system.flux(np.array([[2.0, 3.0, 0.0][:2]]), np.array([0.5]))
        assert flux[0, 0] == pytest.approx(0.5 * 4.0 * 3.0)

    def test_michaelis_menten_flux(self):
        model = ReactionBasedModel("mm")
        model.add_species("S", 1.0)
        model.add("S -> P", rate_constant=2.0, law=MichaelisMenten(km=0.5))
        system = ODESystem.from_model(model)
        flux = system.flux(np.array([[1.0, 0.0]]), np.array([2.0]))
        assert flux[0, 0] == pytest.approx(2.0 * 1.0 / 1.5)

    def test_hill_flux_half_saturation(self):
        model = ReactionBasedModel("hill")
        model.add_species("S", 0.5)
        model.add("S -> P", rate_constant=4.0, law=Hill(km=0.5, n=3.0))
        system = ODESystem.from_model(model)
        flux = system.flux(np.array([[0.5, 0.0]]), np.array([4.0]))
        assert flux[0, 0] == pytest.approx(2.0)   # half of Vmax at S = km

    def test_batched_constants_broadcast(self, toy_system, toy_model):
        constants = toy_model.rate_constants()
        states = np.tile([1.0, 2.0, 0.5, 0.3], (3, 1))
        shared = toy_system.flux(states, constants)
        stacked = toy_system.flux(states, np.tile(constants, (3, 1)))
        assert np.allclose(shared, stacked)


class TestPolicies:
    @pytest.mark.parametrize("policy", ["hybrid", "coarse", "fine"])
    def test_policies_agree_on_toy_model(self, toy_system, toy_model,
                                         policy):
        rng = np.random.default_rng(0)
        states = rng.random((5, toy_model.n_species))
        constants = toy_model.rate_constants()
        expected = toy_system.rhs(states, constants, "hybrid")
        assert np.allclose(toy_system.rhs(states, constants, policy),
                           expected)

    def test_unknown_policy_rejected(self, toy_system, toy_model):
        with pytest.raises(ModelError):
            toy_system.rhs(np.ones((1, 4)), toy_model.rate_constants(),
                           policy="warp")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_policies_agree_on_random_models(self, seed):
        """All three granularity policies compute identical derivatives."""
        model = generate_symmetric(8, seed=seed)
        system = ODESystem.from_model(model)
        rng = np.random.default_rng(seed)
        states = rng.random((3, model.n_species))
        constants = model.rate_constants()
        hybrid = system.rhs(states, constants, "hybrid")
        assert np.allclose(system.rhs(states, constants, "coarse"), hybrid,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(system.rhs(states, constants, "fine"), hybrid,
                           rtol=1e-12, atol=1e-12)


class TestRHS:
    def test_rhs_matches_matrix_formula(self, toy_system, toy_model):
        """dX/dt = (B - A)^T (K o X^A), the paper's Eq. 2."""
        rng = np.random.default_rng(1)
        state = rng.random(toy_model.n_species)
        constants = toy_model.rate_constants()
        matrices = toy_model.matrices
        monomials = np.prod(
            state[None, :] ** matrices.reactants, axis=1)
        expected = matrices.net.T @ (constants * monomials)
        assert np.allclose(toy_system.rhs_single(state, constants), expected)

    def test_conservation_respected_by_rhs(self, dimer_model):
        system = ODESystem.from_model(dimer_model)
        laws = dimer_model.conservation_law_basis()
        rng = np.random.default_rng(2)
        states = rng.random((6, dimer_model.n_species))
        derivative = system.rhs(states, dimer_model.rate_constants())
        assert np.allclose(derivative @ laws.T, 0.0, atol=1e-12)

    def test_scipy_adapters(self, toy_system, toy_model):
        constants = toy_model.rate_constants()
        fun = toy_system.as_scipy_rhs(constants)
        jac = toy_system.as_scipy_jacobian(constants)
        state = np.array([1.0, 2.0, 0.5, 0.3])
        assert np.allclose(fun(0.0, state),
                           toy_system.rhs_single(state, constants))
        assert jac(0.0, state).shape == (4, 4)


def _every_law_model():
    """Mass action of orders 0-3 beside MM, Hill and custom laws."""
    model = ReactionBasedModel("every-law")
    for name, amount in (("X", 0.7), ("Y", 0.4), ("Z", 0.2), ("W", 0.1)):
        model.add_species(name, amount)
    model.add("0 -> X @ 0.3")
    model.add("X -> Y @ 1.1")
    model.add("X + Y -> Z @ 0.7")
    model.add("2 Y -> W @ 0.2")
    model.add("2 X + Y -> 3 X @ 0.5")
    model.add("Z -> X", rate_constant=1.5, law=MichaelisMenten(km=0.3))
    model.add("W -> Y", rate_constant=2.0, law=Hill(km=0.4, n=2.5))
    model.add("Y -> Z", rate_constant=0.9,
              law=CustomLaw.from_string("k * Y * X / (0.1 + X)"))
    return model


def _gathered_flux(system, states, constants):
    """The flux as formulated before the one-body rewrite: a separate
    extended-state helper, the two gathers, the rate-law loops, then
    the constants multiply and the custom laws."""
    states = np.atleast_2d(states)
    batch, n = states.shape
    extended = np.empty((batch, n + 1))
    extended[:, :n] = states
    extended[:, n] = 1.0
    fluxes = extended[:, system._idx1] * extended[:, system._idx2]
    for monomial in system._generic:
        fluxes[:, monomial.reaction] = np.prod(
            states[:, monomial.species] ** monomial.powers, axis=1)
    for i, substrate, km in system._mm:
        s = states[:, substrate]
        fluxes[:, i] = s / (km + s)
    for i, substrate, km, hill_n in system._hill:
        s = np.maximum(states[:, substrate], 0.0)
        s_n = s ** hill_n
        fluxes[:, i] = s_n / (km ** hill_n + s_n)
    result = fluxes * constants
    constants_2d = np.broadcast_to(np.atleast_2d(constants),
                                   (batch, system.n_reactions))
    for i, law, _, binding in system._custom:
        environment = {name: states[:, j] for name, j in binding.items()}
        environment["k"] = constants_2d[:, i]
        result[:, i] = np.broadcast_to(
            law.expression.evaluate(environment), (batch,))
    return result


def _gathered_rhs(system, states, constants):
    fluxes = _gathered_flux(system, states, constants)
    if not system._row_stable_gemm:
        return system._net_csc_t.dot(fluxes.T).T
    if fluxes.shape[0] == 1:
        return (np.concatenate([fluxes, fluxes]) @ system._net)[:1]
    return fluxes @ system._net


class TestOneFluxBody:
    """``flux`` and the hybrid ``rhs`` are byte-equal to the former
    gather-then-multiply formulation."""

    @staticmethod
    def _inputs(model, width):
        rng = np.random.default_rng(width)
        states = rng.random((width, model.n_species)) * 2.0
        states[::3, 0] = 0.0
        states[1::3, -1] = -0.0
        constants = model.rate_constants() * rng.uniform(
            0.5, 1.5, (width, model.n_reactions))
        return states, constants

    @pytest.mark.parametrize("width", [1, 2, 5, 256])
    @pytest.mark.parametrize("build", [
        _every_law_model, lambda: generate_symmetric(32, seed=11)],
        ids=["every-law", "mass-action"])
    def test_batch_states(self, build, width):
        model = build()
        system = ODESystem.from_model(model)
        states, constants = self._inputs(model, width)
        for k in (constants, constants[0], constants[:1]):
            assert system.flux(states, k).tobytes() == \
                _gathered_flux(system, states, k).tobytes()
            assert system.rhs(states, k).tobytes() == \
                _gathered_rhs(system, states, k).tobytes()

    def test_one_dimensional_state(self):
        model = _every_law_model()
        system = ODESystem.from_model(model)
        states, constants = self._inputs(model, 1)
        state, k = states[0], constants[0]
        assert system.flux(state, k).shape == (1, model.n_reactions)
        assert system.flux(state, k).tobytes() == \
            _gathered_flux(system, state, k).tobytes()
        assert system.rhs(state, k).tobytes() == \
            _gathered_rhs(system, state, k).tobytes()
        assert system.rhs_single(state, k).tobytes() == \
            _gathered_rhs(system, state, k)[0].tobytes()


def _cascade_model():
    """The rule-expanded 34x160 cascade."""
    return multisite_cascade(5, kinase_rate=1e3).expand()


def _system_on(model, branch):
    """``model`` compiled, on the stoichiometric product ``branch``
    names: ``"csr"`` forces scipy's CSR kernel, ``"gemm"`` needs the
    installed BLAS to pass the width probe."""
    system = ODESystem.from_model(model)
    if branch == "csr":
        system._row_stable_gemm = False
    elif not system._row_stable_gemm:
        pytest.skip("this BLAS fails the gemm width probe on this net")
    return system


class TestSpeciesMajorProducts:
    """Both stoichiometric products are byte-equal to the former
    gather-then-multiply formulation, whatever the constants' form and
    however a bound problem hands them over."""

    @pytest.mark.parametrize("width", [1, 2, 5, 16, 17, 256])
    def test_cascade_rhs_and_flux(self, width):
        model = _cascade_model()
        system = _system_on(model, "csr")
        states, constants = TestOneFluxBody._inputs(model, width)
        for k in (constants, constants[0], constants[:1]):
            assert system.flux(states, k).tobytes() == \
                _gathered_flux(system, states, k).tobytes()
            assert system.rhs(states, k).tobytes() == \
                _gathered_rhs(system, states, k).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 5, 16, 17, 256])
    @pytest.mark.parametrize("build, branch", [
        (_cascade_model, "csr"),
        (lambda: generate_symmetric(32, seed=11), "csr"),
        (lambda: generate_symmetric(32, seed=11), "gemm")],
        ids=["cascade-csr", "mass-action-csr", "mass-action-gemm"])
    def test_bound_problem(self, build, branch, width):
        model = build()
        system = _system_on(model, branch)
        states, constants = TestOneFluxBody._inputs(model, width)
        problem = BatchedODEProblem(system, ParameterizationBatch(
            constants, np.ones_like(states)))
        assert problem.constants_t.flags.c_contiguous
        assert problem.fun(0.0, states).tobytes() == \
            _gathered_rhs(system, states, constants).tobytes()
        for rows in (np.arange(0, width, 2), np.arange(width)[::-1][:3]):
            expected = _gathered_rhs(system, states[rows],
                                     constants[rows]).tobytes()
            assert problem.fun(0.0, states[rows], rows).tobytes() == expected
            assert problem.subset(rows).fun(0.0, states[rows]).tobytes() \
                == expected


class TestWidthProbe:
    @pytest.mark.parametrize("build", [
        _cascade_model, lambda: generate_symmetric(32, seed=11)],
        ids=["cascade", "mass-action"])
    def test_rows_equal_their_width_32_bytes(self, build):
        """On a net that passes the probe, a bound problem's rows at
        every width are the bytes of the same rows at width 32."""
        model = build()
        system = _system_on(model, "gemm")
        states, constants = TestOneFluxBody._inputs(model, 256)
        problem = BatchedODEProblem(system, ParameterizationBatch(
            constants, np.ones_like(states)))
        reference = problem.subset(np.arange(32)).fun(0.0, states[:32])
        for width in [*range(1, 18), 256]:
            rows = problem.subset(np.arange(width)).fun(0.0,
                                                         states[:width])
            shared = min(width, 32)
            assert rows[:shared].tobytes() == reference[:shared].tobytes()

    def test_probe_runs_the_production_product(self, monkeypatch):
        """The probe and the hybrid RHS reach BLAS through the same
        product, with the same operand layouts, at width 1 and wider."""
        calls = {"probe": set(), "rhs": set()}
        product = odesystem._stoichiometric_gemm
        caller = ["probe"]

        def recording(fluxes_t, net):
            calls[caller[0]].add((fluxes_t.shape[1] == 1,
                                  fluxes_t.flags.c_contiguous,
                                  fluxes_t.dtype.str, net.flags.c_contiguous,
                                  net.dtype.str))
            return product(fluxes_t, net)

        model = generate_symmetric(32, seed=11)
        system = _system_on(model, "gemm")
        monkeypatch.setattr(odesystem, "_stoichiometric_gemm", recording)
        assert odesystem._gemm_rows_are_width_stable(system._net)
        caller[0] = "rhs"
        for width in (1, 5):
            states, constants = TestOneFluxBody._inputs(model, width)
            system.rhs(states, constants)
            BatchedODEProblem(system, ParameterizationBatch(
                constants, states)).fun(0.0, states)
        assert calls["rhs"] == calls["probe"]
        assert {single for single, *_ in calls["rhs"]} == {True, False}

    def test_equal_network_is_probed_once(self, monkeypatch):
        probes = []

        def counting(net):
            probes.append(net.shape)
            return True

        monkeypatch.setattr(odesystem, "_probe_memo", {})
        monkeypatch.setattr(odesystem, "_gemm_rows_are_width_stable",
                            counting)
        first = ODESystem.from_model(generate_symmetric(32, seed=11))
        second = ODESystem.from_model(generate_symmetric(32, seed=11))
        assert first is not second and first.model is not second.model
        assert probes == [(32, 32)]
        ODESystem.from_model(generate_symmetric(32, seed=12))
        assert len(probes) == 2

    def test_memo_stays_at_its_bound(self, monkeypatch):
        probes = []
        monkeypatch.setattr(odesystem, "_probe_memo", {})
        monkeypatch.setattr(odesystem, "PROBE_MEMO_SIZE", 3)
        monkeypatch.setattr(odesystem, "_gemm_rows_are_width_stable",
                            lambda net: probes.append(1) or True)
        nets = [np.full((2, 3), float(i)) for i in range(5)]
        for net in nets:
            assert odesystem._row_stable_gemm(net)
        assert len(odesystem._probe_memo) == 3
        odesystem._row_stable_gemm(nets[-1])      # newest: remembered
        assert len(probes) == 5
        odesystem._row_stable_gemm(nets[0])       # oldest: evicted
        assert len(probes) == 6
        assert len(odesystem._probe_memo) == 3

    def test_concurrent_compiles_share_the_memo(self, monkeypatch):
        """Threads compiling equal and distinct networks at once get
        the probe's own verdicts, and the memo never passes its bound."""
        import sys
        import threading
        monkeypatch.setattr(odesystem, "_probe_memo", {})
        monkeypatch.setattr(odesystem, "PROBE_MEMO_SIZE", 2)
        nets = [ODESystem.from_model(generate_symmetric(8, seed=seed))._net
                for seed in range(4)]
        expected = [odesystem._gemm_rows_are_width_stable(net)
                    for net in nets]
        results, sizes = [], []

        def compile_all(offset):
            for i in range(12):
                index = (i + offset) % len(nets)
                results.append((index, odesystem._row_stable_gemm(
                    nets[index])))
                sizes.append(len(odesystem._probe_memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_all, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 72
        assert all(stable == expected[index] for index, stable in results)
        assert max(sizes) <= 2


class TestJacobian:
    def test_jacobian_matches_finite_differences(self, toy_system,
                                                 toy_model):
        constants = toy_model.rate_constants()
        state = np.array([1.0, 2.0, 0.5, 0.3])
        analytic = toy_system.jacobian_single(state, constants)
        numeric = finite_difference_jacobian(
            lambda x: toy_system.rhs_single(x, constants), state)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_jacobian_with_generic_and_saturating_terms(self):
        model = ReactionBasedModel("mixed")
        model.add_species("X", 0.7)
        model.add_species("Y", 0.4)
        model.add_species("Z", 0.2)
        model.add("2 X + Y -> 3 X @ 0.5")                  # order 3
        model.add("Y -> Z", rate_constant=1.5,
                  law=MichaelisMenten(km=0.3))
        model.add("Z -> X", rate_constant=2.0, law=Hill(km=0.4, n=2.0))
        system = ODESystem.from_model(model)
        constants = model.rate_constants()
        state = np.array([0.7, 0.4, 0.2])
        analytic = system.jacobian_single(state, constants)
        numeric = finite_difference_jacobian(
            lambda x: system.rhs_single(x, constants), state)
        assert np.allclose(analytic, numeric, atol=1e-5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_jacobian_property_on_random_models(self, seed):
        """Analytic Jacobians match finite differences for random RBMs."""
        model = generate_symmetric(6, seed=seed)
        system = ODESystem.from_model(model)
        rng = np.random.default_rng(seed + 1)
        state = rng.random(model.n_species) + 0.1
        constants = model.rate_constants()
        analytic = system.jacobian_single(state, constants)
        numeric = finite_difference_jacobian(
            lambda x: system.rhs_single(x, constants), state)
        scale = np.max(np.abs(numeric)) + 1.0
        assert np.allclose(analytic, numeric, atol=1e-4 * scale)

    def test_batched_jacobian_rows_independent(self, toy_system, toy_model):
        rng = np.random.default_rng(3)
        states = rng.random((4, toy_model.n_species))
        constants = toy_model.rate_constants()
        batched = toy_system.jacobian(states, constants)
        for b in range(4):
            single = toy_system.jacobian_single(states[b], constants)
            assert np.allclose(batched[b], single)

    @pytest.mark.parametrize("method", ["dopri5", "auto"])
    def test_explicit_runs_never_build_the_jacobian(self, method,
                                                    monkeypatch):
        """E1 rows on the DOPRI5 path leave the Jacobian tables unbuilt;
        the first ``jacobian`` call builds them."""
        from repro.gpu import BatchSimulator
        from repro.model import perturbed_batch

        def refuse(system):
            raise AssertionError("Jacobian tables built")

        model = generate_symmetric(32, seed=11)
        batch = perturbed_batch(model.nominal_parameterization(), 4,
                                np.random.default_rng(7))
        build = ODESystem._compile_partials
        monkeypatch.setattr(ODESystem, "_compile_partials", refuse)
        engine = BatchSimulator(model, method=method)
        result = engine.simulate((0.0, 2.0), np.linspace(0.0, 2.0, 11),
                                 batch)
        assert result.all_success
        assert set(result.methods()) == {"dopri5"}
        system = ODESystem.from_model(model)
        assert system._jac_operator is None
        monkeypatch.setattr(ODESystem, "_compile_partials", build)
        state = model.initial_state()
        jacobian = system.jacobian_single(state, model.rate_constants())
        assert system._jac_operator is not None
        assert np.array_equal(jacobian, ODESystem.from_model(model)
                              .jacobian_single(state,
                                               model.rate_constants()))

    def test_concurrent_first_calls_agree(self):
        """Threads racing to build the tables all get the reference
        Jacobian: the operator is assigned only after its tables."""
        import sys
        import threading
        model = generate_symmetric(16, seed=2)
        constants = model.rate_constants()
        states = np.random.default_rng(5).random((3, model.n_species))
        reference = ODESystem.from_model(model).jacobian(states, constants)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                system = ODESystem.from_model(model)
                results = []
                threads = [threading.Thread(target=lambda: results.append(
                    system.jacobian(states, constants))) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 6
                assert all(np.array_equal(result, reference)
                           for result in results)
        finally:
            sys.setswitchinterval(interval)

    def test_jacobian_operator_is_deterministic(self, toy_system,
                                                toy_model):
        rng = np.random.default_rng(4)
        states = rng.random((2, toy_model.n_species))
        constants = toy_model.rate_constants()
        first = toy_system.jacobian(states, constants)
        second = toy_system.jacobian(states, constants)
        assert np.array_equal(first, second)

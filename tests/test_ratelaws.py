"""Tests for arbitrary rate laws (expression AST, parser, integration)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simulate
from repro.errors import KineticsError, ParseError
from repro.model import (CustomLaw, ODESystem, ReactionBasedModel,
                         parse_expression)
from repro.solvers import SolverOptions

from .conftest import finite_difference_jacobian
from .scalar_problems import scipy_rows


def evaluate(text, **values):
    expression = parse_expression(text)
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
    return expression.evaluate(arrays)


class TestParser:
    def test_arithmetic(self):
        assert evaluate("1 + 2 * 3") == pytest.approx(7.0)
        assert evaluate("(1 + 2) * 3") == pytest.approx(9.0)
        assert evaluate("8 / 4 / 2") == pytest.approx(1.0)
        assert evaluate("2 ^ 3") == pytest.approx(8.0)
        assert evaluate("-3 + 5") == pytest.approx(2.0)

    def test_variables(self):
        assert evaluate("k * S", k=2.0, S=3.0) == pytest.approx(6.0)

    def test_vectorized_evaluation(self):
        result = evaluate("k * S / (1 + S)", k=2.0, S=np.array([1.0, 3.0]))
        assert np.allclose(result, [1.0, 1.5])

    def test_scientific_notation(self):
        assert evaluate("1.5e2") == pytest.approx(150.0)

    def test_negative_exponent(self):
        assert evaluate("2 ^ -1") == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", ["k *", "(k", "k + + S", "2 ^ S",
                                     "k $ S", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_expression(bad)

    def test_unknown_symbol_at_evaluation(self):
        with pytest.raises(KineticsError):
            evaluate("k * X", k=1.0)


class TestDifferentiation:
    @pytest.mark.parametrize("text,variable", [
        ("k * S", "S"),
        ("k * S / (0.4 + S)", "S"),
        ("k * S ^ 2 / (1 + S ^ 2)", "S"),
        ("k * (A - B) * (A + B)", "A"),
        ("k * A / B", "B"),
        ("k * (1 + A) ^ 3", "A"),
    ])
    def test_matches_finite_differences(self, text, variable):
        expression = parse_expression(text)
        derivative = expression.differentiate(variable).simplified()
        values = {"k": np.asarray(1.7), "S": np.asarray(0.9),
                  "A": np.asarray(1.3), "B": np.asarray(0.6)}
        epsilon = 1e-7
        bumped = dict(values)
        bumped[variable] = values[variable] + epsilon
        numeric = (expression.evaluate(bumped)
                   - expression.evaluate(values)) / epsilon
        assert derivative.evaluate(values) == pytest.approx(
            float(numeric), rel=1e-5)

    def test_derivative_of_unrelated_variable_is_zero(self):
        expression = parse_expression("k * S")
        derivative = expression.differentiate("Q").simplified()
        assert derivative.evaluate({}) == pytest.approx(0.0)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
           s=st.floats(0.1, 5.0))
    def test_hill_like_derivative_property(self, a, b, s):
        expression = parse_expression("k * S ^ 2 / (km ^ 2 + S ^ 2)")
        derivative = expression.differentiate("S")
        values = {"k": np.asarray(a), "km": np.asarray(b),
                  "S": np.asarray(s)}
        epsilon = 1e-6 * max(s, 1.0)
        bumped = dict(values)
        bumped["S"] = values["S"] + epsilon
        numeric = (expression.evaluate(bumped)
                   - expression.evaluate(values)) / epsilon
        assert float(derivative.evaluate(values)) == pytest.approx(
            float(numeric), rel=1e-3, abs=1e-8)


class TestCustomLawIntegration:
    def make_model(self):
        """S -> P with a substrate-inhibited custom law."""
        model = ReactionBasedModel("custom")
        model.add_species("S", 2.0)
        model.add_species("P", 0.0)
        model.add("S -> P", rate_constant=1.5,
                  law=CustomLaw.from_string("k * S / (0.4 + S + S^2 / 2)"))
        return model

    def test_flux_value(self):
        model = self.make_model()
        system = ODESystem.from_model(model)
        flux = system.flux(np.array([[2.0, 0.0]]),
                           model.rate_constants())
        expected = 1.5 * 2.0 / (0.4 + 2.0 + 2.0)
        assert flux[0, 0] == pytest.approx(expected)

    def test_jacobian_matches_finite_differences(self):
        model = self.make_model()
        system = ODESystem.from_model(model)
        constants = model.rate_constants()
        state = np.array([2.0, 0.0])
        analytic = system.jacobian_single(state, constants)
        numeric = finite_difference_jacobian(
            lambda x: system.rhs_single(x, constants), state)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_simulates_on_every_engine(self):
        model = self.make_model()
        grid = np.linspace(0, 5, 6)
        options = SolverOptions(max_steps=100_000)
        batched = simulate(model, (0, 5), grid, options=options)
        assert batched.all_success
        # SciPy's Radau through the custom law's analytic Jacobian.
        scalar = scipy_rows(ODESystem.from_model(model), model.batch(1),
                            (0, 5), grid, "Radau", options.rtol,
                            options.atol)
        assert np.allclose(batched.y, scalar, rtol=1e-5, atol=1e-8)
        # Conservation S + P through the custom flux.
        totals = batched.y[0].sum(axis=1)
        assert np.allclose(totals, totals[0], rtol=1e-8)

    def test_custom_law_with_activator_species(self):
        """A custom law may read species outside the reactant side."""
        model = ReactionBasedModel("activated")
        model.add_species("S", 1.0)
        model.add_species("P", 0.0)
        model.add_species("ACT", 0.5)
        model.add("S -> P", rate_constant=2.0,
                  law=CustomLaw.from_string("k * S * ACT / (0.1 + ACT)"))
        system = ODESystem.from_model(model)
        state = np.array([1.0, 0.0, 0.5])
        analytic = system.jacobian_single(state, model.rate_constants())
        numeric = finite_difference_jacobian(
            lambda x: system.rhs_single(x, model.rate_constants()), state)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_unknown_species_in_law_rejected(self):
        model = ReactionBasedModel("broken")
        model.add_species("S", 1.0)
        model.add("S -> 0", rate_constant=1.0,
                  law=CustomLaw.from_string("k * S * GHOST"))
        with pytest.raises(KineticsError):
            ODESystem.from_model(model)

    def test_batched_sweep_over_custom_law_constant(self):
        """k participates in sweeps exactly like mass-action constants."""
        from repro.core import ParameterRange, SweepTarget, run_psa_1d
        model = self.make_model()
        target = SweepTarget.rate_constant(model, 0,
                                           ParameterRange(0.5, 3.0))
        from repro.core import endpoint_metric
        result = run_psa_1d(model, target, 6, (0, 5),
                            np.array([0.0, 5.0]),
                            metric=endpoint_metric(model, "P"))
        assert result.simulation.all_success
        assert np.all(np.diff(result.metric_values) > 0)

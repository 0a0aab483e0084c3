"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.model import ODESystem, ReactionBasedModel
from repro.models import (brusselator, cascade, decay_chain, dimerization,
                          lotka_volterra, metabolic_network, robertson)
from repro.solvers import SolverOptions

# Property-based tests pick their example budget from a profile so CI
# can fuzz harder than a local run: HYPOTHESIS_PROFILE=ci bumps every
# @given test without touching the test files.
hypothesis_settings.register_profile("dev", max_examples=30, deadline=None)
hypothesis_settings.register_profile("ci", max_examples=150, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def toy_model() -> ReactionBasedModel:
    """Small mixed-order mass-action model used across unit tests."""
    model = ReactionBasedModel("toy")
    model.add_species("A", 1.0)
    model.add_species("B", 2.0)
    model.add("A + B -> C @ 0.5")
    model.add("C -> A + B @ 0.2")
    model.add("2 A -> D @ 0.1")
    model.add("0 -> A @ 0.01")
    model.add("D -> 0 @ 0.3")
    return model


@pytest.fixture
def toy_system(toy_model) -> ODESystem:
    return ODESystem.from_model(toy_model)


@pytest.fixture
def robertson_model() -> ReactionBasedModel:
    return robertson()


@pytest.fixture
def chain_model() -> ReactionBasedModel:
    return decay_chain(3)


@pytest.fixture
def dimer_model() -> ReactionBasedModel:
    return dimerization()


@pytest.fixture
def lv_model() -> ReactionBasedModel:
    return lotka_volterra()


@pytest.fixture
def brusselator_model() -> ReactionBasedModel:
    return brusselator()


@pytest.fixture
def cascade_model() -> ReactionBasedModel:
    return cascade()


@pytest.fixture
def metabolic_model() -> ReactionBasedModel:
    return metabolic_network()


@pytest.fixture(scope="session")
def package_lint_report():
    """One project analysis of the whole package (every rule family),
    shared by the self-gate tests instead of one analysis each."""
    from repro.lint import lint_project
    return lint_project()


@pytest.fixture
def tight_options() -> SolverOptions:
    return SolverOptions(rtol=1e-8, atol=1e-10)


@pytest.fixture
def loose_options() -> SolverOptions:
    return SolverOptions(rtol=1e-5, atol=1e-9)


@pytest.fixture
def stiff_options() -> SolverOptions:
    return SolverOptions(rtol=1e-6, atol=1e-10, max_steps=100_000)


def finite_difference_jacobian(fun, state: np.ndarray,
                               epsilon: float = 1e-7) -> np.ndarray:
    """Forward-difference reference Jacobian for verification."""
    base = fun(state)
    result = np.empty((base.size, state.size))
    for j in range(state.size):
        perturbed = state.copy()
        perturbed[j] += epsilon
        result[:, j] = (fun(perturbed) - base) / epsilon
    return result

"""Stiffness estimation utilities.

Dense spectral-radius estimates of Jacobians by power iteration, a
threshold classification over them (default 500) and the exact
stiffness ratio, for reports and diagnostics. The batched engine does
not classify up front: its router starts every simulation on DOPRI5
and switches a row to Radau IIA when Hairer's in-loop test finds it
stiff (:mod:`repro.gpu.router`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StiffnessEstimate:
    """Result of a spectral-radius estimation.

    Attributes
    ----------
    spectral_radius:
        Estimated magnitude of the dominant Jacobian eigenvalue; for a
        batch, shape (B,).
    converged:
        Whether the power iteration reached its tolerance.
    iterations:
        Power-iteration count actually used.
    """

    spectral_radius: np.ndarray
    converged: np.ndarray
    iterations: int


def power_iteration(matrices: np.ndarray, max_iterations: int = 50,
                    tol: float = 1e-3,
                    seed: int = 0) -> StiffnessEstimate:
    """Estimate the spectral radius of a batch of square matrices.

    ``matrices`` has shape (B, N, N) (or (N, N), treated as B=1).
    The estimate is the Rayleigh-quotient magnitude of the dominant
    eigenvalue; complex-conjugate dominant pairs make the plain power
    iteration oscillate, so convergence is measured on the magnitude.
    """
    single = matrices.ndim == 2
    if single:
        matrices = matrices[None]
    batch, n, _ = matrices.shape
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((batch, n))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True) + 1e-300
    estimate = np.zeros(batch)
    converged = np.zeros(batch, dtype=bool)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        products = np.einsum("bij,bj->bi", matrices, vectors)
        norms = np.linalg.norm(products, axis=1)
        new_estimate = norms
        done = np.abs(new_estimate - estimate) <= tol * np.maximum(
            new_estimate, 1e-30)
        converged |= done
        estimate = new_estimate
        safe = norms > 1e-300
        vectors = np.where(safe[:, None], products / (norms[:, None] + 1e-300),
                           vectors)
        if np.all(converged):
            break
    return StiffnessEstimate(estimate, converged, iterations)


def spectral_radius(matrix: np.ndarray, **kwargs) -> float:
    """Spectral-radius estimate of one matrix."""
    return float(power_iteration(matrix, **kwargs).spectral_radius[0])


def classify_stiffness(matrices: np.ndarray, threshold: float = 500.0,
                       **kwargs) -> np.ndarray:
    """Boolean stiff/non-stiff classification for a batch of Jacobians."""
    estimate = power_iteration(matrices, **kwargs)
    return estimate.spectral_radius > threshold


def stiffness_ratio(matrix: np.ndarray) -> float:
    """Exact stiffness ratio max|Re(lambda)| / min|Re(lambda)|.

    Uses a dense eigendecomposition, so it is intended for diagnostics
    and tests rather than the hot path. Eigenvalues with negligible real
    part are ignored in the denominator.
    """
    eigenvalues = np.linalg.eigvals(matrix)
    real_magnitudes = np.abs(eigenvalues.real)
    significant = real_magnitudes > 1e-12 * max(1.0, real_magnitudes.max())
    if not np.any(significant):
        return 1.0
    selected = real_magnitudes[significant]
    return float(selected.max() / selected.min())

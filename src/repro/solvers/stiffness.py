"""Stiffness estimation utilities.

The routing heuristic of the simulator family classifies each
simulation before integrating it: the dominant eigenvalue of the
Jacobian at the initial state is estimated by power iteration, and
simulations whose spectral radius exceeds a threshold (default 500) are
sent to the implicit Radau IIA method, the rest to DOPRI5.
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


def power_iteration_matvec(matvec, states: np.ndarray,
                           max_iterations: int = 20, tol: float = 5e-2,
                           seed: int = 0,
                           epsilon: float = 1e-7) -> StiffnessEstimate:
    """Matrix-free spectral-radius estimation via Jacobian action.

    ``matvec(directions, rows)`` must return J_b . directions[i] for
    each simulation b = rows[i] — typically implemented with one batched
    finite-difference RHS evaluation per iteration,
    (f(x + eps v) - f(x)) / eps, so the probe never materializes the
    (B, N, N) Jacobians. This is the router's production probe; the
    dense :func:`power_iteration` remains as the reference.

    Each simulation's estimate depends on its own Jacobian alone: every
    row starts from the same vector, and a row's estimate and vector
    freeze at its own convergence while slower rows iterate on, so a row
    gets the estimate of its own width-1 probe in any batch. Only the
    rows still iterating are evaluated, so the probe's work is the sum
    of its rows' own.
    """
    del epsilon  # the caller's matvec owns the differencing step
    batch, n = states.shape
    rng = np.random.default_rng(seed)
    start = rng.standard_normal((1, n))
    start /= np.linalg.norm(start, axis=1, keepdims=True) + 1e-300
    vectors = np.repeat(start, batch, axis=0)
    estimate = np.zeros(batch)
    converged = np.zeros(batch, dtype=bool)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        live = np.flatnonzero(~converged)
        products = matvec(vectors[live], live)
        norms = np.linalg.norm(products, axis=1)
        converged[live] = (np.abs(norms - estimate[live])
                           <= tol * np.maximum(norms, 1e-30))
        estimate[live] = norms
        moving = norms > 1e-300
        vectors[live[moving]] = (products[moving]
                                 / (norms[moving, None] + 1e-300))
        if converged.all():
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

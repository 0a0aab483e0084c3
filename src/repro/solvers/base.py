"""Shared definitions for the ODE solver stack.

The batched integrators and the SciPy baselines share one option set
and follow the tolerance convention of the paper family: absolute error
tolerance 1e-12, relative error tolerance 1e-6, and a cap of 1e4 steps
per simulation. The baselines report one :class:`SolveResult` per
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import SolverError

#: Status codes shared by every solver.
SUCCESS = "success"
MAX_STEPS = "max_steps"
FAILED = "failed"


@dataclass(frozen=True)
class SolverOptions:
    """Numerical integration options.

    Attributes
    ----------
    rtol, atol:
        Relative / absolute local error tolerances (paper defaults
        1e-6 / 1e-12).
    max_steps:
        Maximum accepted+rejected steps per simulation.
    first_step:
        Initial step size; ``None`` selects it automatically.
    max_step:
        Upper bound on the step size (default: span of the integration).
    min_step_factor, max_step_factor:
        Clamp on the per-step size change ratio.
    safety:
        Step controller safety factor.
    newton_max_iterations, newton_tol_factor:
        Implicit-stage Newton controls (Radau).
    stiffness_threshold:
        Dominant-eigenvalue magnitude above which ``analyze_model``
        reports the model as stiff.
    """

    rtol: float = 1e-6
    atol: float = 1e-12
    max_steps: int = 10_000
    first_step: float | None = None
    max_step: float = np.inf
    min_step_factor: float = 0.2
    max_step_factor: float = 8.0
    safety: float = 0.9
    newton_max_iterations: int = 7
    newton_tol_factor: float = 0.03
    stiffness_threshold: float = 500.0

    def __post_init__(self) -> None:
        if not (self.rtol > 0.0 and self.atol >= 0.0):
            raise SolverError(
                f"invalid tolerances rtol={self.rtol}, atol={self.atol}")
        if self.max_steps < 1:
            raise SolverError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.first_step is not None and not (self.first_step > 0.0):
            raise SolverError(f"first_step must be > 0, got {self.first_step}")
        if not (0.0 < self.min_step_factor < 1.0 <= self.max_step_factor):
            raise SolverError("step factor clamps must satisfy "
                              "0 < min < 1 <= max")

    def replace(self, **changes) -> "SolverOptions":
        """Copy with selected fields changed."""
        return replace(self, **changes)


DEFAULT_OPTIONS = SolverOptions()


@dataclass
class SolverStats:
    """Work counters accumulated during one integration."""

    n_steps: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs_evaluations: int = 0
    n_jacobian_evaluations: int = 0
    n_factorizations: int = 0
    n_newton_iterations: int = 0


@dataclass
class SolveResult:
    """Result of integrating one initial-value problem.

    Attributes
    ----------
    t:
        Save-time grid, shape (T,).
    y:
        States at the save times, shape (T, N).
    status:
        One of :data:`SUCCESS`, :data:`MAX_STEPS`, :data:`FAILED`.
    stats:
        Work counters.
    method:
        Name of the integration method that produced the result.
    message:
        Human-readable diagnostic for non-success statuses.
    """

    t: np.ndarray
    y: np.ndarray
    status: str
    stats: SolverStats = field(default_factory=SolverStats)
    method: str = ""
    message: str = ""

    @property
    def success(self) -> bool:
        return self.status == SUCCESS

    def final_state(self) -> np.ndarray:
        return self.y[-1]


def validate_time_grid(t_span: tuple[float, float],
                       t_eval: np.ndarray | None) -> np.ndarray:
    """Check and normalize the save grid against the integration span.

    A grid may overhang the span by a rounding error at either end; the
    returned save times are clipped into the span, so every engine saves
    the state at ``t0`` or ``t1`` there.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 > t0):
        raise SolverError(f"t_span must be increasing, got {t_span}")
    if t_eval is None:
        t_eval = np.array([t0, t1])
    t_eval = np.asarray(t_eval, dtype=np.float64)
    if t_eval.ndim != 1 or t_eval.size == 0:
        raise SolverError("t_eval must be a non-empty 1-D array")
    if np.any(np.diff(t_eval) <= 0.0):
        raise SolverError("t_eval must be strictly increasing")
    if t_eval[0] < t0 - 1e-15 or t_eval[-1] > t1 + 1e-12 * max(1.0, abs(t1)):
        raise SolverError(
            f"t_eval range [{t_eval[0]}, {t_eval[-1]}] exceeds "
            f"t_span {t_span}")
    return np.clip(t_eval, t0, t1)

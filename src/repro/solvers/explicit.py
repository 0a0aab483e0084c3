"""Scalar adaptive explicit Runge-Kutta integrator.

One tableau-driven implementation serves every embedded explicit pair
(RKF45, Cash-Karp, Bogacki-Shampine, DOPRI5). Steps are clipped so that
every requested save time is hit exactly; DOPRI5 additionally offers the
classical quartic dense-output interpolant (see
:class:`Dopri5Interpolant`).
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .base import (DEFAULT_OPTIONS, FAILED, MAX_STEPS, SUCCESS, SolveResult,
                   SolverOptions, SolverStats, StepController, error_norm,
                   initial_step_size, validate_time_grid)
from .tableaus import DOPRI5, DOPRI5_DENSE_D, ButcherTableau


class ExplicitRungeKutta:
    """Adaptive embedded explicit Runge-Kutta solver.

    Parameters
    ----------
    tableau:
        The embedded pair to integrate with.
    options:
        Numerical options (tolerances, step caps, ...).
    use_pi_controller:
        Select the PI (Gustafsson) step controller instead of the
        elementary one.
    """

    def __init__(self, tableau: ButcherTableau,
                 options: SolverOptions = DEFAULT_OPTIONS,
                 use_pi_controller: bool = True) -> None:
        self.tableau = tableau
        self.options = options
        self.use_pi_controller = use_pi_controller

    @property
    def name(self) -> str:
        return self.tableau.name

    def solve(self, fun, t_span: tuple[float, float], y0: np.ndarray,
              t_eval: np.ndarray | None = None,
              collect_interpolants: bool = False) -> SolveResult:
        """Integrate ``dy/dt = fun(t, y)`` over ``t_span``.

        Save times are hit exactly by clipping the step size. When
        ``collect_interpolants`` is set (DOPRI5 only) the result carries
        a list of per-step :class:`Dopri5Interpolant` objects in
        ``result.interpolants``.
        """
        options = self.options
        tableau = self.tableau
        t_eval = validate_time_grid(t_span, t_eval)
        t0, t1 = float(t_span[0]), float(t_span[1])
        y = np.array(y0, dtype=np.float64)
        stats = SolverStats()
        controller = StepController(tableau.error_order, options,
                                    self.use_pi_controller)

        output = np.empty((t_eval.size, y.size))
        save_index = 0
        t = t0
        if t_eval[0] == t0:
            output[0] = y
            save_index = 1

        f_current = fun(t, y)
        stats.n_rhs_evaluations += 1
        if options.first_step is not None:
            h = options.first_step
        else:
            h = initial_step_size(fun, t, y, f_current, tableau.order, options)
            stats.n_rhs_evaluations += 1
        max_step = min(options.max_step, t1 - t0)
        h = min(h, max_step)

        interpolants: list[Dopri5Interpolant] = []
        stages = np.empty((tableau.n_stages, y.size))

        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            if stats.n_steps >= options.max_steps:
                return SolveResult(t_eval[:save_index].copy(),
                                   output[:save_index].copy(), MAX_STEPS,
                                   stats, self.name,
                                   f"step budget exhausted at t={t:g}")
            h = min(h, t1 - t)
            # Clip so the next save time is hit exactly; a step that
            # would stop short of it by rounding only is clipped too, or
            # the next one would be of rounding size.
            clipped = False
            if save_index < t_eval.size:
                t_save = t_eval[save_index]
                if t + h >= t_save - abs(t_save) * 1e-15:
                    h = t_save - t
                    clipped = True
            if h <= abs(t) * 1e-15:
                return SolveResult(t_eval[:save_index].copy(),
                                   output[:save_index].copy(), FAILED,
                                   stats, self.name,
                                   f"step size underflow at t={t:g}")

            stats.n_steps += 1
            stages[0] = f_current
            for i in range(1, tableau.n_stages):
                increment = tableau.a[i, :i].dot(stages[:i])
                stages[i] = fun(t + tableau.c[i] * h, y + h * increment)
            stats.n_rhs_evaluations += tableau.n_stages - 1
            y_new = y + h * tableau.b.dot(stages)
            local_error = h * tableau.e.dot(stages)
            err = error_norm(local_error, y, y_new, options)

            if not np.all(np.isfinite(y_new)):
                err = np.inf

            if err <= 1.0:
                stats.n_accepted += 1
                if tableau.first_same_as_last:
                    f_new = stages[-1]
                else:
                    f_new = fun(t + h, y_new)
                    stats.n_rhs_evaluations += 1
                if collect_interpolants and tableau is DOPRI5:
                    interpolants.append(
                        Dopri5Interpolant(t, h, y.copy(), y_new.copy(),
                                          stages.copy()))
                t_new = t + h
                if clipped and save_index < t_eval.size and \
                        abs(t_new - t_eval[save_index]) <= 1e-12 * max(1.0, abs(t_new)):
                    output[save_index] = y_new
                    save_index += 1
                controller.record_accepted(err)
                factor = controller.factor(err)
                t, y, f_current = t_new, y_new, f_new
                h = min(h * factor, max_step)
            else:
                stats.n_rejected += 1
                if np.isfinite(err):
                    h *= max(options.min_step_factor,
                             options.safety * err ** controller.error_exponent)
                else:
                    h *= options.min_step_factor

        while save_index < t_eval.size and \
                abs(t_eval[save_index] - t1) <= 1e-12 * max(1.0, abs(t1)):
            output[save_index] = y
            save_index += 1
        if save_index != t_eval.size:  # pragma: no cover - defensive
            raise SolverError("internal error: save grid not exhausted")
        result = SolveResult(t_eval.copy(), output, SUCCESS, stats,
                             self.name)
        if collect_interpolants:
            result.interpolants = interpolants  # type: ignore[attr-defined]
        return result


class Dopri5Interpolant:
    """Quartic continuous extension of one accepted DOPRI5 step.

    Evaluates the classical Dormand-Prince dense output at any
    ``theta = (t - t_start) / h`` in [0, 1] with the same order of
    accuracy as the step itself (order 4 interpolation).
    """

    def __init__(self, t_start: float, h: float, y_start: np.ndarray,
                 y_end: np.ndarray, stages: np.ndarray) -> None:
        self.t_start = t_start
        self.h = h
        self.t_end = t_start + h
        self._y_start = y_start
        rcont1 = y_start
        ydiff = y_end - y_start
        rcont2 = ydiff
        bspl = h * stages[0] - ydiff
        rcont3 = bspl
        rcont4 = ydiff - h * stages[-1] - bspl
        rcont5 = h * DOPRI5_DENSE_D.dot(stages)
        self._rcont = (rcont1, rcont2, rcont3, rcont4, rcont5)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        theta = (np.asarray(t, dtype=np.float64) - self.t_start) / self.h
        r1, r2, r3, r4, r5 = self._rcont
        theta = np.atleast_1d(theta)[..., None]
        one_minus = 1.0 - theta
        value = r1 + theta * (r2 + one_minus * (
            r3 + theta * (r4 + one_minus * r5)))
        return value[0] if np.isscalar(t) or np.ndim(t) == 0 else value

"""Batched Dormand-Prince 5(4) integrator.

The coarse-grained axis of the substrate: every running simulation in
the batch advances through the same sequence of vectorized stage
kernels, but each keeps its own time, step size, PI controller memory
and accept/reject decision — the NumPy realization of one CUDA thread
(block) per simulation with per-thread adaptive stepping.

The running simulations live in the persistent working set of
:mod:`repro.gpu.working_set`: compact per-row arrays that the step loop
updates with element-wise selects, plus the problem bound to exactly
those rows. A row leaves the set (finished, exhausted, broken, stiff or
stopped by the guard) and the set is compacted only on the iterations
where that happens — the batched analogue of retiring finished threads.

Save times are shared across the batch. Steps are clipped only at the
end of the span; a step that crosses save points records them from
Hairer's quartic continuous extension, built from the stages the step
already has (no extra right-hand-side launch), as LSODA interpolates
instead of stepping onto its output times.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.tableaus import DOPRI5, DOPRI5_DENSE_D
from .batch_result import METHOD_DOPRI5, RUNNING, STIFF, BatchSolveResult
from .batched_ode import BatchedODEProblem
from .working_set import Interpolant, Launch, RowStates, WorkingSet

#: Hairer's DOPRI5 stability-boundary constant for the stiffness test.
_STIFFNESS_BOUNDARY = 3.25
#: Strikes (violating tests not yet cleared) before a simulation is
#: declared stiff.
_STIFFNESS_PATIENCE = 15
#: Calm tests in a row that clear a simulation's strikes.
_STIFFNESS_RECOVERY = 6
#: A row without strikes runs the test on every ``_STIFFNESS_CADENCE``-th
#: accepted step only (``NSTIFF`` of Hairer's ``dopri5.f``); a row with
#: strikes runs it on every accepted step until they clear.
_STIFFNESS_CADENCE = 8

#: The step's stage combinations as one weight table: row ``i - 1``
#: weighs the stages of stage ``i``'s state, the last two rows are
#: ``b`` (the new state) and ``e`` (the local error).
_WEIGHTS = xp.concatenate([DOPRI5.a[1:], DOPRI5.b[None], DOPRI5.e[None]])
#: Column ``i`` of the table from row ``i`` on: stage ``i``'s weights
#: in the combinations it enters (stages ``i + 1`` on, ``b`` and ``e``).
_STAGE_COLUMNS = [_WEIGHTS[i:, i, None, None]
                  for i in range(DOPRI5.n_stages)]


def _combine_stages(weights: Array, stages: Array) -> Array:
    """Weighted stage sum with per-row rounding independent of how many
    rows are in flight.

    The element-wise accumulation rounds every product and every partial
    sum on its own, in stage order, whatever the array's shape. Library
    contractions do not: ``xp.tensordot`` lowers to a BLAS product whose
    row results change with the array width, and ``xp.einsum`` switches
    to a lane-split dot product when the stage axis is the only one left
    (one row of a one-species model). The step itself runs all of its
    combinations as one accumulator over ``_STAGE_COLUMNS``, which
    rounds each row exactly as this loop does; the dense output's
    ``rcont5`` sums here.
    """
    combined = weights[0] * stages[0]
    for j in range(1, len(weights)):
        combined += weights[j] * stages[j]
    return combined


def _scaled_error_norms(error: Array, reference: Array,
                        candidate: Array,
                        options: SolverOptions) -> Array:
    scale = options.atol + options.rtol * xp.maximum(xp.abs(reference),
                                                     xp.abs(candidate))
    # sum / n is what mean computes, without mean's Python frame.
    return xp.sqrt(((error / scale) ** 2).sum(axis=1) / error.shape[1])


def _stiffness_violations(h: Array, y_new: Array, penultimate: Array,
                          stage_k: Array) -> Array:
    """Rows whose step crossed the explicit stability boundary.

    The last two DOPRI5 stages both sit at t + h; the ratio of their
    derivative difference to their state difference estimates
    h * rho(J) (Hairer's stiffness test).
    """
    numerator = ((stage_k[-1] - stage_k[-2]) ** 2).sum(axis=1)
    denominator = ((y_new - penultimate) ** 2).sum(axis=1)
    valid = (denominator > 0.0) & xp.isfinite(denominator)
    return valid & (h * xp.sqrt(numerator / denominator)
                    > _STIFFNESS_BOUNDARY)


def _quartic_output(t: Array, h: Array, y_start: Array, y_end: Array,
                  stage_k: Array) -> Interpolant:
    """Hairer's quartic continuous extension of the step of size ``h``
    from ``(t, y_start)`` to ``y_end`` with stages ``stage_k``.

    The ``rcont1..5`` form of Hairer's ``dopri5.f``, evaluated
    element-wise and only for the rows asked for, so each row rounds as
    in its own launch.
    """
    def interpolate(index: Array, times: Array) -> Array:
        step = h[index][:, None]
        theta = (times - t[index])[:, None] / step
        start = y_start[index]
        stages = stage_k[:, index]
        ydiff = y_end[index] - start
        bspl = step * stages[0] - ydiff
        rcont4 = ydiff - step * stages[-1] - bspl
        rcont5 = step * _combine_stages(DOPRI5_DENSE_D, stages)
        one_minus = 1.0 - theta
        return start + theta * (ydiff + one_minus * (
            bspl + theta * (rcont4 + one_minus * rcont5)))
    return interpolate


@dataclass
class _Dopri5Set(WorkingSet):
    """The working set plus DOPRI5's PI memory and stiffness strikes."""

    derivative: Array      # f(t, y), the FSAL first stage
    previous_error: Array  # PI memory; negative before the first accept
    strikes: Array         # stiffness-test violations not yet cleared
    streak: Array          # consecutive accepted steps without one

    ROW_FIELDS = WorkingSet.ROW_FIELDS + ("derivative", "previous_error",
                                          "strikes", "streak")

    def stiffness_test_due(self, accepted: Array) -> Array:
        """Accepted rows that run the stiffness test on this step: every
        ``_STIFFNESS_CADENCE``-th accepted step of a row, and every one
        while the row has strikes (Hairer's ``NSTIFF`` / ``IASTI``).
        """
        return accepted & ((self.n_accepted % _STIFFNESS_CADENCE == 0)
                           | (self.strikes > 0))

    def count_stiffness(self, tested: Array, violated: Array) -> None:
        """Strike bookkeeping of the stiffness test on the tested rows;
        running rows whose strikes persist turn STIFF. Untested rows
        keep their strikes and streak.
        """
        violated = tested & violated
        calm = tested & ~violated
        self.streak = xp.where(violated, 0, self.streak + calm)
        self.strikes = xp.where(calm & (self.streak >= _STIFFNESS_RECOVERY),
                                0, self.strikes + violated)
        self.status = xp.where(
            tested & (self.strikes >= _STIFFNESS_PATIENCE)
            & (self.status == RUNNING), STIFF, self.status)


class BatchDopri5:
    """Adaptive batched DOPRI5 with per-simulation step control.

    With ``abort_on_stiffness`` enabled (the router's configuration),
    simulations whose Hairer stiffness test fires persistently are
    stopped early with status ``STIFF``, so that the router can continue
    them in its one Radau IIA launch from where they stopped (``stops``
    of :meth:`solve`) instead of letting them burn the whole step budget
    near the explicit stability boundary.
    """

    name = "batch-dopri5"
    method_code = METHOD_DOPRI5

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS,
                 abort_on_stiffness: bool = False) -> None:
        self.options = options
        self.abort_on_stiffness = abort_on_stiffness

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None,
              stops: RowStates | None = None) -> BatchSolveResult:
        """Integrate every row from ``t0``. When ``stops`` is given, each
        row's last working state (time, state, next save index) is left
        in it as the row stops.
        """
        options = self.options
        tableau = DOPRI5
        launch = Launch(self, problem, t_span, t_eval, tableau.order,
                        stops=stops)
        result = launch.result
        max_step = launch.max_step
        batch, n = problem.batch_size, problem.n_species
        error_exponent = -1.0 / (tableau.error_order + 1)
        guard = problem.guard

        work = launch.working_set(
            _Dopri5Set, y=launch.y, derivative=launch.derivative,
            previous_error=xp.full(batch, -1.0),
            strikes=xp.zeros(batch, dtype=xp.int64),
            streak=xp.zeros(batch, dtype=xp.int64))
        launch.step_loop()

        # Diverging rows overflow transiently before they are caught by
        # the finiteness check, and the step-size control runs both
        # branches on every row; keep those FP warnings quiet.
        with xp.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while work.retire(result, options.max_steps):
                t = work.t
                h = launch.clip(t, work.h)

                # Non-finite steps (a NaN RHS poisoned the step heuristic
                # or controller) can never recover — break those rows at
                # once.
                broken = ~xp.isfinite(h) | (h <= xp.abs(t) * 1e-15)
                if broken.any():
                    work.break_rows(broken, t, h)
                    if not work.retire(result, options.max_steps):
                        break
                    # Every other row was running, so exactly these stay.
                    t, h = work.t, h[~broken]

                work.n_steps += 1
                y = work.y
                step = h[:, None]
                fun = work.problem.fun
                # All of the step's stage combinations accumulate at
                # once: row i - 1 of ``acc`` is stage i's increment, the
                # last two are the b and e sums. Each row rounds every
                # product and adds them in stage order, zero weights
                # included, so its bytes are ``_combine_stages``'s.
                stage_k = xp.empty((tableau.n_stages, t.size, n))
                stage_k[0] = work.derivative
                acc = _STAGE_COLUMNS[0] * work.derivative
                for i in range(1, tableau.n_stages):
                    stage_k[i] = fun(t + tableau.c[i] * h,
                                     y + step * acc[i - 1])
                    acc[i:] += _STAGE_COLUMNS[i] * stage_k[i]

                y_new = y + step * acc[-2]
                err = _scaled_error_norms(step * acc[-1], y, y_new, options)
                finite = xp.isfinite(y_new)
                if not finite.all():
                    err = xp.where(finite.all(axis=1), err, xp.inf)
                accepted = err <= 1.0

                err_accepted = xp.maximum(err, 1e-10)
                factor = options.safety * err_accepted ** error_exponent
                memory = work.previous_error
                factor *= xp.where(
                    memory > 0.0,
                    (xp.maximum(memory, 1e-10) / err_accepted) ** 0.04, 1.0)
                factor = factor.clip(options.min_step_factor,
                                     options.max_step_factor)

                # Accept/reject: each row keeps its own branch.
                t_new = launch.step_ends(t, h)
                if accepted.all():  # the selects would copy these as is
                    work.h = xp.minimum(h * factor, max_step)
                    work.previous_error = err_accepted
                    work.t, work.y = t_new, y_new
                    work.derivative = stage_k[-1]
                else:
                    shrink = xp.where(
                        xp.isfinite(err),
                        xp.maximum(options.min_step_factor,
                                   options.safety * err ** error_exponent),
                        options.min_step_factor)
                    work.h = xp.where(accepted,
                                      xp.minimum(h * factor, max_step),
                                      h * shrink)
                    work.previous_error = xp.where(accepted, err_accepted,
                                                   work.previous_error)
                    work.t = xp.where(accepted, t_new, t)
                    work.y = xp.where(accepted[:, None], y_new, y)
                    work.derivative = xp.where(accepted[:, None],
                                               stage_k[-1], work.derivative)
                work.n_accepted += accepted

                # The test reads the step's own states (``acc[-4]`` is
                # the penultimate stage's increment) before the guard
                # may clamp ``y_new`` in place as the working state.
                violated = tested = None
                if self.abort_on_stiffness:
                    tested = work.stiffness_test_due(accepted)
                    if tested.any():
                        violated = _stiffness_violations(
                            h, y_new, y + step * acc[-4], stage_k)
                if guard is not None and accepted.any():
                    # Clamps land in the working set, in place.
                    moved = xp.flatnonzero(accepted)
                    guard.after_accept(work.y, moved,
                                       work.problem.row_ids[moved],
                                       t_new[moved], work.status)

                # The extension ends at the (possibly guard-clamped)
                # working state; only rows the guard left running are
                # saved. A row the stiffness test stops on this step
                # keeps the saves the step crossed, so its next solve
                # starts past them.
                work.record(_quartic_output(t, h, y, work.y, stage_k),
                            result)
                if violated is not None:
                    work.count_stiffness(tested, violated)

        return launch.finish()

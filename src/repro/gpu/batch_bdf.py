"""Batched variable-order BDF integrator (the cupSODA-analog engine).

The original coarse-grained GPU simulator (cupSODA) runs one
LSODA-style multistep integration per device thread. This module is
its NumPy analog built on our from-scratch scalar
:class:`~repro.solvers.bdf.BDF`: every simulation carries its own
backward-difference table, step size, *order* and Newton state, and the
per-step math executes as batched kernels over groups of simulations
that share the same current order (orders 1-5, so at most five groups
per sweep).

The running simulations live in the persistent working set all three
batched integrators share (:mod:`repro.gpu.working_set`): BDF's set adds
each row's difference table, order, Jacobian and Newton inverse, and
its state is the table's zeroth slice. Every running row makes exactly
one attempt per sweep (a Newton failure, an error rejection or an
accept), so rows leave only through the set's retire mechanism.

Step-size rescalings of the difference table are per-simulation (the
R(factor) matrices are tiny and factor-specific), which mirrors the
original's per-thread sequential bookkeeping.

Steps are clipped only at the end of the span: the save points a step
crosses are interpolated from the accepted step's difference table, as
SciPy's ``BdfDenseOutput`` does. The scalar
:class:`~repro.solvers.bdf.BDF` still clips its steps onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.bdf import (ALPHA, ERROR_CONST, GAMMA, MAX_ORDER,
                           NEWTON_MAXITER, change_difference_array)
from .batch_dopri5 import _scaled_error_norms
from .batch_result import METHOD_BDF, BatchSolveResult
from .batched_ode import BatchedODEProblem
from .working_set import Interpolant, Launch, WorkingSet


def _difference_output(work: "_BdfSet", order: int) -> Interpolant:
    """The interpolating polynomial of the set's difference tables at
    ``order``, read after an accepted step's table update (SciPy's
    ``BdfDenseOutput``): ``D[0] + sum_j D[j + 1] prod_(i <= j)
    (t - t_new + i h) / ((i + 1) h)``, element-wise per row.
    """
    def interpolate(index: Array, times: Array) -> Array:
        h = work.h[index]
        offset = times - work.t[index]
        table = work.differences[index]
        value = table[:, 0, :]
        product = xp.ones(index.size)
        for j in range(order):
            product = product * ((offset + j * h) / ((j + 1) * h))
            value = value + table[:, j + 1, :] * product[:, None]
        return value
    return interpolate


@dataclass
class _BdfSet(WorkingSet):
    """The working set plus BDF's difference tables, orders, Jacobians
    and Newton inverses.

    ``y`` is the view ``differences[:, 0, :]``, re-bound on every
    compaction, so the guard's clamps and :meth:`record` act on the
    table itself.
    """

    y: Array = field(init=False)
    differences: Array     # (w, MAX_ORDER + 3, n) backward differences
    orders: Array
    steps_at_order: Array  # accepted steps since the last step change
    jacobian: Array
    jac_current: Array     # Jacobian taken at the current state
    inverse: Array         # Newton inverse, valid for c == c_factored
    c_factored: Array      # negative when the inverse is stale

    ROW_FIELDS = ("rows", "t", "h", "save", "n_accepted", "status",
                  "differences", "orders", "steps_at_order", "jacobian",
                  "jac_current", "inverse", "c_factored")

    def __post_init__(self) -> None:
        self.y = self.differences[:, 0, :]

    def compact(self, keep: Array) -> None:
        super().compact(keep)
        self.y = self.differences[:, 0, :]


class BatchBDF:
    """Adaptive-order batched BDF for coarse-grained stiff batches."""

    name = "batch-bdf"
    method_code = METHOD_BDF

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None,
              initial_states: Array | None = None) -> BatchSolveResult:
        options = self.options
        launch = Launch(self, problem, t_span, t_eval, initial_states, 1)
        t1, result = launch.t1, launch.result
        batch, n = problem.batch_size, problem.n_species
        identity = xp.eye(n)
        newton_tol = max(10 * xp.finfo(float).eps / options.rtol,
                         min(0.03, options.rtol ** 0.5))

        differences = xp.zeros((batch, MAX_ORDER + 3, n))
        differences[:, 0, :] = launch.y
        differences[:, 1, :] = launch.derivative * launch.h[:, None]
        work = launch.working_set(
            _BdfSet, differences=differences,
            orders=xp.ones(batch, dtype=xp.int64),
            steps_at_order=xp.zeros(batch, dtype=xp.int64),
            jacobian=problem.jacobian(launch.t, launch.y),
            jac_current=xp.ones(batch, dtype=bool),
            inverse=xp.zeros((batch, n, n)),
            c_factored=xp.full(batch, -1.0))
        launch.step_loop()

        while work.retire(result, options.max_steps):
            # Clip to the span's end (per-sim D rescale). Each row clips
            # by a different factor and the difference-table rescale is
            # order-local, so this stays per-row.
            t = work.t
            target = t1 - t
            # lint: skip=KRN001 -- per-row D rescale, scalar by design
            for row in xp.flatnonzero(work.h > target):
                factor = target[row] / work.h[row]
                # lint: skip=KRN002 -- mixed per-row orders, scalar by design
                row_order = int(work.orders[row])
                change_difference_array(work.differences[row], row_order,
                                        factor)
                work.h[row] = target[row]
                work.steps_at_order[row] = 0
            h = work.h
            underflow = (h <= xp.abs(t) * 1e-15) | (h < 1e-300) | \
                ~xp.isfinite(h)
            if underflow.any():
                work.break_rows(underflow, t, h)
                if not work.retire(result, options.max_steps):
                    break
            work.n_steps += 1

            # Group on a snapshot: a row that raises its order inside
            # this sweep must not be stepped again by the higher-order
            # group of the same sweep.
            orders = work.orders.copy()
            for order in range(1, MAX_ORDER + 1):
                group = xp.flatnonzero(orders == order)
                if group.size:
                    self._step_group(work, group, order, identity,
                                     newton_tol, launch)

        return launch.finish()

    # ------------------------------------------------------------------

    def _step_group(self, work: _BdfSet, rows: Array, order: int,
                    identity: Array, newton_tol: float,
                    launch: Launch) -> None:
        """One attempt of every set row in ``rows``, all at ``order``."""
        options = self.options
        h = work.h[rows]
        t_new = launch.step_ends(work.t[rows], h)
        d_group = work.differences[rows]
        y_predict = d_group[:, :order + 1, :].sum(axis=1)
        psi = xp.einsum("bon,o->bn", d_group[:, 1:order + 1, :],
                        GAMMA[1:order + 1]) / ALPHA[order]
        c = h / ALPHA[order]

        refactor = work.c_factored[rows] != c
        if xp.any(refactor):
            ref_rows = rows[refactor]
            matrices = identity[None] - c[refactor, None, None] \
                * work.jacobian[ref_rows]
            work.inverse[ref_rows] = xp.batched_inv(matrices)
            work.c_factored[ref_rows] = c[refactor]
            work.problem.counters.factorizations += ref_rows.size

        converged, n_iter, y_new, correction = self._newton(
            work, rows, t_new, y_predict, c, psi, newton_tol)

        failed = ~converged
        if xp.any(failed):
            failed_rows = rows[failed]
            stale = failed_rows[~work.jac_current[failed_rows]]
            if stale.size:
                work.jacobian[stale] = work.problem.jacobian(
                    work.t[stale], work.y[stale], stale)
                work.jac_current[stale] = True
                work.c_factored[stale] = -1.0
            fresh = xp.setdiff1d(failed_rows, stale, assume_unique=True)
            # lint: skip=KRN001 -- Newton-failure fallback on a small subset
            for row in fresh:
                change_difference_array(work.differences[row], order, 0.5)
                work.h[row] *= 0.5
                work.steps_at_order[row] = 0
                work.c_factored[row] = -1.0
        if not xp.any(converged):
            return

        conv_rows = rows[converged]
        y_new = y_new[converged]
        correction = correction[converged]
        n_iter = n_iter[converged]
        y_old = work.y[conv_rows]
        error = ERROR_CONST[order] * correction
        err = _scaled_error_norms(error, y_old, y_new, options)
        finite = xp.all(xp.isfinite(y_new), axis=1)
        err = xp.where(finite, err, xp.inf)
        safety = 0.9 * (2 * NEWTON_MAXITER + 1) / \
            (2 * NEWTON_MAXITER + n_iter)

        rejected = err >= 1.0
        if xp.any(rejected):
            rej_rows = conv_rows[rejected]
            # lint: skip=KRN001 -- rejected rows shrink by per-row factors
            for local, row in zip(xp.flatnonzero(rejected), rej_rows):
                factor = options.min_step_factor
                if xp.isfinite(err[local]) and err[local] > 0:
                    factor = max(options.min_step_factor,
                                 safety[local]
                                 * err[local] ** (-1.0 / (order + 1)))
                change_difference_array(work.differences[row], order,
                                        factor)
                work.h[row] *= factor
                work.steps_at_order[row] = 0
                work.c_factored[row] = -1.0

        accepted = ~rejected
        if not xp.any(accepted):
            return
        acc_rows = conv_rows[accepted]
        work.n_accepted[acc_rows] += 1
        work.t[acc_rows] = t_new[converged][accepted]
        work.jac_current[acc_rows] = False
        work.steps_at_order[acc_rows] += 1

        # Difference-table update (vectorized over the accepted group).
        differences = work.differences
        corr = correction[accepted]
        differences[acc_rows, order + 2, :] = \
            corr - differences[acc_rows, order + 1, :]
        differences[acc_rows, order + 1, :] = corr
        for i in reversed(range(order + 1)):
            differences[acc_rows, i, :] += differences[acc_rows, i + 1, :]

        guard = work.problem.guard
        if guard is not None:
            # Clamps land in the difference table through ``work.y``.
            guard.after_accept(work.y, acc_rows,
                               work.problem.row_ids[acc_rows],
                               work.t[acc_rows], work.status)

        # Save before the order change: its table rescale recomputes the
        # zeroth slice, which need not keep its bytes (-0.0 turns +0.0),
        # and changes the step the table is spaced by.
        work.record(_difference_output(work, order), launch.result)

        # Order/step adaptation for rows that completed order+1 steps.
        adapt = acc_rows[work.steps_at_order[acc_rows] >= order + 1]
        # lint: skip=KRN002 -- scalar map feeding the per-row order change
        err_by_row = {int(row): float(err[local])
                      for local, row in zip(xp.flatnonzero(accepted),
                                            acc_rows)}
        # Order adaptation is per-row by construction: rows sit at
        # different BDF orders, so their difference tables have
        # different shapes and cannot be updated as one kernel.
        # lint: skip=KRN001 -- mixed per-row orders, scalar by design
        for row in adapt:
            self._adapt_order(work, row, order, err_by_row[int(row)],
                              launch.max_step)

    def _newton(self, work: _BdfSet, rows: Array, t_new: Array,
                y_predict: Array, c: Array, psi: Array, tol: float):
        options = self.options
        b = rows.size
        y = y_predict.copy()
        correction = xp.zeros_like(y)
        scale = options.atol + options.rtol * xp.abs(y_predict)
        converged = xp.zeros(b, dtype=bool)
        failed = xp.zeros(b, dtype=bool)
        n_iterations = xp.zeros(b, dtype=xp.int64)
        previous = xp.full(b, -1.0)
        for _ in range(NEWTON_MAXITER):
            live = xp.flatnonzero(~converged & ~failed)
            if live.size == 0:
                break
            n_iterations[live] += 1
            work.problem.counters.newton_iterations += live.size
            f = work.problem.fun(t_new[live], y[live], rows[live])
            bad = ~xp.all(xp.isfinite(f), axis=1)
            if xp.any(bad):
                failed[live[bad]] = True
                live = live[~bad]
                if live.size == 0:
                    continue
                f = f[~bad]
            residual = c[live, None] * f - psi[live] - correction[live]
            delta = xp.batched_matvec(work.inverse[rows[live]], residual)
            norms = xp.sqrt(xp.mean((delta / scale[live]) ** 2, axis=1))
            have_prev = previous[live] > 0
            with xp.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                rate = xp.where(have_prev,
                                norms / xp.maximum(previous[live], 1e-300),
                                xp.nan)
                hopeless = have_prev & ((rate >= 1.0)
                                        | (rate / (1 - rate) * norms > tol))
            failed[live[hopeless]] = True
            keep = ~hopeless
            live = live[keep]
            if live.size == 0:
                continue
            delta = delta[keep]
            norms = norms[keep]
            y[live] += delta
            correction[live] += delta
            with xp.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                done = (norms == 0.0) | (
                    (previous[live] > 0)
                    & ((norms / xp.maximum(previous[live], 1e-300))
                       / (1 - xp.minimum(norms / xp.maximum(previous[live],
                                                            1e-300),
                                         0.999)) * norms < tol))
            converged[live[done]] = True
            previous[live] = norms
        return converged, n_iterations, y, correction

    def _adapt_order(self, work: _BdfSet, row: int, order: int,
                     current_err: float, max_step: float) -> None:
        options = self.options
        differences = work.differences
        scale = options.atol + options.rtol * \
            xp.abs(differences[row, 0, :])

        def norm_of(vector):
            return float(xp.sqrt(xp.mean((vector / scale) ** 2)))

        candidates = [order]
        norms = [max(current_err, 1e-10)]
        if order > 1:
            candidates.insert(0, order - 1)
            norms.insert(0, max(norm_of(ERROR_CONST[order - 1]
                                        * differences[row, order, :]),
                                1e-10))
        if order < MAX_ORDER:
            candidates.append(order + 1)
            norms.append(max(norm_of(ERROR_CONST[order + 1]
                                     * differences[row, order + 2, :]),
                             1e-10))
        factors = [norms[i] ** (-1.0 / (candidates[i] + 1))
                   for i in range(len(candidates))]
        best = int(xp.argmax(factors))
        new_order = candidates[best]
        factor = float(xp.clip(0.9 * factors[best],
                               options.min_step_factor,
                               options.max_step_factor))
        work.orders[row] = new_order
        new_h = min(work.h[row] * factor, max_step)
        factor = new_h / work.h[row]
        if factor > 0:
            change_difference_array(differences[row], int(new_order),
                                    factor)
            work.h[row] = new_h
        work.steps_at_order[row] = 0
        work.c_factored[row] = -1.0

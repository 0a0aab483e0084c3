"""Batched variable-order BDF integrator (the cupSODA-analog engine).

The original coarse-grained GPU simulator (cupSODA) runs one
LSODA-style multistep integration per device thread. This module is
its NumPy analog built on our from-scratch scalar
:class:`~repro.solvers.bdf.BDF`: every simulation carries its own
backward-difference table, step size, *order* and Newton state, and the
per-step math executes as batched kernels over groups of simulations
that share the same current order (orders 1-5, so at most five groups
per sweep).

Step-size rescalings of the difference table are per-simulation (the
R(factor) matrices are tiny and factor-specific), which mirrors the
original's per-thread sequential bookkeeping.
"""

from __future__ import annotations

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions, validate_time_grid
from ..solvers.bdf import (ALPHA, ERROR_CONST, GAMMA, MAX_ORDER,
                           NEWTON_MAXITER, change_difference_array)
from ..telemetry.tracer import NULL_TRACER
from .batch_dopri5 import _initial_steps, _scaled_error_norms
from .batch_result import (BROKEN, EXHAUSTED, METHOD_BDF, OK, RUNNING,
                           BatchSolveResult, allocate_result)
from .batched_ode import BatchedODEProblem

_EDGE = 1e-12


class BatchBDF:
    """Adaptive-order batched BDF for coarse-grained stiff batches."""

    name = "batch-bdf"
    method_code = METHOD_BDF

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS,
                 max_order: int = MAX_ORDER) -> None:
        self.options = options
        self.max_order = max_order

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None,
              initial_states: Array | None = None) -> BatchSolveResult:
        options = self.options
        t_eval = validate_time_grid(t_span, t_eval)
        t0, t1 = float(t_span[0]), float(t_span[1])
        batch = problem.batch_size
        n = problem.n_species
        identity = xp.eye(n)
        newton_tol = max(10 * xp.finfo(float).eps / options.rtol,
                         min(0.03, options.rtol ** 0.5))
        tracer = problem.tracer or NULL_TRACER
        compile_span = tracer.start("compile", "phase",
                                    parent=problem.trace_span,
                                    solver=self.name, rows=batch)

        states = (problem.initial_states() if initial_states is None
                  else xp.array(initial_states, dtype=xp.float64))
        result = allocate_result(t_eval, batch, n, self.method_code)

        times = xp.full(batch, t0)
        save_index = xp.zeros(batch, dtype=xp.int64)
        if t_eval[0] == t0:
            result.y[:, 0, :] = states
            save_index[:] = 1

        all_rows = xp.arange(batch)
        derivatives = problem.fun(times, states, all_rows)
        if options.first_step is not None:
            steps = xp.full(batch, options.first_step)
        else:
            steps = _initial_steps(problem, t0, states, derivatives, 1,
                                   options, t1 - t0)
        max_step = min(options.max_step, t1 - t0)

        differences = xp.zeros((batch, MAX_ORDER + 3, n))
        differences[:, 0, :] = states
        differences[:, 1, :] = derivatives * steps[:, None]
        orders = xp.ones(batch, dtype=xp.int64)
        steps_at_order = xp.zeros(batch, dtype=xp.int64)

        jacobians = problem.jacobian(times, states, all_rows)
        jac_current = xp.ones(batch, dtype=bool)
        inverses = xp.zeros((batch, n, n))
        c_factored = xp.full(batch, -1.0)

        status = result.status_codes
        status[save_index >= t_eval.size] = OK
        tracer.end(compile_span)
        loop_span = tracer.start("step-loop", "phase",
                                 parent=problem.trace_span,
                                 solver=self.name)

        while True:
            active = xp.flatnonzero(status == RUNNING)
            if active.size == 0:
                break
            exhausted = active[result.n_steps[active] >= options.max_steps]
            if exhausted.size:
                status[exhausted] = EXHAUSTED
                active = xp.flatnonzero(status == RUNNING)
                if active.size == 0:
                    break

            # Catch-up guard: a row that drifted past its next save
            # point by floating-point accident records the current
            # state there (the drift is below the solver tolerance).
            behind = active[
                (save_index[active] < t_eval.size)
                & (t_eval[xp.minimum(save_index[active], t_eval.size - 1)]
                   < times[active] - _EDGE * xp.maximum(
                       1.0, xp.abs(times[active])))]
            # lint: skip=KRN001 -- rare FP-drift repair on a handful of rows
            for row in behind:
                result.y[row, save_index[row], :] = differences[row, 0, :]
                save_index[row] += 1
                if save_index[row] >= t_eval.size:
                    status[row] = OK
            if behind.size:
                active = xp.flatnonzero(status == RUNNING)
                if active.size == 0:
                    continue

            # Clip to the horizon and the next save point (per-sim D
            # rescale for real step changes).
            t_act = times[active]
            limit = xp.minimum(t1, t_eval[xp.minimum(save_index[active],
                                                     t_eval.size - 1)])
            target = limit - t_act
            needs_clip = steps[active] > target * (1.0 + 1e-12)
            # Each row clips by a different factor and the difference-
            # table rescale is order-local, so this stays per-row.
            # lint: skip=KRN001 -- per-row D rescale, scalar by design
            for local in xp.flatnonzero(needs_clip):
                row = active[local]
                factor = target[local] / steps[row]
                if factor <= 0.0:
                    continue
                # lint: skip=KRN002 -- mixed per-row orders, scalar by design
                change_difference_array(differences[row], int(orders[row]),
                                        factor)
                steps[row] = target[local]
                steps_at_order[row] = 0
            underflow = (steps[active] <= xp.abs(t_act) * 1e-15) | \
                (steps[active] < 1e-300) | ~xp.isfinite(steps[active])
            if xp.any(underflow):
                dead = active[underflow]
                status[dead] = BROKEN
                if problem.guard is not None:
                    problem.guard.on_step_break(
                        dead, problem.row_ids[dead], times[dead],
                        steps[dead], status)
                active = active[~underflow]
                if active.size == 0:
                    continue
            result.n_steps[active] += 1

            # Group on a snapshot: a row that raises its order inside
            # this sweep must not be stepped again by the higher-order
            # group of the same sweep.
            orders_snapshot = orders.copy()
            for order in range(1, self.max_order + 1):
                group = active[orders_snapshot[active] == order]
                if group.size:
                    self._step_group(problem, group, order, times, steps,
                                     differences, orders, steps_at_order,
                                     jacobians, jac_current, inverses,
                                     c_factored, identity, newton_tol,
                                     result, save_index, status, t_eval,
                                     max_step)

        tracer.end(loop_span)
        # Save points are recorded in-loop from the difference table;
        # the dense-output phase only covers the result hand-off.
        with tracer.span("dense-output", "phase",
                         parent=problem.trace_span, solver=self.name):
            return result

    # ------------------------------------------------------------------

    def _step_group(self, problem, rows, order, times, steps, differences,
                    orders, steps_at_order, jacobians, jac_current,
                    inverses, c_factored, identity, newton_tol, result,
                    save_index, status, t_eval, max_step) -> None:
        options = self.options
        h = steps[rows]
        t_new = times[rows] + h
        d_group = differences[rows]
        y_predict = d_group[:, :order + 1, :].sum(axis=1)
        psi = xp.einsum("bon,o->bn", d_group[:, 1:order + 1, :],
                        GAMMA[1:order + 1]) / ALPHA[order]
        c = h / ALPHA[order]

        refactor = c_factored[rows] != c
        if xp.any(refactor):
            ref_rows = rows[refactor]
            matrices = identity[None] - c[refactor, None, None] \
                * jacobians[ref_rows]
            inverses[ref_rows] = xp.batched_inv(matrices)
            c_factored[ref_rows] = c[refactor]
            problem.counters.factorizations += ref_rows.size

        converged, n_iter, y_new, correction = self._newton(
            problem, rows, t_new, y_predict, c, psi, inverses, newton_tol)

        failed = ~converged
        if xp.any(failed):
            failed_rows = rows[failed]
            stale = failed_rows[~jac_current[failed_rows]]
            if stale.size:
                jacobians[stale] = problem.jacobian(times[stale],
                                                    differences[stale, 0, :],
                                                    stale)
                jac_current[stale] = True
                c_factored[stale] = -1.0
            fresh = xp.setdiff1d(failed_rows, stale, assume_unique=True)
            # lint: skip=KRN001 -- Newton-failure fallback on a small subset
            for row in fresh:
                change_difference_array(differences[row], order, 0.5)
                steps[row] *= 0.5
                steps_at_order[row] = 0
                c_factored[row] = -1.0
            result.n_rejected[failed_rows] += 1
        if not xp.any(converged):
            return

        conv_rows = rows[converged]
        y_new = y_new[converged]
        correction = correction[converged]
        h_conv = h[converged]
        n_iter = n_iter[converged]
        y_old = differences[conv_rows, 0, :]
        error = ERROR_CONST[order] * correction
        err = _scaled_error_norms(error, y_old, y_new, options)
        finite = xp.all(xp.isfinite(y_new), axis=1)
        err = xp.where(finite, err, xp.inf)
        safety = 0.9 * (2 * NEWTON_MAXITER + 1) / \
            (2 * NEWTON_MAXITER + n_iter)

        rejected = err >= 1.0
        if xp.any(rejected):
            rej_rows = conv_rows[rejected]
            result.n_rejected[rej_rows] += 1
            # lint: skip=KRN001 -- rejected rows shrink by per-row factors
            for local, row in zip(xp.flatnonzero(rejected), rej_rows):
                factor = options.min_step_factor
                if xp.isfinite(err[local]) and err[local] > 0:
                    factor = max(options.min_step_factor,
                                 safety[local]
                                 * err[local] ** (-1.0 / (order + 1)))
                change_difference_array(differences[row], order, factor)
                steps[row] *= factor
                steps_at_order[row] = 0
                c_factored[row] = -1.0

        accepted = ~rejected
        if not xp.any(accepted):
            return
        acc_rows = conv_rows[accepted]
        result.n_accepted[acc_rows] += 1
        times[acc_rows] += h_conv[accepted]
        jac_current[acc_rows] = False
        steps_at_order[acc_rows] += 1

        # Difference-table update (vectorized over the accepted group).
        corr = correction[accepted]
        differences[acc_rows, order + 2, :] = \
            corr - differences[acc_rows, order + 1, :]
        differences[acc_rows, order + 1, :] = corr
        for i in reversed(range(order + 1)):
            differences[acc_rows, i, :] += differences[acc_rows, i + 1, :]

        if problem.guard is not None:
            # The current state lives in the difference table's zeroth
            # slice; pass the basic-slice view so clamps write through.
            problem.guard.after_accept(differences[:, 0, :], acc_rows,
                                       problem.row_ids[acc_rows],
                                       times[acc_rows], status)

        tolerance = 1e-9 * xp.maximum(1.0, xp.abs(times[acc_rows]))
        hits = acc_rows[xp.abs(times[acc_rows]
                               - t_eval[xp.minimum(save_index[acc_rows],
                                                   t_eval.size - 1)])
                        <= tolerance]
        hit_valid = hits[save_index[hits] < t_eval.size]
        hit_valid = hit_valid[status[hit_valid] == RUNNING]
        if hit_valid.size:
            result.y[hit_valid, save_index[hit_valid], :] = \
                differences[hit_valid, 0, :]
            save_index[hit_valid] += 1
            status[hit_valid[save_index[hit_valid] >= t_eval.size]] = OK

        # Order/step adaptation for rows that completed order+1 steps.
        adapt = acc_rows[steps_at_order[acc_rows] >= order + 1]
        # lint: skip=KRN002 -- scalar map feeding the per-row order change
        err_by_row = {int(row): float(err[local])
                      for local, row in zip(xp.flatnonzero(accepted),
                                            acc_rows)}
        # Order adaptation is per-row by construction: rows sit at
        # different BDF orders, so their difference tables have
        # different shapes and cannot be updated as one kernel.
        # lint: skip=KRN001 -- mixed per-row orders, scalar by design
        for row in adapt:
            self._adapt_order(row, order, differences, steps, orders,
                              steps_at_order, c_factored,
                              err_by_row[int(row)], options, max_step)

    def _newton(self, problem, rows, t_new, y_predict, c, psi, inverses,
                tol):
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
            work = xp.flatnonzero(~converged & ~failed)
            if work.size == 0:
                break
            n_iterations[work] += 1
            problem.counters.newton_iterations += work.size
            f = problem.fun(t_new[work], y[work], rows[work])
            bad = ~xp.all(xp.isfinite(f), axis=1)
            if xp.any(bad):
                failed[work[bad]] = True
                work = work[~bad]
                if work.size == 0:
                    continue
                f = f[~bad]
            residual = c[work, None] * f - psi[work] - correction[work]
            delta = xp.batched_matvec(inverses[rows[work]], residual)
            norms = xp.sqrt(xp.mean((delta / scale[work]) ** 2, axis=1))
            have_prev = previous[work] > 0
            with xp.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                rate = xp.where(have_prev,
                                norms / xp.maximum(previous[work], 1e-300),
                                xp.nan)
                hopeless = have_prev & ((rate >= 1.0)
                                        | (rate / (1 - rate) * norms > tol))
            failed[work[hopeless]] = True
            keep = ~hopeless
            work = work[keep]
            if work.size == 0:
                continue
            delta = delta[keep]
            norms = norms[keep]
            y[work] += delta
            correction[work] += delta
            with xp.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                done = (norms == 0.0) | (
                    (previous[work] > 0)
                    & ((norms / xp.maximum(previous[work], 1e-300))
                       / (1 - xp.minimum(norms / xp.maximum(previous[work],
                                                            1e-300),
                                         0.999)) * norms < tol))
            converged[work[done]] = True
            previous[work] = norms
        return converged, n_iterations, y, correction

    def _adapt_order(self, row, order, differences, steps, orders,
                     steps_at_order, c_factored, current_err, options,
                     max_step) -> None:
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
        if order < self.max_order:
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
        orders[row] = new_order
        new_h = min(steps[row] * factor, max_step)
        factor = new_h / steps[row]
        if factor > 0:
            change_difference_array(differences[row], int(new_order),
                                    factor)
            steps[row] = new_h
        steps_at_order[row] = 0
        c_factored[row] = -1.0

"""Batched Radau IIA order-5 integrator.

The stiff half of the GPU-style substrate: every active simulation runs
its own simplified-Newton iteration on the transformed three-stage
system, but all linear algebra is executed as *batched* operations —
``numpy.linalg.inv`` over a stacked (b, N, N) axis plays the role the
paper family assigns to cuBLAS batched factorizations, and Newton
updates become batched matrix-vector products.

Each simulation keeps its own step size, Jacobian freshness flag,
factorization cache, collocation polynomial (used to predict the next
step's stage values) and predictive step controller, exactly like the
scalar :class:`~repro.solvers.radau5.Radau5` it is validated against.
"""

from __future__ import annotations

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions, validate_time_grid
from ..solvers.radau5 import (MU_COMPLEX, MU_REAL, RADAU_C, RADAU_E, RADAU_T,
                              RADAU_TI)
from ..telemetry.tracer import NULL_TRACER
from .batch_dopri5 import _initial_steps, _scaled_error_norms
from .batch_result import (BROKEN, EXHAUSTED, METHOD_RADAU5, OK, RUNNING,
                           BatchSolveResult, allocate_result)
from .batched_ode import BatchedODEProblem

_EDGE = 1e-12
_TI_COMPLEX = RADAU_TI[1] + 1j * RADAU_TI[2]

#: Inverse of the collocation Vandermonde basis (theta^(j+1) at the
#: Radau nodes); maps stage increments to polynomial coefficients.
_VANDERMONDE_INV = xp.inv(
    xp.vander(RADAU_C, 3, increasing=True) * RADAU_C[:, None])


class BatchRadau5:
    """Adaptive batched Radau IIA solver for stiff sub-batches."""

    name = "batch-radau5"
    method_code = METHOD_RADAU5

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS,
                 reuse_jacobian: bool = True) -> None:
        self.options = options
        self.reuse_jacobian = reuse_jacobian

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None,
              initial_states: Array | None = None) -> BatchSolveResult:
        options = self.options
        t_eval = validate_time_grid(t_span, t_eval)
        t0, t1 = float(t_span[0]), float(t_span[1])
        batch = problem.batch_size
        n = problem.n_species
        identity = xp.eye(n)
        tracer = problem.tracer or NULL_TRACER
        compile_span = tracer.start("compile", "phase",
                                    parent=problem.trace_span,
                                    solver=self.name, rows=batch)

        newton_tol = max(10.0 * xp.finfo(float).eps / options.rtol,
                         min(options.newton_tol_factor, options.rtol ** 0.5))
        max_newton = options.newton_max_iterations

        states = (problem.initial_states() if initial_states is None
                  else xp.array(initial_states, dtype=xp.float64))
        result = allocate_result(t_eval, batch, n, self.method_code)
        result.counters = problem.counters

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
            steps = _initial_steps(problem, t0, states, derivatives, 5,
                                   options, t1 - t0)
        max_step = min(options.max_step, t1 - t0)

        jacobians = problem.jacobian(times, states, all_rows)
        jac_current = xp.ones(batch, dtype=bool)
        inv_real = xp.zeros((batch, n, n))
        inv_complex = xp.zeros((batch, n, n), dtype=xp.complex128)
        h_factored = xp.full(batch, -1.0)

        poly_coeffs = xp.zeros((batch, 3, n))
        poly_y_start = xp.zeros((batch, n))
        has_poly = xp.zeros(batch, dtype=bool)
        h_previous = steps.copy()
        err_previous = xp.full(batch, -1.0)

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

            t_act = times[active]
            h_act = xp.minimum(steps[active], t1 - t_act)
            next_save = t_eval[xp.minimum(save_index[active],
                                          t_eval.size - 1)]
            hit = t_act + h_act >= next_save - _EDGE * xp.maximum(
                1.0, xp.abs(next_save))
            h_act = xp.where(hit, next_save - t_act, h_act)
            underflow = (h_act <= xp.abs(t_act) * 1e-15) | \
                (h_act < 1e-300) | ~xp.isfinite(h_act)
            if xp.any(underflow):
                dead = active[underflow]
                status[dead] = BROKEN
                if problem.guard is not None:
                    problem.guard.on_step_break(
                        dead, problem.row_ids[dead], t_act[underflow],
                        h_act[underflow], status)
                keep = ~underflow
                active, t_act, h_act, hit = (active[keep], t_act[keep],
                                             h_act[keep], hit[keep])
                if active.size == 0:
                    continue
            steps[active] = h_act
            result.n_steps[active] += 1

            self._refresh_factorizations(active, h_act, h_factored,
                                         jacobians, inv_real, inv_complex,
                                         identity, problem)

            stage_guess = self._predict_stages(active, h_act, h_previous,
                                               has_poly, poly_coeffs,
                                               poly_y_start, states, n)
            converged, n_iter, rate, increments = self._newton(
                problem, active, t_act, h_act, states, stage_guess,
                inv_real, inv_complex, newton_tol, max_newton, options)

            # --- Newton failures: refresh Jacobian or halve the step.
            failed = ~converged
            if xp.any(failed):
                failed_rows = active[failed]
                stale = failed_rows[~jac_current[failed_rows]]
                if stale.size:
                    jacobians[stale] = problem.jacobian(
                        times[stale], states[stale], stale)
                    jac_current[stale] = True
                    h_factored[stale] = -1.0
                fresh = failed_rows[jac_current[failed_rows]]
                # Rows whose Jacobian was already current halve the step.
                overlap = xp.setdiff1d(fresh, stale, assume_unique=True)
                steps[overlap] = steps[overlap] * 0.5
                h_factored[overlap] = -1.0
                result.n_rejected[failed_rows] += 1

            if not xp.any(converged):
                continue
            conv_rows = active[converged]
            z = increments[converged]
            h_conv = h_act[converged]
            t_conv = t_act[converged]
            y_conv = states[conv_rows]
            n_iter_conv = n_iter[converged]
            rate_conv = rate[converged]

            y_new = y_conv + z[:, 2, :]
            stage_error = xp.einsum("s,bsn->bn", RADAU_E, z) / h_conv[:, None]
            error = xp.batched_matvec(inv_real[conv_rows],
                              derivatives[conv_rows] + stage_error)
            err = _scaled_error_norms(error, y_conv, y_new, options)
            needs_refinement = err >= 1.0
            if xp.any(needs_refinement):
                ref_local = xp.flatnonzero(needs_refinement)
                ref_rows = conv_rows[ref_local]
                refined_f = problem.fun(t_conv[ref_local],
                                        y_conv[ref_local]
                                        + error[ref_local], ref_rows)
                refined = xp.batched_matvec(inv_real[ref_rows],
                                    refined_f + stage_error[ref_local])
                err[ref_local] = _scaled_error_norms(
                    refined, y_conv[ref_local], y_new[ref_local], options)

            finite = xp.all(xp.isfinite(y_new), axis=1)
            err = xp.where(finite, err, xp.inf)
            safety = (options.safety * (2 * max_newton + 1)
                      / (2 * max_newton + n_iter_conv))

            accepted = err < 1.0
            rej_local = xp.flatnonzero(~accepted)
            if rej_local.size:
                rej_rows = conv_rows[rej_local]
                result.n_rejected[rej_rows] += 1
                err_rej = err[rej_local]
                shrink = xp.where(
                    xp.isfinite(err_rej),
                    xp.clip(safety[rej_local] * err_rej ** -0.25,
                            options.min_step_factor, 1.0),
                    options.min_step_factor)
                steps[rej_rows] = h_conv[rej_local] * shrink

            acc_local = xp.flatnonzero(accepted)
            if acc_local.size == 0:
                continue
            acc_rows = conv_rows[acc_local]
            result.n_accepted[acc_rows] += 1
            t_new = t_conv[acc_local] + h_conv[acc_local]
            states[acc_rows] = y_new[acc_local]
            times[acc_rows] = t_new
            if problem.guard is not None:
                problem.guard.after_accept(states, acc_rows,
                                           problem.row_ids[acc_rows],
                                           t_new, status)
            derivatives[acc_rows] = problem.fun(t_new, states[acc_rows],
                                                acc_rows)

            poly_y_start[acc_rows] = y_conv[acc_local]
            poly_coeffs[acc_rows] = xp.einsum("ij,bjn->bin",
                                              _VANDERMONDE_INV,
                                              z[acc_local])
            has_poly[acc_rows] = True
            h_previous[acc_rows] = h_conv[acc_local]

            hit_mask = hit[converged][acc_local]
            hit_rows = acc_rows[hit_mask]
            hit_rows = hit_rows[status[hit_rows] == RUNNING]
            if hit_rows.size:
                result.y[hit_rows, save_index[hit_rows], :] = \
                    states[hit_rows]
                save_index[hit_rows] += 1
                status[hit_rows[save_index[hit_rows] >= t_eval.size]] = OK

            err_acc = xp.maximum(err[acc_local], 1e-10)
            factor = xp.minimum(options.max_step_factor,
                                safety[acc_local] * err_acc ** -0.25)
            memory = err_previous[acc_rows]
            has_memory = memory > 0.0
            predictive = xp.where(
                has_memory,
                safety[acc_local] * (xp.maximum(memory, 1e-10) / err_acc)
                ** 0.1 * err_acc ** -0.25,
                xp.inf)
            factor = xp.minimum(factor, predictive)
            factor = xp.maximum(factor, options.min_step_factor)
            err_previous[acc_rows] = err_acc
            h_new = xp.minimum(h_conv[acc_local] * factor, max_step)

            if self.reuse_jacobian:
                refresh_mask = (n_iter_conv[acc_local] > 2) & \
                    (rate_conv[acc_local] > 1e-3)
            else:
                refresh_mask = xp.ones(acc_local.size, dtype=bool)
            refresh_rows = acc_rows[refresh_mask]
            if refresh_rows.size:
                jacobians[refresh_rows] = problem.jacobian(
                    times[refresh_rows], states[refresh_rows], refresh_rows)
                jac_current[refresh_rows] = True
                h_factored[refresh_rows] = -1.0
            keep_rows = acc_rows[~refresh_mask]
            jac_current[keep_rows] = False

            # Keep the factorization when the step barely changes.
            significant = xp.abs(h_new - h_conv[acc_local]) > \
                0.1 * h_conv[acc_local]
            steps[acc_rows] = xp.where(significant, h_new,
                                       h_conv[acc_local])

        tracer.end(loop_span)
        # Save points are recorded in-loop (collocation interpolation at
        # clipped steps); dense output proper does not exist on this
        # substrate, so the phase only covers the result hand-off.
        with tracer.span("dense-output", "phase",
                         parent=problem.trace_span, solver=self.name):
            return result

    # ------------------------------------------------------------------

    @staticmethod
    def _refresh_factorizations(active, h_act, h_factored, jacobians,
                                inv_real, inv_complex, identity,
                                problem) -> None:
        needs = h_factored[active] != h_act
        rows = active[needs]
        if rows.size == 0:
            return
        h_rows = h_act[needs]
        jac_rows = jacobians[rows]
        real_matrices = (MU_REAL / h_rows)[:, None, None] * identity \
            - jac_rows
        complex_matrices = (MU_COMPLEX / h_rows)[:, None, None] * identity \
            - jac_rows.astype(xp.complex128)
        inv_real[rows] = xp.batched_inv(real_matrices)
        inv_complex[rows] = xp.batched_inv(complex_matrices)
        h_factored[rows] = h_rows
        problem.counters.factorizations += 2 * rows.size

    @staticmethod
    def _predict_stages(active, h_act, h_previous, has_poly, poly_coeffs,
                        poly_y_start, states, n) -> Array:
        guess = xp.zeros((active.size, 3, n))
        predictable = has_poly[active]
        rows = active[predictable]
        if rows.size == 0:
            return guess
        ratio = h_act[predictable] / h_previous[rows]
        theta = 1.0 + ratio[:, None] * RADAU_C[None, :]       # (b, 3)
        powers = xp.stack([theta, theta ** 2, theta ** 3], axis=2)
        offsets = xp.einsum("bij,bjn->bin", powers, poly_coeffs[rows])
        guess[predictable] = offsets + (poly_y_start[rows]
                                        - states[rows])[:, None, :]
        return guess

    def _newton(self, problem, active, t_act, h_act, states, stage_guess,
                inv_real, inv_complex, tol, max_iterations, options):
        """Vectorized simplified Newton over the active sub-batch."""
        b = active.size
        n = states.shape[1]
        increments = stage_guess.copy()                        # (b, 3, n)
        transformed = xp.einsum("ij,bjn->bin", RADAU_TI, increments)
        stage_times = t_act[:, None] + RADAU_C[None, :] * h_act[:, None]
        converged = xp.zeros(b, dtype=bool)
        failed = xp.zeros(b, dtype=bool)
        n_iterations = xp.zeros(b, dtype=xp.int64)
        rates = xp.full(b, xp.inf)
        previous_norms = xp.full(b, -1.0)
        scale = options.atol + xp.abs(states[active]) * options.rtol

        for iteration in range(max_iterations):
            work = xp.flatnonzero(~converged & ~failed)
            if work.size == 0:
                break
            rows = active[work]
            n_iterations[work] += 1
            problem.counters.newton_iterations += work.size
            # One RHS launch for all three stages, stage-major: rows
            # [i*w, (i+1)*w) of the stacked launch hold stage i. The RHS
            # is row-wise, so each row rounds as in its own launch;
            # copying the blocks into a C-ordered buffer keeps the
            # einsums below on the same memory layout either way.
            base = states[rows]
            stacked = problem.fun(
                xp.concatenate([stage_times[work, i] for i in range(3)]),
                xp.concatenate([base + increments[work, i, :]
                                for i in range(3)]),
                xp.concatenate([rows, rows, rows]))
            stage_derivatives = xp.empty((work.size, 3, n))
            for i in range(3):
                stage_derivatives[:, i, :] = \
                    stacked[i * work.size:(i + 1) * work.size]
            bad = ~xp.all(xp.isfinite(stage_derivatives), axis=(1, 2))
            if xp.any(bad):
                failed[work[bad]] = True
                good = ~bad
                work = work[good]
                if work.size == 0:
                    continue
                rows = active[work]
                stage_derivatives = stage_derivatives[good]

            residual_real = xp.einsum("s,bsn->bn", RADAU_TI[0],
                                      stage_derivatives) \
                - (MU_REAL / h_act[work])[:, None] * transformed[work, 0, :]
            zeta = transformed[work, 1, :] + 1j * transformed[work, 2, :]
            residual_complex = xp.einsum("s,bsn->bn", _TI_COMPLEX,
                                         stage_derivatives) \
                - (MU_COMPLEX / h_act[work])[:, None] * zeta
            delta_real = xp.batched_matvec(inv_real[rows],
                                   residual_real)
            delta_complex = xp.batched_matvec(inv_complex[rows],
                                      residual_complex)
            delta = xp.stack([delta_real, delta_complex.real,
                              delta_complex.imag], axis=1)
            transformed[work] += delta
            increments[work] = xp.einsum("ij,bjn->bin", RADAU_T,
                                         transformed[work])

            delta_norms = xp.sqrt(xp.mean(
                (delta / scale[work, None, :]) ** 2, axis=(1, 2)))
            have_previous = previous_norms[work] > 0.0
            current_rates = xp.where(
                have_previous,
                delta_norms / xp.maximum(previous_norms[work], 1e-300),
                xp.inf)
            rates[work] = xp.where(have_previous, current_rates, rates[work])

            diverged = have_previous & (current_rates >= 1.0)
            remaining = max_iterations - iteration - 1
            with xp.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                hopeless = have_previous & ~diverged & (
                    current_rates ** remaining / (1.0 - current_rates)
                    * delta_norms > tol)
                done = xp.where(
                    have_previous,
                    ~diverged & (current_rates / (1.0 - current_rates)
                                 * delta_norms < tol),
                    delta_norms < tol)
            failed[work[diverged | hopeless]] = True
            converged[work[done & ~(diverged | hopeless)]] = True
            previous_norms[work] = delta_norms

        return converged, n_iterations, rates, increments

"""Batched Radau IIA order-5 integrator.

The stiff half of the GPU-style substrate: every running simulation runs
its own simplified-Newton iteration on the transformed three-stage
system, but all linear algebra is executed as *batched* operations —
``numpy.linalg.inv`` over a stacked (b, N, N) axis plays the role the
paper family assigns to cuBLAS batched factorizations, and Newton
updates become batched matrix-vector products.

Each simulation keeps its own step size, Jacobian freshness flag,
factorization cache, collocation polynomial (used to predict the next
step's stage values and to interpolate the save points a step crosses)
and predictive step controller, as Hairer & Wanner's RADAU5 does; the
tests check it against SciPy's ``Radau``.

That state lives in the persistent working set all three batched
integrators share (:mod:`repro.gpu.working_set`): compact per-row
arrays, updated with element-wise selects and compacted only on an
iteration where a row leaves. Rows are gathered only for work a strict subset of the set
needs: a partial factor refresh, a Newton iteration some rows already
left, the error refinement, the derivative after a partial accept and
Jacobian refreshes. While every row iterates, the Newton loop's stacked
three-stage launch runs on the set's problem tiled three times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.radau5 import (MU_COMPLEX, MU_REAL, RADAU_C, RADAU_E, RADAU_T,
                              RADAU_TI)
from .batch_dopri5 import _scaled_error_norms
from .batch_result import METHOD_RADAU5, BatchSolveResult
from .batched_ode import BatchedODEProblem
from .working_set import Interpolant, Launch, RowStates, WorkingSet

_TI_COMPLEX = RADAU_TI[1] + 1j * RADAU_TI[2]

#: Inverse of the collocation Vandermonde basis (theta^(j+1) at the
#: Radau nodes); maps stage increments to polynomial coefficients.
_VANDERMONDE_INV = xp.inv(
    xp.vander(RADAU_C, 3, increasing=True) * RADAU_C[:, None])


def _pick(values: Array, index: Array | None) -> Array:
    """``values[index]``, or ``values`` itself when ``index`` is None
    (every row of the set, no gather).
    """
    return values if index is None else values[index]


def _scatter(target: Array, index: Array | None, values: Array) -> Array:
    """``target`` with rows ``index`` replaced by ``values``.

    ``index`` None means every row: ``values`` replaces ``target``
    outright (rebound, not copied). Otherwise ``target`` is written in
    place, so it must be an array the caller owns.
    """
    if index is None:
        return values
    target[index] = values
    return target


def _tiled(problem: BatchedODEProblem) -> BatchedODEProblem:
    """``problem`` with its rows repeated three times, stage-major: the
    binding of the Newton iteration's stacked three-stage launch.
    """
    rows = xp.arange(problem.batch_size)
    return problem.subset(xp.concatenate([rows, rows, rows]))


def _collocation_output(t: Array, h: Array, y_start: Array,
                        coeffs: Array) -> Interpolant:
    """The collocation polynomial of the step of size ``h`` from
    ``(t, y_start)``: ``y_start + sum_j theta^(j+1) coeffs[:, j]``, the
    polynomial :meth:`BatchRadau5._predict_stages` extrapolates,
    evaluated element-wise (Horner) for the rows asked for.
    """
    def interpolate(index: Array, times: Array) -> Array:
        theta = ((times - t[index]) / h[index])[:, None]
        c = coeffs[index]
        return y_start[index] + theta * (c[:, 0] + theta * (
            c[:, 1] + theta * c[:, 2]))
    return interpolate


@dataclass
class _Radau5Set(WorkingSet):
    """The working set plus Radau5's Jacobians, factorizations,
    collocation polynomial and controller memory.
    """

    derivative: Array      # f(t, y)
    jacobian: Array
    jac_current: Array     # Jacobian taken at the current state
    inv_real: Array        # inverses of the real and complex Newton
    inv_complex: Array     # matrices, valid for steps of h_factored
    h_factored: Array      # negative when the inverses are stale
    poly_coeffs: Array     # collocation polynomial of the last accepted
    poly_y_start: Array    # step, which predicts the next stage values
    has_poly: Array
    h_previous: Array
    err_previous: Array    # controller memory; negative before an accept
    stacked: BatchedODEProblem = field(init=False)

    ROW_FIELDS = WorkingSet.ROW_FIELDS + (
        "derivative", "jacobian", "jac_current", "inv_real", "inv_complex",
        "h_factored", "poly_coeffs", "poly_y_start", "has_poly",
        "h_previous", "err_previous")

    def __post_init__(self) -> None:
        self.stacked = _tiled(self.problem)

    def compact(self, keep: Array) -> None:
        super().compact(keep)
        self.stacked = _tiled(self.problem)


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
              starts: RowStates | None = None) -> BatchSolveResult:
        """Integrate every row from ``t0``, or each from its entry of
        ``starts`` (its own time, state and next save index); the saves
        before a row's start index stay NaN in the result.
        """
        # Diverging rows overflow (their stages, Newton residuals and
        # error estimates) before they fail or are rejected, and a row
        # may start from a state DOPRI5 left far out; keep those FP
        # warnings quiet, as DOPRI5 does.
        with xp.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._solve(problem, t_span, t_eval, starts)

    def _solve(self, problem: BatchedODEProblem,
               t_span: tuple[float, float], t_eval: Array | None,
               starts: RowStates | None) -> BatchSolveResult:
        options = self.options
        launch = Launch(self, problem, t_span, t_eval, 5, starts=starts)
        result = launch.result
        max_step = launch.max_step
        batch, n = problem.batch_size, problem.n_species
        identity = xp.eye(n)
        newton_tol = max(10.0 * xp.finfo(float).eps / options.rtol,
                         min(options.newton_tol_factor, options.rtol ** 0.5))
        max_newton = options.newton_max_iterations

        work = launch.working_set(
            _Radau5Set, y=launch.y, derivative=launch.derivative,
            jacobian=problem.jacobian(launch.t, launch.y),
            jac_current=xp.ones(batch, dtype=bool),
            inv_real=xp.zeros((batch, n, n)),
            inv_complex=xp.zeros((batch, n, n), dtype=xp.complex128),
            h_factored=xp.full(batch, -1.0),
            poly_coeffs=xp.zeros((batch, 3, n)),
            poly_y_start=xp.zeros((batch, n)),
            has_poly=xp.zeros(batch, dtype=bool),
            h_previous=launch.h,
            err_previous=xp.full(batch, -1.0))
        launch.step_loop()

        while work.retire(result, options.max_steps):
            t = work.t
            h = launch.clip(t, work.h)
            underflow = (h <= xp.abs(t) * 1e-15) | (h < 1e-300) | \
                ~xp.isfinite(h)
            if underflow.any():
                work.break_rows(underflow, t, h)
                if not work.retire(result, options.max_steps):
                    break
                # Every other row was running, so exactly these stay.
                keep = ~underflow
                t, h = work.t, h[keep]
            work.n_steps += 1
            work.h = h

            self._refresh_factorizations(work, h, identity)
            stage_guess = self._predict_stages(work, h)
            converged, n_iter, rates, increments = self._newton(
                work, h, stage_guess, newton_tol, max_newton, options)

            # --- Newton failures: refresh a stale Jacobian, or halve
            # the step of rows whose Jacobian was already current.
            failed = ~converged
            if failed.any():
                stale = failed & ~work.jac_current
                if stale.any():
                    part = None if stale.all() else xp.flatnonzero(stale)
                    work.jacobian = _scatter(
                        work.jacobian, part,
                        work.problem.jacobian(_pick(t, part),
                                              _pick(work.y, part), part))
                work.h = xp.where(failed & work.jac_current, h * 0.5, h)
                work.jac_current = work.jac_current | failed
                work.h_factored = xp.where(failed, -1.0, work.h_factored)
                if not converged.any():
                    continue

            # --- Error estimate of the converged rows.
            conv = None if converged.all() else xp.flatnonzero(converged)
            y, z = _pick(work.y, conv), _pick(increments, conv)
            h_conv = _pick(h, conv)
            # Rows that failed Newton may carry overflowing increments;
            # their values are never selected.
            y_new = work.y + increments[:, 2, :]
            y_new_conv = _pick(y_new, conv)
            stage_error = (xp.einsum("s,bsn->bn", RADAU_E, z)
                           / h_conv[:, None])
            error = xp.batched_matvec(
                _pick(work.inv_real, conv),
                _pick(work.derivative, conv) + stage_error)
            err_conv = _scaled_error_norms(error, y, y_new_conv, options)
            needs_refinement = err_conv >= 1.0
            if needs_refinement.any():
                ref = (None if needs_refinement.all()
                       else xp.flatnonzero(needs_refinement))
                ref_rows = _pick(conv, ref) if conv is not None else ref
                y_ref = _pick(y, ref)
                refined_f = work.problem.fun(_pick(t, ref_rows),
                                             y_ref + _pick(error, ref),
                                             ref_rows)
                refined = xp.batched_matvec(
                    _pick(work.inv_real, ref_rows),
                    refined_f + _pick(stage_error, ref))
                err_conv = _scatter(err_conv, ref, _scaled_error_norms(
                    refined, y_ref, _pick(y_new_conv, ref), options))
            # Rows that failed Newton count as infinitely wrong.
            err = _scatter(xp.full(h.size, xp.inf), conv, err_conv)
            err = xp.where(xp.all(xp.isfinite(y_new), axis=1), err, xp.inf)
            safety = (options.safety * (2 * max_newton + 1)
                      / (2 * max_newton + n_iter))

            # Predictive (Gustafsson) controller, kept for accepted rows.
            err_acc = xp.maximum(err, 1e-10)
            factor = xp.minimum(options.max_step_factor,
                                safety * err_acc ** -0.25)
            memory = work.err_previous
            predictive = xp.where(
                memory > 0.0,
                safety * (xp.maximum(memory, 1e-10) / err_acc)
                ** 0.1 * err_acc ** -0.25,
                xp.inf)
            factor = xp.minimum(factor, predictive)
            factor = xp.maximum(factor, options.min_step_factor)
            h_new = xp.minimum(h * factor, max_step)
            # Keep the factorization when the step barely changes.
            h_new = xp.where(xp.abs(h_new - h) > 0.1 * h, h_new, h)

            accepted = err < 1.0
            rejected = converged & ~accepted
            if rejected.any():
                # An accepted row's zero error divides by zero here;
                # only rejected rows keep the result.
                shrink = xp.where(
                    xp.isfinite(err),
                    xp.clip(safety * err ** -0.25,
                            options.min_step_factor, 1.0),
                    options.min_step_factor)
                work.h = xp.where(rejected, h * shrink, work.h)
            if not accepted.any():
                continue

            # --- Accepted rows advance.
            acc = None if accepted.all() else xp.flatnonzero(accepted)
            y_old = work.y
            t_new = launch.step_ends(t, h)
            work.n_accepted += accepted
            if acc is None:  # the selects would copy these unchanged
                work.t, work.y, work.poly_y_start = t_new, y_new, y_old
                work.h_previous, work.err_previous = h, err_acc
            else:
                work.t = xp.where(accepted, t_new, t)
                work.y = xp.where(accepted[:, None], y_new, y_old)
                work.poly_y_start = xp.where(accepted[:, None], y_old,
                                             work.poly_y_start)
                work.h_previous = xp.where(accepted, h, work.h_previous)
                work.err_previous = xp.where(accepted, err_acc,
                                             work.err_previous)
            work.has_poly = work.has_poly | accepted
            guard = work.problem.guard
            if guard is not None:
                # Clamps land in the working set, in place.
                moved = xp.flatnonzero(accepted)
                guard.after_accept(work.y, moved,
                                   work.problem.row_ids[moved],
                                   t_new[moved], work.status)
            work.derivative = _scatter(
                work.derivative, acc,
                work.problem.fun(_pick(t_new, acc), _pick(work.y, acc), acc))
            work.poly_coeffs = _scatter(
                work.poly_coeffs, acc,
                xp.einsum("ij,bjn->bin", _VANDERMONDE_INV,
                          _pick(increments, acc)))
            work.record(_collocation_output(t, h, work.poly_y_start,
                                            work.poly_coeffs), result)

            if self.reuse_jacobian:
                refresh = accepted & (n_iter > 2) & (rates > 1e-3)
            else:
                refresh = accepted
            if refresh.any():
                part = None if refresh.all() else xp.flatnonzero(refresh)
                work.jacobian = _scatter(
                    work.jacobian, part,
                    work.problem.jacobian(_pick(work.t, part),
                                          _pick(work.y, part), part))
                work.h_factored = xp.where(refresh, -1.0, work.h_factored)
            work.jac_current = xp.where(accepted, refresh, work.jac_current)
            work.h = xp.where(accepted, h_new, work.h)

        return launch.finish()

    # ------------------------------------------------------------------

    @staticmethod
    def _refresh_factorizations(work: _Radau5Set, h: Array,
                                identity: Array) -> None:
        """Invert the Newton matrices of rows whose inverses were
        factored for another step size.
        """
        needs = work.h_factored != h
        if not needs.any():
            return
        part = None if needs.all() else xp.flatnonzero(needs)
        h_rows = _pick(h, part)
        jac_rows = _pick(work.jacobian, part)
        real_matrices = (MU_REAL / h_rows)[:, None, None] * identity \
            - jac_rows
        complex_matrices = (MU_COMPLEX / h_rows)[:, None, None] * identity \
            - jac_rows.astype(xp.complex128)
        work.inv_real = _scatter(work.inv_real, part,
                                xp.batched_inv(real_matrices))
        work.inv_complex = _scatter(work.inv_complex, part,
                                   xp.batched_inv(complex_matrices))
        work.h_factored = xp.where(needs, h, work.h_factored)
        work.problem.counters.factorizations += 2 * h_rows.size

    @staticmethod
    def _predict_stages(work: _Radau5Set, h: Array) -> Array:
        """Stage increments extrapolated from each row's last collocation
        polynomial (zero for rows without one).
        """
        if not work.has_poly.any():
            return xp.zeros(work.poly_coeffs.shape)
        part = None if work.has_poly.all() else xp.flatnonzero(work.has_poly)
        ratio = _pick(h, part) / _pick(work.h_previous, part)
        theta = 1.0 + ratio[:, None] * RADAU_C[None, :]       # (b, 3)
        powers = xp.stack([theta, theta ** 2, theta ** 3], axis=2)
        offsets = xp.einsum("bij,bjn->bin", powers,
                            _pick(work.poly_coeffs, part))
        return _scatter(xp.zeros(work.poly_coeffs.shape), part, offsets + (
            _pick(work.poly_y_start, part) - _pick(work.y, part))[:, None, :])

    def _newton(self, work: _Radau5Set, h: Array, stage_guess: Array,
                tol: float, max_iterations: int, options: SolverOptions):
        """Vectorized simplified Newton over the working set.

        While every row iterates, nothing is gathered; once some rows
        have stopped, the rest are picked by index.
        """
        b, n = work.y.shape
        increments = stage_guess                                 # (b, 3, n)
        transformed = xp.einsum("ij,bjn->bin", RADAU_TI, increments)
        stage_times = work.t[:, None] + RADAU_C[None, :] * h[:, None]
        converged = xp.zeros(b, dtype=bool)
        failed = xp.zeros(b, dtype=bool)
        n_iterations = xp.zeros(b, dtype=xp.int64)
        rates = xp.full(b, xp.inf)
        previous_norms = xp.full(b, -1.0)
        scale = options.atol + xp.abs(work.y) * options.rtol
        # Invariant over the iterations: the stacked launch's times and
        # the shifts of the transformed Newton matrices.
        stacked_times = xp.concatenate([stage_times[:, i] for i in range(3)])
        shift_real = (MU_REAL / h)[:, None]
        shift_complex = (MU_COMPLEX / h)[:, None]

        for iteration in range(max_iterations):
            iterating = ~converged & ~failed
            if not iterating.any():
                break
            part = None if iterating.all() else xp.flatnonzero(iterating)
            n_iterations += iterating
            width = b if part is None else part.size
            work.problem.counters.newton_iterations += width
            # One RHS launch for all three stages, stage-major: rows
            # [i*w, (i+1)*w) of the stacked launch hold stage i. The RHS
            # is row-wise, so each row rounds as in its own launch;
            # copying the blocks into a C-ordered buffer keeps the
            # einsums below on the same memory layout either way.
            base = _pick(work.y, part)
            guess = _pick(increments, part)
            stage_states = xp.concatenate(
                [base + guess[:, i, :] for i in range(3)])
            if part is None:
                stacked = work.stacked.fun(stacked_times, stage_states)
            else:
                stacked = work.problem.fun(
                    xp.concatenate([stage_times[part, i] for i in range(3)]),
                    stage_states, xp.concatenate([part, part, part]))
            stage_derivatives = xp.empty((width, 3, n))
            for i in range(3):
                stage_derivatives[:, i, :] = \
                    stacked[i * width:(i + 1) * width]
            # One fold finds any non-finite value (an overflowing sum
            # only costs the exact per-row pass).
            if not math.isfinite(stacked.sum()):
                bad = ~xp.all(xp.isfinite(stage_derivatives), axis=(1, 2))
                if bad.any():
                    if part is None:
                        part = xp.arange(b)
                    failed[part[bad]] = True
                    good = ~bad
                    part = part[good]
                    if part.size == 0:
                        continue
                    stage_derivatives = stage_derivatives[good]

            z_rows = _pick(transformed, part)
            # A diverging row's stages overflow the residual; it fails
            # on its non-finite stages in the next iteration, or stays
            # unconverged after the last.
            residual_real = xp.einsum("s,bsn->bn", RADAU_TI[0],
                                      stage_derivatives) \
                - _pick(shift_real, part) * z_rows[:, 0, :]
            zeta = z_rows[:, 1, :] + 1j * z_rows[:, 2, :]
            residual_complex = xp.einsum("s,bsn->bn", _TI_COMPLEX,
                                         stage_derivatives) \
                - _pick(shift_complex, part) * zeta
            delta_real = xp.batched_matvec(_pick(work.inv_real, part),
                                           residual_real)
            delta_complex = xp.batched_matvec(_pick(work.inv_complex, part),
                                              residual_complex)
            delta = xp.stack([delta_real, delta_complex.real,
                              delta_complex.imag], axis=1)
            z_rows = z_rows + delta
            transformed = _scatter(transformed, part, z_rows)
            increments = _scatter(increments, part,
                                 xp.einsum("ij,bjn->bin", RADAU_T, z_rows))

            delta_norms = xp.sqrt(xp.mean(
                (delta / _pick(scale, part)[:, None, :]) ** 2, axis=(1, 2)))
            previous = _pick(previous_norms, part)
            have_previous = previous > 0.0
            remaining = max_iterations - iteration - 1
            # A too-large step on a stiff row overflows the rate.
            current_rates = xp.where(
                have_previous,
                delta_norms / xp.maximum(previous, 1e-300), xp.inf)
            diverged = have_previous & (current_rates >= 1.0)
            hopeless = have_previous & ~diverged & (
                current_rates ** remaining / (1.0 - current_rates)
                * delta_norms > tol)
            done = xp.where(
                have_previous,
                ~diverged & (current_rates / (1.0 - current_rates)
                             * delta_norms < tol),
                delta_norms < tol)
            rates = _scatter(rates, part, xp.where(
                have_previous, current_rates, _pick(rates, part)))
            stop = diverged | hopeless
            failed = _scatter(failed, part, _pick(failed, part) | stop)
            converged = _scatter(converged, part,
                                _pick(converged, part) | (done & ~stop))
            previous_norms = _scatter(previous_norms, part, delta_norms)

        return converged, n_iterations, rates, increments

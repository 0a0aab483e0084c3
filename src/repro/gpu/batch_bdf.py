"""Batched variable-order BDF integrator (the cupSODA-analog engine).

The original coarse-grained GPU simulator (cupSODA) runs one
LSODA-style multistep integration per device thread. This module is
its NumPy analog, on the fixed-leading-coefficient BDF constants of
:mod:`repro.solvers.bdf`: every simulation carries its own
backward-difference table, step size, *order* and Newton state, and
each sweep makes one attempt (a Newton failure, a rejection or an
accept) for every running simulation, whatever its order.

Rows at different orders share one instruction stream, as the threads
of a SIMD unit do. The kernels run over the table's slots up to order
5, gather per-row coefficients by order and mask the slots past a row's
order with ``where``, never by multiplying with zero, so a row keeps
its own order's bytes: a ``-0.0`` survives, and an unused slot is never
read. Sums run element-wise in slot order, and every step-size change
goes through one batched rescale of the tables.

The simulations live in the working set all three batched integrators
share (:mod:`repro.gpu.working_set`); BDF's state is the table's zeroth
slice. Steps are clipped only at the end of the span: the save points a
step crosses are interpolated from the accepted step's table, as
SciPy's ``BdfDenseOutput`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.bdf import ALPHA, ERROR_CONST, GAMMA, MAX_ORDER, NEWTON_MAXITER
from .batch_dopri5 import _scaled_error_norms
from .batch_result import METHOD_BDF, BatchSolveResult
from .batched_ode import BatchedODEProblem
from .working_set import Interpolant, Launch, WorkingSet

#: Slots 0..MAX_ORDER of a difference table, the ones an order reads.
_SLOTS = xp.arange(MAX_ORDER + 1)


def _r_tables(factors: Array) -> Array:
    """Each row's ``R(factor)`` at order 5, multiplied out in order: row
    0 ones, column 0 zero below it, ``R[i, j] = prod_(l <= i) (l - 1 -
    factor j) / l``. Its leading block is ``R(factor)`` at lower orders.
    """
    steps = (_SLOTS[1:, None] - 1 - factors[:, None, None] * _SLOTS[1:]) \
        / _SLOTS[1:, None]
    tables = xp.zeros((factors.size, MAX_ORDER + 1, MAX_ORDER + 1))
    tables[:, 0] = 1.0
    for i in range(1, MAX_ORDER + 1):
        tables[:, i, 1:] = tables[:, i - 1, 1:] * steps[:, i - 1]
    return tables


#: ``R(1)``, the ``U`` of the rescale; upper triangular.
_U = _r_tables(xp.ones(1))[0]


def _live(differences: Array, orders: Array) -> tuple[Array, Array]:
    """Which slots each row's order reads, and the tables' slots with
    the others zeroed, so no masked-out lane computes on a parked value."""
    live = orders[:, None] >= _SLOTS
    return live, xp.where(live[:, :, None],
                          differences[:, :MAX_ORDER + 1], 0.0)


def _slot_sum(term, on: Array, first: int = 0) -> Array:
    """``term(first) + term(first + 1) + ...`` in slot order, adding
    ``term(s)`` only where ``on[:, s]``."""
    total = term(first)
    for slot in range(first + 1, MAX_ORDER + 1):
        total = xp.where(on[:, slot], total + term(slot), total)
    return total


def _predict(differences: Array, orders: Array) -> tuple[Array, Array]:
    """The predicted states ``D[0] + ... + D[k]`` and the Newton
    constants ``(GAMMA[1] D[1] + ... + GAMMA[k] D[k]) / ALPHA[k]``."""
    live, table = _live(differences, orders)
    on = live[:, :, None]
    psi = _slot_sum(lambda s: GAMMA[s] * table[:, s], on, 1)
    return (_slot_sum(lambda s: table[:, s], on),
            psi / ALPHA[orders][:, None])


def _rescale(differences: Array, orders: Array, factors: Array) -> Array:
    """The tables rescaled for steps ``factors`` times the old ones,
    ``D[:k + 1] <- (R(factor) U)^T D[:k + 1]``; later slots keep theirs.
    """
    live, table = _live(differences, orders)
    on = live[:, :, None, None]
    r = _r_tables(factors)
    rescale = _slot_sum(lambda s: r[:, :, s, None] * _U[s], on)
    total = _slot_sum(lambda s: rescale[:, s, :, None] * table[:, None, s],
                      on)
    rescaled = differences.copy()
    rescaled[:, :MAX_ORDER + 1] = xp.where(live[:, :, None], total,
                                           differences[:, :MAX_ORDER + 1])
    return rescaled


def _accept(differences: Array, orders: Array, correction: Array) -> Array:
    """The tables after accepted steps: ``D[k + 2] = correction - D[k +
    1]``, ``D[k + 1] = correction``, then ``D[i] += D[i + 1]``, i = k..0.
    """
    index = xp.arange(orders.size)
    updated = differences.copy()
    updated[index, orders + 2] = correction - differences[index, orders + 1]
    updated[index, orders + 1] = correction
    total = correction
    for slot in range(MAX_ORDER, -1, -1):
        on = (orders >= slot)[:, None]
        total = xp.where(on, updated[:, slot] + total, total)
        updated[:, slot] = xp.where(on, total, updated[:, slot])
    return updated


def _order_change(differences: Array, orders: Array, err: Array,
                  options: SolverOptions) -> tuple[Array, Array]:
    """``(orders, factors)`` of rows due an order change: the order among
    ``k - 1``, ``k``, ``k + 1`` (the lowest on a tie) whose error norm
    allows the longest next step, and that step's factor. ``err`` is
    the accepted step's error norm at ``k``.
    """
    index = xp.arange(orders.size)
    scale = options.atol + options.rtol * xp.abs(differences[:, 0])

    def norm(order: Array) -> Array:  # of order's error, from slot + 1
        error = ERROR_CONST[xp.minimum(order, MAX_ORDER)][:, None] \
            * differences[index, order + 1] / scale
        return xp.sqrt(xp.sum(error ** 2, axis=1) / scale.shape[1])

    candidates = orders[:, None] + xp.arange(-1, 2)
    norms = xp.stack([norm(orders - 1), err, norm(orders + 1)], axis=1)
    factors = xp.where((candidates >= 1) & (candidates <= MAX_ORDER),
                       xp.maximum(norms, 1e-10) ** (-1.0 / (candidates + 1)),
                       -xp.inf)
    best = xp.argmax(factors, axis=1)
    return candidates[index, best], xp.clip(
        0.9 * factors[index, best], options.min_step_factor,
        options.max_step_factor)


def _difference_output(work: "_BdfSet") -> Interpolant:
    """The interpolating polynomial of the set's difference tables,
    read after an accepted step's table update (SciPy's
    ``BdfDenseOutput``): ``D[0] + sum_j D[j + 1] prod_(i <= j)
    (t - t_new + i h) / ((i + 1) h)``, element-wise per row.
    """
    def interpolate(index: Array, times: Array) -> Array:
        h = work.h[index]
        offset = times - work.t[index]
        live, table = _live(work.differences[index], work.orders[index])
        products = [xp.ones(index.size)]
        for j in range(MAX_ORDER):
            products.append(products[-1] * ((offset + j * h)
                                            / ((j + 1) * h)))
        return _slot_sum(lambda s: table[:, s] * products[s][:, None],
                         live[:, :, None])
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

    def resize(self, resized: Array, h: Array, factors: Array) -> None:
        """Move rows ``resized`` to steps ``h`` (``factors`` times the
        old ones) at their orders, rescaling their tables in place."""
        index = xp.flatnonzero(resized)
        self.differences[index] = _rescale(
            self.differences[index], self.orders[index], factors[index])
        self.h = xp.where(resized, h, self.h)
        self.steps_at_order = xp.where(resized, 0, self.steps_at_order)
        self.c_factored = xp.where(resized, -1.0, self.c_factored)


class BatchBDF:
    """Adaptive-order batched BDF for coarse-grained stiff batches."""

    name = "batch-bdf"
    method_code = METHOD_BDF

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None) -> BatchSolveResult:
        options = self.options
        launch = Launch(self, problem, t_span, t_eval, 1)
        result = launch.result
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
            t = work.t
            h = launch.clip(t, work.h)
            underflow = (h <= xp.abs(t) * 1e-15) | (h < 1e-300) | \
                ~xp.isfinite(h)
            if underflow.any():
                work.break_rows(underflow, t, h)
                if not work.retire(result, options.max_steps):
                    break
                # Every other row was running, so exactly these stay.
                h = h[~underflow]
            clipped = h != work.h
            if clipped.any():
                work.resize(clipped, h, h / work.h)
            work.n_steps += 1
            self._attempt(work, identity, newton_tol, launch)

        return launch.finish()

    # ------------------------------------------------------------------

    def _attempt(self, work: _BdfSet, identity: Array, newton_tol: float,
                 launch: Launch) -> None:
        """One attempt of every row of the set, each at its own order."""
        options = self.options
        t, h, orders = work.t, work.h, work.orders
        t_new = launch.step_ends(t, h)
        y_predict, psi = _predict(work.differences, orders)
        c = h / ALPHA[orders]

        refactor = work.c_factored != c
        if refactor.any():
            index = xp.flatnonzero(refactor)
            work.inverse[index] = xp.batched_inv(
                identity[None] - c[index, None, None] * work.jacobian[index])
            work.c_factored = xp.where(refactor, c, work.c_factored)
            work.problem.counters.factorizations += index.size

        converged, n_iter, y_new, correction = self._newton(
            work, t_new, y_predict, c, psi, newton_tol)

        # A Newton failure refreshes a stale Jacobian and retries, or
        # halves the step when the Jacobian was already current.
        halved = ~converged & work.jac_current
        stale = ~converged & ~work.jac_current
        if stale.any():
            index = xp.flatnonzero(stale)
            work.jacobian[index] = work.problem.jacobian(
                t[index], work.y[index], index)
            work.jac_current = work.jac_current | stale
            work.c_factored = xp.where(stale, -1.0, work.c_factored)
        factors = xp.where(halved, 0.5, 1.0)

        err = xp.full(h.size, xp.inf)
        index = xp.flatnonzero(converged)
        if index.size:
            error = ERROR_CONST[orders[index]][:, None] * correction[index]
            y_index = y_new[index]
            err[index] = xp.where(
                xp.all(xp.isfinite(y_index), axis=1),
                _scaled_error_norms(error, work.y[index], y_index, options),
                xp.inf)
        rejected = converged & (err >= 1.0)
        if rejected.any():
            index = xp.flatnonzero(rejected)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / \
                (2 * NEWTON_MAXITER + n_iter[index])
            factors[index] = xp.maximum(
                options.min_step_factor,
                safety * err[index] ** (-1.0 / (orders[index] + 1)))
        h_new = h * factors
        resized = halved | rejected

        accepted = converged & ~rejected
        if accepted.any():
            index = xp.flatnonzero(accepted)
            work.n_accepted = work.n_accepted + accepted
            work.t = xp.where(accepted, t_new, t)
            work.jac_current = work.jac_current & ~accepted
            work.steps_at_order = work.steps_at_order + accepted
            work.differences[index] = _accept(
                work.differences[index], orders[index], correction[index])
            guard = work.problem.guard
            if guard is not None:
                # Clamps land in the difference table through ``work.y``.
                guard.after_accept(work.y, index,
                                   work.problem.row_ids[index],
                                   work.t[index], work.status)
            # Save before the order change, which rescales the table.
            work.record(_difference_output(work), launch.result)

            due = accepted & (work.steps_at_order >= orders + 1)
            if due.any():
                index = xp.flatnonzero(due)
                work.orders = orders.copy()
                work.orders[index], factors[index] = _order_change(
                    work.differences[index], orders[index], err[index],
                    options)
                h_new[index] = xp.minimum(h[index] * factors[index],
                                          launch.max_step)
                factors[index] = h_new[index] / h[index]
                resized = resized | due
        if resized.any():
            work.resize(resized, h_new, factors)

    def _newton(self, work: _BdfSet, t_new: Array, y_predict: Array,
                c: Array, psi: Array, tol: float):
        options = self.options
        b = t_new.size
        y = y_predict.copy()
        correction = xp.zeros_like(y)
        scale = options.atol + options.rtol * xp.abs(y_predict)
        converged = xp.zeros(b, dtype=bool)
        failed = xp.zeros(b, dtype=bool)
        n_iterations = xp.zeros(b, dtype=xp.int64)
        previous = xp.full(b, -1.0)
        for k in range(NEWTON_MAXITER):
            live = xp.flatnonzero(~converged & ~failed)
            if live.size == 0:
                break
            n_iterations[live] += 1
            work.problem.counters.newton_iterations += live.size
            f = work.problem.fun(t_new[live], y[live], live)
            finite = xp.all(xp.isfinite(f), axis=1)
            failed[live[~finite]] = True
            live, f = live[finite], f[finite]
            residual = c[live, None] * f - psi[live] - correction[live]
            delta = xp.batched_matvec(work.inverse[live], residual)
            norms = xp.sqrt(xp.mean((delta / scale[live]) ** 2, axis=1))
            have_prev = previous[live] > 0
            with xp.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                rate = xp.where(have_prev,
                                norms / xp.maximum(previous[live], 1e-300),
                                xp.nan)
                # SciPy's test: the rate projected over the iterations
                # left cannot bring the norm below ``tol``.
                hopeless = have_prev & (
                    (rate >= 1.0)
                    | (rate ** (NEWTON_MAXITER - k) / (1 - rate) * norms
                       > tol))
            failed[live[hopeless]] = True
            keep = ~hopeless
            live, delta, norms, rate = (live[keep], delta[keep], norms[keep],
                                        rate[keep])
            y[live] += delta
            correction[live] += delta
            done = (norms == 0.0) | (have_prev[keep] & (
                rate / (1 - xp.minimum(rate, 0.999)) * norms < tol))
            converged[live[done]] = True
            previous[live] = norms
        return converged, n_iterations, y, correction

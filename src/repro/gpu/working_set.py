"""Persistent working set of a batched integrator's running simulations.

The batched integrators (DOPRI5, Radau5 and BDF) keep the simulations
still running as compact per-row arrays that the step loop updates,
plus the problem bound to exactly those rows, so the right-hand side is
evaluated without gathering constants. A row leaves the set (finished,
exhausted, broken, or stopped by the guard or a stiffness test) and the
set is compacted only on the iterations where that happens — the
batched analogue of retiring finished GPU threads.

:class:`WorkingSet` holds the state every integrator shares and owns
the one retire mechanism and the one save path; each integrator
subclasses it with its own per-row fields and lists them in
``ROW_FIELDS``. :class:`Launch` is the start-up every integrator's
``solve`` shares: the save grid, the result, each row's start, the
first derivative and steps, and the solve's phase spans.

A launch's rows start where :class:`RowStates` says: each row's own
time, state and next save index. A row leaving the set leaves its stop
state in the same type, so one solve's stops are the next solve's
starts; the ``auto`` router continues the rows DOPRI5 stops unfinished
in Radau IIA that way.

Steps are clipped only at the end of the span, never onto save points:
after an accepted step, :meth:`WorkingSet.record` saves every save point
the step crossed from the integrator's continuous extension of that
step (its *interpolant*), as LSODA does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, TypeVar

from ..backend import Array, xp
from ..solvers.base import SolverOptions, validate_time_grid
from ..telemetry.tracer import NULL_TRACER
from .batch_result import (BROKEN, EXHAUSTED, OK, RUNNING,
                           BatchSolveResult, allocate_result)
from .batched_ode import BatchedODEProblem

#: ``interpolant(index, times)``: the last step's continuous extension
#: of set rows ``index``, evaluated at ``times`` inside the step.
Interpolant = Callable[[Array, Array], Array]


@dataclass
class RowStates:
    """Each row's time, working state and index of its next save point:
    where a launch's rows start, or where they stopped.
    """

    t: Array
    y: Array
    save: Array

    @classmethod
    def empty(cls, batch: int, n_species: int) -> "RowStates":
        """Entries for ``batch`` rows, for a solve to write its stops."""
        return cls(xp.full(batch, xp.nan), xp.full((batch, n_species), xp.nan),
                   xp.zeros(batch, dtype=xp.int64))

    def take(self, rows: Array) -> "RowStates":
        """Copy of the entries ``rows``."""
        return RowStates(self.t[rows], self.y[rows], self.save[rows])


@dataclass
class WorkingSet:
    """Compact state of the simulations still running.

    Entry ``i`` of every per-row array belongs to launch row
    ``rows[i]``, and ``problem`` is the launch's problem bound to
    exactly those rows. Rows leave only through :meth:`retire`. All
    rows attempt every step together, so one step count serves the
    whole set.
    """

    rows: Array
    problem: BatchedODEProblem
    t: Array
    h: Array               # proposed size of the next step
    y: Array
    save: Array            # index of the next save point
    n_accepted: Array
    status: Array
    grid: Array            # save times
    # Where the rows that left stopped, by launch row.
    stops: RowStates | None = field(default=None, kw_only=True)
    n_steps: int = field(default=0, init=False)  # attempts of every row

    #: Fields that hold one entry per running simulation.
    ROW_FIELDS: ClassVar[tuple[str, ...]] = (
        "rows", "t", "h", "y", "save", "n_accepted", "status")

    def retire(self, result: BatchSolveResult, max_steps: int) -> bool:
        """Write back the rows that stopped running and compact the rest.

        Rows still running after ``max_steps`` attempts stop as
        ``EXHAUSTED``. Each leaving row's time, working state and next
        save index go to ``stops``, when the set has one. Returns
        whether any row is still running.
        """
        if self.n_steps >= max_steps:
            self.status = xp.where(self.status == RUNNING, EXHAUSTED,
                                   self.status)
        leaving = self.status != RUNNING
        if not leaving.any():
            return self.rows.size > 0
        done = self.rows[leaving]
        result.status_codes[done] = self.status[leaving]
        result.n_steps[done] = self.n_steps
        result.n_accepted[done] = self.n_accepted[leaving]
        result.n_rejected[done] = self.n_steps - self.n_accepted[leaving]
        if self.stops is not None:
            self.stops.t[done] = self.t[leaving]
            self.stops.y[done] = self.y[leaving]
            self.stops.save[done] = self.save[leaving]
        keep = xp.flatnonzero(~leaving)
        if keep.size == 0:
            return False
        self.compact(keep)
        return True

    def compact(self, keep: Array) -> None:
        """Keep only the entries ``keep`` of every per-row field."""
        for name in self.ROW_FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.problem = self.problem.subset(keep)

    def break_rows(self, broken: Array, t: Array, h: Array) -> None:
        """Stop the rows whose step size broke down (``BROKEN``, or the
        guard's status where the guard claims the breakdown).
        """
        self.status = xp.where(broken, BROKEN, self.status)
        guard = self.problem.guard
        if guard is not None:
            dead = xp.flatnonzero(broken)
            guard.on_step_break(dead, self.problem.row_ids[dead], t[dead],
                                h[dead], self.status)

    def record(self, interpolant: Interpolant,
               result: BatchSolveResult) -> None:
        """Save every save point the running rows' last step crossed.

        A running row's next save time lies ahead of it until a step
        crosses it, so the rows to save are those whose next save time
        is now at or behind them. A save time at the step's end records
        the (guard-repaired) working state itself, byte for byte; one
        inside the step records ``interpolant`` there. A step may cross
        several save points, one per pass; rows past the last one are
        done. Rows the guard stopped on this step are not recorded.
        """
        last = self.grid.size - 1
        while True:
            times = self.grid[xp.minimum(self.save, last)]
            reached = times <= self.t
            if not reached.any():  # most steps cross no save point
                return
            crossed = reached & (self.status == RUNNING)
            if not crossed.any():
                return
            index = xp.flatnonzero(crossed)
            times = times[index]
            values = self.y[index]
            inside = times < self.t[index]
            if inside.any():
                # Diverging rows may overflow the extension's terms.
                with xp.errstate(over="ignore", invalid="ignore"):
                    values[inside] = interpolant(index[inside],
                                                 times[inside])
            result.y[self.rows[index], self.save[index], :] = values
            self.save = self.save + crossed
            self.status = xp.where(crossed & (self.save > last), OK,
                                   self.status)


SetT = TypeVar("SetT", bound=WorkingSet)


def _initial_steps(problem: BatchedODEProblem, t: Array, states: Array,
                   derivatives: Array, order: int,
                   options: SolverOptions, max_step: float) -> Array:
    """Vectorized Hairer starting-step heuristic (one extra kernel) from
    each row's time ``t`` and state.
    """
    scale = options.atol + xp.abs(states) * options.rtol
    d0 = xp.sqrt(xp.mean((states / scale) ** 2, axis=1))
    d1 = xp.sqrt(xp.mean((derivatives / scale) ** 2, axis=1))
    h0 = xp.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / (d1 + 1e-300))
    probe = states + h0[:, None] * derivatives
    f1 = problem.fun(t + h0, probe)
    d2 = xp.sqrt(xp.mean(((f1 - derivatives) / scale) ** 2, axis=1)) / h0
    dmax = xp.maximum(d1, d2)
    h1 = xp.where(dmax <= 1e-15, xp.maximum(1e-6, h0 * 1e-3),
                  (0.01 / xp.maximum(dmax, 1e-300)) ** (1.0 / (order + 1)))
    # Pairwise minimum in fixed order: bit-identical to the former
    # minimum.reduce over the same three operands.
    cap = xp.full_like(h0, max_step)
    return xp.minimum(xp.minimum(100.0 * h0, h1), cap)


class Launch:
    """The start-up of one integrator ``solve`` and its phase spans.

    Construction is the ``compile`` phase every integrator shares: it
    validates the save grid, allocates the result, places each row at
    its start, evaluates the first derivative and proposes each row's
    first step (Hairer's heuristic for a method of order ``order`` at
    the row's own time and state, unless ``options.first_step`` fixes
    it). ``starts`` ``None`` starts every row at ``t0`` from its initial
    state, saving it when the grid begins there; otherwise each row
    continues from its entry, and the saves before its save index are
    left to the solve that made them. Rows that leave the set write
    their stop states into ``stops``, when given. ``solver`` is the
    integrator, read for its ``options``, ``name`` and ``method_code``.
    The integrator builds its set with :meth:`working_set`, then
    brackets its step loop with :meth:`step_loop` and :meth:`finish`.
    """

    def __init__(self, solver, problem: BatchedODEProblem,
                 t_span: tuple[float, float], t_eval: Array | None,
                 order: int, starts: RowStates | None = None,
                 stops: RowStates | None = None) -> None:
        options = solver.options
        self.problem = problem
        self.solver = solver.name
        self.stops = stops
        self.t_eval = validate_time_grid(t_span, t_eval)
        t0, self.t1 = float(t_span[0]), float(t_span[1])
        batch = problem.batch_size
        self.tracer = problem.tracer or NULL_TRACER
        self._span = self.tracer.start("compile", "phase",
                                       parent=problem.trace_span,
                                       solver=self.solver, rows=batch)

        self.result = allocate_result(self.t_eval, batch, problem.n_species,
                                      solver.method_code)
        if starts is None:
            self.y = problem.initial_states()
            self.t = xp.full(batch, t0)
            self.save = xp.zeros(batch, dtype=xp.int64)
            if self.t_eval[0] == t0:
                self.result.y[:, 0, :] = self.y
                self.save[:] = 1
        else:
            # The guard clamps the working state in place.
            self.t, self.y, self.save = starts.t, starts.y.copy(), starts.save

        self.derivative = problem.fun(self.t, self.y)
        self.max_step = min(options.max_step, self.t1 - t0)
        if options.first_step is not None:
            self.h = xp.full(batch, options.first_step)
        else:
            self.h = _initial_steps(problem, self.t, self.y, self.derivative,
                                    order, options, self.max_step)

    def working_set(self, kind: type[SetT], **fields) -> SetT:
        """A ``kind`` set of every launch row, holding the start-up's
        times, steps and save indexes plus the integrator's ``fields``;
        rows whose whole grid is already recorded start done.
        """
        batch = self.problem.batch_size
        return kind(rows=xp.arange(batch), problem=self.problem, t=self.t,
                    h=self.h, save=self.save,
                    n_accepted=xp.zeros(batch, dtype=xp.int64),
                    status=xp.where(self.save >= self.t_eval.size, OK,
                                    RUNNING),
                    grid=self.t_eval, stops=self.stops, **fields)

    def clip(self, t: Array, h: Array) -> Array:
        """Steps of proposed size ``h`` from ``t``, clipped at the span's
        end: a step that would stop past ``t1``, or short of it by no
        more than ``|t1| * 1e-15``, is cut to end on ``t1``. A row is
        never left a step of rounding size short of the end, which the
        step-size breakdown test would take for a collapse.
        """
        remaining = self.t1 - t
        return xp.where(h >= remaining - abs(self.t1) * 1e-15, remaining, h)

    def step_ends(self, t: Array, h: Array) -> Array:
        """Where steps of size ``h`` from ``t`` end. A step clipped to
        the span's end lands on ``t1`` exactly.
        """
        return xp.where(h < self.t1 - t, t + h, self.t1)

    def step_loop(self) -> None:
        """Close the ``compile`` phase and open the ``step-loop`` one."""
        self.tracer.end(self._span)
        self._span = self.tracer.start("step-loop", "phase",
                                       parent=self.problem.trace_span,
                                       solver=self.solver)

    def finish(self) -> BatchSolveResult:
        """Close the step loop and hand the result off.

        Save points are interpolated in-loop, right after the step that
        crosses them (:meth:`WorkingSet.record`), so the
        ``dense-output`` phase only covers the hand-off; the span keeps
        the phase catalog uniform.
        """
        self.tracer.end(self._span)
        with self.tracer.span("dense-output", "phase",
                              parent=self.problem.trace_span,
                              solver=self.solver):
            return self.result

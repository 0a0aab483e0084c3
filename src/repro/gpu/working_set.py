"""Persistent working set of a batched integrator's running simulations.

The batched integrators keep the simulations still running as compact
per-row arrays that the step loop updates with element-wise selects,
plus the problem bound to exactly those rows, so the right-hand side is
evaluated without gathering constants. A row leaves the set (finished,
exhausted, broken, or stopped by the guard or a stiffness test) and the
set is compacted only on the iterations where that happens — the
batched analogue of retiring finished GPU threads.

:class:`WorkingSet` holds the state every integrator shares and owns
the one retire mechanism; each integrator subclasses it with its own
per-row fields and lists them in ``ROW_FIELDS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..backend import Array, xp
from .batch_result import (BROKEN, EXHAUSTED, OK, RUNNING,
                           BatchSolveResult)
from .batched_ode import BatchedODEProblem


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
    derivative: Array      # f(t, y)
    save: Array            # index of the next save point
    n_accepted: Array
    status: Array
    n_steps: int = field(default=0, init=False)  # attempts of every row

    #: Fields that hold one entry per running simulation.
    ROW_FIELDS: ClassVar[tuple[str, ...]] = (
        "rows", "t", "h", "y", "derivative", "save", "n_accepted", "status")

    def retire(self, result: BatchSolveResult, max_steps: int) -> bool:
        """Write back the rows that stopped running and compact the rest.

        Rows still running after ``max_steps`` attempts stop as
        ``EXHAUSTED``. Returns whether any row is still running.
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

    def record(self, landed: Array, result: BatchSolveResult) -> None:
        """Save the current state of the running rows that ``landed`` on
        their next save time; rows past the last one are done.

        Rows the guard (or a stiffness test) stopped on this step are
        not recorded.
        """
        hits = landed & (self.status == RUNNING)
        if not hits.any():
            return
        saved = xp.flatnonzero(hits)
        result.y[self.rows[saved], self.save[saved], :] = self.y[saved]
        self.save = self.save + hits
        self.status = xp.where(hits & (self.save >= result.y.shape[1]), OK,
                               self.status)

"""Per-simulation method switching (the phase-P2 analog).

Every simulation starts on batched DOPRI5 with Hairer's in-loop
stiffness test. A row that DOPRI5 stops unfinished — stiffness
detected, step budget exhausted, step-size breakdown or a guard stop —
*switches*: it continues from its own last accepted working state
(time, state and next save index) in one batched Radau IIA launch, so
the saves DOPRI5 made stay and none of its work is repeated, as LSODA
switches method in place. A call makes at most one implicit launch.

A row's switch follows from that row's own trajectory, never from the
width of the launch it shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend import Array, xp
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from .batch_dopri5 import BatchDopri5
from .batch_radau5 import BatchRadau5
from .batch_result import OK, BatchSolveResult
from .batched_ode import BatchedODEProblem
from .working_set import RowStates


@dataclass(frozen=True)
class RoutingDecision:
    """Which rows of a router call switched from DOPRI5 to Radau IIA.

    ``switched`` is a boolean per-simulation mask.
    """

    switched: Array

    @property
    def n_stiff(self) -> int:
        """Rows that switched to Radau IIA."""
        return int(xp.sum(self.switched))

    def to_dict(self) -> dict:
        return {"switched": [bool(v) for v in self.switched]}

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingDecision":
        """Inverse of :meth:`to_dict`. A decision written before rows
        resumed holds ``stiff_mask`` and maybe ``handed_back``: the rows
        DOPRI5 handed back load as the switched ones.
        """
        switched = data.get("switched", data.get("handed_back"))
        if switched is None:
            return cls(xp.zeros(len(data["stiff_mask"]), dtype=bool))
        return cls(xp.asarray(switched, dtype=bool))


class StiffnessRouter:
    """Run every simulation on DOPRI5 and switch the unfinished ones to
    Radau IIA where they stopped.

    A switched row keeps DOPRI5's saves before its stop, takes Radau
    IIA's from there on, reports method ``radau5`` and counts the steps
    of both integrators.
    """

    name = "router"

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None
              ) -> tuple[BatchSolveResult, RoutingDecision]:
        """Integrate a batch with per-simulation method switching."""
        stops = RowStates.empty(problem.batch_size, problem.n_species)
        merged = BatchDopri5(self.options, abort_on_stiffness=True).solve(
            problem, t_span, t_eval, stops)
        switched = merged.status_codes != OK
        rows = xp.flatnonzero(switched)
        if rows.size:
            starts = stops.take(rows)
            implicit = BatchRadau5(self.options).solve(
                problem.subset(rows), t_span, t_eval, starts)
            later = xp.arange(merged.t.size) >= starts.save[:, None]
            merged.y[rows] = xp.where(later[:, :, None], implicit.y,
                                      merged.y[rows])
            merged.status_codes[rows] = implicit.status_codes
            merged.method_codes[rows] = implicit.method_codes
            merged.n_steps[rows] += implicit.n_steps
            merged.n_accepted[rows] += implicit.n_accepted
            merged.n_rejected[rows] += implicit.n_rejected
        return merged, RoutingDecision(switched)

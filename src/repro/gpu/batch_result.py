"""Result schema shared by the batched GPU-style integrators."""

from __future__ import annotations

from dataclasses import dataclass

from ..backend import Array, xp

#: Per-simulation integer status codes.
RUNNING = 0
OK = 1
EXHAUSTED = 2
BROKEN = 3
STIFF = 4
GUARD = 5

STATUS_NAMES = {RUNNING: "running", OK: "success",
                EXHAUSTED: "max_steps", BROKEN: "failed",
                STIFF: "stiff_detected", GUARD: "guard_violation"}

#: Per-simulation method codes.
METHOD_DOPRI5 = 0
METHOD_RADAU5 = 1
METHOD_LSODA = 2
METHOD_VODE = 3
#: Retired engine; the code stays so earlier archives still decode.
METHOD_AUTOSWITCH = 4
METHOD_SSA = 5
METHOD_TAU_LEAPING = 6
METHOD_BDF = 7
METHOD_NAMES = {METHOD_DOPRI5: "dopri5", METHOD_RADAU5: "radau5",
                METHOD_LSODA: "lsoda", METHOD_VODE: "vode",
                METHOD_AUTOSWITCH: "autoswitch", METHOD_SSA: "ssa",
                METHOD_TAU_LEAPING: "tau-leaping", METHOD_BDF: "bdf"}


@dataclass
class BatchSolveResult:
    """Trajectories and statistics of a batched integration.

    Attributes
    ----------
    t:
        Shared save-time grid, shape (T,).
    y:
        Trajectories, shape (B, T, N). Rows of failed simulations are
        valid up to their recorded save count and NaN afterwards.
    status_codes:
        Shape (B,), values in {OK, EXHAUSTED, BROKEN, STIFF, GUARD}
        (STIFF only appears transiently: the router continues the rows
        DOPRI5 stops as stiff in Radau IIA before returning; GUARD marks
        rows a numerical-integrity guard deactivated).
    method_codes:
        Shape (B,), which integrator produced each row.
    n_steps, n_accepted, n_rejected:
        Per-simulation step counters, each shape (B,).
    elapsed_seconds:
        Wall-clock of the integration (filled by the engine).
    """

    t: Array
    y: Array
    status_codes: Array
    method_codes: Array
    n_steps: Array
    n_accepted: Array
    n_rejected: Array
    elapsed_seconds: float = 0.0

    @property
    def batch_size(self) -> int:
        return self.y.shape[0]

    @property
    def n_species(self) -> int:
        return self.y.shape[2]

    @property
    def success_mask(self) -> Array:
        return self.status_codes == OK

    @property
    def failed_mask(self) -> Array:
        """Rows that did not finish (any status other than OK)."""
        return self.status_codes != OK

    @property
    def all_success(self) -> bool:
        return bool(xp.all(self.status_codes == OK))

    def statuses(self) -> list[str]:
        return [STATUS_NAMES[int(code)] for code in self.status_codes]

    def methods(self) -> list[str]:
        return [METHOD_NAMES[int(code)] for code in self.method_codes]

    def trajectory(self, index: int) -> Array:
        """One simulation's trajectory, shape (T, N)."""
        return self.y[index]

    def final_states(self) -> Array:
        """States at the last save time, shape (B, N)."""
        return self.y[:, -1, :]

    def merge_rows(self, other: "BatchSolveResult",
                   rows: Array) -> None:
        """Overwrite the given rows with another result's rows.

        Used by the router and the retry ladder to splice per-method
        sub-batches back into the full batch. ``other`` must hold
        exactly ``rows.size`` simulations on the same time grid.
        Only per-row data moves: kernel work is accounted on the
        launch's :class:`~repro.gpu.batched_ode.KernelCounters`, never
        on a result.
        """
        self.y[rows] = other.y
        self.status_codes[rows] = other.status_codes
        self.method_codes[rows] = other.method_codes
        self.n_steps[rows] = other.n_steps
        self.n_accepted[rows] = other.n_accepted
        self.n_rejected[rows] = other.n_rejected

    def take_rows(self, rows: Array) -> "BatchSolveResult":
        """Copy of a row subset (per-row data only)."""
        return BatchSolveResult(
            t=self.t.copy(),
            y=self.y[rows].copy(),
            status_codes=self.status_codes[rows].copy(),
            method_codes=self.method_codes[rows].copy(),
            n_steps=self.n_steps[rows].copy(),
            n_accepted=self.n_accepted[rows].copy(),
            n_rejected=self.n_rejected[rows].copy(),
            elapsed_seconds=self.elapsed_seconds,
        )


def allocate_result(t_eval: Array, batch_size: int, n_species: int,
                    method_code: int) -> BatchSolveResult:
    """Fresh result with NaN trajectories and 'running' statuses."""
    return BatchSolveResult(
        t=t_eval.copy(),
        y=xp.full((batch_size, t_eval.size, n_species), xp.nan),
        status_codes=xp.full(batch_size, RUNNING, dtype=xp.int64),
        method_codes=xp.full(batch_size, method_code, dtype=xp.int64),
        n_steps=xp.zeros(batch_size, dtype=xp.int64),
        n_accepted=xp.zeros(batch_size, dtype=xp.int64),
        n_rejected=xp.zeros(batch_size, dtype=xp.int64),
    )

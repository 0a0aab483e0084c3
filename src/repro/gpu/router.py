"""Per-simulation stiffness routing (the phase-P2 analog).

Before integrating, every simulation's Jacobian at its initial state is
probed by batched power iteration; simulations whose spectral radius
exceeds the configured threshold are routed to the batched Radau IIA
solver, the rest to batched DOPRI5. Simulations that DOPRI5 fails to
finish (step-budget exhaustion or breakdown — the usual symptom of
undetected stiffness) are *handed back*: they restart from ``t0`` in the
same Radau IIA launch as the probe-stiff rows, mirroring the paper
family's fallback re-run of failed explicit simulations without paying
for a second implicit launch.

The implicit rung is always Radau IIA, so a row's integrator follows
from that row's own stiffness and never from the width of the launch
it shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..backend import Array, xp
from ..lint.model_rules import (STIFFNESS_SAFE_DECADES,
                                row_stiffness_risk_scores)
from ..solvers.base import DEFAULT_OPTIONS, SolverOptions
from ..solvers.stiffness import power_iteration_matvec
from .batch_dopri5 import BatchDopri5
from .batch_radau5 import BatchRadau5
from .batch_result import (METHOD_DOPRI5, OK, BatchSolveResult,
                           allocate_result)
from .batched_ode import BatchedODEProblem


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of the stiffness classification of a batch.

    Attributes
    ----------
    stiff_mask:
        Boolean per-simulation stiff/non-stiff classification.
    spectral_radii:
        Dominant-eigenvalue magnitude estimates, shape (B,). All zero
        when the probe was skipped.
    threshold:
        The cutoff the mask was computed against.
    probe_skipped:
        True when the static stiffness-risk prefilter (see
        :func:`repro.lint.model_rules.stiffness_risk_score`) classified
        every row as safely non-stiff, so the power-iteration probe
        never ran.
    handed_back:
        Boolean per-simulation mask of the rows DOPRI5 returned unfinished
        and Radau IIA re-ran from ``t0``. ``None`` (the classifier's
        output, before any row ran) reads as all-False.
    """

    stiff_mask: Array
    spectral_radii: Array
    threshold: float
    probe_skipped: bool = False
    handed_back: Array | None = None

    def __post_init__(self) -> None:
        if self.handed_back is None:
            object.__setattr__(self, "handed_back",
                               xp.zeros(self.stiff_mask.shape, dtype=bool))

    @property
    def n_stiff(self) -> int:
        """Rows the probe classified stiff (not the handed-back ones)."""
        return int(xp.sum(self.stiff_mask))

    @property
    def n_handed_back(self) -> int:
        return int(xp.sum(self.handed_back))

    def to_dict(self) -> dict:
        return {"stiff_mask": [bool(v) for v in self.stiff_mask],
                "spectral_radii": [float(v) for v in self.spectral_radii],
                "threshold": float(self.threshold),
                "probe_skipped": bool(self.probe_skipped),
                "handed_back": [bool(v) for v in self.handed_back]}

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingDecision":
        handed_back = data.get("handed_back")
        return cls(xp.asarray(data["stiff_mask"], dtype=bool),
                   xp.asarray(data["spectral_radii"], dtype=xp.float64),
                   float(data["threshold"]),
                   bool(data.get("probe_skipped", False)),
                   None if handed_back is None
                   else xp.asarray(handed_back, dtype=bool))


def classify_batch(problem: BatchedODEProblem, t0: float,
                   threshold: float,
                   static_risk: Array | float | None = None
                   ) -> RoutingDecision:
    """Stiffness classification of every simulation in a batch.

    Uses a matrix-free power iteration on the Jacobian action
    (finite-difference directional derivatives of the batched RHS), so
    the probe costs a handful of RHS kernel launches instead of a full
    (B, N, N) Jacobian assembly. Each row's estimate depends on that row
    alone, so a row is routed the same way in any launch.

    ``static_risk`` is the linter's static stiffness-risk score (decades
    spanned by the rate constants), of the whole batch or of each row.
    Rows scored below
    :data:`~repro.lint.model_rules.STIFFNESS_SAFE_DECADES` are classified
    non-stiff without the probe, and when every row is, the probe never
    runs; this is safe because DOPRI5 detects stiffness at run time and
    the router hands any failed simulation back to Radau IIA.
    """
    batch = problem.batch_size
    safe = xp.zeros(batch, dtype=bool)
    if static_risk is not None:
        safe = safe | (xp.asarray(static_risk) < STIFFNESS_SAFE_DECADES)
    radii = xp.zeros(batch)
    if safe.all():
        return RoutingDecision(xp.zeros(batch, dtype=bool), radii,
                               threshold, probe_skipped=True)
    probed = xp.flatnonzero(~safe)
    if probed.size < batch:
        problem = problem.subset(probed)
    states = problem.initial_states()
    times = xp.full(probed.size, t0)
    base = problem.fun(times, states)
    scale = 1e-7 * (xp.norm(states, axis=1, keepdims=True) + 1.0)

    def jacobian_action(directions: Array, rows: Array) -> Array:
        probes = states[rows] + scale[rows] * directions
        return (problem.fun(times[rows], probes, rows) - base[rows]) \
            / scale[rows]

    radii[probed] = power_iteration_matvec(jacobian_action,
                                           states).spectral_radius
    return RoutingDecision(radii > threshold, radii, threshold)


class StiffnessRouter:
    """Route each simulation to DOPRI5 or Radau IIA and merge results.

    DOPRI5 runs first, on the non-stiff rows. One Radau IIA launch then
    runs the probe-stiff rows together with the rows DOPRI5 handed back,
    in launch order, so a call makes at most one implicit launch. A
    handed-back row restarts from ``t0`` and reports its DOPRI5 attempts
    plus its Radau IIA attempts.
    """

    name = "router"

    def __init__(self, options: SolverOptions = DEFAULT_OPTIONS) -> None:
        self.options = options

    def solve(self, problem: BatchedODEProblem, t_span: tuple[float, float],
              t_eval: Array | None = None
              ) -> tuple[BatchSolveResult, RoutingDecision]:
        """Integrate a batch with per-simulation method selection."""
        decision = classify_batch(
            problem, float(t_span[0]), self.options.stiffness_threshold,
            row_stiffness_risk_scores(problem.parameters.rate_constants))

        batch = problem.batch_size
        if t_eval is None:
            t_eval = xp.array([float(t_span[0]), float(t_span[1])])
        t_eval = xp.asarray(t_eval, dtype=xp.float64)
        merged = allocate_result(t_eval, batch, problem.n_species,
                                 METHOD_DOPRI5)

        nonstiff_rows = xp.flatnonzero(~decision.stiff_mask)
        handed_back = xp.zeros(batch, dtype=bool)
        if nonstiff_rows.size:
            explicit = BatchDopri5(self.options,
                                   abort_on_stiffness=True).solve(
                problem.subset(nonstiff_rows), t_span, t_eval)
            self._splice(merged, explicit, nonstiff_rows)
            handed_back[nonstiff_rows[explicit.status_codes != OK]] = True
        implicit_rows = xp.flatnonzero(decision.stiff_mask | handed_back)
        if implicit_rows.size:
            implicit = BatchRadau5(self.options).solve(
                problem.subset(implicit_rows), t_span, t_eval)
            self._splice(merged, implicit, implicit_rows)
        return merged, replace(decision, handed_back=handed_back)

    @staticmethod
    def _splice(merged: BatchSolveResult, part: BatchSolveResult,
                rows: Array) -> None:
        merged.y[rows] = part.y
        merged.status_codes[rows] = part.status_codes
        merged.method_codes[rows] = part.method_codes
        merged.n_steps[rows] += part.n_steps
        merged.n_accepted[rows] += part.n_accepted
        merged.n_rejected[rows] += part.n_rejected

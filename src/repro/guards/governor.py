"""Memory-pressure governor for batched kernel launches.

The engine's launch chunking caps *batch width*; it knows nothing about
the *working set* a launch allocates on the device (state arrays,
stage/difference storage, saved trajectories). On a small device a
launch that fits the batch cap can still exceed memory and die as a
hard OOM. The :class:`MemoryGovernor` closes that gap: before each
launch it estimates the working set from the perf model
(:func:`repro.gpu.perfmodel.memory_footprint_doubles`), compares it to
a budget derived from the device, and — when over budget — splits the
launch into contiguous row segments by exponential backoff (halving
until the segment fits). Segments run independently and are re-merged
via ``BatchSolveResult.merge_rows``; because the batched integrators
advance every row with its own adaptive controller, a split launch is
bit-identical to the unsplit one. Each degradation is recorded as a
:class:`MemoryEvent` on the engine report.

This module imports the footprint model lazily inside
:meth:`MemoryGovernor.plan` to keep :mod:`repro.guards` free of
module-level gpu imports (the engine imports this package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import GuardError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.device import VirtualDevice

BYTES_PER_DOUBLE = 8


@dataclass(frozen=True)
class LaunchPlan:
    """How one launch is executed under the memory budget.

    ``segments`` are half-open ``(start, stop)`` row ranges covering the
    launch contiguously; a within-budget launch has a single segment.
    """

    segments: tuple[tuple[int, int], ...]
    n_splits: int
    estimated_doubles: int
    budget_doubles: int
    injected: bool = False

    @property
    def split(self) -> bool:
        return self.n_splits > 0

    @property
    def segment_rows(self) -> int:
        """Widest segment of the plan."""
        return max(stop - start for start, stop in self.segments)


@dataclass(frozen=True)
class MemoryEvent:
    """Record of one governed (degraded) launch, kept on the report."""

    launch_index: int
    requested_rows: int
    granted_rows: int
    n_splits: int
    estimated_doubles: int
    budget_doubles: int
    injected: bool = False

    def describe(self) -> str:
        source = "injected OOM" if self.injected else "memory budget"
        return (f"launch {self.launch_index}: {source} split "
                f"{self.requested_rows} rows into segments of "
                f"<= {self.granted_rows} ({self.n_splits} halvings; "
                f"estimated {self.estimated_doubles} doubles vs budget "
                f"{self.budget_doubles})")


@dataclass(frozen=True)
class MemoryGovernor:
    """Device-memory budget enforcement for kernel launches.

    Attributes
    ----------
    budget_gb:
        Absolute budget in GiB. ``None`` derives the budget from the
        device as ``budget_fraction * device.memory_gb``.
    budget_fraction:
        Fraction of device memory usable by one launch when
        ``budget_gb`` is not set. Below 1.0 by default: the driver,
        the kernel image and the allocator's fragmentation overhead
        occupy real memory the footprint model does not see.
    max_splits:
        Backoff limit. Exceeding it (or reaching single-row segments
        that still do not fit) raises :class:`~repro.errors.GuardError`
        — the problem is too large for the device, and silently
        thrashing would help nobody.
    """

    budget_gb: float | None = None
    budget_fraction: float = 0.9
    max_splits: int = 10

    def __post_init__(self) -> None:
        if self.budget_gb is not None and not self.budget_gb > 0.0:
            raise GuardError(f"budget_gb must be > 0, got {self.budget_gb}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise GuardError(f"budget_fraction must be in (0, 1], got "
                             f"{self.budget_fraction}")
        if self.max_splits < 1:
            raise GuardError(f"max_splits must be >= 1, got "
                             f"{self.max_splits}")

    def budget_doubles(self, device: "VirtualDevice") -> int:
        """The budget expressed in float64 slots on ``device``."""
        gigabytes = (self.budget_gb if self.budget_gb is not None
                     else self.budget_fraction * device.memory_gb)
        return int(gigabytes * 1024**3) // BYTES_PER_DOUBLE

    def plan(self, batch_size: int, n_species: int, n_reactions: int,
             n_save_points: int, method: str, device: "VirtualDevice",
             forced_fit_rows: int | None = None) -> LaunchPlan:
        """Plan one launch of ``batch_size`` rows under the budget.

        ``forced_fit_rows`` is the fault-injection hook: when set, any
        segment wider than it is treated as over budget regardless of
        the estimate, simulating device-memory pressure the footprint
        model did not predict.
        """
        from ..gpu.perfmodel import memory_footprint_doubles

        budget = self.budget_doubles(device)

        def fits(rows: int) -> bool:
            if forced_fit_rows is not None and rows > forced_fit_rows:
                return False
            footprint = memory_footprint_doubles(
                rows, n_species, n_reactions, n_save_points, method)
            return footprint <= budget

        estimated = memory_footprint_doubles(
            batch_size, n_species, n_reactions, n_save_points, method)
        segment = batch_size
        n_splits = 0
        while not fits(segment):
            if segment == 1:
                raise GuardError(
                    f"a single {method} simulation ({n_species} species, "
                    f"{n_save_points} save points) needs "
                    f"{memory_footprint_doubles(1, n_species, n_reactions, n_save_points, method)} "
                    f"doubles but the budget is {budget}; the problem does "
                    f"not fit the device at any split")
            if n_splits >= self.max_splits:
                raise GuardError(
                    f"memory backoff exhausted after {n_splits} halvings "
                    f"(segment width {segment} still over the "
                    f"{budget}-double budget); raise budget_gb / "
                    f"max_splits or use a smaller device batch")
            segment = (segment + 1) // 2
            n_splits += 1
        segments = tuple((start, min(start + segment, batch_size))
                         for start in range(0, batch_size, segment))
        return LaunchPlan(segments=segments, n_splits=n_splits,
                          estimated_doubles=int(estimated),
                          budget_doubles=budget,
                          injected=forced_fit_rows is not None)

"""Quota and scheduler configuration of the campaign service."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ServiceError
from ..telemetry.slo import TenantSLO


@dataclass(frozen=True)
class TenantQuota:
    """Admission and fair-share limits of one tenant.

    Attributes
    ----------
    max_queued:
        Jobs the tenant may hold in the queue at once; a submission
        beyond it is rejected with
        :class:`~repro.errors.QuotaExceeded`.
    max_inflight_chunks:
        Chunk grants the tenant's running campaigns may hold
        concurrently — the tenant's slice of the service-wide
        ``max_inflight_chunks`` pool.
    working_set_doubles:
        Device working-set budget (float64 count) per job, compared
        against :func:`repro.gpu.perfmodel.memory_footprint_doubles`
        of the job's concurrent chunk window at admission; ``None``
        disables the check. Over-budget submissions are rejected with
        :class:`~repro.errors.WorkingSetExceeded`.
    weight:
        Fair-share weight: the deficit scheduler grants chunks so that
        per-tenant *row throughput divided by weight* equalizes.
    """

    max_queued: int = 16
    max_inflight_chunks: int = 4
    working_set_doubles: int | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ServiceError(
                f"max_queued must be >= 1, got {self.max_queued}")
        if self.max_inflight_chunks < 1:
            raise ServiceError(
                f"max_inflight_chunks must be >= 1, got "
                f"{self.max_inflight_chunks}")
        if self.working_set_doubles is not None \
                and self.working_set_doubles < 1:
            raise ServiceError(
                f"working_set_doubles must be >= 1, got "
                f"{self.working_set_doubles}")
        if not (self.weight > 0.0):
            raise ServiceError(f"weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class ServiceConfig:
    """Behavior of one :class:`~repro.service.CampaignService`.

    Attributes
    ----------
    max_running_jobs:
        Campaigns executing concurrently; queued jobs beyond it wait.
    max_inflight_chunks:
        Service-wide chunk-grant pool all running campaigns share
        (each tenant further capped by its quota).
    queue_capacity:
        Bounded queue size. A submission against a full queue sheds
        the lowest-priority queued job if the newcomer outranks it,
        and is rejected with :class:`~repro.errors.QueueFull`
        otherwise.
    default_quota / quotas:
        Per-tenant quotas; tenants absent from ``quotas`` fall back to
        ``default_quota``.
    max_job_attempts:
        Supervision retries per job (scheduler-level faults, attempt
        timeouts) before it is quarantined.
    attempt_timeout:
        Wall-clock bound per job attempt; past it the attempt is
        cancelled cooperatively and retried. ``None`` leaves attempts
        bounded only by the per-job deadline.
    overload_pressure / serial_pressure:
        Degradation-ladder thresholds: sustained shedding, job faults
        and pool collapses accumulate pressure; at
        ``overload_pressure`` the service halves the chunk pool
        (``OVERLOADED``), at ``serial_pressure`` it drains to one
        serial job at a time (``SERIAL``). Recovering jobs bleed
        pressure back off.
    default_slo / slos:
        Per-tenant :class:`~repro.telemetry.slo.TenantSLO` objectives;
        tenants absent from ``slos`` fall back to ``default_slo``.
        Both ``None`` (the default) disables SLO tracking entirely.
    """

    max_running_jobs: int = 4
    max_inflight_chunks: int = 8
    queue_capacity: int = 64
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict = field(default_factory=dict)
    max_job_attempts: int = 2
    attempt_timeout: float | None = None
    overload_pressure: int = 3
    serial_pressure: int = 6
    default_slo: TenantSLO | None = None
    slos: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_running_jobs < 1:
            raise ServiceError(
                f"max_running_jobs must be >= 1, got "
                f"{self.max_running_jobs}")
        if self.max_inflight_chunks < 1:
            raise ServiceError(
                f"max_inflight_chunks must be >= 1, got "
                f"{self.max_inflight_chunks}")
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.max_job_attempts < 1:
            raise ServiceError(
                f"max_job_attempts must be >= 1, got "
                f"{self.max_job_attempts}")
        if self.attempt_timeout is not None \
                and not (self.attempt_timeout > 0.0):
            raise ServiceError(
                f"attempt_timeout must be > 0, got {self.attempt_timeout}")
        if self.overload_pressure < 1 \
                or self.serial_pressure <= self.overload_pressure:
            raise ServiceError(
                "pressure thresholds must satisfy 1 <= overload_pressure "
                f"< serial_pressure, got {self.overload_pressure} / "
                f"{self.serial_pressure}")
        for tenant, quota in self.quotas.items():
            if not isinstance(quota, TenantQuota):
                raise ServiceError(
                    f"quota for tenant {tenant!r} must be a TenantQuota, "
                    f"got {type(quota)!r}")
        if self.default_slo is not None \
                and not isinstance(self.default_slo, TenantSLO):
            raise ServiceError(
                f"default_slo must be a TenantSLO or None, got "
                f"{type(self.default_slo)!r}")
        for tenant, slo in self.slos.items():
            if not isinstance(slo, TenantSLO):
                raise ServiceError(
                    f"slo for tenant {tenant!r} must be a TenantSLO, "
                    f"got {type(slo)!r}")

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def slo_for(self, tenant: str) -> TenantSLO | None:
        return self.slos.get(tenant, self.default_slo)

    @property
    def tracks_slos(self) -> bool:
        return self.default_slo is not None or bool(self.slos)

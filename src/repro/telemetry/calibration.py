"""Perfmodel calibration: predicted vs observed launch costs.

The :mod:`repro.gpu.perfmodel` device-time model is a prediction that
nothing else checks against reality. This module measures how far off
it is: every launch records a :class:`LaunchCost` — the modeled device
seconds next to the observed wall-clock — and a
:class:`CalibrationTable` accumulates them into ``solver x batch-width
x model-size`` buckets (powers of two, matching the registry
histograms). ``fit()`` produces a :class:`CalibrationReport`: per
bucket, the multiplicative time correction, the measured seconds per
row, the model's median log error before and after the correction,
and a drift flag.

The report is a record, not a control input. Routing picks each row's
integrator from that row's own stiffness and admission prices a job
with the analytic working-set formula; neither reads a report, so a
stale or mis-fitted calibration can never change a result or a
verdict.

Records live on :class:`~repro.gpu.engine.EngineReport` (wall-clock
values are **not** registry material — rule DET005 keeps checkpoints
timestamp-free), and the same numbers ride launch-span attributes
(``predicted_ms``), so a live :class:`CalibrationTable` can also be
fed from the trace stream via :meth:`CalibrationTable.ingest_span`.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from ..errors import TelemetryError

SCHEMA_VERSION = 1

#: Per-bucket sample cap: the first N launches of a bucket are kept
#: (deterministic under replay), later ones only bump the count.
MAX_SAMPLES_PER_BUCKET = 512


def bucket_exponent(value: int) -> int:
    """Power-of-two bucket of a width/size (same rule as Histogram)."""
    return max(0, int(value)).bit_length()


@dataclass(frozen=True)
class LaunchCost:
    """Predicted vs observed cost of one engine launch."""

    method: str
    rows: int
    n_species: int
    n_reactions: int
    predicted_seconds: float
    observed_seconds: float

    @property
    def time_ratio(self) -> float:
        """observed/predicted seconds (1.0 = perfect model)."""
        if self.predicted_seconds <= 0.0:
            return 1.0
        return self.observed_seconds / self.predicted_seconds

    def to_dict(self) -> dict:
        return {"method": self.method, "rows": int(self.rows),
                "n_species": int(self.n_species),
                "n_reactions": int(self.n_reactions),
                "predicted_seconds": float(self.predicted_seconds),
                "observed_seconds": float(self.observed_seconds)}

    @classmethod
    def from_dict(cls, data: dict) -> "LaunchCost":
        return cls(method=str(data["method"]), rows=int(data["rows"]),
                   n_species=int(data["n_species"]),
                   n_reactions=int(data["n_reactions"]),
                   predicted_seconds=float(data["predicted_seconds"]),
                   observed_seconds=float(data["observed_seconds"]))


@dataclass(frozen=True)
class BucketCalibration:
    """Fitted time correction of one (method, width, size) bucket."""

    method: str
    width_exponent: int
    size_exponent: int
    n: int
    time_factor: float
    seconds_per_row: float
    error_before: float
    error_after: float
    drifting: bool = False

    def to_dict(self) -> dict:
        return {"method": self.method,
                "width_exponent": int(self.width_exponent),
                "size_exponent": int(self.size_exponent),
                "n": int(self.n),
                "time_factor": float(self.time_factor),
                "seconds_per_row": float(self.seconds_per_row),
                "error_before": float(self.error_before),
                "error_after": float(self.error_after),
                "drifting": bool(self.drifting)}

    @classmethod
    def from_dict(cls, data: dict) -> "BucketCalibration":
        return cls(method=str(data["method"]),
                   width_exponent=int(data["width_exponent"]),
                   size_exponent=int(data["size_exponent"]),
                   n=int(data["n"]),
                   time_factor=float(data["time_factor"]),
                   seconds_per_row=float(data.get("seconds_per_row", 0.0)),
                   error_before=float(data["error_before"]),
                   error_after=float(data["error_after"]),
                   drifting=bool(data.get("drifting", False)))


class CalibrationTable:
    """Bucketed accumulator of :class:`LaunchCost` records.

    Buckets are keyed ``(method, width_exponent, size_exponent)``; each
    keeps up to :data:`MAX_SAMPLES_PER_BUCKET` records in arrival
    order (the order is what drift detection splits in half). The
    table is not thread-safe — each ingestion site owns its own and
    fitted reports are immutable.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, list] = {}
        self.n_records = 0

    def record(self, cost: LaunchCost) -> None:
        key = (cost.method, bucket_exponent(cost.rows),
               bucket_exponent(cost.n_species))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
        if len(bucket) < MAX_SAMPLES_PER_BUCKET:
            bucket.append(cost)
        self.n_records += 1

    def ingest_report(self, report) -> int:
        """Absorb an engine report's ``launch_costs``; returns how
        many records were added."""
        costs = getattr(report, "launch_costs", None) or ()
        for cost in costs:
            self.record(cost)
        return len(costs)

    def ingest_span(self, span) -> bool:
        """Absorb one ``launch`` span carrying ``predicted_ms``.

        This is the trace-stream path: a hub subscriber (or a post-hoc
        pass over a trace file) can rebuild the table without engine
        reports in hand.
        """
        if getattr(span, "category", None) != "launch":
            return False
        attrs = span.attrs
        if "predicted_ms" not in attrs:
            return False
        self.record(LaunchCost(
            method=str(attrs.get("method", "auto")),
            rows=int(attrs.get("rows", 0)),
            n_species=int(attrs.get("species", 0)),
            n_reactions=int(attrs.get("reactions", 0)),
            predicted_seconds=float(attrs["predicted_ms"]) * 1.0e-3,
            observed_seconds=float(span.duration)))
        return True

    def records(self) -> list:
        return [cost for key in sorted(self._buckets)
                for cost in self._buckets[key]]

    def fit(self, drift_ratio: float = 2.0) -> "CalibrationReport":
        """Fit per-bucket correction factors.

        ``time_factor`` is the median of the per-launch
        observed/predicted ratios (robust against stragglers);
        ``error_before``/``error_after`` are median absolute log
        errors without and with the correction. A bucket with >= 8
        samples whose first-half and second-half median ratios differ
        by more than ``drift_ratio`` is flagged ``drifting`` — the
        workload has moved and the fit should be redone.
        """
        buckets = []
        time_ratios_all: list[float] = []
        for key in sorted(self._buckets):
            method, width_exp, size_exp = key
            samples = self._buckets[key]
            time_ratios = [cost.time_ratio for cost in samples]
            time_ratios_all.extend(time_ratios)
            time_factor = statistics.median(time_ratios)
            per_row = statistics.median(
                [cost.observed_seconds / max(1, cost.rows)
                 for cost in samples])
            error_before = statistics.median(
                [abs(math.log(max(ratio, 1e-300)))
                 for ratio in time_ratios])
            error_after = statistics.median(
                [abs(math.log(max(ratio / time_factor, 1e-300)))
                 for ratio in time_ratios])
            buckets.append(BucketCalibration(
                method=method, width_exponent=width_exp,
                size_exponent=size_exp, n=len(samples),
                time_factor=time_factor,
                seconds_per_row=per_row,
                error_before=error_before, error_after=error_after,
                drifting=_drifts(time_ratios, drift_ratio)))
        return CalibrationReport(
            buckets=buckets,
            global_time_factor=(statistics.median(time_ratios_all)
                                if time_ratios_all else 1.0),
            n_records=self.n_records)


def _drifts(ratios: list, drift_ratio: float) -> bool:
    if len(ratios) < 8:
        return False
    half = len(ratios) // 2
    first = statistics.median(ratios[:half])
    second = statistics.median(ratios[half:])
    if first <= 0.0 or second <= 0.0:
        return True
    spread = max(first, second) / min(first, second)
    return spread > drift_ratio


@dataclass(frozen=True)
class CalibrationReport:
    """Immutable fitted calibration: per-bucket error and drift."""

    buckets: tuple = ()
    global_time_factor: float = 1.0
    n_records: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "buckets", tuple(self.buckets))

    # -- drift / quality -----------------------------------------------

    @property
    def drifting(self) -> bool:
        return any(bucket.drifting for bucket in self.buckets)

    def median_error(self, calibrated: bool = False) -> float:
        """Record-weighted median absolute log error across buckets."""
        values = []
        for bucket in self.buckets:
            error = bucket.error_after if calibrated \
                else bucket.error_before
            values.extend([error] * bucket.n)
        return statistics.median(values) if values else 0.0

    def error_reduction(self) -> float:
        """How many times smaller the median error is after
        calibration (>= 2.0 is the acceptance bar)."""
        after = self.median_error(calibrated=True)
        before = self.median_error(calibrated=False)
        if after <= 0.0:
            return float("inf") if before > 0.0 else 1.0
        return before / after

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"schema_version": int(self.schema_version),
                "n_records": int(self.n_records),
                "global_time_factor": float(self.global_time_factor),
                "buckets": [bucket.to_dict() for bucket in self.buckets]}

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationReport":
        return cls(
            buckets=tuple(BucketCalibration.from_dict(entry)
                          for entry in data.get("buckets", [])),
            global_time_factor=float(data.get("global_time_factor", 1.0)),
            n_records=int(data.get("n_records", 0)),
            schema_version=int(data.get("schema_version",
                                        SCHEMA_VERSION)))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationReport":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise TelemetryError(
                f"cannot load calibration report {path}: {error}") \
                from None
        return cls.from_dict(data)

    def render(self) -> str:
        """Human-readable table, one bucket per line."""
        lines = [f"calibration: {self.n_records} launch(es), "
                 f"{len(self.buckets)} bucket(s), "
                 f"global time x{self.global_time_factor:.4g}"]
        lines.append(
            f"median |log error|: {self.median_error():.4g} raw -> "
            f"{self.median_error(calibrated=True):.4g} calibrated "
            f"({self.error_reduction():.3g}x reduction)"
            + (" [DRIFTING]" if self.drifting else ""))
        lines.append(f"{'method':<8} {'width':>6} {'size':>6} {'n':>5} "
                     f"{'time x':>10} {'s/row':>10} {'drift':>6}")
        for bucket in self.buckets:
            lines.append(
                f"{bucket.method:<8} {2 ** bucket.width_exponent:>6} "
                f"{2 ** bucket.size_exponent:>6} {bucket.n:>5} "
                f"{bucket.time_factor:>10.4g} "
                f"{bucket.seconds_per_row:>10.3g} "
                f"{'yes' if bucket.drifting else 'no':>6}")
        return "\n".join(lines)


def calibrate_workload(model, t_span=(0.0, 2.0), t_eval=None,
                       widths=(8, 32), repeats: int = 2,
                       method: str = "auto", seed: int = 0,
                       options=None, device=None,
                       table: CalibrationTable | None = None
                       ) -> CalibrationTable:
    """Run a synthetic calibration workload and collect launch costs.

    Runs ``repeats`` batched simulations per width (each width is one
    launch, so buckets across the width axis fill deterministically)
    and ingests every engine report. This is what ``repro calibrate``
    drives; tests reuse it with small widths.
    """
    # Engine import stays function-local: telemetry is a lower layer
    # than gpu and must stay importable without it.
    import numpy

    from ..gpu.engine import BatchSimulator
    from ..model import perturbed_batch

    table = CalibrationTable() if table is None else table
    for width in widths:
        batch = perturbed_batch(model.nominal_parameterization(),
                                int(width),
                                numpy.random.default_rng(seed))
        for _ in range(max(1, int(repeats))):
            kwargs = {}
            if options is not None:
                kwargs["options"] = options
            if device is not None:
                kwargs["device"] = device
            simulator = BatchSimulator(model, method=method,
                                       max_batch_per_launch=int(width),
                                       **kwargs)
            simulator.simulate(t_span, t_eval, batch)
            table.ingest_report(simulator.last_report)
    return table

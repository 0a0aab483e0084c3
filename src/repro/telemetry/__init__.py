"""Zero-dependency tracing and metrics for the campaign stack.

Three layers:

* :mod:`repro.telemetry.clock` — the sanctioned wall-clock boundary
  (the only module in the package allowed to call ``time.*``; enforced
  by deep-lint rule DET005).
* :class:`Tracer` / :class:`Span` — hierarchical spans
  (``service > job > campaign > worker > chunk > launch > rung >
  phase``) with structural, resume-stable ids; :data:`NULL_TRACER` is
  the <2%-overhead disabled mode.
* :class:`MetricsRegistry` — timestamp-free counters/gauges/histograms
  embedded in :class:`~repro.gpu.engine.EngineReport` and campaign
  checkpoints.

Exporters produce JSONL, Chrome ``trace_event`` (Perfetto-loadable)
and text summaries; the ``repro trace`` CLI wraps them.

The *live* half streams instead of exporting:
:class:`MetricsHub` aggregates span closes and registry snapshots
into sliding windows, :func:`render_prometheus` exposes them (and any
registry) in Prometheus text format, :class:`SLOTracker` burns
per-tenant error budgets, and :mod:`~repro.telemetry.calibration`
measures how far the perfmodel's predictions are off.
"""

from . import clock
from .calibration import (
    BucketCalibration,
    CalibrationReport,
    CalibrationTable,
    LaunchCost,
    calibrate_workload,
)
from .export import (
    read_trace_jsonl,
    render_summary,
    summarize_outcomes,
    summarize_tenants,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_trace_jsonl,
)
from .live import MetricsHub, Subscription, phase_family
from .metrics import Histogram, MetricsRegistry
from .prometheus import (
    labeled,
    parse_prometheus_text,
    render_prometheus,
    split_labels,
)
from .slo import SLOTracker, TenantSLO
from .spans import CATEGORIES, Span, nesting_allowed
from .tracer import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    SpanHandle,
    Tracer,
    as_tracer,
)

__all__ = [
    "BucketCalibration",
    "CATEGORIES",
    "CalibrationReport",
    "CalibrationTable",
    "Histogram",
    "JsonlSink",
    "LaunchCost",
    "MetricsHub",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SLOTracker",
    "Span",
    "SpanHandle",
    "Subscription",
    "TenantSLO",
    "Tracer",
    "as_tracer",
    "calibrate_workload",
    "clock",
    "labeled",
    "nesting_allowed",
    "parse_prometheus_text",
    "phase_family",
    "read_trace_jsonl",
    "render_prometheus",
    "render_summary",
    "split_labels",
    "summarize_outcomes",
    "summarize_tenants",
    "to_chrome_trace",
    "validate_trace",
    "write_chrome_trace",
    "write_trace_jsonl",
]

"""Per-layer metrics of a traced run (``--trace 1``).

Layer names follow the ``repro`` modules. Times are self times in
seconds per traced operation (``rules.expand_s`` and ``setup.*`` per
set-up, the only place they occur); counts are totals over the first
``counted`` operations, which every traced run traces in full, so they
repeat exactly for a seed; ``io.checkpoint.bytes_written`` varies by a
byte or two, as each chunk archive stores its wall-clock seconds,
compressed. Absolute rates (``gpu.engine.sims_per_s``,
``service.core.*``) are diagnostics only: they drift with the machine.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import inclusive, nested_time, self_times

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("model.compile_s", "s"), ("model.compiles", "count"),
    ("model.rhs_s", "s"), ("model.rhs_calls", "count"),
    ("model.rhs_rows", "count"), ("model.jacobian_s", "s"),
    ("model.jacobian_calls", "count"),
    ("rules.expand_s", "s"),
    ("gpu.router.self_s", "s"), ("gpu.router.stiff_rows", "count"),
    ("gpu.batch_dopri5.self_s", "s"), ("gpu.batch_dopri5.steps", "count"),
    ("gpu.batch_dopri5.self_us_per_step", "us"),
    ("gpu.batch_radau5.self_s", "s"),
    ("gpu.batch_radau5.newton_iterations", "count"),
    ("gpu.batch_radau5.factorizations", "count"),
    ("backend.linalg_s", "s"), ("backend.linalg_calls", "count"),
    ("backend.linalg_gflop_computed", "Gflop"),
    ("gpu.engine.self_s", "s"), ("gpu.engine.launches", "count"),
    ("gpu.engine.sims_per_s", "1/s"),
    ("resilience.campaign.self_s", "s"),
    ("resilience.campaign.chunks", "count"),
    ("io.checkpoint.save_s", "s"), ("io.checkpoint.load_s", "s"),
    ("io.checkpoint.bytes_written", "B"),
    ("service.core.admit_s", "s"), ("service.core.queue_wait_s_p50", "s"),
    ("service.core.notify_lag_s_p50", "s"),
    ("service.core.jobs_per_s", "1/s"),
    ("service.core.job_latency_ms_p50", "ms"),
    ("service.core.job_latency_ms_p90", "ms"),
    ("service.scheduler.gate_wait_s", "s"),
    ("setup.model.compile_s", "s"), ("setup.unattributed_s", "s"),
    ("setup.wall_s", "s"),
    ("trace.op_wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("ref.lsoda_s_per_row", "s"), ("check.max_rel_err", "ratio"),
    ("check.rhs_share_of_dopri5", "fraction"),
    ("report.steps", "count"), ("report.rhs_evals", "count"),
    ("report.jacobian_launches", "count"),
    ("report.newton_iterations", "count"),
    ("report.factorizations", "count"), ("report.chunks", "count"),
]

#: Self-time metric of each wrapped layer.
SELF_METRICS = {
    "model.compile": "model.compile_s", "model.rhs": "model.rhs_s",
    "model.jacobian": "model.jacobian_s",
    "gpu.router": "gpu.router.self_s",
    "gpu.batch_dopri5": "gpu.batch_dopri5.self_s",
    "gpu.batch_radau5": "gpu.batch_radau5.self_s",
    "backend.linalg": "backend.linalg_s", "gpu.engine": "gpu.engine.self_s",
    "resilience.campaign": "resilience.campaign.self_s",
    "io.checkpoint.save": "io.checkpoint.save_s",
    "io.checkpoint.load": "io.checkpoint.load_s",
    "service.core.admit": "service.core.admit_s",
    "service.scheduler.gate_wait": "service.scheduler.gate_wait_s",
}

#: Count metric <- (layer, span info key or None for the call count).
COUNT_METRICS = {
    "model.compiles": ("model.compile", None),
    "model.rhs_calls": ("model.rhs", None),
    "model.rhs_rows": ("model.rhs", "rows"),
    "model.jacobian_calls": ("model.jacobian", None),
    "gpu.router.stiff_rows": ("gpu.router", "stiff_rows"),
    "gpu.batch_dopri5.steps": ("gpu.batch_dopri5", "steps"),
    "gpu.batch_radau5.newton_iterations": ("gpu.batch_radau5",
                                           "newton_iterations"),
    "gpu.batch_radau5.factorizations": ("gpu.batch_radau5",
                                        "factorizations"),
    "backend.linalg_calls": ("backend.linalg", None),
    "gpu.engine.launches": ("gpu.engine", "launches"),
    "resilience.campaign.chunks": ("resilience.campaign", "chunks"),
}


def _counts(spans) -> dict:
    totals = defaultdict(float)
    for span in spans:
        totals[(span.layer, None)] += 1
        for key, value in (span.info or {}).items():
            totals[(span.layer, key)] += value
    return totals


def layer_metrics(workload, recorder, ops, setup_raw, counted, out_dir):
    """(metrics dict, table rows) of a traced run; writes the spans and
    the self-time tables under ``out_dir``."""
    by_op = recorder.by_op()
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    values = {name: 0.0 for name, _unit in PER_LAYER}

    layer_self = defaultdict(float)
    op_wall = attributed = 0.0
    for i in traced:
        for layer, seconds in self_times(by_op.get(i, [])).items():
            layer_self[layer] += seconds
            attributed += seconds
        op_wall += ops[i]["outcome"].wall
    n_traced = len(traced)
    for layer, seconds in layer_self.items():
        if layer in SELF_METRICS:  # rules.expand runs in set-up only
            values[SELF_METRICS[layer]] = seconds / n_traced
    values["trace.op_wall_s"] = op_wall / n_traced
    values["trace.unattributed_s"] = (op_wall - attributed) / n_traced

    setups = len(setup_raw) * workload.setup_block
    setup_self = defaultdict(float)
    for key, spans in by_op.items():
        if isinstance(key, tuple):
            for layer, seconds in self_times(spans).items():
                setup_self[layer] += seconds / setups
    values["rules.expand_s"] = setup_self.get("rules.expand", 0.0)
    values["setup.model.compile_s"] = setup_self.get("model.compile", 0.0)
    values["setup.wall_s"] = sum(setup_raw) / len(setup_raw)
    values["setup.unattributed_s"] = (values["setup.wall_s"]
                                      - sum(setup_self.values()))

    first = [s for i in range(counted) for s in by_op.get(i, [])]
    totals = _counts(first)
    for metric, key in COUNT_METRICS.items():
        values[metric] = totals[key]
    values["backend.linalg_gflop_computed"] = \
        totals[("backend.linalg", "flops")] / 1e9
    for i in range(counted):
        for key, value in ops[i]["outcome"].counts.items():
            if key == "journal_bytes":
                values["io.checkpoint.bytes_written"] += value
            else:
                values[key] += value

    all_traced = [s for i in traced for s in by_op.get(i, [])]
    everything = _counts(all_traced)
    steps = everything[("gpu.batch_dopri5", "steps")]
    if steps:
        values["gpu.batch_dopri5.self_us_per_step"] = \
            layer_self["gpu.batch_dopri5"] / steps * 1e6
    engine_seconds = inclusive(all_traced, "gpu.engine")
    if engine_seconds:
        values["gpu.engine.sims_per_s"] = \
            everything[("gpu.engine", "rows")] / engine_seconds
    dopri5_seconds = inclusive(all_traced, "gpu.batch_dopri5")
    if dopri5_seconds:
        values["check.rhs_share_of_dopri5"] = nested_time(
            all_traced, "model.rhs", "gpu.batch_dopri5") / dopri5_seconds

    jobs = [job for i in traced for job in ops[i]["outcome"].jobs]
    if jobs:
        values["service.core.queue_wait_s_p50"] = statistics.median(
            job["started_at"] - job["submitted_at"] for job in jobs)
        values["service.core.notify_lag_s_p50"] = statistics.median(
            job["returned_at"] - job["finished_at"] for job in jobs)
        latencies = [job["wall"] * 1e3 for job in jobs]
        values["service.core.job_latency_ms_p50"] = float(
            np.percentile(latencies, 50))
        values["service.core.job_latency_ms_p90"] = float(
            np.percentile(latencies, 90))
        values["service.core.jobs_per_s"] = len(jobs) / op_wall

    def ratio(i):
        return ops[i]["outcome"].wall / ops[i]["ref_total"]

    # Each traced operation against its untraced twin one block back.
    pairs = [(i, i - workload.period) for i in traced
             if i >= counted and not ops[i - workload.period]["traced"]]
    if pairs:
        values["trace.overhead_frac"] = statistics.median(
            ratio(i) / ratio(j) for i, j in pairs) - 1.0
    values["ref.lsoda_s_per_row"] = (
        sum(op["ref_seconds"].sum() for op in ops)
        / sum(op["ref_seconds"].size for op in ops))
    errors = np.concatenate([op["errors"] for op in ops])
    values["check.max_rel_err"] = float(errors[np.isfinite(errors)].max(
        initial=0.0))

    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"{workload.name}-spans.jsonl")
    breakdown = _breakdown(workload.name, layer_self, op_wall, attributed,
                           n_traced, setup_self, setup_raw)
    (out_dir / f"{workload.name}-selftime.txt").write_text(breakdown)
    print(breakdown, end="")

    def samples(name, unit):
        if name == "trace.overhead_frac":
            return len(pairs)
        if name.startswith(("setup.", "rules.")):
            return setups
        if unit in ("count", "B", "Gflop"):
            return counted
        return len(ops) if name.startswith(("ref.", "check.m")) \
            else n_traced

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in PER_LAYER}
    table = [(name, float(values[name]), unit, samples(name, unit))
             for name, unit in PER_LAYER]
    return metrics, table


def _breakdown(name, layer_self, op_wall, attributed, n_traced, setup_self,
               setup_raw) -> str:
    """Self-time table: the layers plus the remainder sum to the wall."""
    lines = [f"# {name}: self time per traced operation "
             f"({n_traced} operations)"]
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<32} {seconds / n_traced * 1e3:12.4f} ms "
                     f"{seconds / op_wall:8.1%}")
    lines.append(f"{'unattributed':<32} "
                 f"{(op_wall - attributed) / n_traced * 1e3:12.4f} ms "
                 f"{(op_wall - attributed) / op_wall:8.1%}")
    lines.append(f"{'= operation wall':<32} "
                 f"{op_wall / n_traced * 1e3:12.4f} ms")
    setup_wall = sum(setup_raw) / len(setup_raw)
    lines.append(f"# {name}: self time per set-up")
    for layer, seconds in sorted(setup_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<32} {seconds * 1e3:12.4f} ms "
                     f"{seconds / setup_wall:8.1%}")
    rest = setup_wall - sum(setup_self.values())
    lines.append(f"{'unattributed':<32} {rest * 1e3:12.4f} ms "
                 f"{rest / setup_wall:8.1%}")
    lines.append(f"{'= set-up wall':<32} {setup_wall * 1e3:12.4f} ms")
    return "\n".join(lines) + "\n"

"""Observability: live /metrics, per-tenant SLOs, calibration.

What does operating the campaign service actually look like? This
example runs the full loop an operator would:

1. **calibrate** — probe launches fit a
   :class:`~repro.telemetry.CalibrationReport` (predicted vs observed
   launch cost): a record of how far the perfmodel is off and whether
   it drifts. It changes no routing or admission decision;
2. **serve + storm** — a real TCP server with two tenants: ``prod``
   (tight SLO: 99% of jobs, under 30 s) and ``research`` (loose SLO),
   with scheduler-level fault injection and a few hopeless deadlines
   thrown in so the error budgets actually burn;
3. **scrape** — plain HTTP ``GET /metrics`` against the same port the
   job protocol runs on, exactly what Prometheus (or ``repro top``)
   would fetch, including per-tenant burn-rate series and breach
   counters.

The same views are available without code::

    python -m repro calibrate MODEL --out calib.json
    python -m repro serve --slo-target 0.99
    python -m repro top --once

Run:  python examples/monitored_service.py
"""

import asyncio
import tempfile
import threading
from pathlib import Path

from repro import FaultPlan, TenantSLO
from repro.io import write_model
from repro.models import lotka_volterra
from repro.service import Client, ServiceConfig, scrape_metrics
from repro.service.server import serve_async
from repro.telemetry import parse_prometheus_text
from repro.telemetry.calibration import calibrate_workload

T_SPAN = (0.0, 2.0)


def calibrate_demo(model, workdir: Path) -> None:
    print("== 1. perfmodel calibration ==")
    table = calibrate_workload(model, t_span=T_SPAN, widths=(8, 16),
                               repeats=2)
    report = table.fit()
    print(report.render())
    path = report.save(workdir / "calib.json")
    print(f"saved -> {path}\n")


def storm(model_folder: Path, host: str, port: int) -> None:
    with Client(host, port, timeout=120.0) as client:
        jobs = []
        for _ in range(4):
            jobs.append(client.submit(str(model_folder), t_span=T_SPAN,
                                      tenant="prod", chunk_size=16))
        for index in range(4):
            # Half the research jobs carry deadlines they cannot make.
            doomed = index % 2 == 1
            jobs.append(client.submit(
                str(model_folder), t_span=T_SPAN, tenant="research",
                chunk_size=16,
                deadline_seconds=1.0e-3 if doomed else None))
        outcomes: dict = {}
        for job_id in jobs:
            job = client.wait(job_id, timeout=120)
            key = (job["tenant"], job["state"])
            outcomes[key] = outcomes.get(key, 0) + 1
        for (tenant, state), count in sorted(outcomes.items()):
            print(f"  {tenant:<9} {state:<10} x{count}")


def scrape_demo(host: str, port: int) -> None:
    print("\n== 3. the /metrics exposition ==")
    text = scrape_metrics(host, port)
    samples = parse_prometheus_text(text)
    print(f"{len(text.splitlines())} lines, {len(samples)} metric "
          f"families; highlights:")
    wanted = ("repro_service_slo_burn_rate",
              "repro_service_slo_breaches_total",
              "repro_live_job_outcomes_total",
              "repro_service_jobs_faults_total",
              "repro_kernel_steps_accepted_total",
              "repro_live_job_latency_seconds")
    for line in text.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")


def main() -> None:
    model = lotka_volterra()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calibrate_demo(model, workdir)
        model_folder = write_model(model, workdir / "lv")

        print("== 2. two-tenant storm with faults and SLOs ==")
        config = ServiceConfig(
            max_running_jobs=2,
            slos={"prod": TenantSLO(target=0.99,
                                    latency_objective_seconds=30.0),
                  "research": TenantSLO(target=0.7)})
        # Kill the third admitted job's first attempt: the supervisor
        # retries it, and the fault shows up in the metrics.
        faults = FaultPlan(sched_kill_jobs=(2,))
        bound = {}
        ready = threading.Event()

        def on_ready(addr):
            bound["addr"] = addr
            ready.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(
                serve_async("127.0.0.1", 0, config=config,
                            ready=on_ready, fault_plan=faults)),
            daemon=True)
        thread.start()
        ready.wait(15)
        host, port = bound["addr"]
        print(f"serving on {host}:{port} "
              f"(metrics at http://{host}:{port}/metrics)")
        storm(model_folder, host, port)
        scrape_demo(host, port)
        with Client(host, port) as client:
            client.shutdown()
        thread.join(15)
    print("\n(point `repro top --once` at a live server for the "
          "rendered view)")


if __name__ == "__main__":
    main()

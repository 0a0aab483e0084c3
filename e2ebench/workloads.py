"""The benchmark's four workloads.

Each workload has a timed ``setup`` (everything a user pays before the
first result), an ``inputs`` step that draws one operation's rows from
the run's seeded generator, and a ``run`` step that performs the
operation through the public API and returns an :class:`Outcome`.
Solver options are ``rtol=1e-6, atol=1e-12`` throughout, the
reference's tolerances.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import ATOL, RTOL

E1_T_SPAN = (0.0, 2.0)
E1_T_EVAL = np.linspace(0.0, 2.0, 11)
CASCADE_T_SPAN = (0.0, 1.0)
CASCADE_T_EVAL = np.linspace(0.0, 1.0, 6)


def options():
    from repro.solvers import SolverOptions
    return SolverOptions(rtol=RTOL, atol=ATOL)


def e1_model():
    from repro.synth import generate_symmetric
    return generate_symmetric(32, seed=11)


def cascade_model():
    from repro.rules.library import multisite_cascade
    return multisite_cascade(5, kinase_rate=1e3).expand()


@dataclass
class Outcome:
    """What one operation returned, in row order.

    ``units`` holds one (row slice, wall seconds) entry per latency
    sample: the single simulate call, or each job of a service round.
    ``counts`` are deterministic counts read from the public
    ``EngineReport.metrics`` / ``CampaignResult.metrics``.
    """

    wall: float
    y: np.ndarray
    ok: np.ndarray
    units: list
    counts: dict
    jobs: list = field(default_factory=list)


def registry_counts(registry) -> dict:
    counters = registry.counters
    return {
        "report.steps": (counters.get("steps.accepted", 0)
                         + counters.get("steps.rejected", 0)),
        "report.rhs_evals": counters.get("kernel.rhs_evals", 0),
        "report.jacobian_launches": counters.get("kernel.jacobian_launches",
                                                 0),
        "report.newton_iterations": counters.get("newton.iterations", 0),
        "report.factorizations": counters.get("newton.factorizations", 0),
        "report.chunks": (counters.get("campaign.chunks.executed", 0)
                          + counters.get("campaign.chunks.resumed", 0)),
    }


class SimulatorWorkload:
    """``rows`` fresh rows per ``BatchSimulator.simulate`` call."""

    def __init__(self, name, why, build_model, rows, t_span, t_eval,
                 setup_block, slowed_rows=0) -> None:
        self.name = name
        self.why = why
        self.build_model = build_model
        self.rows = rows
        #: Leading rows of each call whose rate constants are halved.
        self.slowed_rows = slowed_rows
        self.t_span = t_span
        self.t_eval = t_eval
        #: Set-ups timed back to back per sample, so that no sample is
        #: a single sub-millisecond interval.
        self.setup_block = setup_block
        #: Operations after which the kind of operation repeats.
        self.period = 1
        #: Whether correctness is counted per job instead of per row.
        self.counts_jobs = False

    def setup(self):
        from repro.gpu import BatchSimulator
        return BatchSimulator(self.build_model(), options())

    def teardown(self, simulator) -> None:
        pass

    def model(self, simulator):
        return simulator.model

    def inputs(self, simulator, rng):
        from repro.model import ParameterizationBatch, perturbed_batch
        batch = perturbed_batch(simulator.model.nominal_parameterization(),
                                self.rows, rng)
        constants = batch.rate_constants
        constants[:self.slowed_rows] *= 0.5
        return [ParameterizationBatch(constants, batch.initial_states)]

    @staticmethod
    def parameters(batches):
        """(rate constants, initial states) of one operation's rows."""
        (batch,) = batches
        return batch.rate_constants, batch.initial_states

    def run(self, simulator, batches) -> Outcome:
        from repro.gpu.batch_result import OK
        (batch,) = batches
        started = time.perf_counter()
        result = simulator.simulate(self.t_span, self.t_eval, batch)
        wall = time.perf_counter() - started
        return Outcome(wall, result.y, result.status_codes == OK,
                       [(slice(0, batch.size), wall)],
                       registry_counts(simulator.last_report.metrics))


@dataclass
class ServiceState:
    loop: asyncio.AbstractEventLoop
    service: object
    rounds: list = field(default_factory=list)


class ServiceWorkload:
    """Rounds of jobs from a closed loop of clients.

    In every round each client submits one job of ``rows`` fresh rows
    and waits for it. In every fourth round each client resubmits its
    previous request, checkpoint path included, so the journal's resume
    path runs beside its write path. (Resubmitting in step keeps each
    job's latency off a mix of alone and side-by-side runs, whose
    latencies differ by 2x.)
    """

    name = "serve_jobs"

    def __init__(self, why, clients=2, rows=8, chunk_size=4,
                 setup_block=50) -> None:
        self.why = why
        self.clients = clients
        self.rows = rows
        self.chunk_size = chunk_size
        self.t_span = E1_T_SPAN
        self.t_eval = E1_T_EVAL
        self.setup_block = setup_block
        #: Three rounds of fresh jobs, then one of resubmissions.
        self.period = 4
        self.counts_jobs = True
        self.journal_root: Path | None = None
        self._model = None

    def setup(self) -> ServiceState:
        from repro.service import CampaignService
        loop = asyncio.new_event_loop()
        service = CampaignService()
        loop.run_until_complete(service.start())
        return ServiceState(loop, service)

    def teardown(self, state: ServiceState) -> None:
        state.loop.run_until_complete(state.service.stop())
        state.loop.run_until_complete(state.loop.shutdown_default_executor())
        state.loop.close()

    def model(self, state: ServiceState):
        if self._model is None:
            self._model = e1_model()
        return self._model

    def inputs(self, state: ServiceState, rng):
        from repro.model import perturbed_batch
        from repro.service import JobRequest
        model = self.model(state)
        resubmit = len(state.rounds) % self.period == self.period - 1
        round_requests = []
        for client in range(self.clients):
            job = len(state.rounds) * self.clients + client
            if resubmit:
                request = state.rounds[-1][client][1]
            else:
                request = JobRequest(
                    model=model, t_span=self.t_span, t_eval=self.t_eval,
                    parameters=perturbed_batch(
                        model.nominal_parameterization(), self.rows, rng),
                    options=options(), chunk_size=self.chunk_size,
                    tenant=f"tenant-{client}",
                    checkpoint_path=str(self.journal_root
                                        / f"job-{job:05d}.json"))
            round_requests.append((resubmit, request))
        state.rounds.append(round_requests)
        return round_requests

    @staticmethod
    def parameters(round_requests):
        """(rate constants, initial states) of one round's rows."""
        batches = [request.parameters for _, request in round_requests]
        return (np.concatenate([b.rate_constants for b in batches]),
                np.concatenate([b.initial_states for b in batches]))

    def run(self, state: ServiceState, round_requests) -> Outcome:
        from repro.gpu.batch_result import OK
        from repro.service.jobs import JobState
        from repro.telemetry import clock

        service = state.service

        async def client(request):
            started = time.perf_counter()
            record = service.submit(request)
            await service.wait(record.job_id)
            return record, time.perf_counter() - started, clock.monotonic()

        async def one_round():
            return await asyncio.gather(*(client(request) for _, request
                                          in round_requests))

        started = time.perf_counter()
        finished = state.loop.run_until_complete(one_round())
        wall = time.perf_counter() - started

        n_t, n_s = self.t_eval.size, self.model(state).n_species
        ys, oks, units, jobs = [], [], [], []
        counts: dict[str, int] = {}
        for position, ((resubmitted, request), (record, job_wall,
                                                 returned)) in \
                enumerate(zip(round_requests, finished)):
            campaign = record.result
            completed = (record.state == JobState.COMPLETED
                         and campaign is not None and not campaign.incomplete)
            if completed:
                ys.append(campaign.result.y)
                oks.append(campaign.result.status_codes == OK)
                for key, value in registry_counts(campaign.metrics).items():
                    counts[key] = counts.get(key, 0) + value
            else:
                ys.append(np.full((self.rows, n_t, n_s), np.nan))
                oks.append(np.zeros(self.rows, dtype=bool))
            counts["journal_bytes"] = counts.get("journal_bytes", 0) + (
                0 if resubmitted else _journal_bytes(request.checkpoint_path))
            units.append((slice(position * self.rows,
                                (position + 1) * self.rows), job_wall))
            jobs.append({"submitted_at": record.submitted_at,
                         "started_at": record.started_at,
                         "finished_at": record.finished_at,
                         "returned_at": returned, "wall": job_wall})
        return Outcome(wall, np.concatenate(ys), np.concatenate(oks), units,
                       counts, jobs)


def _journal_bytes(checkpoint_path: str) -> int:
    journal = Path(checkpoint_path)
    files = [journal, *journal.parent.glob(f"{journal.stem}.chunk*.npz")]
    return sum(path.stat().st_size for path in files if path.is_file())


def workloads() -> dict:
    """Fresh workload objects by name (each run mutates its own)."""
    return {
        "single_sim": SimulatorWorkload(
            "single_sim",
            "1 row per call: per-step and per-launch overhead, where "
            "vectorisation cannot help; carries the batch-1 target",
            e1_model, 1, E1_T_SPAN, E1_T_EVAL, setup_block=8),
        "wide_nonstiff": SimulatorWorkload(
            "wide_nonstiff",
            "256 rows per call: kernel throughput of the dopri5 path (RHS "
            "gemm, stage combination, row bookkeeping); stiff path bypassed",
            e1_model, 256, E1_T_SPAN, E1_T_EVAL, setup_block=8),
        "stiff_cascade": SimulatorWorkload(
            "stiff_cascade",
            "rule-expanded 34x160 cascade, 16 rows, 1 at half rates sent to "
            "dopri5 first, the rest to Radau5: Jacobian, backend linear "
            "algebra, Newton; expansion in set-up",
            cascade_model, 16, CASCADE_T_SPAN, CASCADE_T_EVAL, setup_block=4,
            # The perturbed cascade's spectral radii sit just above the
            # router's threshold, so fewer than half of all calls held a row
            # it sent to dopri5 first, and call time split into two modes
            # (0.55 s and 0.85 s) whose mix moved medians from seed to seed.
            # One row at half the rates puts every call on that path.
            slowed_rows=1),
        "serve_jobs": ServiceWorkload(
            "in-process service, 2 clients x 2 tenants, 8-row jobs in "
            "4-row chunks, every 4th round resumed from the journal: "
            "admission, polling, per-chunk compile, journal IO"),
    }

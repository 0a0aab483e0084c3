"""Self-application gate and seeded regressions of the concurrency
analyzer (``repro lint --conc``, rules ``CNC001``–``CNC009``).

The concurrency analysis must run clean over the repo's own package
source with the committed (EMPTY) baseline — this test IS the
concurrency-safety regression guard: any future blocking call on the
event loop, await under a sync lock, swallowed cancellation, dropped
task, unlocked cross-context write, waitless predicate, unpicklable
queue payload, late generation check or leaked lock fails CI here.

Each seeded regression re-introduces one defect class and asserts the
exact rule fires (and that the repaired shape is quiet); a real-file
regression strips the lock from ``ChunkScheduler.release`` and asserts
CNC005 catches it; a hypothesis property checks the analyzer never
crashes on generated async/threaded bodies. The supervisor-crash
fixes that self-application forced into :mod:`repro.service.core`
(exception-surfacing done-callbacks on the dispatcher and per-job
tasks) get their behavioral regressions here too.
"""

import asyncio
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import LintError
from repro.lint import (CONC_RULES, DEFAULT_BASELINE, LintConfig,
                        lint_project, write_baseline)
from repro.model import perturbed_batch
from repro.models import lotka_volterra
from repro.service import (CampaignService, JobRequest, JobState,
                           ServiceConfig)

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def analyze(tmp_path, files, config=LintConfig(), baseline=None):
    """Write ``{relpath: source}`` under a synthetic root and run the
    concurrency analysis over it."""
    root = tmp_path / "proj"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_project(sorted(root.rglob("*.py")), families=("conc",),
                        root=root, config=config, baseline_path=baseline)


def rule_ids(report):
    return {finding.rule_id for finding in report.findings}


class TestSelfGate:
    def test_package_conc_lint_is_clean(self, package_lint_report):
        report = package_lint_report
        offending = report.at_or_above("warning")
        assert offending == [], "\n" + "\n".join(
            finding.render() for finding in offending)

    def test_committed_baseline_is_empty(self):
        payload = json.loads(DEFAULT_BASELINE.read_text())
        assert payload["format_version"] == 1
        assert payload["entries"] == [], \
            "the conc baseline must stay empty: fix or waive findings"

    def test_analysis_covers_the_serving_stack(self,
                                               package_lint_report):
        report = package_lint_report
        covered = set(report.metadata["files"])
        for expected in ("service/core.py", "service/server.py",
                         "service/scheduler.py", "resilience/executor.py",
                         "resilience/campaign.py", "telemetry/tracer.py",
                         "telemetry/metrics.py", "io/checkpoint.py"):
            assert expected in covered


class TestSeededRegressions:
    def test_cnc001_direct_blocking_in_async(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            import time

            async def handler():
                time.sleep(0.5)
        """})
        assert "CNC001" in rule_ids(report)
        assert report.exceeds("warning")

    def test_cnc001_transitive_blocking_reported_at_call_edge(
            self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            import time

            def crunch():
                time.sleep(0.5)

            async def handler():
                crunch()
        """})
        hits = report.by_rule("CNC001")
        assert hits
        assert any("via" in hit.message for hit in hits)

    def test_cnc001_quiet_when_offloaded(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            import asyncio
            import time

            def crunch():
                time.sleep(0.5)

            async def handler():
                await asyncio.to_thread(crunch)
        """})
        assert "CNC001" not in rule_ids(report)

    def test_cnc002_await_under_sync_lock(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            import asyncio
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                async def refresh(self):
                    with self._lock:
                        await asyncio.sleep(0)
        """})
        assert "CNC002" in rule_ids(report)

    def test_cnc003_swallowed_cancellation(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            async def supervise(job):
                try:
                    await job()
                except BaseException:
                    pass
        """})
        assert "CNC003" in rule_ids(report)

    def test_cnc003_reraise_is_quiet(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            async def supervise(job):
                try:
                    await job()
                except BaseException:
                    raise
        """})
        assert "CNC003" not in rule_ids(report)

    def test_cnc004_never_awaited_coroutine(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            async def tick():
                return 1

            def kickoff():
                tick()
        """})
        assert "CNC004" in rule_ids(report)

    def test_cnc004_dropped_task_result(self, tmp_path):
        report = analyze(tmp_path, {"service/app.py": """
            import asyncio

            async def tick():
                return 1

            async def main():
                asyncio.create_task(tick())
        """})
        hits = report.by_rule("CNC004")
        assert any("garbage-collected" in hit.message for hit in hits)

    def test_cnc005_lock_discipline_violation(self, tmp_path):
        report = analyze(tmp_path, {"service/state.py": """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def safe_add(self, item):
                    with self._lock:
                        self.items.append(item)

                def fast_add(self, item):
                    self.items.append(item)
        """})
        assert "CNC005" in rule_ids(report)

    def test_cnc005_multi_context_unlocked_write(self, tmp_path):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1

            def worker(counter):
                counter.bump()

            async def tick(counter):
                counter.bump()

            def spawn(counter):
                thread = threading.Thread(target=worker,
                                          args=(counter,))
                thread.start()
        """
        report = analyze(tmp_path / "a", {"service/state.py": source})
        assert "CNC005" in rule_ids(report)
        # Outside the configured shared-state subsystems the
        # multi-context trigger stays quiet.
        report = analyze(tmp_path / "b", {"analysis/state.py": source})
        assert "CNC005" not in rule_ids(report)

    def test_cnc006_wait_outside_while(self, tmp_path):
        report = analyze(tmp_path, {"service/gate.py": """
            import threading

            class Gate:
                def __init__(self):
                    self._cond = threading.Condition()
                    self.ready = False

                def wait_ready(self):
                    with self._cond:
                        if not self.ready:
                            self._cond.wait()
        """})
        assert "CNC006" in rule_ids(report)

    def test_cnc006_while_predicate_is_quiet(self, tmp_path):
        report = analyze(tmp_path, {"service/gate.py": """
            import threading

            class Gate:
                def __init__(self):
                    self._cond = threading.Condition()
                    self.ready = False

                def wait_ready(self):
                    with self._cond:
                        while not self.ready:
                            self._cond.wait()
        """})
        assert "CNC006" not in rule_ids(report)

    def test_cnc007_unpicklable_across_queue(self, tmp_path):
        report = analyze(tmp_path, {"resilience/ship.py": """
            import multiprocessing
            import threading

            class Handle:
                def __init__(self):
                    self._lock = threading.Lock()

            def ship():
                jobs = multiprocessing.Queue()
                handle = Handle()
                jobs.put(handle)
        """})
        assert "CNC007" in rule_ids(report)

    def test_cnc008_generation_checked_after_payload(self, tmp_path):
        report = analyze(tmp_path, {"resilience/consume.py": """
            def consume(state, token, payload):
                slot, generation = token
                state.results[slot] = payload
                if generation != state.generations[slot]:
                    return
        """})
        assert "CNC008" in rule_ids(report)

    def test_cnc008_missing_generation_check(self, tmp_path):
        report = analyze(tmp_path, {"resilience/consume.py": """
            def consume(state, token, payload):
                slot, _gen = token
                state.results[slot] = payload
        """})
        hits = report.by_rule("CNC008")
        assert any("never" in hit.message for hit in hits)

    def test_cnc008_guard_before_payload_is_quiet(self, tmp_path):
        report = analyze(tmp_path, {"resilience/consume.py": """
            def consume(state, token, payload):
                slot, generation = token
                if generation != state.generations[slot]:
                    return
                state.results[slot] = payload
        """})
        assert "CNC008" not in rule_ids(report)

    def test_cnc009_release_outside_finally(self, tmp_path):
        report = analyze(tmp_path, {"service/locks.py": """
            import threading

            _LOCK = threading.Lock()

            def risky(update):
                _LOCK.acquire()
                update()
                _LOCK.release()
        """})
        assert "CNC009" in rule_ids(report)

    def test_cnc009_try_finally_is_quiet(self, tmp_path):
        report = analyze(tmp_path, {"service/locks.py": """
            import threading

            _LOCK = threading.Lock()

            def risky(update):
                _LOCK.acquire()
                try:
                    update()
                finally:
                    _LOCK.release()
        """})
        assert "CNC009" not in rule_ids(report)


class TestRealFileRegression:
    """Strip ``with self._cond:`` from ``ChunkScheduler.release`` and
    the analyzer must notice the now-unlocked inflight accounting."""

    LOCKED = ("    def release(self, tenant: str, width: int) -> None:\n"
              "        with self._cond:\n"
              "            lane = self._lane(tenant)\n"
              "            self._inflight = max(0, self._inflight - 1)\n"
              "            lane.inflight = max(0, lane.inflight - 1)\n"
              "            self._cond.notify_all()\n")
    UNLOCKED = ("    def release(self, tenant: str, width: int) -> None:\n"
                "        lane = self._lane(tenant)\n"
                "        self._inflight = max(0, self._inflight - 1)\n"
                "        lane.inflight = max(0, lane.inflight - 1)\n"
                "        self._cond.notify_all()\n")

    def test_unlocked_scheduler_release_fires_cnc005(self, tmp_path):
        source = (REPO_SRC / "service" / "scheduler.py").read_text()
        broken = source.replace(self.LOCKED, self.UNLOCKED)
        assert broken != source, \
            "ChunkScheduler.release changed; update the revert here"
        clean = analyze(tmp_path,
                        {"service/scheduler.py": source})
        assert "CNC005" not in rule_ids(clean)
        report = analyze(tmp_path,
                         {"service/scheduler.py": broken})
        hits = report.by_rule("CNC005")
        assert any("_inflight" in hit.message for hit in hits)


class TestWaivers:
    def test_pragma_suppresses_and_counts(self, tmp_path):
        report = analyze(tmp_path, {"service/locks.py": """
            import threading

            _LOCK = threading.Lock()

            def risky(update):
                _LOCK.acquire()  # lint: skip=CNC009
                update()
                _LOCK.release()
        """})
        assert "CNC009" not in rule_ids(report)
        assert report.metadata["waived"] >= 1

    def test_stale_conc_waiver_becomes_lnt000(self, tmp_path):
        report = analyze(tmp_path, {"service/locks.py": """
            def benign():  # lint: skip=CNC006
                return 1
        """})
        assert "LNT000" in rule_ids(report)


class TestBaselineMachinery:
    DIRTY = """
        import threading

        _LOCK = threading.Lock()

        def risky(update):
            _LOCK.acquire()
            update()
    """

    def _tree(self, tmp_path):
        root = tmp_path / "proj"
        (root / "service").mkdir(parents=True, exist_ok=True)
        path = root / "service" / "locks.py"
        path.write_text(textwrap.dedent(self.DIRTY))
        return root, path

    def test_baseline_subtracts_known_findings(self, tmp_path):
        root, path = self._tree(tmp_path)
        dirty = lint_project([path], families=("conc",), root=root)
        assert dirty.by_rule("CNC009")
        baseline = tmp_path / "baseline.json"
        count = write_baseline(dirty, baseline)
        assert count >= 1
        clean = lint_project([path], families=("conc",), root=root,
                             baseline_path=baseline)
        assert clean.findings == []
        assert clean.metadata["baselined"] == count

    def test_stale_baseline_entry_becomes_lnt001(self, tmp_path):
        root, path = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(lint_project([path], families=("conc",), root=root),
                                    baseline)
        path.write_text("def risky(update):\n    update()\n")
        report = lint_project([path], families=("conc",), root=root,
                              baseline_path=baseline)
        hits = report.by_rule("LNT001")
        assert hits
        assert any("CNC009" in hit.message for hit in hits)
        assert report.exceeds("warning")

    def test_corrupt_baseline_rejected(self, tmp_path):
        root, path = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        with pytest.raises(LintError, match="valid JSON"):
            lint_project([path], families=("conc",), root=root,
                         baseline_path=baseline)


class TestConcCLI:
    def test_dirty_file_fails_on_warning(self, tmp_path, capsys):
        path = tmp_path / "locks.py"
        path.write_text(textwrap.dedent(TestBaselineMachinery.DIRTY))
        assert main(["lint", "--conc", str(path),
                     "--fail-on", "warning"]) == 1
        assert "CNC009" in capsys.readouterr().out

    def test_clean_subpackage_exits_zero(self, capsys):
        telemetry = REPO_SRC / "telemetry"
        assert main(["lint", "--conc", str(telemetry),
                     "--fail-on", "warning"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "locks.py"
        path.write_text(textwrap.dedent(TestBaselineMachinery.DIRTY))
        baseline = tmp_path / "conc.json"
        assert main(["lint", "--conc", str(path),
                     "--write-baseline", "--baseline",
                     str(baseline)]) == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["entries"]
        assert main(["lint", "--conc", str(path), "--baseline",
                     str(baseline), "--fail-on", "warning"]) == 0

    def test_list_rules_includes_conc_family(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        rules = {entry["rule_id"]: entry
                 for entry in json.loads(capsys.readouterr().out)}
        for rule_id in CONC_RULES:
            assert rule_id in rules
        assert rules["CNC001"]["family"] == "conc"


T_EVAL = np.linspace(0.0, 2.0, 5)


@pytest.fixture(scope="module")
def lv_model():
    return lotka_volterra()


@pytest.fixture(scope="module")
def lv_batch(lv_model):
    rng = np.random.default_rng(23)
    return perturbed_batch(lv_model.nominal_parameterization(), 6, rng)


class TestSupervisorCrashSurfacing:
    """Behavioral regressions of the self-application fixes: a bug in
    the service's own supervision code must quarantine the affected
    jobs with an explicit reason, never strand them RUNNING/QUEUED
    with the failure invisible."""

    def _request(self, lv_model, lv_batch):
        return JobRequest(model=lv_model, t_span=(0.0, 2.0),
                          t_eval=T_EVAL, parameters=lv_batch,
                          chunk_size=3)

    def test_job_supervisor_crash_quarantines_the_job(
            self, lv_model, lv_batch, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("attempt exploded")
        monkeypatch.setattr("repro.service.core.run_campaign", explode)

        async def _run():
            service = CampaignService(config=ServiceConfig())
            await service.start()
            job = service.submit(self._request(lv_model, lv_batch))
            job = await service.wait(job.job_id, timeout=10.0)
            await service.stop()
            return service, job

        service, job = asyncio.run(_run())
        assert job.state == JobState.QUARANTINED
        assert job.reason == "supervisor-crash"
        assert "attempt exploded" in job.error
        assert job.done.is_set()
        assert service.metrics.counters.get(
            "service.supervisor.crashes") == 1

    def test_dispatcher_crash_quarantines_queued_jobs(
            self, lv_model, lv_batch):
        async def _run():
            service = CampaignService(config=ServiceConfig())
            await service.start()
            job = service.submit(self._request(lv_model, lv_batch))

            def explode():
                raise RuntimeError("dispatcher exploded")
            service.ladder.effective_inflight_chunks = explode
            job = await service.wait(job.job_id, timeout=10.0)
            return service, job

        service, job = asyncio.run(_run())
        assert job.state == JobState.QUARANTINED
        assert job.reason == "supervisor-crash"
        assert "dispatcher crashed" in job.error
        assert job.done.is_set()
        assert service._dispatcher_error is not None
        assert service.metrics.counters.get(
            "service.supervisor.crashes") == 1


_GENERATED_STATEMENTS = (
    "time.sleep(0.01)",
    "await asyncio.sleep(0)",
    "with lock:\n        await asyncio.sleep(0)",
    "with lock:\n        item = item + 1",
    "lock.acquire()",
    "lock.release()",
    "with cond:\n        cond.wait()",
    "while not flag:\n        cond.wait()",
    "jobs.put(item)",
    "jobs.put(threading.Lock())",
    "item = jobs.get()",
    "asyncio.create_task(helper())",
    "task = asyncio.create_task(helper())",
    "helper()",
    "try:\n        await helper()\n    except BaseException:\n"
    "        pass",
    "slot, generation = token",
    "value = payload",
    "if generation != 0:\n        return None",
    "threading.Thread(target=time.sleep).start()",
    "await asyncio.to_thread(time.sleep, 0.01)",
)


class TestNeverCrashes:
    @given(st.lists(st.sampled_from(_GENERATED_STATEMENTS),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_generated_bodies_lint_without_crashing(self, statements):
        import tempfile
        source = ("import asyncio\n"
                  "import multiprocessing\n"
                  "import threading\n"
                  "import time\n\n"
                  "lock = threading.Lock()\n"
                  "cond = threading.Condition()\n"
                  "jobs = multiprocessing.Queue()\n\n\n"
                  "async def helper():\n"
                  "    return 1\n\n\n"
                  "async def driver(token, payload, flag, item):\n")
        source += "".join(f"    {stmt}\n" for stmt in statements)
        source += "    return flag\n"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "proj"
            (root / "service").mkdir(parents=True)
            path = root / "service" / "gen.py"
            path.write_text(source)
            report = lint_project([path], families=("conc",), root=root)
            known = set(CONC_RULES) | {"LNT000", "LNT001"}
            for finding in report.findings:
                assert finding.rule_id in known


class TestRuleRegistryContract:
    def test_every_conc_rule_is_registered_with_doc(self):
        from repro.lint import rule_info
        for rule_id, (severity, _summary) in CONC_RULES.items():
            info = rule_info(rule_id)
            assert info is not None
            assert info.family == "conc"
            assert info.severity == severity
            assert len(info.doc) > 20

    def test_conc_rule_ids_are_disjoint_from_other_families(self):
        from repro.lint import (DEEP_RULES, KERNEL_RULES, MODEL_RULES,
                                SHAPE_RULES)
        for other in (DEEP_RULES, KERNEL_RULES, MODEL_RULES,
                      SHAPE_RULES):
            assert not set(CONC_RULES) & set(other)

"""Concurrency-safety static analysis (`repro lint --conc`).

Self-applies the project analysis (every rule family over one project
index) to the installed package (clean against the committed EMPTY
baseline), then runs the ``conc`` family alone: it seeds a deliberately
broken toy campaign service — a coroutine that runs a whole blocking
campaign on the event-loop thread, a supervisor that swallows
``asyncio.CancelledError``, a shared counter written from the loop
and a worker thread without a lock, and a bare ``acquire`` whose
exception edge leaks the lock — and watches the ``CNC`` findings
fire. Finishes with the in-code waiver pragma and the stale-waiver
``LNT000`` meta-check.
"""

import tempfile
import textwrap
from pathlib import Path

from repro.lint import CONC_RULES, iter_rules, lint_project

CONC = ("conc",)


def show_registry():
    print("=== conc rule registry ===")
    conc = [rule for rule in iter_rules() if rule.family == "conc"]
    for rule in conc:
        print(f"  {rule.rule_id}  {rule.severity:<8} {rule.summary}")
    assert len(conc) == len(CONC_RULES)


def self_apply():
    print("\n=== self-application ===")
    report = lint_project()
    print(report.render_text())
    print(f"files analyzed : {len(report.metadata['files'])}")
    print(f"waived         : {report.metadata['waived']} "
          f"(in-code pragmas; the committed baseline is empty)")


def seed(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def broken_toy_service(root: Path):
    print("\n=== seeded broken service ===")
    seed(root, "service/toy.py", """
        import threading

        from repro.resilience import run_campaign


        class Stats:
            def __init__(self):
                self.completed = 0

            def bump(self):
                self.completed += 1        # no lock: CNC005


        def worker(stats):
            stats.bump()


        async def handle_submit(model, t_span, stats):
            # a full blocking campaign on the loop thread: CNC001
            result = run_campaign(model, t_span)
            stats.bump()
            thread = threading.Thread(target=worker, args=(stats,))
            thread.start()
            return result


        async def supervise(job):
            try:
                await job()
            except BaseException:          # swallows cancel: CNC003
                pass


        _LOCK = threading.Lock()


        def flush(journal):
            _LOCK.acquire()                # leak on exception: CNC009
            journal.write()
            _LOCK.release()
    """)
    report = lint_project(sorted(root.rglob("*.py")), families=CONC,
                          root=root)
    for finding in report.findings:
        print(f"  {finding.render()}")
    fired = {finding.rule_id for finding in report.findings}
    assert {"CNC001", "CNC003", "CNC005", "CNC009"} <= fired


def waivers(root: Path):
    print("\n=== waivers and staleness ===")
    path = seed(root, "service/waived.py", """
        import threading

        _LOCK = threading.Lock()


        def flush(journal):
            _LOCK.acquire()  # lint: skip=CNC009 -- released by journal
            journal.write(on_done=_LOCK.release)


        def benign():  # lint: skip=CNC006 -- excused wait is long gone
            return 1
    """)
    report = lint_project([path], families=CONC, root=root)
    print(f"  waived: {report.metadata['waived']} finding(s)")
    for finding in report.by_rule("LNT000"):
        print(f"  {finding.render()}")
    assert report.by_rule("LNT000"), "the stale pragma must surface"


def main():
    show_registry()
    self_apply()
    with tempfile.TemporaryDirectory() as scratch:
        broken_toy_service(Path(scratch) / "toy")
        waivers(Path(scratch) / "waivers")
    print("\nall concurrency-lint demonstrations passed")


if __name__ == "__main__":
    main()

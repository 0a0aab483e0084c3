"""Dataflow-level determinism & contract analysis (`repro lint --deep`).

Self-applies the project analysis (every rule family over one project
index) to the installed package (clean against the committed
baseline), then runs the ``deep`` family alone: it seeds a scratch
tree with the classic regressions the rules exist for — the
width-dependent ``tensordot`` stage combination, an unseeded RNG draw
on the campaign path, wall clock flowing into a result fingerprint, a
dropped status handler — and watches DET/CON findings fire. Finishes
with the baseline ratchet: an accepted finding is subtracted, and once
the defect is fixed the leftover baseline entry resurfaces as an
``LNT001`` staleness warning.
"""

import tempfile
import textwrap
from pathlib import Path

from repro.lint import (LintConfig, iter_rules, lint_project,
                        render_rule_table, write_baseline)

DEEP = ("deep",)


def show_registry():
    print("=== rule registry ===")
    print(render_rule_table())
    deep = [rule for rule in iter_rules() if rule.family == "deep"]
    print(f"({len(deep)} deep rules; every rule carries a doc "
          f"paragraph — see `repro lint --list-rules --format json`)")


def self_apply():
    print("\n=== self-application ===")
    report = lint_project()
    print(report.render_text())
    print(f"files analyzed : {len(report.metadata['files'])}")
    print(f"baselined      : {report.metadata.get('baselined', 0)} "
          f"(the committed baseline is empty — zero accepted debt)")


def seed(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def seeded_regressions(root: Path):
    print("\n=== seeded regressions ===")
    seed(root, "gpu/batch_demo.py", """
        import numpy as np

        def combine_stages(weights, stages):
            # the PR-3 regression: BLAS contraction over the batch
            # axis rounds differently per launch width
            return np.tensordot(weights, stages, axes=(0, 0))
    """)
    seed(root, "resilience/driver.py", """
        import numpy as np
        import time, hashlib

        def run_campaign(batch):
            rng = np.random.default_rng()      # unseeded on hot path
            jitter = rng.standard_normal(batch.shape[0])
            stamp = time.time()                 # wall clock ...
            tag = hashlib.sha256(str(stamp).encode())  # ... hashed
            return jitter, tag.hexdigest()
    """)
    seed(root, "status.py", """
        STATUS_NAMES = {DROPPED: "dropped"}
        DROPPED = 7
    """)
    report = lint_project(sorted(root.rglob("*.py")), families=DEEP,
                          root=root)
    for finding in report.findings:
        print(f"  {finding.render()}")
    fired = {finding.rule_id for finding in report.findings}
    assert {"DET001", "DET004", "DET005", "CON001"} <= fired


def baseline_ratchet(root: Path):
    print("\n=== baseline ratchet ===")
    kernel = seed(root, "gpu/batch_legacy.py", """
        import numpy as np

        def combine(weights, stages):
            return np.dot(weights, stages)
    """)
    files = [kernel]
    dirty = lint_project(files, families=DEEP, root=root)
    baseline = root / "baseline.json"
    count = write_baseline(dirty, baseline, DEEP)
    print(f"accepted {count} finding(s) into {baseline.name}")
    accepted = lint_project(files, families=DEEP, root=root,
                            baseline_path=baseline)
    print(f"with baseline  : {len(accepted.findings)} finding(s), "
          f"{accepted.metadata['baselined']} baselined")
    # Fix the defect; the baseline entry now matches nothing and the
    # ratchet reports it: a baseline may only shrink.
    kernel.write_text("def combine(w, s):\n    return w[0] * s[0]\n")
    stale = lint_project(files, families=DEEP, root=root,
                         baseline_path=baseline)
    for finding in stale.by_rule("LNT001"):
        print(f"  {finding.render()}")


def stale_waivers(root: Path):
    print("\n=== stale waivers (CON004) ===")
    waived = seed(root, "gpu/batch_waived.py", """
        import numpy as np

        def combine(weights, stages):
            # lint: skip=DET001 -- the loop this excused is gone
            return (weights[:, None] * stages).sum(axis=0)
    """)
    report = lint_project([waived], families=DEEP, root=root,
                          config=LintConfig(kernel_globs=("gpu/*.py",)))
    for finding in report.by_rule("CON004"):
        print(f"  {finding.render()}")


def main():
    show_registry()
    self_apply()
    with tempfile.TemporaryDirectory() as scratch:
        seeded_regressions(Path(scratch) / "regressions")
        baseline_ratchet(Path(scratch) / "ratchet")
        stale_waivers(Path(scratch) / "waivers")
    print("\ndone.")


if __name__ == "__main__":
    main()

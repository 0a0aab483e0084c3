"""Self-application gate of the deep analyzer.

The deep analysis must run clean over the repo's own package source
(modulo the committed baseline and in-code waivers) — this test IS the
determinism/contract regression guard: any future tensordot, unseeded
RNG draw, dropped status handler or stale suppression fails CI here.

Also covers the baseline machinery: subtraction, the LNT001 staleness
ratchet (a baseline may only shrink) and round-tripping through
``write_baseline``.
"""

import json
import textwrap

import pytest

from repro.errors import LintError
from repro.lint import (DEEP_RULES, DEFAULT_BASELINE, lint_project,
                        package_source_files, write_baseline)


class TestSelfGate:
    def test_package_deep_lint_is_clean(self, package_lint_report):
        report = package_lint_report
        offending = report.at_or_above("warning")
        assert offending == [], "\n" + "\n".join(
            finding.render() for finding in offending)

    def test_analysis_covers_the_critical_modules(self,
                                                  package_lint_report):
        report = package_lint_report
        covered = set(report.metadata["files"])
        for expected in ("gpu/batch_dopri5.py", "gpu/batch_radau5.py",
                         "gpu/batch_bdf.py", "gpu/engine.py",
                         "gpu/batch_result.py", "resilience/campaign.py",
                         "resilience/faults.py", "io/checkpoint.py",
                         "errors.py"):
            assert expected in covered

    def test_committed_baseline_is_valid_and_not_stale(
            self, package_lint_report):
        payload = json.loads(DEFAULT_BASELINE.read_text())
        assert payload["format_version"] == 1
        report = package_lint_report
        assert report.by_rule("LNT001") == [], \
            "baseline entries no longer match: shrink the baseline"

    def test_package_file_set_is_substantial(self):
        assert len(package_source_files()) >= 50


class TestBaselineMachinery:
    def _tree(self, tmp_path, source):
        root = tmp_path / "proj"
        (root / "gpu").mkdir(parents=True)
        path = root / "gpu" / "batch_x.py"
        path.write_text(textwrap.dedent(source))
        return root, path

    DIRTY = """
        import numpy as np
        def combine(w, k):
            return np.tensordot(w, k, axes=(0, 0))
    """

    def test_baseline_subtracts_known_findings(self, tmp_path):
        root, path = self._tree(tmp_path, self.DIRTY)
        dirty = lint_project([path], families=("deep",), root=root)
        assert dirty.by_rule("DET001")
        baseline = tmp_path / "baseline.json"
        count = write_baseline(dirty, baseline)
        assert count == len(dirty.findings)
        clean = lint_project([path], families=("deep",), root=root,
                             baseline_path=baseline)
        assert clean.findings == []
        assert clean.metadata["baselined"] == count

    def test_stale_baseline_entry_becomes_lnt001(self, tmp_path):
        root, path = self._tree(tmp_path, self.DIRTY)
        dirty = lint_project([path], families=("deep",), root=root)
        baseline = tmp_path / "baseline.json"
        write_baseline(dirty, baseline)
        # Fix the defect: the baseline entry now matches nothing.
        path.write_text("def combine(w, k):\n    return w[0] * k[0]\n")
        report = lint_project([path], families=("deep",), root=root,
                              baseline_path=baseline)
        hits = report.by_rule("LNT001")
        assert len(hits) == 1
        assert "DET001" in hits[0].message
        # the ratchet: a stale baseline is itself a warning-level fail
        assert report.exceeds("warning")

    def test_write_baseline_excludes_meta_findings(self, tmp_path):
        root, path = self._tree(tmp_path, self.DIRTY)
        dirty = lint_project([path], families=("deep",), root=root)
        stale_source = tmp_path / "baseline1.json"
        write_baseline(dirty, stale_source)
        path.write_text("def combine(w, k):\n    return w[0] * k[0]\n")
        with_stale = lint_project([path], families=("deep",), root=root,
                               baseline_path=stale_source)
        assert with_stale.by_rule("LNT001")
        regenerated = tmp_path / "baseline2.json"
        assert write_baseline(with_stale, regenerated) == 0

    def test_unknown_format_version_rejected(self, tmp_path):
        root, path = self._tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"format_version": 99, "entries": []}')
        with pytest.raises(LintError, match="format_version"):
            lint_project([path], families=("deep",), root=root,
                         baseline_path=baseline)

    def test_corrupt_baseline_rejected(self, tmp_path):
        root, path = self._tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        with pytest.raises(LintError, match="valid JSON"):
            lint_project([path], families=("deep",), root=root,
                         baseline_path=baseline)


class TestRuleRegistryContract:
    def test_every_deep_rule_has_severity_and_doc(self):
        from repro.lint import rule_info
        for rule_id in DEEP_RULES:
            info = rule_info(rule_id)
            assert info is not None
            assert info.family == "deep"
            assert info.severity in ("info", "warning", "error")
            assert len(info.doc) > 20

    def test_deep_rule_ids_are_disjoint_from_shallow(self):
        from repro.lint import KERNEL_RULES, MODEL_RULES
        assert not set(DEEP_RULES) & set(KERNEL_RULES)
        assert not set(DEEP_RULES) & set(MODEL_RULES)

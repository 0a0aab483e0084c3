"""Self-application gate and seeded regressions of the shapes analyzer.

The shape/backend analysis must run clean over the repo's own package
source with the committed (empty) baseline — this test IS the
shape-safety regression guard: any future row-contracting tensordot,
float32 state accumulator, raw numpy call inside a kernel or
off-protocol ``xp`` op fails CI here.

Each seeded regression re-introduces one defect class the analyzer
exists to catch and asserts the exact rule fires; a hypothesis
property checks the abstract interpreter never crashes on generated
kernel bodies.
"""

import json
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.protocol import REQUIRED_OPS
from repro.cli import main
from repro.errors import LintError
from repro.lint import (DEFAULT_BASELINE, SHAPE_RULES, lint_project,
                        write_baseline)


def _tree(tmp_path, source, name="batch_x.py"):
    root = tmp_path / "proj"
    (root / "gpu").mkdir(parents=True, exist_ok=True)
    path = root / "gpu" / name
    path.write_text(textwrap.dedent(source))
    return root, path


def _rules(report):
    return {finding.rule_id for finding in report.findings}


class TestSelfGate:
    def test_package_shapes_lint_is_clean(self, package_lint_report):
        report = package_lint_report
        offending = report.at_or_above("warning")
        assert offending == [], "\n" + "\n".join(
            finding.render() for finding in offending)

    def test_analysis_covers_the_kernel_modules(self,
                                                package_lint_report):
        report = package_lint_report
        covered = set(report.metadata["files"])
        for expected in ("gpu/batch_dopri5.py", "gpu/batch_radau5.py",
                         "gpu/batch_bdf.py", "gpu/engine.py",
                         "gpu/batched_ode.py", "gpu/router.py",
                         "solvers/stiffness.py"):
            assert expected in covered

    def test_committed_baseline_is_empty(self):
        """Acceptance criterion: the shipped kernels carry no accepted
        shape findings — the ratchet starts at zero."""
        payload = json.loads(DEFAULT_BASELINE.read_text())
        assert payload["format_version"] == 1
        assert payload["entries"] == []


class TestSeededShapeRegressions:
    def test_row_contracting_tensordot_is_shp001(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def norms(states):
                return xp.tensordot(states, states, axes=(0, 0))
        """)
        report = lint_project([path], families=("shapes",), root=root)
        hits = report.by_rule("SHP001")
        assert len(hits) == 1
        assert "batch" in hits[0].message

    def test_axis0_reduction_is_shp001(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def total(states):
                return xp.sum(states, axis=0)
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP001")

    def test_batch_axis_broadcast_is_shp002(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def drift(states, times):
                return states + times
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP002")

    def test_keepdims_style_broadcast_is_clean(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def drift(states, times):
                return states + times[:, None]
        """)
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("SHP002") == []

    def test_float32_state_accumulator_is_shp003(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def accumulate(states):
                acc = states.astype(xp.float32)
                acc = acc + states
                return acc
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP003")

    def test_shape_unstable_branches_are_shp004(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def pick(states, times, flag):
                if flag:
                    value = states
                else:
                    value = times
                return value * 2.0
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP004")

    def test_batch_folding_ravel_is_shp005(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def flat(states):
                return states.ravel()
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP005")

    def test_batch_preserving_reshape_is_clean(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def rows(states):
                return states.reshape(states.shape[0], -1)
        """)
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("SHP005") == []

    def test_narrow_out_target_is_shp006(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def store(states):
                out = xp.zeros((4, 3), dtype=xp.float32)
                xp.maximum(states, states, out=out)
                return out
        """)
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("SHP006")


class TestSeededBackendRegressions:
    def test_numpy_import_in_kernel_is_bkd001(self, tmp_path):
        root, path = _tree(tmp_path, """
            import numpy as np

            def total(states):
                return np.sum(states, axis=-1)
        """)
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("BKD001")
        assert report.by_rule("BKD002")

    def test_from_numpy_import_is_bkd001_and_use_is_bkd002(self, tmp_path):
        root, path = _tree(tmp_path, """
            from numpy import nansum

            def total(states):
                return nansum(states)
        """)
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("BKD001")
        assert report.by_rule("BKD002")

    def test_off_protocol_xp_op_is_bkd003(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def factor(matrices):
                return xp.fancy_svd(matrices)
        """)
        hits = lint_project([path], families=("shapes",),
                            root=root).by_rule("BKD003")
        assert len(hits) == 1
        assert "fancy_svd" in hits[0].message

    def test_protocol_surface_is_the_source_of_truth(self, tmp_path):
        """Every op actually declared by the protocol passes BKD003."""
        body = "\n".join(f"    a{i} = xp.{op}"
                         for i, op in enumerate(REQUIRED_OPS))
        root, path = _tree(tmp_path,
                           "from ..backend import xp\n\n"
                           f"def touch(states):\n{body}\n    return states\n")
        assert lint_project([path], families=("shapes",),
                            root=root).by_rule("BKD003") == []

    def test_backend_module_itself_is_exempt(self, tmp_path):
        root = tmp_path / "proj"
        (root / "backend").mkdir(parents=True)
        path = root / "backend" / "numpy_backend.py"
        path.write_text("import numpy as np\nxp = np\n")
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("BKD001") == []
        assert report.by_rule("BKD002") == []


class TestWaiversAndBaseline:
    DIRTY = """
        from ..backend import xp

        def norms(states):
            return xp.tensordot(states, states, axes=(0, 0))
    """

    def test_waiver_suppresses_and_counts(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def norms(states):
                # lint: skip=SHP001
                return xp.tensordot(states, states, axes=(0, 0))
        """)
        report = lint_project([path], families=("shapes",), root=root)
        assert report.by_rule("SHP001") == []
        assert report.metadata["waived"] >= 1
        assert report.by_rule("LNT000") == []

    def test_stale_shape_waiver_is_lnt000(self, tmp_path):
        root, path = _tree(tmp_path, """
            from ..backend import xp

            def quiet(states):
                return states * 2.0  # lint: skip=SHP001
        """)
        hits = lint_project([path], families=("shapes",),
                            root=root).by_rule("LNT000")
        assert len(hits) == 1
        assert "SHP001" in hits[0].message

    def test_baseline_subtracts_known_findings(self, tmp_path):
        root, path = _tree(tmp_path, self.DIRTY)
        dirty = lint_project([path], families=("shapes",), root=root)
        assert dirty.by_rule("SHP001")
        baseline = tmp_path / "baseline.json"
        count = write_baseline(dirty, baseline)
        assert count == len(dirty.findings)
        clean = lint_project([path], families=("shapes",), root=root,
                             baseline_path=baseline)
        assert clean.findings == []
        assert clean.metadata["baselined"] == count

    def test_stale_baseline_entry_becomes_lnt001(self, tmp_path):
        root, path = _tree(tmp_path, self.DIRTY)
        dirty = lint_project([path], families=("shapes",), root=root)
        baseline = tmp_path / "baseline.json"
        write_baseline(dirty, baseline)
        path.write_text("def norms(states):\n    return states * 2.0\n")
        report = lint_project([path], families=("shapes",), root=root,
                              baseline_path=baseline)
        hits = report.by_rule("LNT001")
        assert hits
        assert any("SHP001" in hit.message for hit in hits)
        assert report.exceeds("warning")

    def test_corrupt_baseline_rejected(self, tmp_path):
        root, path = _tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        with pytest.raises(LintError, match="valid JSON"):
            lint_project([path], families=("shapes",), root=root,
                         baseline_path=baseline)


class TestShapesCLI:
    def test_dirty_file_fails_on_warning(self, tmp_path, capsys):
        root, path = _tree(tmp_path, TestWaiversAndBaseline.DIRTY)
        assert main(["lint", "--shapes", str(path),
                     "--fail-on", "warning"]) == 1
        assert "SHP001" in capsys.readouterr().out

    def test_clean_subpackage_exits_zero(self, capsys):
        gpu = Path(__file__).resolve().parent.parent / "src/repro/gpu"
        assert main(["lint", "--shapes", str(gpu),
                     "--fail-on", "warning"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        root, path = _tree(tmp_path, TestWaiversAndBaseline.DIRTY)
        baseline = tmp_path / "shapes.json"
        assert main(["lint", "--shapes", str(path),
                     "--write-baseline", "--baseline",
                     str(baseline)]) == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["entries"]
        assert main(["lint", "--shapes", str(path), "--baseline",
                     str(baseline), "--fail-on", "warning"]) == 0

    def test_list_rules_includes_shape_families(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        rules = {entry["rule_id"]: entry
                 for entry in json.loads(capsys.readouterr().out)}
        for rule_id in SHAPE_RULES:
            assert rule_id in rules
        assert rules["SHP001"]["family"] == "shape"
        assert rules["BKD003"]["family"] == "backend"


_GENERATED_STATEMENTS = (
    "value = states * 2.0",
    "value = states + times[:, None]",
    "value = states + times",
    "value = xp.sum(states, axis=1)",
    "value = xp.sum(states, axis=0)",
    "value = xp.tensordot(states, states, axes=(0, 0))",
    "value = states.astype(xp.float32)",
    "value = states.ravel()",
    "value = states.reshape(states.shape[0], -1)",
    "value = xp.zeros((batch, n))",
    "value = states[active]",
    "value = xp.where(flag, states, 0.0)",
    "value = value + states",
    "states = states + 1.0",
    "value = xp.norm(states, axis=-1)",
    "value = xp.maximum(states, 1e-30)",
    "for row in states:\n        value = row",
    "if flag:\n        states = times",
    "value = xp.einsum('bij,bj->bi', matrices, states)",
    "value = np.linspace(0.0, 1.0, n)",
)


class TestNeverCrashes:
    @given(st.lists(st.sampled_from(_GENERATED_STATEMENTS),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_generated_kernels_lint_without_crashing(self, statements):
        source = ("import numpy as np\n"
                  "from ..backend import xp\n\n"
                  "def kernel(states, times, matrices, flag, batch, n, "
                  "active):\n")
        source += "".join(f"    {stmt}\n" for stmt in statements)
        source += "    return states\n"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "proj"
            (root / "gpu").mkdir(parents=True)
            path = root / "gpu" / "batch_gen.py"
            path.write_text(source)
            report = lint_project([path], families=("shapes",), root=root)
            known = set(SHAPE_RULES) | {"LNT000", "LNT001"}
            for finding in report.findings:
                assert finding.rule_id in known


class TestRuleRegistryContract:
    def test_every_shape_rule_is_registered_with_doc(self):
        from repro.lint import rule_info
        for rule_id in SHAPE_RULES:
            info = rule_info(rule_id)
            assert info is not None
            assert info.family == ("shape" if rule_id.startswith("SHP")
                                   else "backend")
            assert info.severity in ("info", "warning", "error")
            assert len(info.doc) > 20

    def test_shape_rule_ids_are_disjoint_from_other_families(self):
        from repro.lint import DEEP_RULES, KERNEL_RULES, MODEL_RULES
        for other in (DEEP_RULES, KERNEL_RULES, MODEL_RULES):
            assert not set(SHAPE_RULES) & set(other)

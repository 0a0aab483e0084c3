"""Tests for the ``repro lint`` CLI subcommand.

Covers the text and JSON output formats, the ``--fail-on`` exit-code
contract, ``--self`` (shipped-kernel lint), direct ``.py`` file lint,
the error path for a missing model, ``--list-rules``, the project
analysis (``--deep``/``--shapes``/``--conc`` in one pass, ``--self``
joining it, family-scoped baselines) and the exit-code contract (0
clean / 1 findings / 2 crash / 3 lint-gate rejection).
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.io import write_model
from repro.models import dimerization
from repro.model import ReactionBasedModel


@pytest.fixture
def clean_model_dir(tmp_path):
    folder = tmp_path / "dimer"
    write_model(dimerization(), folder)
    return folder


@pytest.fixture
def warning_model_dir(tmp_path):
    model = ReactionBasedModel("ghosted")
    model.add_species("A", 1.0)
    model.add_species("B", 0.0)
    model.add_species("Ghost", 2.0)  # RBM001 warning
    model.add("A -> B @ 1.0")
    model.add("B -> A @ 0.5")
    folder = tmp_path / "ghosted"
    write_model(model, folder)
    return folder


class TestModelLint:
    def test_clean_model_exits_zero(self, clean_model_dir, capsys):
        assert main(["lint", str(clean_model_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warning_model_passes_at_default_threshold(
            self, warning_model_dir, capsys):
        assert main(["lint", str(warning_model_dir)]) == 0
        out = capsys.readouterr().out
        assert "RBM001" in out and "Ghost" in out

    def test_fail_on_warning_flips_exit_code(self, warning_model_dir):
        assert main(["lint", str(warning_model_dir),
                     "--fail-on", "warning"]) == 1

    def test_json_format(self, warning_model_dir, capsys):
        assert main(["lint", str(warning_model_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["warning"] == 1
        assert payload["findings"][0]["rule_id"] == "RBM001"
        assert "stiffness_risk_decades" in payload["metadata"]


@pytest.fixture
def waived_kernel(tmp_path):
    """A kernel whose one per-row loop carries a waiver pragma."""
    kernel = tmp_path / "kernel.py"
    kernel.write_text(
        "def repair(y, rows):\n"
        "    for row in rows:  # lint: skip=KRN001 -- tiny failed subset\n"
        "        y[row] += 1\n")
    return kernel


class TestKernelLint:
    def test_self_lint_exits_zero(self, waived_kernel, capsys):
        assert main(["lint", "--self"]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["lint", str(waived_kernel)]) == 0
        assert "1 waived" in capsys.readouterr().out

    def test_self_lint_json(self, waived_kernel, capsys):
        assert main(["lint", "--self", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["waived"] == 0
        assert len(payload["metadata"]["files"]) >= 4
        assert main(["lint", str(waived_kernel), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["waived"] == 1

    def test_python_file_routes_to_kernel_linter(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.py"
        kernel.write_text(
            "def step(y, batch_size):\n"
            "    for i in range(batch_size):\n"
            "        y[i] = 0.0\n")
        assert main(["lint", str(kernel)]) == 1  # KRN001 is an error
        assert "KRN001" in capsys.readouterr().out


class TestListRules:
    def test_text_table_lists_every_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RBM001", "KRN001", "DET001", "CON001",
                        "LNT000"):
            assert rule_id in out
        for family in ("model", "kernel", "deep", "meta"):
            assert family in out

    def test_json_listing_includes_docs(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        rules = json.loads(capsys.readouterr().out)
        by_id = {rule["rule_id"]: rule for rule in rules}
        assert by_id["DET001"]["family"] == "deep"
        assert by_id["DET001"]["severity"] == "error"
        assert "bit-identity" in by_id["DET001"]["doc"]


class TestDeepLint:
    def test_deep_over_package_is_clean(self, capsys):
        assert main(["lint", "--deep", "--fail-on", "warning"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_deep_on_dirty_file_fails(self, tmp_path, capsys):
        kernel = tmp_path / "gpu"
        kernel.mkdir()
        (kernel / "batch_bad.py").write_text(textwrap.dedent("""
            import numpy as np
            def combine(w, k):
                return np.tensordot(w, k, axes=(0, 0))
        """))
        assert main(["lint", "--deep", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_deep_json_report_documents_fired_rules(self, tmp_path,
                                                    capsys):
        kernel = tmp_path / "gpu"
        kernel.mkdir()
        (kernel / "batch_bad.py").write_text(
            "import numpy as np\n"
            "def f(w, k):\n"
            "    return np.dot(w, k)\n")
        main(["lint", "--deep", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule_id"] == "DET001"
        assert "DET001" in payload["rules"]
        assert payload["rules"]["DET001"]["family"] == "deep"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        kernel = tmp_path / "gpu"
        kernel.mkdir()
        (kernel / "batch_bad.py").write_text(
            "import numpy as np\n"
            "def f(w, k):\n"
            "    return np.dot(w, k)\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--deep", str(tmp_path),
                     "--write-baseline", "--baseline",
                     str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", "--deep", str(tmp_path),
                     "--baseline", str(baseline)]) == 0
        assert "clean" in capsys.readouterr().out


#: One finding per project-analysis family: DET001 and SHP001 on the
#: axis-0 kernel reduction, CNC009 on the bare acquire.
_FAMILY_TREE = {
    "gpu/batch_x.py": """
        from ..backend import xp

        def total(states):
            return xp.sum(states, axis=0)
    """,
    "service/locks.py": """
        import threading

        _LOCK = threading.Lock()

        def flush(journal):
            _LOCK.acquire()
            journal.write()
            _LOCK.release()
    """,
}


def _family_tree(tmp_path, relpaths):
    root = tmp_path / "proj"
    for relpath in relpaths:
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(_FAMILY_TREE[relpath]))
    return root


def _json_rules(capsys):
    payload = json.loads(capsys.readouterr().out)
    return {finding["rule_id"] for finding in payload["findings"]}


class TestProjectFamilies:
    def test_combined_flags_run_every_family(self, tmp_path, capsys):
        root = _family_tree(tmp_path, _FAMILY_TREE)
        assert main(["lint", "--deep", "--shapes", "--conc", str(root),
                     "--format", "json"]) == 1
        assert _json_rules(capsys) == {"DET001", "SHP001", "CNC009"}

    def test_self_joins_the_family_report(self, tmp_path, waived_kernel,
                                          monkeypatch, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def step(y, batch_size):\n"
                         "    for i in range(batch_size):\n"
                         "        y[i] = 0.0\n")
        monkeypatch.setattr("repro.lint.kernel_rules.shipped_kernel_paths",
                            lambda: [waived_kernel, dirty])
        root = tmp_path / "proj"
        root.mkdir()
        (root / "clean.py").write_text("def f(x):\n    return x\n")
        # The family pass is clean: the KRN001 error alone sets the exit.
        assert main(["lint", "--self", "--deep", str(root),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in payload["findings"]] == ["KRN001"]
        assert payload["metadata"]["waived"] == 1
        assert payload["metadata"]["files"] == ["clean.py"]

    def test_baseline_is_scoped_to_families(self, tmp_path, capsys):
        root = _family_tree(tmp_path, ["gpu/batch_x.py"])
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--shapes", str(root), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", "--deep", str(root), "--baseline",
                     str(baseline), "--format", "json"]) == 1
        assert _json_rules(capsys) == {"DET001"}
        assert main(["lint", "--shapes", str(root), "--baseline",
                     str(baseline), "--fail-on", "info"]) == 0
        assert "clean" in capsys.readouterr().out
        # Rewriting the deep entries keeps the shapes entry.
        assert main(["lint", "--deep", str(root), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        entries = json.loads(baseline.read_text())["entries"]
        assert sorted(entry["rule"] for entry in entries) == \
            ["DET001", "SHP001"]


class TestLintGateExitCode:
    def test_gate_rejection_exits_three(self, warning_model_dir,
                                        capsys):
        code = main(["lint", str(warning_model_dir), "--gate",
                     "--fail-on", "warning"])
        assert code == 3
        err = capsys.readouterr().err
        assert "lint gate" in err and "RBM001" in err

    def test_gate_pass_exits_zero(self, clean_model_dir):
        assert main(["lint", str(clean_model_dir), "--gate"]) == 0

    def test_gate_error_is_distinct_from_crash(self, tmp_path):
        # a crash (unreadable model) must stay exit 2
        assert main(["lint", str(tmp_path / "nope"), "--gate"]) == 2


class TestErrorPaths:
    def test_missing_model_argument(self, capsys):
        assert main(["lint"]) == 2
        assert "error" in capsys.readouterr().err

    def test_nonexistent_model_path(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    def test_deep_on_non_python_subject(self, clean_model_dir, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        assert main(["lint", "--deep", str(target)]) == 2

    def test_unknown_fail_on_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--self", "--fail-on", "fatal"])

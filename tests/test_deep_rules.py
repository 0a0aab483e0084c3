"""Seeded-regression tests for the deep rules (DET0xx / CON0xx).

Each test reintroduces a minimal version of a defect the rule exists
to prevent and asserts the analyzer catches it — including the two
real-source regressions the gate was built for: replacing the
element-wise stage combination in ``batch_dopri5.py`` with a
``tensordot`` or a stage-major einsum (the width-stability fix) and
stripping the GUARD status handling out of the engine's quarantine
path.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_project
from repro.lint.deep_rules import _einsum_contracted_operands

REPO_GPU = Path(__file__).resolve().parent.parent / "src" / "repro" / "gpu"
#: The body of ``_combine_stages`` as shipped in ``batch_dopri5.py``.
_SHIPPED_COMBINATION = ("    combined = weights[0] * stages[0]\n"
                        "    for j in range(1, len(weights)):\n"
                        "        combined += weights[j] * stages[j]\n"
                        "    return combined")


def analyze(tmp_path, files, config=LintConfig(), baseline=None):
    root = tmp_path / "proj"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_project(sorted(root.rglob("*.py")), families=("deep",),
                        root=root, config=config, baseline_path=baseline)


def rule_ids(report):
    return sorted(f.rule_id for f in report.findings)


class TestDET001:
    def test_tensordot_stage_revert_in_real_dopri5(self, tmp_path):
        """Restoring the pre-fix tensordot stage combination in the
        shipped DOPRI5 kernel must fire DET001."""
        source = (REPO_GPU / "batch_dopri5.py").read_text()
        reverted = source.replace(
            _SHIPPED_COMBINATION,
            "    return np.tensordot(weights, stages, axes=(0, 0))")
        assert reverted != source, "stage-combination body moved; " \
            "update the revert in this test"
        report = analyze(tmp_path, {"gpu/batch_dopri5.py": reverted})
        hits = report.by_rule("DET001")
        assert hits and hits[0].severity == "error"
        assert "tensordot" in hits[0].message

    def test_stage_major_einsum_in_real_dopri5(self, tmp_path):
        """A stage-major einsum contracts the leading axis of the
        stage operand, so DET001 fires on it."""
        source = (REPO_GPU / "batch_dopri5.py").read_text()
        rewritten = source.replace(
            _SHIPPED_COMBINATION,
            '    return xp.einsum("kbs,k->bs", stages, weights)')
        assert rewritten != source, "stage-combination body moved; " \
            "update the rewrite in this test"
        report = analyze(tmp_path, {"gpu/batch_dopri5.py": rewritten})
        hits = report.by_rule("DET001")
        assert hits and hits[0].severity == "error"
        assert "'kbs,k->bs'" in hits[0].message

    def test_shipped_kernels_are_clean(self, tmp_path):
        files = {f"gpu/{path.name}": path.read_text()
                 for path in sorted(REPO_GPU.glob("batch_*.py"))}
        report = analyze(tmp_path, files)
        assert report.by_rule("DET001") == []

    def test_matmul_operator_flagged(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            def combine(w, k):
                return w @ k
        """})
        assert rule_ids(report) == ["DET001"]

    def test_axis0_reduction_flagged(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            import numpy as np
            def total(stages):
                return np.sum(stages, axis=0)
        """})
        assert rule_ids(report) == ["DET001"]

    def test_row_contracting_einsum_flagged(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            import numpy as np
            def bad(k):
                return np.einsum("bn,bn->n", k, k)
        """})
        assert len(report.by_rule("DET001")) == 2  # both operands

    def test_batch_preserving_einsum_clean(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            import numpy as np
            def good(w, k):
                return np.einsum("s,bsn->bn", w, k)
        """})
        assert report.findings == []

    def test_einsum_optimize_flagged(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            import numpy as np
            def opt(w, k):
                return np.einsum("s,bsn->bn", w, k, optimize=True)
        """})
        assert rule_ids(report) == ["DET001"]

    def test_rule_scoped_to_kernel_globs(self, tmp_path):
        report = analyze(tmp_path, {"analysis/stats.py": """
            import numpy as np
            def variance(samples):
                return np.dot(samples, samples)
        """})
        assert report.by_rule("DET001") == []

    def test_einsum_spec_parser(self):
        assert _einsum_contracted_operands("bn,bn->n", 2) == [0, 1]
        assert _einsum_contracted_operands("s,bsn->bn", 2) == []
        assert _einsum_contracted_operands("bij,bj->bi", 2) == []
        assert _einsum_contracted_operands("ij,bjn->bin", 2) == []


class TestDET002:
    def test_out_aliasing_input_of_non_elementwise(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            import numpy as np
            def bad(a, b):
                np.cumsum(a, out=a)
        """})
        assert rule_ids(report) == ["DET002"]

    def test_out_aliasing_through_view(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            import numpy as np
            def bad(a, b):
                view = a[1:]
                np.matmul(a, b, out=view)
        """})
        assert "DET002" in rule_ids(report)

    def test_elementwise_out_aliasing_is_fine(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            import numpy as np
            def clamp(a):
                np.clip(a, 0.0, None, out=a)
                np.maximum(a, 0.0, out=a)
        """})
        assert report.findings == []

    def test_fresh_out_array_is_fine(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            import numpy as np
            def ok(a, b, scratch):
                np.matmul(a, b, out=scratch)
        """})
        assert report.findings == []


class TestDET003:
    def test_narrow_cast_feeding_accumulation(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def drift(x):
                small = x.astype("float32")
                total = small + x
                return total
        """})
        assert rule_ids(report) == ["DET003"]

    def test_narrow_constructor_feeding_augassign(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            import numpy as np
            def drift(x):
                acc = np.float32(0.0)
                acc += x
                return acc
        """})
        assert "DET003" in rule_ids(report)

    def test_narrow_output_boundary_is_fine(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def save(x):
                packed = x.astype("float32")
                return packed
        """})
        assert report.findings == []


class TestDET004:
    def test_unseeded_rng_on_campaign_path_is_error(self, tmp_path):
        report = analyze(tmp_path, {"resilience/campaign.py": """
            import numpy as np
            def run_campaign(config):
                rng = np.random.default_rng()
                return rng.random()
        """})
        hits = report.by_rule("DET004")
        assert hits and hits[0].severity == "error"

    def test_reachable_helper_inherits_error(self, tmp_path):
        report = analyze(tmp_path, {
            "resilience/campaign.py": """
                def run_campaign(config):
                    return jitter()
            """,
            "util.py": """
                import numpy as np
                def jitter():
                    return np.random.default_rng().random()
            """,
        })
        hits = report.by_rule("DET004")
        assert hits and hits[0].severity == "error"

    def test_off_path_rng_is_warning(self, tmp_path):
        report = analyze(tmp_path, {"plotting.py": """
            import numpy as np
            def scatter_colors(n):
                return np.random.rand(n)
        """})
        hits = report.by_rule("DET004")
        assert hits and hits[0].severity == "warning"

    def test_seeded_rng_is_clean(self, tmp_path):
        report = analyze(tmp_path, {"resilience/campaign.py": """
            import numpy as np
            def run_campaign(config):
                rng = np.random.default_rng(config.seed)
                return rng.random()
        """})
        assert report.by_rule("DET004") == []


class TestDET005:
    def test_wall_clock_into_fingerprint_hash(self, tmp_path):
        report = analyze(tmp_path, {"checkpoint.py": """
            import time, hashlib
            def campaign_fingerprint(t_eval):
                stamp = time.time()
                digest = hashlib.sha256()
                digest.update(str(stamp).encode())
                return digest.hexdigest()
        """})
        hits = report.by_rule("DET005")
        # The raw time.time() read also draws the boundary warning;
        # the taint flow itself must still be an error.
        assert any(hit.severity == "error" for hit in hits)

    def test_direct_wall_clock_argument(self, tmp_path):
        report = analyze(tmp_path, {"checkpoint.py": """
            import time, hashlib
            def stamp():
                return hashlib.sha256(str(time.time()).encode())
        """})
        assert "DET005" in rule_ids(report)

    def test_wall_clock_into_result_array(self, tmp_path):
        report = analyze(tmp_path, {"engine.py": """
            import time
            def record(results, row):
                finished = time.perf_counter()
                results[row] = finished
        """})
        assert "DET005" in rule_ids(report)

    #: The sanctioned clock facade every boundary test routes through.
    CLOCK = """
        import time
        def monotonic():
            return time.perf_counter()
        def walltime():
            return time.time()
    """

    def test_elapsed_seconds_attribute_is_fine(self, tmp_path):
        report = analyze(tmp_path, {
            "telemetry/clock.py": self.CLOCK,
            "engine.py": """
                from telemetry import clock
                def run(report):
                    started = clock.monotonic()
                    elapsed = clock.monotonic() - started
                    report.elapsed_seconds = elapsed
                    report.metadata.update({"elapsed": elapsed})
                    return report
            """})
        assert report.findings == []

    def test_sanctioned_clock_taints_result_arrays(self, tmp_path):
        """clock.monotonic() values are tracked exactly like time.*:
        storing one into a result array still fires DET005."""
        report = analyze(tmp_path, {
            "telemetry/clock.py": self.CLOCK,
            "engine.py": """
                from telemetry import clock
                def record(results, row):
                    finished = clock.monotonic()
                    results[row] = finished
            """})
        assert "DET005" in rule_ids(report)

    def test_sanctioned_clock_taints_checkpoint_payloads(self, tmp_path):
        report = analyze(tmp_path, {
            "telemetry/clock.py": self.CLOCK,
            "campaign.py": """
                from telemetry import clock
                def journal(checkpoint, index):
                    stamp = clock.walltime()
                    checkpoint.set_payload("when", stamp)
            """})
        assert "DET005" in rule_ids(report)

    def test_sanctioned_clock_taints_fingerprints(self, tmp_path):
        report = analyze(tmp_path, {
            "telemetry/clock.py": self.CLOCK,
            "checkpoint.py": """
                from telemetry import clock
                def campaign_fingerprint(model):
                    stamp = clock.walltime()
                    return {"model": model.name, "stamp": stamp}
            """})
        assert "DET005" in rule_ids(report)

    def test_raw_clock_outside_boundary_is_flagged(self, tmp_path):
        """A raw time.* read anywhere but the clock module is an
        untracked wall-clock source: DET005 warning."""
        report = analyze(tmp_path, {"engine.py": """
            import time
            def run(report):
                report.elapsed_seconds = time.perf_counter()
        """})
        hits = report.by_rule("DET005")
        assert hits and hits[0].severity == "warning"
        assert "boundary" in hits[0].message

    def test_clock_module_itself_is_exempt(self, tmp_path):
        report = analyze(tmp_path,
                         {"telemetry/clock.py": self.CLOCK})
        assert report.by_rule("DET005") == []


class TestDET006:
    def test_set_iteration_feeding_append(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def order_rows(rows):
                pending = set(rows)
                ordered = []
                for row in pending:
                    ordered.append(row)
                return ordered
        """})
        assert rule_ids(report) == ["DET006"]

    def test_set_literal_iteration_subscript_store(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def fill(out):
                for i, status in enumerate({1, 2, 3}):
                    out[i] = status
        """})
        # direct literal iteration (the enumerate wrapper hides it)
        report2 = analyze(tmp_path, {"mod2.py": """
            def fill(out, i):
                for status in {1, 2, 3}:
                    out[i] = status
        """})
        assert "DET006" in rule_ids(report2)

    def test_sorted_set_is_fine(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def order_rows(rows):
                ordered = []
                for row in sorted(set(rows)):
                    ordered.append(row)
                return ordered
        """})
        assert report.by_rule("DET006") == []

    def test_membership_only_loop_is_fine(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def total(rows):
                count = 0
                for row in set(rows):
                    count += 1
                return count
        """})
        assert report.by_rule("DET006") == []


class TestCON001:
    def test_guard_handler_removal_in_real_engine(self, tmp_path):
        """Stripping the GUARD re-stamping out of the engine's
        quarantine path must fire CON001 on the GUARD status code."""
        files = {
            "gpu/batch_result.py":
                (REPO_GPU / "batch_result.py").read_text(),
            "gpu/engine.py": re.sub(
                r"\bGUARD\b", "OK",
                (REPO_GPU / "engine.py").read_text()),
        }
        report = analyze(tmp_path, files)
        guard_hits = [f for f in report.by_rule("CON001")
                      if "GUARD" in f.message]
        assert guard_hits and guard_hits[0].severity == "error"

    def test_real_engine_pair_handles_guard(self, tmp_path):
        files = {
            "gpu/batch_result.py":
                (REPO_GPU / "batch_result.py").read_text(),
            "gpu/engine.py": (REPO_GPU / "engine.py").read_text(),
        }
        report = analyze(tmp_path, files)
        assert not [f for f in report.by_rule("CON001")
                    if "GUARD" in f.message]

    def test_synthetic_unhandled_status(self, tmp_path):
        report = analyze(tmp_path, {
            "result.py": """
                OK = 1
                LOST = 9
                STATUS_NAMES = {OK: "success", LOST: "lost"}
            """,
            "consumer.py": """
                from result import OK
                def is_ok(code):
                    return code == OK
            """,
        })
        hits = report.by_rule("CON001")
        assert len(hits) == 1 and "LOST" in hits[0].message


class TestCON002:
    def test_unconsumed_injection_field(self, tmp_path):
        report = analyze(tmp_path, {
            "faults.py": """
                from dataclasses import dataclass, replace

                @dataclass(frozen=True)
                class FaultPlan:
                    nan_rows: tuple = ()
                    orphan_field: int = 0

                    @property
                    def injects_nan(self):
                        return bool(self.nan_rows)

                    def for_chunk(self, offset):
                        return replace(self, nan_rows=self.nan_rows,
                                       orphan_field=self.orphan_field)
            """,
            "integrator.py": """
                def apply(plan, y):
                    if plan.injects_nan:
                        y[:] = float("nan")
            """,
        })
        hits = report.by_rule("CON002")
        assert len(hits) == 1 and "orphan_field" in hits[0].message

    def test_accessor_mediated_consumption_counts(self, tmp_path):
        report = analyze(tmp_path, {
            "faults.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class FaultPlan:
                    nan_rows: tuple = ()

                    @property
                    def injects_nan(self):
                        return bool(self.nan_rows)
            """,
            "integrator.py": """
                def apply(plan, y):
                    if plan.injects_nan:
                        y[:] = float("nan")
            """,
        })
        assert report.by_rule("CON002") == []

    def test_shipped_fault_plan_fully_consumed(self, package_lint_report):
        report = package_lint_report
        assert report.by_rule("CON002") == []

    def test_orphan_scheduler_fault_field(self, tmp_path):
        """Reintroducing a sched_* fault field nothing consumes (the
        service-layer regression CON002 now guards) must fire."""
        report = analyze(tmp_path, {
            "faults.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class FaultPlan:
                    sched_kill_jobs: tuple = ()
                    sched_starve_jobs: tuple = ()

                    def kills_job(self, index, attempt):
                        return index in self.sched_kill_jobs
            """,
            "service.py": """
                def supervise(plan, job):
                    if plan.kills_job(job.index, job.attempts):
                        job.fail()
            """,
        })
        hits = report.by_rule("CON002")
        assert len(hits) == 1 and "sched_starve_jobs" in hits[0].message


class TestCON003:
    def test_never_raised_exception(self, tmp_path):
        report = analyze(tmp_path, {
            "errors.py": """
                class BaseError(Exception):
                    pass

                class NeverRaised(BaseError):
                    pass
            """,
            "impl.py": """
                from errors import BaseError
                def f():
                    try:
                        raise BaseError("boom")
                    except BaseError:
                        pass
            """,
        })
        hits = report.by_rule("CON003")
        assert len(hits) == 1 and "NeverRaised" in hits[0].message

    def test_raised_but_uncaught_undocumented(self, tmp_path):
        report = analyze(tmp_path, {
            "errors.py": """
                class Orphan(Exception):
                    pass
            """,
            "impl.py": """
                from errors import Orphan
                def f():
                    raise Orphan("boom")
            """,
        })
        hits = report.by_rule("CON003")
        assert len(hits) == 1 and "Orphan" in hits[0].message

    def test_caught_via_base_class_is_fine(self, tmp_path):
        report = analyze(tmp_path, {
            "errors.py": """
                class BaseError(Exception):
                    pass

                class Leaf(BaseError):
                    pass
            """,
            "impl.py": """
                from errors import BaseError, Leaf
                def f():
                    try:
                        raise Leaf("boom")
                    except BaseError:
                        pass
            """,
        })
        assert report.by_rule("CON003") == []


class TestCON004:
    def test_stale_deep_waiver_reported(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def f(x):
                # lint: skip=DET001 -- defect long gone
                return x + 1
        """})
        assert rule_ids(report) == ["CON004"]

    def test_consumed_waiver_not_reported(self, tmp_path):
        report = analyze(tmp_path, {"gpu/batch_x.py": """
            import numpy as np
            def f(w, k):
                # lint: skip=DET001 -- measured: width-stable here
                return np.tensordot(w, k, axes=(0, 0))
        """})
        assert report.findings == []
        assert report.metadata["waived"] == 1

    def test_shallow_waivers_are_not_deep_business(self, tmp_path):
        report = analyze(tmp_path, {"mod.py": """
            def f(rows, y):
                for row in rows:  # lint: skip=KRN001 -- shallow rule
                    y[row] = 0.0
        """})
        assert report.by_rule("CON004") == []

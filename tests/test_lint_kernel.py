"""Tests for the kernel vectorization linter (rules KRN001-KRN005).

One positive and one negative snippet per rule, the waiver-pragma
contract, ``lint_callable`` over a live function, and the self-lint
gate: the repo's own shipped batch kernels must stay clean (modulo
explicitly waived findings) — this test IS the vectorization regression
guard the ISSUE asks for.
"""

import textwrap

import pytest

from repro.errors import LintError
from repro.lint import (KERNEL_RULES, lint_callable, lint_file,
                        lint_kernels, lint_source, shipped_kernel_paths)


def findings(source, rule_id):
    report = lint_source(textwrap.dedent(source), "snippet.py")
    return report.by_rule(rule_id)


class TestBatchLoops:
    def test_krn001_range_over_batch_size(self):
        hits = findings("""
            def step(state, batch_size):
                for i in range(batch_size):
                    state[i] = state[i] * 2
        """, "KRN001")
        assert len(hits) == 1
        assert "batch_size" in hits[0].message

    def test_krn001_iterating_row_index_array(self):
        hits = findings("""
            def repair(y, rows):
                for row in rows:
                    y[row] += 1
        """, "KRN001")
        assert hits and hits[0].severity == "error"

    def test_krn001_iterating_flatnonzero(self):
        hits = findings("""
            def clip(y, mask):
                for idx in np.flatnonzero(mask):
                    y[idx] = 0.0
        """, "KRN001")
        assert len(hits) == 1
        assert "flatnonzero" in hits[0].message

    def test_krn001_while_on_batch_extent(self):
        hits = findings("""
            def drain(n_sims, y):
                done = 0
                while done < n_sims:
                    done += 1
        """, "KRN001")
        assert len(hits) == 1

    def test_krn001_silent_on_stage_and_newton_loops(self):
        clean = """
            def integrate(tableau, y, max_iterations):
                for stage in range(1, tableau.n_stages):
                    y = y + stage
                for iteration in range(max_iterations):
                    y = y * 0.5
                while True:
                    break
                return y
        """
        assert not findings(clean, "KRN001")


class TestScalarExtraction:
    def test_krn002_item_in_loop(self):
        hits = findings("""
            def reduce(values, errs):
                for iteration in range(10):
                    worst = errs.max().item()
                return worst
        """, "KRN002")
        assert len(hits) == 1

    def test_krn002_float_subscript_in_comprehension(self):
        hits = findings("""
            def collect(err, active):
                return {i: float(err[i]) for i in active}
        """, "KRN002")
        assert len(hits) == 1

    def test_krn002_silent_outside_loops(self):
        assert not findings("""
            def summary(err):
                return err.max().item()
        """, "KRN002")


class TestNarrowDtypes:
    def test_krn003_dtype_attribute(self):
        hits = findings("""
            def alloc(n):
                return np.zeros(n, dtype=np.float32)
        """, "KRN003")
        assert len(hits) == 1
        assert "float32" in hits[0].message

    def test_krn003_dtype_string_and_astype(self):
        hits = findings("""
            def shrink(y):
                a = np.zeros(3, dtype="float16")
                return y.astype("float32"), a
        """, "KRN003")
        assert len(hits) == 2

    def test_krn003_no_double_report_per_site(self):
        hits = findings("""
            def alloc(n):
                return np.ones(n, dtype=np.float32)
        """, "KRN003")
        assert len(hits) == 1

    def test_krn003_silent_on_float64(self):
        assert not findings("""
            def alloc(n):
                return np.zeros(n, dtype=np.float64)
        """, "KRN003")


class TestViewWrites:
    def test_krn004_write_through_basic_slice_view(self):
        hits = findings("""
            def touch(y):
                head = y[0:3]
                head[0] = 1.0
        """, "KRN004")
        assert len(hits) == 1
        assert "view" in hits[0].message

    def test_krn004_negative_index_is_a_view(self):
        hits = findings("""
            def touch(states):
                last = states[-1]
                last[0] = 0.0
        """, "KRN004")
        assert len(hits) == 1
        assert "view" in hits[0].message

    def test_krn004_write_through_fancy_copy(self):
        hits = findings("""
            def lost(y, rows):
                chunk = y[rows]
                chunk[0] = 1.0
        """, "KRN004")
        assert len(hits) == 1
        assert "copies" in hits[0].message

    def test_krn004_rebinding_clears_tracking(self):
        assert not findings("""
            def fine(y, rows):
                chunk = y[rows]
                chunk = chunk * 2.0
                chunk[0] = 1.0
        """, "KRN004")

    def test_krn004_direct_write_is_fine(self):
        assert not findings("""
            def fine(y, rows):
                y[rows] = 0.0
        """, "KRN004")


class TestScipyCalls:
    def test_krn005_imported_name(self):
        hits = findings("""
            from scipy.integrate import solve_ivp

            def slow(fun, t_span, y0):
                return solve_ivp(fun, t_span, y0)
        """, "KRN005")
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_krn005_module_attribute_call(self):
        hits = findings("""
            import scipy.optimize

            def root(f):
                return scipy.optimize.brentq(f, 0.0, 1.0)
        """, "KRN005")
        assert len(hits) == 1

    def test_krn005_silent_on_vectorized_linalg(self):
        assert not findings("""
            from scipy.linalg import lu_factor

            def decompose(a):
                return lu_factor(a)
        """, "KRN005")

    def test_krn005_silent_on_unrelated_solve_ivp_name(self):
        # A local helper that merely shares the name is not scipy.
        assert not findings("""
            def run(solve_ivp, y):
                return solve_ivp(y)
        """, "KRN005")


class TestWaivers:
    def test_pragma_on_flagged_line(self):
        source = """
            def repair(y, rows):
                for row in rows:  # lint: skip=KRN001 -- tiny failed subset
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert not report.by_rule("KRN001")
        assert report.metadata["waived"] == 1

    def test_pragma_on_preceding_line(self):
        source = """
            def repair(y, rows):
                # lint: skip=KRN001 -- tiny failed subset
                for row in rows:
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert not report.by_rule("KRN001")
        assert report.metadata["waived"] == 1

    def test_pragma_waives_only_named_rules(self):
        source = """
            def repair(y, rows):
                for row in rows:  # lint: skip=KRN002 -- wrong rule
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.by_rule("KRN001")
        assert report.metadata["waived"] == 0

    def test_pragma_two_lines_up_does_not_cover(self):
        source = """
            def repair(y, rows):
                # lint: skip=KRN001 -- too far away
                # another comment in between
                for row in rows:
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.by_rule("KRN001")


class TestStaleWaivers:
    def test_unused_pragma_emits_lnt000(self):
        source = """
            def fine(y):
                # lint: skip=KRN001 -- the loop this excused is gone
                return y * 2
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        hits = report.by_rule("LNT000")
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert "KRN001" in hits[0].message
        # the listing names the file and pragma line for removal
        assert hits[0].location.startswith("snippet.py:")

    def test_consumed_pragma_is_not_stale(self):
        source = """
            def repair(y, rows):
                for row in rows:  # lint: skip=KRN001 -- tiny subset
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.by_rule("LNT000") == []

    def test_wrong_rule_pragma_is_stale(self):
        source = """
            def repair(y, rows):
                for row in rows:  # lint: skip=KRN002 -- wrong rule
                    y[row] += 1
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.by_rule("KRN001")  # still reported
        assert len(report.by_rule("LNT000")) == 1

    def test_pragma_example_in_docstring_is_ignored(self):
        source = '''
            def documented(y):
                """Waive with a pragma::

                    # lint: skip=KRN001 -- justification
                """
                return y * 2
        '''
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.findings == []

    def test_shipped_kernels_carry_no_stale_waivers(self):
        report = lint_kernels()
        assert report.by_rule("LNT000") == [], report.render_text()

    def test_deep_waivers_are_not_shallow_business(self):
        source = """
            def fine(y):
                # lint: skip=DET001 -- deep-analyzer waiver
                return y * 2
        """
        report = lint_source(textwrap.dedent(source), "snippet.py")
        assert report.by_rule("LNT000") == []


class TestEntryPoints:
    def test_lint_callable_flags_a_live_function(self):
        def bad_rhs(times, states, rows):
            total = 0.0
            for row in rows:
                total += states[row].sum()
            return total

        report = lint_callable(bad_rhs)
        assert report.by_rule("KRN001")

    def test_lint_callable_rejects_builtins(self):
        with pytest.raises(LintError):
            lint_callable(len)

    def test_lint_source_rejects_broken_syntax(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n    pass")

    def test_lint_file_rejects_missing_path(self):
        with pytest.raises(LintError):
            lint_file("/nonexistent/kernel.py")


class TestSelfLint:
    def test_shipped_kernels_discovered(self):
        names = {path.name for path in shipped_kernel_paths()}
        assert {"batch_bdf.py", "batch_dopri5.py", "batch_radau5.py",
                "batch_result.py", "working_set.py"} <= names

    def test_self_lint_gate(self):
        """The pytest-enforced vectorization gate from the ISSUE: the
        repo's own batch solvers carry no unwaived warning+ finding."""
        report = lint_kernels()
        offending = report.at_or_above("warning")
        assert not offending, report.render_text()

    def test_self_lint_waivers_are_bounded(self):
        # The shipped kernels carry no waiver: a waiver now means a new
        # scalar loop crept in.
        report = lint_kernels()
        assert report.metadata["waived"] == 0

    def test_rule_registry_is_consistent(self):
        for rule_id, (severity, description) in KERNEL_RULES.items():
            assert rule_id.startswith("KRN")
            assert severity in ("info", "warning", "error")
            assert description

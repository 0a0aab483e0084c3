"""Static model, kernel and dataflow analysis (`repro lint`).

Three analyses with flake8-style rule IDs and a shared report layer:

* :func:`lint_model` — structural rules ``RBM0xx`` over a
  :class:`~repro.model.rbm.ReactionBasedModel` (+ optional
  :class:`~repro.model.parameterization.Parameterization`): dead and
  unproducible species, disconnected networks, duplicate and zero-flux
  reactions, degenerate rate constants, empty conserved pools and a
  static stiffness-risk score.
* :func:`lint_kernels` / :func:`lint_source` / :func:`lint_callable` —
  shallow ``ast``-based vectorization rules ``KRN0xx`` over
  batch-kernel source: Python loops over the batch axis,
  per-simulation scalar extraction, narrow dtypes, writes through
  subscript-derived arrays and scalar scipy calls. Stale waiver
  pragmas are reported as ``LNT000``.
* :func:`lint_project` — the project analysis (``repro lint --deep
  --shapes --conc``): one :class:`~repro.lint.dataflow.ProjectIndex`
  (per-function CFGs, def-use chains, alias sets, a project call
  graph) over the package source, and the check tables of the
  selected rule families run over it, configured by one
  :class:`LintConfig` and gated by one committed baseline
  (:data:`DEFAULT_BASELINE`, empty) that may only shrink:

  - ``deep`` — determinism rules ``DET001``–``DET006`` and
    cross-layer contract rules ``CON001``–``CON004``;
  - ``shapes`` — an abstract interpreter propagating symbolic axis
    lengths (B batch, S species, R reactions, K stages) and dtypes
    through def-use chains powers the shape rules
    ``SHP001``–``SHP006``, next to the backend-conformance rules
    ``BKD001``–``BKD003``;
  - ``conc`` — a sync-primitive registry, call-only call graph,
    execution-context closures (event loop, thread targets,
    ``to_thread`` offloads) and a lexical lock-held abstract state
    power the async/thread/process rules ``CNC001``–``CNC009`` over
    the serving stack.

:func:`lint_gate` is the one-call pre-sweep guard used by the PSA / SA
/ PE hooks: it raises :class:`~repro.errors.LintGateError` when a
model lints at or above the configured severity.
"""

from __future__ import annotations

from ..errors import LintError, LintGateError
from ..model import Parameterization, ReactionBasedModel
from .kernel_rules import (KERNEL_RULES, lint_callable, lint_file,
                           lint_kernels, lint_source, shipped_kernel_paths)
from .model_rules import (MODEL_RULES, STIFFNESS_RISK_DECADES, lint_model,
                          stiffness_risk_score)
from .project import (DEFAULT_BASELINE, FAMILIES, LintConfig,
                      lint_project, package_source_files, write_baseline)
from .registry import (CONC_RULES, DEEP_RULES, META_RULES, SHAPE_RULES,
                       RuleInfo, iter_rules, render_rule_table, rule_info)
from .report import (SEVERITIES, LintFinding, LintReport, severity_rank)

#: Every shipped rule ID -> (default severity, one-line description).
ALL_RULES = {**MODEL_RULES, **KERNEL_RULES, **DEEP_RULES, **SHAPE_RULES,
             **CONC_RULES, **META_RULES}


def lint_gate(model: ReactionBasedModel,
              parameterization: Parameterization | None = None,
              fail_on: str = "error") -> LintReport:
    """Lint a model and raise :class:`LintGateError` at/above
    ``fail_on``.

    Used by the analysis entry points (``run_psa_1d``, ``run_psa_2d``,
    ``run_sobol_sa``, :class:`~repro.core.pe.ParameterEstimation`) to
    refuse launching an expensive sweep on a structurally broken model.
    Returns the report when the model passes, so callers can still read
    the metadata (e.g. the stiffness-risk score). The raised error is a
    :class:`~repro.errors.LintGateError` (a :class:`LintError`
    subclass) carrying the report, so callers and the CLI can tell a
    gate rejection from an analyzer crash.
    """
    report = lint_model(model, parameterization)
    offending = report.at_or_above(fail_on)
    if offending:
        rendered = "; ".join(finding.render() for finding in offending)
        raise LintGateError(
            f"model {model.name!r} fails static analysis with "
            f"{len(offending)} finding(s) at or above {fail_on!r}: "
            f"{rendered}", report=report)
    return report


__all__ = [
    "ALL_RULES", "CONC_RULES", "DEEP_RULES", "KERNEL_RULES",
    "META_RULES", "MODEL_RULES", "SHAPE_RULES",
    "DEFAULT_BASELINE", "FAMILIES", "LintConfig",
    "LintError", "LintFinding", "LintGateError", "LintReport",
    "RuleInfo", "SEVERITIES", "severity_rank",
    "STIFFNESS_RISK_DECADES",
    "iter_rules", "lint_callable", "lint_file", "lint_gate",
    "lint_kernels", "lint_model", "lint_project", "lint_source",
    "package_source_files", "render_rule_table", "rule_info",
    "shipped_kernel_paths", "stiffness_risk_score", "write_baseline",
]

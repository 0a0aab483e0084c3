"""Findings, severities and reports of the static-analysis pass.

Every linter in :mod:`repro.lint` produces :class:`LintFinding` records
(flake8-style: a stable rule ID, a severity, a message and a location)
collected into a :class:`LintReport` that renders as plain text or JSON
and decides exit codes against a configurable severity threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import LintError

#: Severities in increasing order of gravity.
SEVERITIES = ("info", "warning", "error")

_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (higher is graver)."""
    try:
        return _RANK[severity]
    except KeyError:
        raise LintError(f"unknown severity {severity!r}; expected one of "
                        f"{SEVERITIES}") from None


@dataclass(frozen=True)
class LintFinding:
    """One static-analysis finding.

    Attributes
    ----------
    rule_id:
        Stable identifier, ``RBM0xx`` for model rules and ``KRN0xx``
        for kernel rules.
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable description of the defect.
    location:
        Where the defect lives: ``model:species[X]``,
        ``model:reaction[3]`` or ``file.py:42``.
    hint:
        Optional remediation advice.
    """

    rule_id: str
    severity: str
    message: str
    location: str
    hint: str = ""

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validate eagerly

    def render(self) -> str:
        text = f"{self.location}: {self.severity} {self.rule_id}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text

    def to_dict(self) -> dict:
        record = {"rule_id": self.rule_id, "severity": self.severity,
                  "message": self.message, "location": self.location}
        if self.hint:
            record["hint"] = self.hint
        return record


@dataclass
class LintReport:
    """Collected findings of one lint run over one subject.

    ``metadata`` carries analyzer by-products that are useful beyond
    pass/fail — e.g. the static stiffness-risk score, or the number of
    waived findings.
    """

    subject: str
    findings: list[LintFinding] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, rule_id: str, severity: str, message: str,
            location: str, hint: str = "") -> None:
        self.findings.append(
            LintFinding(rule_id, severity, message, location, hint))

    def extend(self, other: "LintReport") -> None:
        """Merge another report's findings and metadata into this one."""
        self.findings.extend(other.findings)
        self.metadata.update(other.metadata)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.findings)

    def by_rule(self, rule_id: str) -> list[LintFinding]:
        return [f for f in self.findings if f.rule_id == rule_id]

    def rule_ids(self) -> set[str]:
        return {f.rule_id for f in self.findings}

    def counts(self) -> dict[str, int]:
        """Finding counts per severity (zero-filled)."""
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def at_or_above(self, severity: str) -> list[LintFinding]:
        threshold = severity_rank(severity)
        return [f for f in self.findings
                if severity_rank(f.severity) >= threshold]

    def exceeds(self, fail_on: str) -> bool:
        """True when any finding reaches the ``fail_on`` severity."""
        return bool(self.at_or_above(fail_on))

    # ------------------------------------------------------------------
    # rendering

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        counts = self.counts()
        summary = ", ".join(f"{counts[s]} {s}(s)" for s in SEVERITIES
                            if counts[s])
        waived = self.metadata.get("waived", 0)
        if waived:
            summary = (summary + ", " if summary else "") \
                + f"{waived} waived"
        if not summary:
            summary = "clean"
        lines.append(f"{self.subject}: {summary}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        # Imported here: the registry aggregates every rule family, so
        # a module-level import would cycle back through this module.
        from .registry import rule_info
        rules = {}
        for rule_id in sorted(self.rule_ids()):
            info = rule_info(rule_id)
            if info is not None:
                rules[rule_id] = {"severity": info.severity,
                                  "family": info.family,
                                  "doc": info.doc}
        return {
            "subject": self.subject,
            "findings": [finding.to_dict() for finding in self.findings],
            "counts": self.counts(),
            "rules": rules,
            "metadata": {key: value for key, value in self.metadata.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=float)

"""Driver of the project analysis (``repro lint --deep/--shapes/--conc``).

Builds one :class:`~repro.lint.dataflow.ProjectIndex` over the package
source (or an explicit file set) and runs the check tables of the
selected rule families over it (:data:`FAMILIES`):

* ``deep`` — the dataflow determinism rules ``DET001``–``DET006``
  (:mod:`repro.lint.deep_rules`) and the cross-layer contract rules
  ``CON001``–``CON004`` (:mod:`repro.lint.contract_rules`);
* ``shapes`` — the symbolic shape/dtype rules ``SHP001``–``SHP006``
  (:mod:`repro.lint.shape_rules`) and the backend-conformance rules
  ``BKD001``–``BKD003`` (:mod:`repro.lint.backend_rules`);
* ``conc`` — the concurrency-safety rules ``CNC001``–``CNC009``
  (:mod:`repro.lint.conc_rules` over :mod:`repro.lint.concurrency`).

It then applies waiver pragmas and the committed baseline, and reports
stale waivers (``CON004`` for the deep family, ``LNT000`` for the
others) and stale baseline entries (``LNT001``) so both can only
shrink.

Baseline workflow
-----------------
The committed baseline (:data:`DEFAULT_BASELINE`, shipped empty) lists
findings that are accepted by design. A run only reads the entries of
its selected families. Each such entry cancels at most one matching
finding — matched by ``(rule, file, message)`` — and entries that match
nothing become ``LNT001`` findings, which is the ratchet: deleting code
that fixes a baselined finding forces the baseline file to shrink with
it. Regenerate with :func:`write_baseline` (or ``repro lint --deep
--write-baseline``), which rewrites only the selected families' entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from ..errors import LintError
from .backend_rules import BKD_CHECKS
from .conc_rules import CNC_CHECKS
from .contract_rules import CON_CHECKS
from .dataflow import ModuleInfo, ProjectIndex
from .deep_rules import DET_CHECKS
from .registry import CONC_RULES, DEEP_RULES, META_RULES, SHAPE_RULES
from .report import LintReport
from .shape_rules import SHP_CHECKS

#: Baseline shipped next to this module, applied by default when the
#: analysis root is the repro package itself. Committed empty.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

BASELINE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Family:
    """One rule family of the project analysis."""

    #: Check tables (rule id -> ``check(index, config, emit)``), run
    #: in order.
    checks: tuple[dict, ...]
    #: Rule id -> (default severity, one-line description).
    rules: dict
    #: Rule-ID prefixes the family owns: its waivers and its baseline
    #: entries.
    prefixes: tuple[str, ...]
    #: Rule ID a stale waiver of the family is reported under.
    stale_waiver_rule: str


#: Every rule family, in the order a run executes them.
FAMILIES = {
    "deep": Family((DET_CHECKS, CON_CHECKS), DEEP_RULES, ("DET", "CON"),
                   "CON004"),
    "shapes": Family((SHP_CHECKS, BKD_CHECKS), SHAPE_RULES,
                     ("SHP", "BKD"), "LNT000"),
    "conc": Family((CNC_CHECKS,), CONC_RULES, ("CNC",), "LNT000"),
}


@dataclass(frozen=True)
class LintConfig:
    """Project-shape knobs of every rule family.

    The defaults encode this repository's layout and conventions;
    tests override them to point the rules at synthetic trees.
    """

    # -- deep: determinism and contract rules --------------------------

    #: Module globs whose stage math DET001 audits for width-dependent
    #: reductions (matched against relpath and basename; the bare
    #: ``batch_*.py`` entry covers single-file CLI invocations where
    #: the report root is the file's own directory).
    kernel_globs: tuple[str, ...] = ("gpu/batch_*.py", "batch_*.py")
    #: Module globs whose functions root the DET004 campaign/checkpoint
    #: reachability query.
    campaign_globs: tuple[str, ...] = ("resilience/*.py",
                                      "io/checkpoint.py")
    #: Function-name prefixes that also root the DET004 query.
    campaign_prefixes: tuple[str, ...] = ("run_",)
    #: Frozen contract dataclasses CON002 audits field-by-field.
    contract_classes: tuple[str, ...] = ("FaultPlan",)
    #: Name of the status-code table CON001 audits.
    status_dict_name: str = "STATUS_NAMES"
    #: Relpath suffix identifying the exception-taxonomy module.
    errors_module: str = "errors.py"
    #: Module globs of the sanctioned wall-clock boundary
    #: (:mod:`repro.telemetry.clock`): raw ``time.*`` / ``datetime``
    #: reads anywhere *else* are a DET005 warning, which is what keeps
    #: the taint analysis sound — every clock read funnels through one
    #: auditable module.
    clock_modules: tuple[str, ...] = ("telemetry/clock.py", "clock.py")
    #: Terminal call names that read the sanctioned clock; DET005
    #: treats them as wall-clock taint sources exactly like ``time.*``.
    clock_calls: tuple[str, ...] = ("monotonic", "walltime")

    # -- shapes: shape/dtype and backend-conformance rules -------------

    #: Module globs the symbolic shape interpreter analyzes (matched
    #: against relpath and basename; the bare entries cover single-file
    #: CLI invocations where the report root is the file's directory).
    shape_globs: tuple[str, ...] = ("gpu/*.py", "solvers/*.py",
                                    "batch_*.py")
    #: Module globs whose function parameters are seeded from the
    #: batched-kernel naming conventions (``states`` -> (B, S), ...).
    #: Everything else starts unknown — conservative by construction.
    seed_globs: tuple[str, ...] = ("gpu/*.py", "batch_*.py")
    #: Module globs the backend-conformance rules police (the bare
    #: ``batch_*.py`` entry covers single-file CLI invocations where
    #: the report root is the file's own directory).
    gpu_globs: tuple[str, ...] = ("gpu/*.py", "batch_*.py")
    #: Module globs exempt from conformance (the substrate itself).
    backend_globs: tuple[str, ...] = ("backend/*.py",
                                      "numpy_backend.py",
                                      "protocol.py")
    #: Local name of the backend namespace inside kernels.
    backend_name: str = "xp"
    #: Op surface BKD003 checks ``xp.<op>`` reads against. ``None``
    #: means the live protocol (:data:`repro.backend.protocol
    #: .REQUIRED_OPS`), so protocol and consumers cannot drift apart.
    backend_ops: tuple[str, ...] | None = None

    # -- conc: concurrency-safety rules --------------------------------

    #: Call terminals that move a callable off the event loop; their
    #: callable argument does not become a call edge (CNC001) and
    #: roots a worker-thread context (CNC005).
    offload_wrappers: tuple[str, ...] = ("to_thread", "run_in_executor")
    #: Constructor terminals whose ``target=`` keyword roots a thread
    #: context instead of creating a call edge.
    thread_spawners: tuple[str, ...] = ("Thread",)
    #: Constructor terminals whose ``target=`` runs in a *separate
    #: address space*: no call edge, and no racing context either —
    #: a child process's writes cannot race the parent's memory.
    process_spawners: tuple[str, ...] = ("Process",)
    #: Call terminals that legitimately consume a coroutine object
    #: without an immediate ``await`` (CNC004 escapes).
    task_wrappers: tuple[str, ...] = (
        "create_task", "ensure_future", "gather", "wait", "wait_for",
        "shield", "run", "run_until_complete",
        "run_coroutine_threadsafe", "as_completed", "to_thread")
    #: Project entry points that run a whole blocking campaign; calling
    #: one directly from a coroutine stalls the loop for its duration.
    loop_blocking_calls: tuple[str, ...] = ("run_campaign",
                                            "run_sharded")
    #: Call terminals that block on the filesystem or a socket. The
    #: set is deliberately high-signal: generic ``.write``/``.read``/
    #: ``.close`` terminals are everywhere in non-blocking APIs
    #: (``StreamWriter.write``) and would drown the rule in noise.
    blocking_io_calls: tuple[str, ...] = (
        "open", "mkdir", "unlink", "rmtree", "read_text", "write_text",
        "read_bytes", "write_bytes", "urlopen", "accept", "recv",
        "recv_into", "getaddrinfo", "create_connection", "loadtxt",
        "savetxt", "parse")
    #: Module-path prefixes CNC005's multi-context trigger applies to:
    #: the subsystems whose objects genuinely span the event loop,
    #: worker threads and offloads. Outside them, cross-context
    #: reachability of a constructor-style method (building a model on
    #: two different worker threads) says nothing about *sharing one
    #: instance*, and the trigger would drown in false positives. The
    #: lock-discipline trigger stays global.
    shared_state_modules: tuple[str, ...] = ("service/", "resilience/",
                                             "telemetry/", "io/")
    #: Parameter names identifying the executor message protocol's
    #: routing token and its payload (CNC008).
    protocol_token_params: tuple[str, ...] = ("token",)
    protocol_payload_params: tuple[str, ...] = ("payload",
                                                "task_message")
    #: Name fragment of the staleness field a protocol consumer must
    #: compare before touching the payload.
    protocol_guard_names: tuple[str, ...] = ("generation",)
    #: Constructor terminals that make an object unsafe to send across
    #: a multiprocessing queue / fork boundary when a class closes
    #: over one (CNC007): live handles, sockets, locks, tracers.
    unpicklable_ctors: tuple[str, ...] = (
        "open", "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "create_connection", "socket", "Tracer",
        "JsonlSink")


DEFAULT_CONFIG = LintConfig()


@dataclass
class _Emitter:
    """Waiver-aware finding sink shared by every rule."""

    report: LintReport
    severities: dict
    waived: int = 0

    def __call__(self, rule_id: str, module: ModuleInfo, lineno: int,
                 message: str, hint: str = "",
                 severity: str | None = None) -> None:
        if module.waivers.suppresses(rule_id, lineno):
            self.waived += 1
            return
        default_severity = self.severities.get(rule_id, ("warning",))[0]
        self.report.add(rule_id, severity or default_severity, message,
                        f"{module.relpath}:{lineno}", hint)


def package_source_files(root: Path | None = None) -> list[Path]:
    """Every ``.py`` file of the repro package (the default subject)."""
    package_root = (Path(root) if root is not None
                    else Path(__file__).resolve().parent.parent)
    return sorted(package_root.rglob("*.py"))


def _selected(families) -> list[str]:
    """The requested family names in :data:`FAMILIES` order."""
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise LintError(f"unknown lint families {sorted(unknown)}; "
                        f"expected some of {list(FAMILIES)}")
    return [name for name in FAMILIES if name in families]


def _prefixes(families) -> tuple[str, ...]:
    return tuple(prefix for name in _selected(families)
                 for prefix in FAMILIES[name].prefixes)


def _finding_key(finding) -> tuple[str, str, str]:
    relfile = finding.location.rsplit(":", 1)[0]
    return (finding.rule_id, relfile, finding.message)


def _read_baseline(baseline_path: Path) -> list[dict]:
    """Entries of a baseline file, after format validation."""
    try:
        payload = json.loads(baseline_path.read_text())
    except OSError as error:
        raise LintError(
            f"cannot read baseline {baseline_path}: {error}") from error
    except json.JSONDecodeError as error:
        raise LintError(
            f"baseline {baseline_path} is not valid JSON: "
            f"{error}") from error
    if payload.get("format_version") != BASELINE_FORMAT_VERSION:
        raise LintError(
            f"baseline {baseline_path} has format_version "
            f"{payload.get('format_version')!r}; this analyzer "
            f"understands {BASELINE_FORMAT_VERSION}")
    return payload.get("entries", [])


def _apply_baseline(report: LintReport, baseline_path: Path,
                    prefixes: tuple[str, ...]) -> None:
    budget: dict[tuple[str, str, str], int] = {}
    for entry in _read_baseline(baseline_path):
        if entry["rule"].startswith(prefixes):
            key = (entry["rule"], entry["file"], entry["message"])
            budget[key] = budget.get(key, 0) + 1
    kept = []
    cancelled = 0
    for finding in report.findings:
        key = _finding_key(finding)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            cancelled += 1
        else:
            kept.append(finding)
    report.findings[:] = kept
    for (rule, relfile, message), remaining in sorted(budget.items()):
        for _ in range(remaining):
            report.add(
                "LNT001", "warning",
                f"stale baseline entry: no current finding matches "
                f"{rule} in {relfile} ({message[:60]}...)"
                if len(message) > 60 else
                f"stale baseline entry: no current finding matches "
                f"{rule} in {relfile} ({message})",
                str(baseline_path),
                "regenerate the baseline: it may only shrink")
    report.metadata["baselined"] = cancelled


def lint_project(paths: list[str | Path] | None = None, *,
                 families=tuple(FAMILIES),
                 root: Path | None = None,
                 baseline_path: str | Path | Literal[False] | None = None,
                 config: LintConfig = DEFAULT_CONFIG) -> LintReport:
    """Run the selected rule families over one project index and
    return a :class:`~repro.lint.report.LintReport`.

    Parameters
    ----------
    paths:
        Files to analyze. Default: every module of the installed
        ``repro`` package.
    families:
        Names of the :data:`FAMILIES` to run. Default: all of them.
    root:
        Directory findings are reported relative to. Default: the
        package directory (or the common parent of ``paths``).
    baseline_path:
        Baseline JSON to subtract. Defaults to the committed
        :data:`DEFAULT_BASELINE` when analyzing the package itself; a
        path that does not exist subtracts nothing, and ``False``
        subtracts nothing without looking at any file.
    config:
        Project-shape configuration for the rules.
    """
    selected = _selected(families)
    analyzing_package = paths is None
    if analyzing_package:
        package_root = Path(__file__).resolve().parent.parent
        files = package_source_files(package_root)
        root = package_root if root is None else Path(root)
    else:
        files = [Path(p) for p in paths]
        if root is None:
            root = (files[0].parent if len(files) == 1
                    else Path(_common_parent(files)))
    index = ProjectIndex(files, root=root)
    report = LintReport(
        subject=f"{'+'.join(selected)} analysis: {len(files)} file(s)",
        metadata={"files": [module.relpath for module in index.modules]})
    emit = _Emitter(report, severities={**META_RULES})
    for name in selected:
        emit.severities.update(FAMILIES[name].rules)
    for name in selected:
        for checks in FAMILIES[name].checks:
            for check in checks.values():
                check(index, config, emit)
    # Stale waivers run last: they need the waiver-consumption state
    # left by every rule.
    for name in selected:
        family = FAMILIES[name]
        for module in index.modules:
            for lineno, rule in module.waivers.stale(
                    lambda r: r.startswith(family.prefixes)):
                report.add(family.stale_waiver_rule,
                           emit.severities[family.stale_waiver_rule][0],
                           f"stale waiver: the {rule} pragma on line "
                           f"{lineno} suppresses nothing",
                           f"{module.relpath}:{lineno}",
                           "remove the pragma")
    report.metadata["waived"] = emit.waived
    if baseline_path is None and analyzing_package:
        baseline_path = DEFAULT_BASELINE
    if baseline_path not in (None, False) and Path(baseline_path).exists():
        _apply_baseline(report, Path(baseline_path), _prefixes(selected))
    report.findings.sort(key=lambda f: (f.location, f.rule_id))
    return report


def _common_parent(files: list[Path]) -> Path:
    parents = [file.resolve().parent for file in files]
    common = parents[0]
    for parent in parents[1:]:
        while common != parent and common not in parent.parents \
                and common != common.parent:
            common = common.parent
    return common


def write_baseline(report: LintReport, path: str | Path,
                   families=tuple(FAMILIES)) -> int:
    """Persist a report's findings as the selected families' baseline
    entries; returns their count.

    Entries of the other families already in ``path`` are kept. Meta
    findings (``LNT001`` staleness) are excluded — a baseline must
    never baseline its own staleness.
    """
    path = Path(path)
    prefixes = _prefixes(families)
    kept = ([entry for entry in _read_baseline(path)
             if not entry["rule"].startswith(prefixes)]
            if path.exists() else [])
    entries = []
    for finding in sorted(report.findings,
                          key=lambda f: (f.location, f.rule_id)):
        if not finding.rule_id.startswith(prefixes):
            continue
        rule, relfile, message = _finding_key(finding)
        entries.append({"rule": rule, "file": relfile,
                        "message": message})
    payload = {"format_version": BASELINE_FORMAT_VERSION,
               "entries": sorted(kept + entries,
                                 key=lambda e: (e["file"], e["rule"]))}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)

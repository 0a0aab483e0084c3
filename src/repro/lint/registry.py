"""Unified rule registry: every lint rule with family, severity, docs.

Aggregates the analyzer registries — model rules (``RBM0xx``),
shallow kernel rules (``KRN0xx``), deep dataflow/contract rules
(``DET0xx``/``CON0xx``), symbolic shape/dtype rules (``SHP0xx``),
backend-conformance rules (``BKD0xx``) and concurrency-safety rules
(``CNC0xx``) — plus the meta rules the tooling itself emits
(``LNT0xx``), into :class:`RuleInfo` records
consumed by ``repro lint --list-rules`` and the JSON report's rule
documentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend_rules import BKD_RULES
from .conc_rules import CNC_RULES
from .contract_rules import CON_RULES
from .deep_rules import DET_RULES
from .kernel_rules import KERNEL_RULES
from .model_rules import MODEL_RULES
from .shape_rules import SHP_RULES

#: Meta rules emitted by the lint infrastructure itself.
META_RULES = {
    "LNT000": ("warning", "waiver pragma suppresses nothing (stale "
                          "suppression)"),
    "LNT001": ("warning", "baseline entry no longer matches any "
                          "finding (ratchet: baseline may only "
                          "shrink)"),
}

#: Extended documentation per rule (one short paragraph each).
RULE_DOCS = {
    "RBM001": "A species is referenced by no reaction: it can never "
              "change and inflates the state vector.",
    "RBM002": "A species starts empty and no fireable reaction ever "
              "produces it: its trajectory is identically zero.",
    "RBM003": "A species is produced but never consumed and sits in no "
              "conservation law: it accumulates without bound.",
    "RBM004": "The reaction network splits into structurally "
              "independent sub-models that cannot exchange material.",
    "RBM005": "Two reactions share reactants, products and kinetic "
              "law: their rate constants are unidentifiable.",
    "RBM006": "A reaction can never fire from the initial state: its "
              "flux is identically zero.",
    "RBM007": "A rate constant is numerically invisible next to the "
              "fastest reaction's flux.",
    "RBM008": "A conservation law sums over species that all start at "
              "zero: the conserved pool is frozen for the whole run.",
    "RBM009": "The spread of rate-constant magnitudes predicts "
              "stiffness: explicit solvers will struggle.",
    "KRN001": "A Python for/while loop walks the batch axis: the batch "
              "must be advanced by whole-array NumPy kernels.",
    "KRN002": "A per-simulation scalar is pulled through the "
              "interpreter inside a loop (item()/float(x[i])).",
    "KRN003": "A narrow float dtype appears in a float64 kernel: "
              "mixed-precision expressions promote per element or "
              "truncate solver state.",
    "KRN004": "An in-place write goes through an array bound by "
              "subscripting: basic slices alias the original, fancy "
              "indexing silently copies.",
    "KRN005": "A scalar scipy routine (solve_ivp, brentq, ...) is "
              "called inside a batch kernel, serializing the batch.",
    "DET001": "Kernel stage math reduces over the row axis with a "
              "width-sensitive path (tensordot/dot/@, a row-"
              "contracting einsum, or axis=0): per-row rounding then "
              "depends on how many rows are in flight, breaking "
              "bit-identity under memory-governor launch splitting.",
    "DET002": "An out= destination may alias an input operand of a "
              "routine that is not elementwise: the routine reads "
              "inputs while overwriting them, so results depend on "
              "traversal order.",
    "DET003": "A value narrowed to float32/float16 feeds an arithmetic "
              "accumulation chain: rounding drifts with evaluation "
              "order and batch shape.",
    "DET004": "An unseeded random source (default_rng(), the global "
              "np.random state, stdlib random) is reachable from "
              "campaign or checkpoint code: resumed campaigns can no "
              "longer replay bit-for-bit.",
    "DET005": "A wall-clock value (time.*, datetime.now) flows into a "
              "checkpoint fingerprint, hash or result array: the "
              "artifact differs on every run.",
    "DET006": "A loop over an unordered set/frozenset writes ordered "
              "output (subscript store, append): iteration order "
              "varies across processes, so row ordering is not "
              "reproducible.",
    "CON001": "A status code declared in the batch-result status table "
              "is read by no other module: quarantine, guard "
              "re-stamping and analysis masking cannot be handling it.",
    "CON002": "A fault-injection field is consumed by no integrator, "
              "governor or campaign driver (directly or via an "
              "accessor): the injection is silently inert.",
    "CON003": "An exception type in the error taxonomy is never "
              "raised, or is raised but neither caught nor referenced "
              "outside its defining module.",
    "CON004": "A deep-analysis waiver pragma no longer suppresses any "
              "finding: the defect it excused is gone, so the pragma "
              "is dead weight that can mask future regressions.",
    "SHP001": "A row-contracting op (tensordot/dot/@, an einsum that "
              "drops the leading subscript, or an axis=0 reduction) "
              "consumes an operand whose inferred symbolic shape is "
              "batch-led: the B axis is summed away or reblocked, so "
              "per-row results change with the rows in flight.",
    "SHP002": "A broadcast pairs the batch axis B with a different "
              "symbolic axis (S, R or K): the expression only runs "
              "when the two lengths coincide, and then silently "
              "combines values across simulations.",
    "SHP003": "A value whose inferred dtype is float32/float16/int32 "
              "flows into state or accumulator arithmetic: the "
              "downcast truncates solver state and the drift moves "
              "with evaluation order.",
    "SHP004": "Definitions with conflicting symbolic shapes (different "
              "rank, or different leading axis symbol) reach one use "
              "site: the variable's shape depends on which branch "
              "executed.",
    "SHP005": "reshape/ravel/flatten folds a batch-led array of rank "
              "two or more without keeping B as the leading target "
              "dimension: row boundaries are mixed into other axes.",
    "SHP006": "An out= destination's inferred dtype is narrower than "
              "the widest input dtype: every store silently "
              "downcasts at a point that moves with the expression.",
    "BKD001": "A backend-ported gpu module imports numpy: kernels "
              "must touch array ops only through the xp namespace so "
              "substrates stay swappable.",
    "BKD002": "A gpu module reads an attribute through a numpy-bound "
              "alias or a from-numpy import: the op bypasses the "
              "backend substrate protocol.",
    "BKD003": "An xp.<op> read names an op the backend protocol does "
              "not declare: it resolves on the numpy substrate by "
              "accident and breaks on every other backend.",
    "CNC001": "A blocking operation (time.sleep, a sync-primitive "
              "wait/acquire/get, file or socket IO, a direct campaign "
              "run) is reachable from an async def through the "
              "synchronous call closure: the event loop stalls for "
              "its full duration. Transitive findings are reported "
              "at the first async-to-sync call edge, where an "
              "asyncio.to_thread offload belongs.",
    "CNC002": "A coroutine awaits while lexically inside "
              "`with <threading lock>:`. The coroutine parks on the "
              "loop holding the lock, and every thread contending "
              "for it blocks — the async/sync deadlock inversion.",
    "CNC003": "In a coroutine, a bare except / except BaseException / "
              "except CancelledError without a re-raise absorbs the "
              "cancellation the service's cooperative-cancel "
              "discipline depends on; except Exception wrapped "
              "around an await gets the same warning for hiding "
              "task failures.",
    "CNC004": "A coroutine object is created and dropped (called as "
              "a bare statement, never awaited — its body never "
              "runs), or a create_task/ensure_future result is "
              "discarded without a retained reference or "
              "done-callback, so the task is collectable mid-flight "
              "and its exception is never observed.",
    "CNC005": "A shared attribute is written without its lock: "
              "either the owning class has a lock and the same "
              "attribute is written both under and outside it, or "
              "the attribute is written by functions reachable from "
              "two different execution contexts (event loop, thread "
              "targets, to_thread offloads) with no dominating lock. "
              "Lock state is lexical `with` ancestry plus helpers "
              "whose every module-local call site holds the lock.",
    "CNC006": "Condition.wait returning proves nothing about the "
              "predicate (spurious and stolen wakeups): a wait "
              "without an enclosing while-predicate loop proceeds "
              "with the condition still false.",
    "CNC007": "An object built from an unpicklable or "
              "post-fork-stale constructor (open handles, sockets, "
              "live locks, tracers) is put onto a multiprocessing "
              "or thread queue: it fails to pickle or silently goes "
              "stale on the far side of the fork.",
    "CNC008": "A consumer that unpacks a (slot, generation) routing "
              "token must compare the generation before touching the "
              "payload, or a message from a killed-and-restarted "
              "slot corrupts the new generation's bookkeeping.",
    "CNC009": "lock.acquire() outside a `with` statement needs its "
              "release() in a finally block: any exception between "
              "acquire and release otherwise leaks the lock and "
              "deadlocks every later waiter.",
    "LNT000": "A waiver pragma of the shallow linter, the shapes "
              "analyzer or the concurrency analyzer no longer "
              "suppresses any finding and should be removed.",
    "LNT001": "A committed baseline entry matched no finding in this "
              "run: regenerate the baseline so it only shrinks.",
}

#: Rules of the project-analysis families (:mod:`repro.lint.project`).
DEEP_RULES = {**DET_RULES, **CON_RULES}
SHAPE_RULES = {**SHP_RULES, **BKD_RULES}
CONC_RULES = CNC_RULES


@dataclass(frozen=True)
class RuleInfo:
    """One registered lint rule, for listings and JSON reports."""

    rule_id: str
    severity: str
    summary: str
    family: str
    doc: str

    def to_dict(self) -> dict:
        return {"rule_id": self.rule_id, "severity": self.severity,
                "summary": self.summary, "family": self.family,
                "doc": self.doc}


def _family_table() -> list[tuple[str, dict]]:
    return [("model", MODEL_RULES), ("kernel", KERNEL_RULES),
            ("deep", DEEP_RULES), ("shape", SHP_RULES),
            ("backend", BKD_RULES), ("conc", CNC_RULES),
            ("meta", META_RULES)]


def iter_rules() -> list[RuleInfo]:
    """Every registered rule, ordered by family then rule ID."""
    rules = []
    for family, registry in _family_table():
        for rule_id in sorted(registry):
            severity, summary = registry[rule_id]
            rules.append(RuleInfo(rule_id, severity, summary, family,
                                  RULE_DOCS.get(rule_id, summary)))
    return rules


def rule_info(rule_id: str) -> RuleInfo | None:
    """Registry record for one rule ID (None when unregistered)."""
    for family, registry in _family_table():
        if rule_id in registry:
            severity, summary = registry[rule_id]
            return RuleInfo(rule_id, severity, summary, family,
                            RULE_DOCS.get(rule_id, summary))
    return None


def render_rule_table() -> str:
    """Plain-text table for ``repro lint --list-rules``."""
    rules = iter_rules()
    width = max(len(rule.summary) for rule in rules)
    lines = [f"{'ID':<8} {'FAMILY':<7} {'SEVERITY':<8} SUMMARY",
             f"{'-' * 8} {'-' * 7} {'-' * 8} {'-' * max(7, width)}"]
    for rule in rules:
        lines.append(f"{rule.rule_id:<8} {rule.family:<7} "
                     f"{rule.severity:<8} {rule.summary}")
    lines.append(f"{len(rules)} rule(s) registered")
    return "\n".join(lines)

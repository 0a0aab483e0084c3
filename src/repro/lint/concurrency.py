"""Concurrency abstract state of ``repro lint --conc``.

The concurrency analyzer polices the three boundaries the serving
stack crosses constantly — the asyncio event loop, worker threads and
forked shard processes — with the rule family ``CNC001``–``CNC009``
(:mod:`repro.lint.conc_rules`). This module supplies the shared
abstract state those rules consume:

* a **synchronization-primitive registry**
  (:class:`PrimitiveRegistry`) mapping local and attribute names to
  the primitive *kind* their constructor implies
  (``threading.Condition()`` -> ``condition``,
  ``self._context.Queue()`` -> ``queue``, ``asyncio.Event()`` ->
  ``async``), so ``x.wait()`` can be told apart from
  ``await x.wait()`` by what ``x`` *is*, not what it is called;
* a **call-only call graph** (:class:`ConcurrencyModel`) — unlike the
  deep analyzer's over-approximate reference graph
  (:attr:`~repro.lint.dataflow.ProjectIndex.edges`), only actual
  ``ast.Call`` sites create edges, and callables handed to the
  sanctioned offload wrappers (``asyncio.to_thread``,
  ``run_in_executor``) or spawned as ``Thread``/``Process`` targets do
  *not* — those run off the loop by construction;
* **execution-context closures**: the set of functions reachable from
  ``async def`` bodies (the event-loop context) and from each thread /
  offload entry point, traversed through sync functions only — an
  async callee schedules on the loop and is analyzed on its own;
* a **lock-held abstract state**: a write is *lock-protected* when it
  sits lexically inside a ``with <sync-lock>`` block, or when every
  call site of its (helper) function in the module does — the pattern
  ``def _grant(self): ...`` called only under ``with self._cond:``.

The ``conc`` family of :func:`repro.lint.project.lint_project` runs
these rules with the shared waiver pragmas (``# lint: skip=CNC00x``),
stale waivers as ``LNT000``, and the committed (empty) baseline under
the shrink-only ``LNT001`` ratchet.
"""

from __future__ import annotations

import ast

from .dataflow import (FunctionRecord, ModuleInfo, ProjectIndex,
                       attr_chain)
from .project import DEFAULT_CONFIG, LintConfig

__all__ = ["ConcurrencyModel", "PrimitiveRegistry", "conc_model"]


# ======================================================================
# synchronization-primitive registry


#: Constructor terminal -> primitive kind, for the sync (threading /
#: queue / multiprocessing) namespaces.
_SYNC_CTORS = {
    "Lock": "lock", "RLock": "lock",
    "Condition": "condition",
    "Event": "event",
    "Semaphore": "semaphore", "BoundedSemaphore": "semaphore",
    "Barrier": "event",
    "Queue": "queue", "LifoQueue": "queue", "PriorityQueue": "queue",
    "SimpleQueue": "queue", "JoinableQueue": "queue",
}

#: Kinds whose blocking calls must not run on the event loop.
SYNC_KINDS = frozenset({"lock", "condition", "event", "semaphore",
                        "queue"})

#: Kinds a ``with`` block on which counts as holding a lock.
LOCK_KINDS = frozenset({"lock", "condition", "semaphore"})

#: Blocking method terminal -> primitive kinds it blocks on.
_BLOCKING_METHODS = {
    "wait": frozenset({"condition", "event", "lock"}),
    "acquire": frozenset({"lock", "condition", "semaphore"}),
    "get": frozenset({"queue"}),
    "put": frozenset({"queue"}),
    "join": frozenset({"queue"}),
}


class PrimitiveRegistry:
    """Name -> primitive kind over one module's assignments.

    Flow-insensitive: every ``name = ctor(...)`` / ``obj.attr =
    ctor(...)`` whose constructor chain resolves to a known primitive
    registers the bound *name* (local id or attribute name). An
    ``asyncio.*`` constructor registers kind ``"async"`` so its
    ``wait``/``acquire`` calls are recognized as loop-native and never
    reported as blocking. On a collision the sync kind wins — the
    over-approximation that keeps the rules report-sound.
    """

    def __init__(self, module: ModuleInfo,
                 config: LintConfig = DEFAULT_CONFIG) -> None:
        self.kinds: dict[str, str] = {}
        #: (class name, attribute) -> kind, for class-owned primitives.
        self.class_kinds: dict[tuple[str, str], str] = {}
        self._scan(module.tree, None)

    def _scan(self, node: ast.AST, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._scan(child, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets
                           if isinstance(child, ast.Assign)
                           else [child.target])
                kind = self._ctor_kind(child.value)
                if kind is not None:
                    for target in targets:
                        self._register(target, kind, class_name)
            self._scan(child, class_name)

    def _ctor_kind(self, value: ast.AST | None) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        chain = attr_chain(value.func)
        if not chain:
            return None
        if chain[0] == "asyncio":
            return "async" if chain[-1] in _SYNC_CTORS else None
        return _SYNC_CTORS.get(chain[-1])

    def _register(self, target: ast.AST, kind: str,
                  class_name: str | None) -> None:
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
            if class_name is not None and isinstance(target.value,
                                                     ast.Name) \
                    and target.value.id == "self":
                existing = self.class_kinds.get((class_name, name))
                if existing is None or existing == "async":
                    self.class_kinds[(class_name, name)] = kind
        else:
            return
        existing = self.kinds.get(name)
        if existing is None or existing == "async":
            self.kinds[name] = kind
        elif kind != "async":
            self.kinds[name] = kind  # sync wins over a stale async bind

    def kind_of(self, node: ast.AST) -> str | None:
        """Primitive kind of an expression (``None`` when unknown)."""
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.kinds.get(node.attr)
        return None

    def lock_classes(self) -> set[str]:
        """Classes owning at least one ``self.x = <sync lock>``."""
        return {class_name
                for (class_name, _attr), kind in self.class_kinds.items()
                if kind in LOCK_KINDS}


# ======================================================================
# call-only graph + execution contexts


def own_nodes(node: ast.AST) -> list[ast.AST]:
    """Every descendant of ``node`` excluding nested function bodies.

    A nested ``def``/``async def`` is its own execution unit with its
    own record; attributing its calls and awaits to the enclosing
    function would misfile them into the wrong context.
    """
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return out


class ConcurrencyModel:
    """Derived concurrency facts over one :class:`ProjectIndex`.

    Built once per analysis run (see :func:`conc_model`) and shared by
    every CNC rule.
    """

    def __init__(self, index: ProjectIndex,
                 config: LintConfig = DEFAULT_CONFIG) -> None:
        self.index = index
        self.config = config
        self.registries: dict[str, PrimitiveRegistry] = {
            module.relpath: PrimitiveRegistry(module, config)
            for module in index.modules}
        #: module relpath -> names imported ``from time import ...``.
        self.time_imports: dict[str, set[str]] = {
            module.relpath: self._time_imports(module)
            for module in index.modules}
        self.records: dict[str, FunctionRecord] = {
            record.qualname: record for record in index.functions()}
        #: every class defined anywhere in the project.
        self.class_names: set[str] = {
            node.name for module in index.modules
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)}
        #: (class, attribute) -> class of the value it holds, from
        #: ``self.x = Ctor(...)`` / ``self.x = <annotated param>``.
        self.class_attr_types: dict[tuple[str, str], str] = {}
        #: call-only edges: qualname -> (terminal, receiver type|None).
        self.call_names: dict[str, set[tuple[str, str | None]]] = {}
        #: call sites: qualname -> [(call, terminal, receiver type)].
        self.call_sites: dict[
            str, list[tuple[ast.Call, str, str | None]]] = {}
        #: expressions that are offload / spawn-target arguments; the
        #: id() set CNC001's edge construction skips.
        self._offloaded: set[int] = set()
        #: (context tag, entry record) thread/offload roots.
        self.thread_roots: list[tuple[str, FunctionRecord]] = []
        self._link()
        self._blocking_cache: dict[str, tuple[int, str, tuple[str, ...]]
                                   | None] = {}

    # -- construction --------------------------------------------------

    @staticmethod
    def _time_imports(module: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names.update(alias.asname or alias.name
                             for alias in node.names)
        return names

    def _link(self) -> None:
        spawners = set(self.config.thread_spawners)
        processes = set(self.config.process_spawners)
        offloads = set(self.config.offload_wrappers)
        self._build_class_attr_types()
        for record in self.records.values():
            nodes = own_nodes(record.node)
            types = self._local_types(record, nodes)
            # First pass: mark offloaded callables and thread targets.
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                terminal = chain[-1] if chain else None
                if terminal in spawners or terminal in processes:
                    for keyword in node.keywords:
                        if keyword.arg == "target":
                            self._root_from(
                                record, keyword.value, types,
                                None if terminal in processes
                                else f"thread:{terminal}")
                elif terminal in offloads:
                    args = list(node.args)
                    # run_in_executor(executor, func, ...) carries the
                    # callable second; to_thread(func, ...) first.
                    position = 1 if terminal == "run_in_executor" else 0
                    if len(args) > position:
                        self._root_from(record, args[position], types,
                                        f"worker:{terminal}")
            # Second pass: call edges (offloaded callables excluded).
            names = self.call_names.setdefault(record.qualname, set())
            sites = self.call_sites.setdefault(record.qualname, [])
            for node in nodes:
                if not isinstance(node, ast.Call) \
                        or id(node.func) in self._offloaded:
                    continue
                chain = attr_chain(node.func)
                if not chain:
                    continue
                terminal = chain[-1]
                if terminal == record.name:
                    continue  # direct recursion adds nothing
                rtype = None
                if isinstance(node.func, ast.Attribute):
                    rtype = self._expr_type(record, node.func.value,
                                            types)
                names.add((terminal, rtype))
                sites.append((node, terminal, rtype))

    def _root_from(self, record: FunctionRecord, value: ast.AST,
                   types: dict[str, str], tag: str | None) -> None:
        chain = attr_chain(value)
        if not chain:
            return
        self._offloaded.add(id(value))
        if tag is None:
            return  # process target: separate address space, no root
        terminal = chain[-1]
        rtype = None
        if isinstance(value, ast.Attribute):
            rtype = self._expr_type(record, value.value, types)
        for target in self.candidates(terminal, rtype):
            self.thread_roots.append((f"{tag}:{terminal}", target))

    # -- light receiver typing ------------------------------------------

    #: Builtin/stdlib receiver types whose methods are never project
    #: functions: a typed receiver in this set stops candidate fanout.
    _OPAQUE_TYPES = frozenset({"dict", "list", "set", "tuple", "str",
                               "bytes", "int", "float", "bool", "Path"})

    def _build_class_attr_types(self) -> None:
        for record in self.records.values():
            if record.class_name is None:
                continue
            params = self._param_types(record)
            for node in own_nodes(record.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    inferred = None
                    if isinstance(node, ast.AnnAssign):
                        inferred = _annotation_type(node.annotation)
                    if inferred is None:
                        inferred = self._value_type(node.value, params)
                    if inferred is not None:
                        self.class_attr_types.setdefault(
                            (record.class_name, target.attr), inferred)

    def _param_types(self, record: FunctionRecord) -> dict[str, str]:
        args = getattr(record.node, "args", None)
        if args is None:
            return {}
        types: dict[str, str] = {}
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            inferred = _annotation_type(arg.annotation)
            if inferred is not None:
                types[arg.arg] = inferred
        return types

    def _value_type(self, value: ast.AST | None,
                    names: dict[str, str]) -> str | None:
        """Class a value expression constructs or forwards, resolved
        against ``names`` (params/locals); ``x or Ctor(...)`` defaults
        take the first resolvable branch."""
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain and chain[-1] in self.class_names:
                return chain[-1]
            return None
        if isinstance(value, ast.Name):
            return names.get(value.id)
        if isinstance(value, ast.BoolOp):
            for branch in value.values:
                inferred = self._value_type(branch, names)
                if inferred is not None:
                    return inferred
        return None

    def _local_types(self, record: FunctionRecord,
                     nodes: list[ast.AST]) -> dict[str, str]:
        """Parameter + local-variable types of one function body,
        flow-insensitive, resolved in source order."""
        types = self._param_types(record)
        assigns = sorted(
            (node for node in nodes if isinstance(node, ast.Assign)),
            key=lambda node: node.lineno)
        for node in assigns:
            if len(node.targets) != 1 \
                    or not isinstance(node.targets[0], ast.Name):
                continue
            inferred = self._value_type(node.value, types)
            if inferred is None:
                inferred = self._expr_type(record, node.value, types)
            if inferred is not None:
                types[node.targets[0].id] = inferred
        return types

    def _expr_type(self, record: FunctionRecord, expr: ast.AST,
                   types: dict[str, str], depth: int = 0) -> str | None:
        """Receiver type of an expression: ``self``, typed names, and
        attribute chains stepped through :attr:`class_attr_types`."""
        if depth > 4:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return record.class_name
            return types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(record, expr.value, types, depth + 1)
            if base is None:
                return None
            return self.class_attr_types.get((base, expr.attr))
        if isinstance(expr, ast.Call):
            return self._value_type(expr, types)
        return None

    def candidates(self, terminal: str,
                   rtype: str | None = None) -> list[FunctionRecord]:
        """Project functions a call to ``terminal`` may reach. With a
        typed receiver, only that class's methods qualify; an opaque
        builtin receiver reaches no project function at all. Untyped
        receivers keep the full name-based over-approximation."""
        records = self.index.by_simple_name.get(terminal, ())
        if rtype is not None:
            if rtype in self._OPAQUE_TYPES:
                return []
            typed = [record for record in records
                     if record.class_name == rtype]
            if typed or rtype in self.class_names:
                return typed
        return list(records)

    # -- queries --------------------------------------------------------

    def registry(self, module: ModuleInfo) -> PrimitiveRegistry:
        return self.registries[module.relpath]

    def is_async(self, record: FunctionRecord) -> bool:
        return isinstance(record.node, ast.AsyncFunctionDef)

    def async_functions(self) -> list[FunctionRecord]:
        return [record for record in self.records.values()
                if self.is_async(record)]

    def sync_candidates(self, terminal: str,
                        rtype: str | None = None) -> list[FunctionRecord]:
        return [record for record in self.candidates(terminal, rtype)
                if not self.is_async(record)]

    def sync_closure(self, roots) -> set[str]:
        """Qualnames reachable from ``roots`` through sync functions
        only (an async callee runs on the loop and owns its body)."""
        seen: set[str] = set()
        frontier = [root.qualname if isinstance(root, FunctionRecord)
                    else root for root in roots]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            # Only sync targets are ever enqueued, so an async qualname
            # here is a root: its sync callees are traversed, async
            # callees are analyzed as their own loop-context members.
            for terminal, rtype in self.call_names.get(current, ()):
                for target in self.sync_candidates(terminal, rtype):
                    if target.qualname not in seen:
                        seen.add(target.qualname)
                        frontier.append(target.qualname)
        return seen

    def loop_context(self) -> set[str]:
        """Functions that may run on the event-loop thread: every
        coroutine plus its synchronous call closure."""
        closure = self.sync_closure(self.async_functions())
        return closure

    def thread_contexts(self) -> dict[str, set[str]]:
        """Context tag -> sync closure of that thread/offload root."""
        contexts: dict[str, set[str]] = {}
        for tag, record in self.thread_roots:
            closure = contexts.setdefault(tag, set())
            closure |= self.sync_closure([record])
        return contexts

    # -- blocking analysis ----------------------------------------------

    def direct_blocking(self, record: FunctionRecord
                        ) -> list[tuple[int, str, ast.Call]]:
        """(line, reason, call) of every blocking op written directly
        in ``record``'s body (awaited calls excluded)."""
        module = record.module
        registry = self.registry(module)
        time_names = self.time_imports[module.relpath]
        parents = module.parent_map()
        found: list[tuple[int, str, ast.Call]] = []
        for node in own_nodes(record.node):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(parents.get(id(node)), ast.Await):
                continue  # awaited -> loop-native by definition
            reason = self._blocking_reason(node, registry, time_names)
            if reason is not None:
                found.append((node.lineno, reason, node))
        return found

    def _blocking_reason(self, call: ast.Call,
                         registry: PrimitiveRegistry,
                         time_names: set[str]) -> str | None:
        chain = attr_chain(call.func)
        if not chain:
            return None
        terminal = chain[-1]
        if terminal == "sleep":
            if (len(chain) > 1 and chain[-2] == "time") \
                    or (len(chain) == 1 and "sleep" in time_names):
                return "time.sleep()"
            return None
        if terminal in self.config.loop_blocking_calls:
            return (f"the synchronous campaign entry point "
                    f"{terminal}()")
        kinds = _BLOCKING_METHODS.get(terminal)
        if kinds is not None and isinstance(call.func, ast.Attribute):
            kind = registry.kind_of(call.func.value)
            if kind in kinds:
                if terminal in ("get", "put") and any(
                        keyword.arg in ("block", "timeout")
                        and _is_nonblocking_arg(keyword.value)
                        for keyword in call.keywords):
                    return None
                return f"{kind}.{terminal}() on a sync primitive"
        if terminal in self.config.blocking_io_calls:
            return f"blocking IO ({terminal}())"
        return None

    def transitive_blocking(self, qualname: str
                            ) -> tuple[int, str, tuple[str, ...]] | None:
        """(line, reason, via-chain) when the sync closure of
        ``qualname`` contains a blocking op; memoized, cycle-safe."""
        return self._transitive(qualname, set())

    def _transitive(self, qualname: str, visiting: set[str]
                    ) -> tuple[int, str, tuple[str, ...]] | None:
        if qualname in self._blocking_cache:
            return self._blocking_cache[qualname]
        if qualname in visiting:
            return None
        visiting.add(qualname)
        record = self.records.get(qualname)
        result: tuple[int, str, tuple[str, ...]] | None = None
        if record is not None and not self.is_async(record):
            direct = self.direct_blocking(record)
            if direct:
                lineno, reason, _call = direct[0]
                result = (lineno, reason, (record.name,))
            else:
                for terminal, rtype in sorted(
                        self.call_names.get(qualname, ()),
                        key=lambda edge: (edge[0], edge[1] or "")):
                    for target in self.sync_candidates(terminal, rtype):
                        sub = self._transitive(target.qualname,
                                               visiting)
                        if sub is not None:
                            result = (sub[0], sub[1],
                                      (record.name,) + sub[2])
                            break
                    if result is not None:
                        break
        visiting.discard(qualname)
        self._blocking_cache[qualname] = result
        return result

    # -- lock-held abstract state ---------------------------------------

    def under_sync_lock(self, module: ModuleInfo,
                        node: ast.AST) -> bool:
        """True when ``node`` sits lexically inside a (non-async)
        ``with`` block whose context expression is a sync lock."""
        registry = self.registry(module)
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if registry.kind_of(expr) in LOCK_KINDS:
                        return True
        return False

    def called_only_under_lock(self, record: FunctionRecord) -> bool:
        """True when every call site of ``record`` inside its own
        module is lexically under a sync lock — the helper-under-lock
        pattern (``_grant`` called only inside ``with self._cond:``)."""
        module = record.module
        sites = []
        for other in module.functions.values():
            if other.qualname == record.qualname:
                continue
            for node in own_nodes(other.node):
                if isinstance(node, ast.Call):
                    chain = attr_chain(node.func)
                    if chain and chain[-1] == record.name:
                        sites.append(node)
        return bool(sites) and all(
            self.under_sync_lock(module, site) for site in sites)


def _is_nonblocking_arg(value: ast.AST) -> bool:
    """True for ``block=False`` / ``timeout=<anything>`` values that
    make a queue op non-stalling enough not to flag."""
    return not (isinstance(value, ast.Constant) and value.value is True)


def _annotation_type(annotation: ast.AST | None) -> str | None:
    """Terminal class name of a parameter/attribute annotation,
    unwrapping ``X | None`` unions and ``Optional[X]``."""
    if annotation is None:
        return None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        chain = attr_chain(annotation)
        terminal = chain[-1] if chain else None
        return None if terminal in (None, "None") else terminal
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        text = annotation.value.strip().strip("'\"")
        return text.rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.BinOp):
        return (_annotation_type(annotation.left)
                or _annotation_type(annotation.right))
    if isinstance(annotation, ast.Subscript):
        chain = attr_chain(annotation.value)
        if chain and chain[-1] == "Optional":
            return _annotation_type(annotation.slice)
    return None


def conc_model(index: ProjectIndex,
               config: LintConfig = DEFAULT_CONFIG) -> ConcurrencyModel:
    """The per-run :class:`ConcurrencyModel`, cached on the index so
    the nine rules share one graph construction."""
    cached = getattr(index, "_conc_model", None)
    if cached is None or cached.config is not config:
        cached = ConcurrencyModel(index, config)
        index._conc_model = cached
    return cached

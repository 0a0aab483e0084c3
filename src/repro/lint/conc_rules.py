"""Concurrency-safety rules ``CNC001``–``CNC009``.

Every rule consumes the shared :class:`~repro.lint.concurrency
.ConcurrencyModel` (sync-primitive registry, call-only call graph,
execution-context closures, lock-held abstract state) and follows the
deep-rule calling convention: ``rule(index, config, emit)`` with the
waiver-aware emitter from :mod:`repro.lint.project`.

The family polices the three boundaries of the serving stack:

* **event loop** — CNC001 (blocking calls reachable from coroutines),
  CNC002 (``await`` under a held sync lock), CNC003 (handlers that
  swallow cancellation), CNC004 (coroutines never awaited, dropped
  tasks);
* **threads** — CNC005 (cross-context writes without a dominating
  lock), CNC006 (``Condition.wait`` outside a predicate loop), CNC009
  (lock acquired on a path whose exception edge skips the release);
* **processes** — CNC007 (unpicklable state crossing a
  multiprocessing queue), CNC008 (generation token compared after the
  payload is already used).
"""

from __future__ import annotations

import ast

from .dataflow import ProjectIndex, attr_chain

#: Every concurrency rule: id -> (default severity, one-line doc).
CNC_RULES = {
    "CNC001": ("error", "blocking call reachable from an async def "
                        "(stalls the event loop)"),
    "CNC002": ("error", "await while holding a synchronous "
                        "threading lock"),
    "CNC003": ("warning", "exception handler can swallow "
                          "asyncio.CancelledError semantics"),
    "CNC004": ("warning", "coroutine called but never awaited, or "
                          "task result dropped"),
    "CNC005": ("error", "shared attribute written from multiple "
                        "execution contexts without its lock"),
    "CNC006": ("warning", "Condition.wait outside a while-predicate "
                          "loop (missed-wakeup hazard)"),
    "CNC007": ("warning", "object with unpicklable/post-fork-stale "
                          "state crosses a multiprocessing queue"),
    "CNC008": ("error", "protocol payload used before its generation "
                        "token is validated"),
    "CNC009": ("warning", "lock acquired without with/try-finally: an "
                          "exception path skips the release"),
}

#: Attribute-method terminals that mutate their receiver in place.
_MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                       "pop", "popitem", "remove", "discard", "clear",
                       "appendleft", "popleft", "setdefault"})

#: Handler types whose catch can absorb a cancellation.
_CANCEL_CATCHERS = frozenset({"BaseException", "CancelledError"})


def _model(index: ProjectIndex, config):
    from .concurrency import conc_model
    return conc_model(index, config)


def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Simple names of the exception types a handler catches
    (``[]`` for a bare ``except:``)."""
    if handler.type is None:
        return []
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = []
    for node in nodes:
        chain = attr_chain(node)
        if chain:
            names.append(chain[-1])
    return names


# ----------------------------------------------------------------------
# CNC001 — blocking calls reachable from async bodies


def rule_cnc001_blocking_in_async(index: ProjectIndex, config,
                                  emit) -> None:
    """Flag blocking operations a coroutine can reach: directly in its
    body, or through its synchronous call closure. Transitive findings
    are reported at the first async->sync call edge — the actionable
    site where an ``asyncio.to_thread`` offload belongs."""
    model = _model(index, config)
    from .concurrency import own_nodes
    for record in model.async_functions():
        module = record.module
        for lineno, reason, _call in model.direct_blocking(record):
            emit("CNC001", module, lineno,
                 f"async def {record.name} performs {reason} on the "
                 f"event-loop thread",
                 "offload with await asyncio.to_thread(...) or use the "
                 "asyncio-native primitive")
        parents = module.parent_map()
        reported: set[int] = set()
        for call, terminal, rtype in model.call_sites.get(
                record.qualname, ()):
            candidates = model.sync_candidates(terminal, rtype)
            if not candidates:
                continue
            if isinstance(parents.get(id(call)), ast.Await):
                continue
            for candidate in candidates:
                found = model.transitive_blocking(candidate.qualname)
                if found is None:
                    continue
                _line, reason, via = found
                if call.lineno in reported:
                    break
                reported.add(call.lineno)
                emit("CNC001", module, call.lineno,
                     f"async def {record.name} calls {terminal}(), "
                     f"which performs {reason} "
                     f"(via {' -> '.join(via)})",
                     "run the sync call through await "
                     "asyncio.to_thread(...)")
                break
    # Suppress the unused-import style warning for own_nodes (kept for
    # parity with the model API; direct_blocking walks the bodies).
    del own_nodes


# ----------------------------------------------------------------------
# CNC002 — await while holding a sync lock


def rule_cnc002_await_under_lock(index: ProjectIndex, config,
                                 emit) -> None:
    """A coroutine that awaits inside ``with <threading lock>:`` parks
    on the loop while every other thread contending for that lock
    blocks — the classic async/sync deadlock inversion."""
    model = _model(index, config)
    from .concurrency import LOCK_KINDS, own_nodes
    for record in model.async_functions():
        module = record.module
        registry = model.registry(module)
        for node in own_nodes(record.node):
            if not isinstance(node, ast.With):
                continue
            held = None
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if registry.kind_of(expr) in LOCK_KINDS:
                    held = ast.unparse(expr)
                    break
            if held is None:
                continue
            awaits = [child for child in ast.walk(node)
                      if isinstance(child, ast.Await)]
            if awaits:
                emit("CNC002", module, awaits[0].lineno,
                     f"async def {record.name} awaits while holding "
                     f"the sync lock {held} (acquired on line "
                     f"{node.lineno})",
                     "release the lock before awaiting, or switch to "
                     "asyncio.Lock")


# ----------------------------------------------------------------------
# CNC003 — swallowed cancellation


def rule_cnc003_swallowed_cancel(index: ProjectIndex, config,
                                 emit) -> None:
    """Inside a coroutine, a bare ``except:`` /
    ``except BaseException`` / ``except CancelledError`` that does not
    re-raise eats the :class:`asyncio.CancelledError` the service's
    cooperative-cancel discipline depends on. ``except Exception``
    around an ``await`` gets the same warning: it hides the errors the
    supervisor's done-callbacks exist to surface (and swallowed
    cancellation outright on pre-3.8 semantics)."""
    model = _model(index, config)
    from .concurrency import own_nodes
    for record in model.async_functions():
        module = record.module
        for node in own_nodes(record.node):
            if not isinstance(node, ast.Try):
                continue
            body_awaits = any(isinstance(child, ast.Await)
                              for stmt in node.body
                              for child in ast.walk(stmt))
            for handler in node.handlers:
                names = _handler_names(handler)
                reraises = any(isinstance(child, ast.Raise)
                               for stmt in handler.body
                               for child in ast.walk(stmt))
                if reraises:
                    continue
                catches_cancel = (handler.type is None
                                  or set(names) & _CANCEL_CATCHERS)
                broad_around_await = ("Exception" in names
                                      and body_awaits)
                if catches_cancel:
                    what = ("a bare except"
                            if handler.type is None
                            else f"except {'/'.join(names)}")
                    emit("CNC003", module, handler.lineno,
                         f"async def {record.name}: {what} absorbs "
                         f"asyncio.CancelledError without re-raising",
                         "re-raise CancelledError (bare `raise`) or "
                         "narrow the handler")
                elif broad_around_await:
                    emit("CNC003", module, handler.lineno,
                         f"async def {record.name}: except Exception "
                         f"around an await hides task failures and "
                         f"cancellation edge cases",
                         "catch the specific errors, or re-raise after "
                         "recording")


# ----------------------------------------------------------------------
# CNC004 — never-awaited coroutines, dropped tasks


def rule_cnc004_unawaited(index: ProjectIndex, config, emit) -> None:
    """Two shapes of fire-and-forget: (a) a call whose only indexed
    candidates are ``async def`` appearing as a bare expression
    statement (the coroutine object is created and dropped, the body
    never runs); (b) an ``asyncio.create_task`` / ``ensure_future``
    result discarded without a retained reference or a done-callback —
    the task is garbage-collectable mid-flight and its exception
    vanishes."""
    model = _model(index, config)
    from .concurrency import own_nodes
    wrappers = set(config.task_wrappers)
    for record in model.records.values():
        module = record.module
        parents = module.parent_map()
        for node in own_nodes(record.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain:
                continue
            terminal = chain[-1]
            if terminal in ("create_task", "ensure_future"):
                if isinstance(parents.get(id(node)), ast.Expr):
                    emit("CNC004", module, node.lineno,
                         f"{record.name} drops the "
                         f"{terminal}(...) result: the task can be "
                         f"garbage-collected mid-flight and its "
                         f"exception is never observed",
                         "keep a reference and add an "
                         "exception-surfacing done-callback")
                continue
            candidates = index.by_simple_name.get(terminal, ())
            if not candidates or not all(model.is_async(c)
                                         for c in candidates):
                continue
            if _coroutine_consumed(node, parents, wrappers):
                continue
            emit("CNC004", module, node.lineno,
                 f"{record.name} calls the coroutine {terminal}() "
                 f"without awaiting it: the body never runs",
                 "await it, or hand it to asyncio.create_task / "
                 "asyncio.run")


def _coroutine_consumed(node: ast.AST, parents: dict,
                        wrappers: set) -> bool:
    """True when an ancestor consumes the coroutine object: an await,
    a task wrapper call, a deferred factory (lambda), a return, or any
    binding that retains the object for a later await."""
    current = parents.get(id(node))
    while current is not None:
        if isinstance(current, (ast.Await, ast.Lambda, ast.Return,
                                ast.Assign, ast.AnnAssign,
                                ast.NamedExpr, ast.Yield,
                                ast.YieldFrom)):
            return True
        if isinstance(current, ast.Call):
            chain = attr_chain(current.func)
            if chain and chain[-1] in wrappers:
                return True
        if isinstance(current, ast.Expr):
            return False  # bare statement: dropped on the floor
        current = parents.get(id(current))
    return True  # module-level or opaque context: stay quiet


# ----------------------------------------------------------------------
# CNC005 — cross-context writes without a dominating lock


def rule_cnc005_unlocked_shared_write(index: ProjectIndex, config,
                                      emit) -> None:
    """Two triggers over the per-class attribute-write table:

    * **lock discipline** — a class owns a sync lock and one attribute
      is written both under it and outside it (outside ``__init__``):
      the unprotected write races every protected reader;
    * **multi-context** — an attribute is written (unprotected) by
      functions reachable from two different execution contexts (the
      event loop and a thread/offload root, or two distinct roots).

    A write counts as protected when it is lexically under
    ``with <lock>:`` or lives in a helper every module-local call site
    of which holds the lock."""
    model = _model(index, config)
    writes = _collect_class_writes(model)
    loop_context = model.loop_context()
    thread_contexts = model.thread_contexts()
    for (module_relpath, class_name, attr), entries in sorted(
            writes.items()):
        module = next(m for m in index.modules
                      if m.relpath == module_relpath)
        registry = model.registry(module)
        unprotected = [e for e in entries if not e["protected"]]
        if not unprotected:
            continue
        # Trigger 1: lock discipline inside a lock-owning class.
        if class_name in registry.lock_classes() \
                and any(e["protected"] for e in entries):
            entry = unprotected[0]
            emit("CNC005", module, entry["lineno"],
                 f"{class_name}.{attr} is written without the class "
                 f"lock in {entry['function']} but under it "
                 f"elsewhere: the unlocked write races every "
                 f"protected access",
                 "hold the lock for every write (with self.<lock>:)")
            continue
        # Trigger 2: writes reachable from >= 2 execution contexts.
        # Scoped to the subsystems whose instances actually span
        # contexts (LintConfig.shared_state_modules).
        if not module_relpath.startswith(
                tuple(config.shared_state_modules)):
            continue
        tags: set[str] = set()
        for entry in entries:
            qualname = entry["qualname"]
            if qualname in loop_context:
                tags.add("event-loop")
            for tag, closure in thread_contexts.items():
                if qualname in closure:
                    tags.add(tag)
        if len(tags) >= 2:
            entry = unprotected[0]
            emit("CNC005", module, entry["lineno"],
                 f"{class_name}.{attr} is written from multiple "
                 f"execution contexts ({', '.join(sorted(tags))}) "
                 f"without a dominating lock",
                 "guard every write with one threading.Lock, or "
                 "confine the object to a single context")


def _collect_class_writes(model) -> dict:
    """(module relpath, class, attr) -> write entries with their
    protection state. ``__init__``/``__post_init__`` are construction,
    not sharing, and are exempt."""
    from .concurrency import own_nodes
    writes: dict = {}
    lock_helper_cache: dict[str, bool] = {}

    def protected(record, node) -> bool:
        if model.under_sync_lock(record.module, node):
            return True
        cached = lock_helper_cache.get(record.qualname)
        if cached is None:
            cached = model.called_only_under_lock(record)
            lock_helper_cache[record.qualname] = cached
        return cached

    for record in model.records.values():
        if record.class_name is None \
                or record.name in ("__init__", "__post_init__"):
            continue
        for node in own_nodes(record.node):
            for attr, lineno in _self_attr_writes(node):
                key = (record.module.relpath, record.class_name, attr)
                writes.setdefault(key, []).append({
                    "lineno": lineno,
                    "function": record.name,
                    "qualname": record.qualname,
                    "protected": protected(record, node)})
    return writes


def _self_attr_writes(node: ast.AST):
    """(attr, line) pairs when ``node`` writes ``self.<attr>``:
    assignments, augmented assignments, subscript stores and in-place
    mutator calls (``self.x.append(...)``)."""
    def self_attr(target):
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            return target.attr
        if isinstance(target, ast.Subscript):
            return self_attr(target.value)
        return None

    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = self_attr(target)
            if attr is not None:
                yield attr, node.lineno
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        attr = self_attr(node.target)
        if attr is not None and (not isinstance(node, ast.AnnAssign)
                                 or node.value is not None):
            yield attr, node.lineno
    elif isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if len(chain) == 3 and chain[0] == "self" \
                and chain[2] in _MUTATORS:
            yield chain[1], node.lineno


# ----------------------------------------------------------------------
# CNC006 — Condition.wait outside a while loop


def rule_cnc006_wait_without_loop(index: ProjectIndex, config,
                                  emit) -> None:
    """``Condition.wait`` returning proves nothing about the predicate
    (spurious wakeups, stolen wakeups): a wait not re-checked by an
    enclosing ``while`` loop is a missed-wakeup bug waiting to
    happen."""
    model = _model(index, config)
    from .concurrency import own_nodes
    for record in model.records.values():
        module = record.module
        registry = model.registry(module)
        for node in own_nodes(record.node):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr != "wait":
                continue
            if registry.kind_of(node.func.value) != "condition":
                continue
            in_while = False
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.While):
                    in_while = True
                    break
                if isinstance(ancestor, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    break
            if not in_while:
                emit("CNC006", module, node.lineno,
                     f"{record.name} calls Condition.wait outside a "
                     f"while-predicate loop: a spurious or stolen "
                     f"wakeup proceeds with the predicate still false",
                     "wrap it: while not <predicate>: cond.wait(...)")


# ----------------------------------------------------------------------
# CNC007 — unpicklable state across a multiprocessing queue


def rule_cnc007_unpicklable_across_fork(index: ProjectIndex, config,
                                        emit) -> None:
    """An object whose class closes over a live handle, socket, lock
    or tracer dies (or silently goes stale) when pickled onto a
    multiprocessing queue. Flags ``<queue>.put(x)`` where the reaching
    definition of ``x`` constructs such a class (or is such a
    constructor call directly)."""
    model = _model(index, config)
    from .concurrency import own_nodes
    risky_classes = _risky_classes(index, config)
    risky_ctors = set(config.unpicklable_ctors)
    for record in model.records.values():
        module = record.module
        registry = model.registry(module)
        scope = None
        for node in own_nodes(record.node):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr != "put":
                continue
            if registry.kind_of(node.func.value) != "queue":
                continue
            for arg in node.args:
                reason = None
                if isinstance(arg, ast.Call):
                    chain = attr_chain(arg.func)
                    terminal = chain[-1] if chain else None
                    if terminal in risky_ctors \
                            or terminal in risky_classes:
                        reason = terminal
                elif isinstance(arg, ast.Name):
                    if scope is None:
                        scope = index.scope(record)
                    reason = _risky_reaching(scope, arg, risky_ctors,
                                             risky_classes)
                if reason is not None:
                    emit("CNC007", module, node.lineno,
                         f"{record.name} puts a value built from "
                         f"{reason} onto a multiprocessing/thread "
                         f"queue: it closes over unpicklable or "
                         f"post-fork-stale state",
                         "send plain data across the boundary and "
                         "rebuild resources on the far side")


def _risky_classes(index: ProjectIndex, config) -> set[str]:
    """Classes any of whose ``self.x = <ctor>`` attributes hold a
    live resource from :attr:`LintConfig.unpicklable_ctors`."""
    risky_ctors = set(config.unpicklable_ctors)
    risky: set[str] = set()
    for module in index.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.Assign) \
                        and isinstance(child.value, ast.Call):
                    chain = attr_chain(child.value.func)
                    if chain and chain[-1] in risky_ctors and any(
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            for t in child.targets):
                        risky.add(node.name)
    return risky


def _risky_reaching(scope, name: ast.Name, risky_ctors: set,
                    risky_classes: set) -> str | None:
    for definition in scope.defuse.reaching_definitions(name):
        value = scope.defuse.value_of.get(definition)
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            terminal = chain[-1] if chain else None
            if terminal in risky_ctors or terminal in risky_classes:
                return terminal
    return None


# ----------------------------------------------------------------------
# CNC008 — generation token validated after payload use


def rule_cnc008_generation_after_payload(index: ProjectIndex, config,
                                         emit) -> None:
    """The executor's message discipline: a consumer that *unpacks* a
    ``(slot, generation)`` routing token must compare the generation
    against current state *before* touching the payload, or a message
    from a killed-and-restarted slot corrupts the new generation's
    bookkeeping. Flags consumer functions (token + payload parameters,
    token unpacked) with no generation comparison, or one that happens
    only after the first payload read."""
    model = _model(index, config)
    from .concurrency import own_nodes
    token_names = set(config.protocol_token_params)
    payload_names = set(config.protocol_payload_params)
    guards = tuple(config.protocol_guard_names)
    for record in model.records.values():
        params = {arg.arg for arg in getattr(record.node, "args",
                                             ast.arguments(
                                                 posonlyargs=[],
                                                 args=[], kwonlyargs=[],
                                                 kw_defaults=[],
                                                 defaults=[])).args}
        token = params & token_names
        payload = params & payload_names
        if not token or not payload:
            continue
        nodes = own_nodes(record.node)
        if not _unpacks_token(nodes, token):
            continue  # the token is only forwarded, not consumed
        module = record.module
        guard_line = None
        for node in nodes:
            if isinstance(node, ast.Compare) and _mentions_guard(
                    node, guards):
                if guard_line is None or node.lineno < guard_line:
                    guard_line = node.lineno
        payload_line = None
        for node in nodes:
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load) \
                    and node.id in payload:
                if payload_line is None or node.lineno < payload_line:
                    payload_line = node.lineno
        if payload_line is None:
            continue
        if guard_line is None:
            emit("CNC008", module, record.lineno,
                 f"{record.name} unpacks the routing token but never "
                 f"compares its generation before using the payload: "
                 f"stale messages from restarted slots are absorbed",
                 "compare the token generation against current slot "
                 "state and drop mismatches first")
        elif guard_line > payload_line:
            emit("CNC008", module, payload_line,
                 f"{record.name} reads the payload on line "
                 f"{payload_line} before the generation check on line "
                 f"{guard_line}",
                 "hoist the generation comparison above every payload "
                 "use")


def _unpacks_token(nodes, token_names: set) -> bool:
    for node in nodes:
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in token_names \
                and any(isinstance(t, (ast.Tuple, ast.List))
                        for t in node.targets):
            return True
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in token_names:
            return True
    return False


def _mentions_guard(node: ast.Compare, guards: tuple) -> bool:
    for child in ast.walk(node):
        text = None
        if isinstance(child, ast.Name):
            text = child.id
        elif isinstance(child, ast.Attribute):
            text = child.attr
        if text is not None and any(guard in text for guard in guards):
            return True
    return False


# ----------------------------------------------------------------------
# CNC009 — bare acquire with a release-skipping exception edge


def rule_cnc009_lock_leak(index: ProjectIndex, config, emit) -> None:
    """A ``lock.acquire()`` outside a ``with`` statement must pair
    with a ``release()`` in a ``finally`` block: any exception raised
    between the two otherwise leaks the lock and deadlocks every later
    waiter."""
    model = _model(index, config)
    from .concurrency import LOCK_KINDS, own_nodes
    for record in model.records.values():
        module = record.module
        registry = model.registry(module)
        parents = module.parent_map()
        nodes = own_nodes(record.node)
        for node in nodes:
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr != "acquire":
                continue
            if registry.kind_of(node.func.value) not in LOCK_KINDS:
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.withitem):
                continue  # with lock.acquire()-style CM misuse aside
            receiver = ast.unparse(node.func.value)
            releases = [other for other in nodes
                        if isinstance(other, ast.Call)
                        and isinstance(other.func, ast.Attribute)
                        and other.func.attr == "release"
                        and ast.unparse(other.func.value) == receiver]
            if not releases:
                emit("CNC009", module, node.lineno,
                     f"{record.name} acquires {receiver} without a "
                     f"matching release in this function: every "
                     f"early exit leaks the lock",
                     "use `with {0}:` instead".format(receiver))
                continue
            if not any(_in_finally(module, release)
                       for release in releases):
                emit("CNC009", module, node.lineno,
                     f"{record.name} acquires {receiver} but no "
                     f"release sits in a finally block: an exception "
                     f"between acquire and release leaks the lock",
                     "move the release into try/finally, or use "
                     "`with {0}:`".format(receiver))


def _in_finally(module, node: ast.AST) -> bool:
    previous = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Try) \
                and any(previous is stmt or _contains(stmt, previous)
                        for stmt in ancestor.finalbody):
            return True
        if isinstance(ancestor, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            return False
        previous = ancestor
    return False


def _contains(tree: ast.AST, target: ast.AST) -> bool:
    return any(child is target for child in ast.walk(tree))


#: Check registry consumed by the driver, in rule order.
CNC_CHECKS = {
    "CNC001": rule_cnc001_blocking_in_async,
    "CNC002": rule_cnc002_await_under_lock,
    "CNC003": rule_cnc003_swallowed_cancel,
    "CNC004": rule_cnc004_unawaited,
    "CNC005": rule_cnc005_unlocked_shared_write,
    "CNC006": rule_cnc006_wait_without_loop,
    "CNC007": rule_cnc007_unpicklable_across_fork,
    "CNC008": rule_cnc008_generation_after_payload,
    "CNC009": rule_cnc009_lock_leak,
}

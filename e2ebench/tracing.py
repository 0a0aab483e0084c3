"""Benchmark-side spans around the public entry points of ``repro``.

Nothing inside ``repro`` is instrumented: :class:`Recorder` patches the
attribute each caller looks up (a class method, a module function, an
op on the ``xp`` backend namespace) with a wrapper that records a span
and puts the original back on :meth:`Recorder.uninstall`. Spans stay in
memory; :meth:`Recorder.write` dumps them when the run ends.

Self time is a span's duration minus the time its wrapped children
cover on the same thread. Campaigns of the service run in threads, so
where spans of several threads overlap in time the overlap is shared
equally between them (one interpreter lock, one running thread at a
time), and a thread blocked in a wait layer only gets time no other
thread spends in a compute layer. The attributed times of one
operation therefore never exceed its wall time, and the remainder is
reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: Layers whose spans are waits, not work (see module docstring).
WAIT_LAYERS = frozenset({"service.scheduler.gate_wait"})


class Span:
    __slots__ = ("layer", "start", "end", "parent", "thread", "op", "info")

    def __init__(self, layer, start, parent, thread, op) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.op = op
        self.info = None


def _einsum_flops(subscripts, *operands) -> float:
    inputs = subscripts.replace(" ", "").split("->")[0].split(",")
    sizes = {}
    for letters, operand in zip(inputs, operands):
        sizes.update(zip(letters, operand.shape))
    flops = 2.0
    for size in sizes.values():
        flops *= size
    return flops * _complex_factor(operands)


def _complex_factor(operands) -> float:
    return 4.0 if any(getattr(o, "dtype", None) is not None
                      and o.dtype.kind == "c" for o in operands) else 1.0


def _inverse_flops(matrices) -> float:
    n = matrices.shape[-1]
    count = matrices.size // max(1, n * n)
    return 2.0 * count * n ** 3 * _complex_factor((matrices,))


def _matvec_flops(matrices, vectors) -> float:
    return 2.0 * matrices.size * _complex_factor((matrices, vectors))


#: Computed flops of each backend linear-algebra op, from its shapes.
LINALG_FLOPS = {
    "batched_inv": _inverse_flops,
    "inv": _inverse_flops,
    "batched_matvec": _matvec_flops,
    "einsum": _einsum_flops,
    "norm": lambda x, *args, **kwargs: 2.0 * x.size,
}


class Recorder:
    """Install wrappers, record spans, compute self-time tables."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer, fn, before=None, after=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = Span(layer, 0.0, stack[-1] if stack else None,
                        threading.get_ident(), recorder.op)
            state = before(args, kwargs) if before is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if after is not None:
                span.info = after(result, args, kwargs, state)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, name: str, layer: str, before=None,
              after=None) -> None:
        """Replace ``owner.name`` by a span-recording wrapper."""
        raw = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, raw.__func__, before,
                                             after))
        else:
            wrapped = self._wrap(layer, raw, before, after)
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def install(self) -> None:
        """Wrap every layer's public entry points (``layer_targets``)."""
        for owner, name, layer, before, after in layer_targets():
            self.patch(owner, name, layer, before, after)

    # -- analysis --------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.layer, "start": span.start,
                    "end": span.end, "op": span.op,
                    "parent": (None if span.parent is None
                               else index.get(id(span.parent))),
                    "thread": span.thread, "info": span.info}) + "\n")

    def by_op(self) -> dict:
        grouped = defaultdict(list)
        for span in self.spans:
            grouped[span.op].append(span)
        return grouped


def self_times(spans: list[Span]) -> dict[str, float]:
    """Attributed self time per layer of one operation's spans."""
    children = defaultdict(list)
    for span in spans:
        children[id(span.parent)].append(span)
    segments = []  # (start, end, layer)
    for span in spans:
        cursor = span.start
        for child in sorted(children.get(id(span), ()),
                            key=lambda s: s.start):
            if child.start > cursor:
                segments.append((cursor, child.start, span.layer))
            cursor = max(cursor, child.end)
        if span.end > cursor:
            segments.append((cursor, span.end, span.layer))
    events = []
    for start, end, layer in segments:
        events.append((start, 1, layer))
        events.append((end, -1, layer))
    events.sort(key=lambda event: (event[0], event[1]))
    active = defaultdict(int)
    totals = defaultdict(float)
    previous = None
    for moment, delta, layer in events:
        if previous is not None and moment > previous:
            _share(active, moment - previous, totals)
        active[layer] += delta
        previous = moment
    return dict(totals)


def _share(active: dict, width: float, totals: dict) -> None:
    working = {layer: n for layer, n in active.items()
               if n > 0 and layer not in WAIT_LAYERS}
    if not working:
        working = {layer: n for layer, n in active.items() if n > 0}
    count = sum(working.values())
    for layer, n in working.items():
        totals[layer] += width * n / count


def inclusive(spans: list[Span], layer: str) -> float:
    """Summed duration of ``layer``'s outermost spans."""
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        parent = span.parent
        while parent is not None and parent.layer != layer:
            parent = parent.parent
        if parent is None:
            total += span.end - span.start
    return total


def nested_time(spans: list[Span], layer: str, ancestor: str) -> float:
    """Summed duration of ``layer`` spans running under ``ancestor``."""
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        parent = span.parent
        while parent is not None and parent.layer != ancestor:
            parent = parent.parent
        if parent is not None:
            total += span.end - span.start
    return total


# ----------------------------------------------------------------------
# the wrapped entry points


def _rows(result, args, kwargs, state):
    states = args[1]
    return {"rows": int(states.shape[0]) if states.ndim > 1 else 1}


def _router_info(result, args, kwargs, state):
    return {"stiff_rows": int(result[1].n_stiff)}


def _dopri5_info(result, args, kwargs, state):
    steps = result.n_steps
    return {"steps": int(steps.max()) if steps.size else 0}


def _counters_before(args, kwargs):
    counters = args[1].counters
    return counters.newton_iterations, counters.factorizations


def _radau5_info(result, args, kwargs, state):
    counters = args[1].counters
    return {"newton_iterations": counters.newton_iterations - state[0],
            "factorizations": counters.factorizations - state[1]}


def _engine_info(result, args, kwargs, state):
    return {"launches": int(args[0].last_report.n_launches),
            "rows": int(result.batch_size)}


def _campaign_info(result, args, kwargs, state):
    return {"chunks": int(result.completed_chunks)}


def _linalg(op):
    flops = LINALG_FLOPS[op]

    def info(result, args, kwargs, state):
        return {"flops": flops(*args, **kwargs)}

    return info


def layer_targets():
    """(owner, attribute, layer, before, after) of every wrapped call.

    Each owner is what the caller looks the attribute up on, so the
    patch takes effect however the caller imported it.
    """
    from repro.backend import xp
    from repro.backend.protocol import LINALG_OPS
    from repro.gpu.batch_dopri5 import BatchDopri5
    from repro.gpu.batch_radau5 import BatchRadau5
    from repro.gpu.engine import BatchSimulator
    from repro.gpu.router import StiffnessRouter
    from repro.io.checkpoint import CampaignCheckpoint
    from repro.model.odesystem import ODESystem
    from repro.rules.rulemodel import RuleBasedModel
    from repro.service import core as service_core
    from repro.service.core import CampaignService
    from repro.service.scheduler import ChunkScheduler

    targets = [
        (ODESystem, "from_model", "model.compile", None, None),
        (ODESystem, "rhs", "model.rhs", None, _rows),
        (ODESystem, "jacobian", "model.jacobian", None, None),
        (RuleBasedModel, "expand", "rules.expand", None, None),
        (StiffnessRouter, "solve", "gpu.router", None, _router_info),
        (BatchDopri5, "solve", "gpu.batch_dopri5", None, _dopri5_info),
        (BatchRadau5, "solve", "gpu.batch_radau5", _counters_before,
         _radau5_info),
        (BatchSimulator, "simulate", "gpu.engine", None, _engine_info),
        (service_core, "run_campaign", "resilience.campaign", None,
         _campaign_info),
        (CampaignCheckpoint, "save_chunk", "io.checkpoint.save", None,
         None),
        (CampaignCheckpoint, "set_payload", "io.checkpoint.save", None,
         None),
        (CampaignCheckpoint, "open", "io.checkpoint.load", None, None),
        (CampaignCheckpoint, "load_chunk", "io.checkpoint.load", None,
         None),
        (CampaignService, "submit", "service.core.admit", None, None),
        (ChunkScheduler, "acquire", "service.scheduler.gate_wait", None,
         None),
    ]
    targets += [(xp, op, "backend.linalg", None, _linalg(op))
                for op in LINALG_OPS]
    return targets

"""Span tracing at the program's layer boundaries, from outside the program.

A traced run installs wrappers around the public entry points of every
layer (:func:`install`), runs one pass of the workload, and reads the
per-layer metrics off the recorder (:func:`per_layer_metrics`).
Nothing in ``src/`` is changed: the wrappers replace class attributes
and module-level function bindings, and :meth:`Tracer.uninstall` puts
the originals back.

Every wrapped call records one span: name, start, end, parent span and
the request/candidate id it serves.  The program is single-threaded and
no wrapped call spans an ``await`` that suspends (``DmaService.submit``
only enqueues on an unbounded queue), so spans nest on one stack and the
children of a span never overlap.  A span's self time is therefore its
duration minus the summed durations of its direct children, which is
exactly "duration minus child coverage".  The stack discipline is
checked on every exit; a violation raises instead of mis-attributing
time.

Wrap class methods **before** the objects are built: the fault injector
captures ``bus.read_word``/``write_word`` as bound methods when it
attaches, so a wrapper installed afterwards misses every faulted bus
access.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory for the dump; aggregates always cover every span.
KEEP_SPANS = 300_000


class TraceError(RuntimeError):
    """The span stack was left in an inconsistent state."""


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.clock = time.perf_counter
        self.keep = keep
        #: Open spans: [span id, child seconds, ident].
        self.stack: List[list] = []
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.busy: List[float] = []
        self.self_s: List[float] = []
        #: Kept spans: (id, name index, start, end, parent id, ident).
        self.spans: List[Tuple[int, int, float, float, int, Any]] = []
        self.next_id = 0
        #: Layer-local counters the wrappers' hooks add to.
        self.counts: Dict[str, float] = {}
        self.root_s = 0.0
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def layer(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_s.append(0.0)
        return index

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _open(self, ident: Any) -> Tuple[list, Optional[list]]:
        stack = self.stack
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = parent[2]
        frame = [self.next_id, 0.0, ident]
        self.next_id += 1
        stack.append(frame)
        return frame, parent

    def _close(self, index: int, frame: list, parent: Optional[list],
               t0: float, t1: float) -> None:
        if not self.stack or self.stack.pop() is not frame:
            raise TraceError(
                f"span {self.names[index]} closed out of stack order")
        duration = t1 - t0
        self.calls[index] += 1
        self.busy[index] += duration
        self.self_s[index] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        else:
            self.root_s += duration
        if frame[0] < self.keep:
            self.spans.append((frame[0], index, t0, t1,
                               parent[0] if parent is not None else -1,
                               frame[2]))

    def wrap(self, name: Any, fn: Callable, ident: Optional[Callable] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A timed wrapper around *fn* recording spans named *name*.

        *name* is a layer name, or a callable of the call's arguments
        that returns one (``initiate.user`` vs ``initiate.kernel``).
        *ident* maps the arguments to the request/candidate id (spans
        without one inherit their parent's).  *before* returns a token
        that *after* receives together with the arguments and result.
        """
        clock = self.clock
        fixed = self.layer(name) if isinstance(name, str) else None
        pick = None if isinstance(name, str) else name

        def setup(args: tuple, kwargs: dict):
            index = fixed if pick is None else self.layer(pick(args))
            token = before(args, kwargs) if before is not None else None
            frame, parent = self._open(
                ident(args, kwargs) if ident is not None else None)
            return index, token, frame, parent

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index, token, frame, parent = setup(args, kwargs)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(index, frame, parent, t0, clock())
                if after is not None:
                    after(args, kwargs, result, token)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, token, frame, parent = setup(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, frame, parent, t0, clock())
            if after is not None:
                after(args, kwargs, result, token)
            return result
        return traced

    # -- installation ----------------------------------------------------

    def patch_method(self, cls: type, attr: str, wrapper_of: Callable
                     ) -> None:
        """Replace ``cls.attr`` (plain function or classmethod)."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(wrapper_of(original.__func__))
        else:
            replacement = wrapper_of(original)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind *fn* in every loaded ``repro`` module that holds it."""
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------

    def layer_totals(self, name: str) -> Tuple[int, float, float]:
        """(calls, busy seconds, self seconds) of one layer (0s if unused)."""
        index = self._index.get(name)
        if index is None:
            return 0, 0.0, 0.0
        return self.calls[index], self.busy[index], self.self_s[index]

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the count written."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, index, t0, t1, parent, ident in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": self.names[index], "start": t0,
                    "end": t1, "parent": parent if parent >= 0 else None,
                    "ident": ident}) + "\n")
        return len(self.spans)


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------

def _arg(position: int, key: str):
    def get(args: tuple, kwargs: dict) -> Any:
        return args[position] if len(args) > position else kwargs.get(key)
    return get


def install(tracer: Tracer) -> Dict[str, Any]:
    """Wrap every listed layer; returns the shared measurement state.

    The returned dict carries what spans alone cannot give: the enqueue
    time of each admitted request (for queue wait) and the hunt's
    candidate numbering.
    """
    # Import every module that binds a wrapped function by name, so the
    # module-level rebinding below reaches all of them.
    import repro.verify.synth  # noqa: F401
    import repro.verify.faulted  # noqa: F401
    from repro.core.api import DmaChannel
    from repro.faults.plan import FaultPlan
    from repro.hw.bus import Bus
    from repro.hw.cpu import Cpu
    from repro.hw.dma.engine import DmaEngine
    from repro.hw.dma.status import STATUS_FAILURE
    from repro.hw.memory import PhysicalMemory
    from repro.service.admission import AdmissionController
    from repro.service.frontend import DmaService
    from repro.service.requests import Completion, Request
    from repro.service.shard import ServiceShard
    from repro.service.telemetry import FleetTelemetry
    from repro.sim.engine import Simulator
    from repro.sim.journal import UndoJournal
    from repro.verify import incremental, model_check
    from repro.verify.interleave import ProtocolHarness
    from repro.verify.synth import shrink

    state: Dict[str, Any] = {"enqueued": {}, "queue_wait_s": 0.0,
                             "candidate": 0, "method": ""}
    enqueued: Dict[int, float] = state["enqueued"]
    t = tracer
    method = t.patch_method

    # -- service ---------------------------------------------------------
    request_id = lambda args, kwargs: args[1].req_id  # noqa: E731

    def submitted(args, kwargs, future, token):
        if not future.done():
            enqueued[args[1].req_id] = t.clock()

    def dequeued(args, kwargs):
        since = enqueued.pop(args[1].req_id, None)
        if since is not None:
            state["queue_wait_s"] += t.clock() - since

    method(DmaService, "submit", lambda f: t.wrap(
        "service.frontend.submit", f, ident=request_id, after=submitted))
    method(Request, "from_dict", lambda f: t.wrap(
        "service.frontend.codec", f))
    method(Completion, "to_dict", lambda f: t.wrap(
        "service.frontend.codec", f))
    method(AdmissionController, "admit", lambda f: t.wrap(
        "service.admission.admit", f,
        after=lambda a, k, result, _: (
            None if result[0] else t.add("service.admission.rejected"))))
    method(ServiceShard, "_register", lambda f: t.wrap(
        "service.shard.register", f))
    method(ServiceShard, "execute", lambda f: t.wrap(
        "service.shard.execute", f, ident=request_id, before=dequeued))
    method(ServiceShard, "wrong_page_sweep", lambda f: t.wrap(
        "service.shard.sweep", f))
    method(FleetTelemetry, "record", lambda f: t.wrap(
        "service.telemetry.record", f))
    method(FleetTelemetry, "close_window", lambda f: t.wrap(
        "service.telemetry.close_window", f))

    # -- core api --------------------------------------------------------
    method(DmaChannel, "dma_reliable", lambda f: t.wrap(
        "core.api.dma_reliable", f,
        after=lambda a, k, result, _: t.add("core.api.attempts",
                                            result.attempts)))
    method(DmaChannel, "initiate", lambda f: t.wrap(
        lambda args: "core.api.initiate." + args[0].via, f))

    # -- faults ----------------------------------------------------------
    method(FaultPlan, "decide", lambda f: t.wrap("faults.plan.decide", f))

    # -- hardware --------------------------------------------------------
    method(Cpu, "run", lambda f: t.wrap("hw.cpu.run", f))
    for attr in ("read_word", "write_word"):
        method(Bus, attr, lambda f: t.wrap("hw.bus", f))
    nbytes = {"read": _arg(2, "nbytes"), "fill": _arg(2, "nbytes"),
              "copy": _arg(3, "nbytes"),
              "write": lambda a, k: len(_arg(2, "data")(a, k)),
              "read_word": lambda a, k: 8, "write_word": lambda a, k: 8}
    for attr, size_of in nbytes.items():
        method(PhysicalMemory, attr, lambda f, s=size_of: t.wrap(
            "hw.memory", f,
            after=lambda a, k, r, _: t.add("hw.memory.bytes", s(a, k))))
    for attr in ("mmio_read", "mmio_write", "mmio_exchange"):
        method(DmaEngine, attr, lambda f: t.wrap("hw.dma.engine.mmio", f))
    method(DmaEngine, "try_start", lambda f: t.wrap(
        "hw.dma.engine.try_start", f,
        after=lambda a, k, status, _: (
            None if status == STATUS_FAILURE
            else t.add("hw.dma.engine.started"))))

    # -- simulator core --------------------------------------------------
    method(Simulator, "__init__", lambda f: t.wrap("sim.engine.new", f))
    for attr in ("run", "run_until", "wait_for", "advance"):
        method(Simulator, attr, lambda f: t.wrap("sim.engine.run", f))
    step = Simulator.step

    def counted_step(sim: Any) -> bool:
        fired = step(sim)
        if fired:
            t.add("sim.engine.events_fired")
        return fired
    Simulator.step = counted_step
    t._undo.append(lambda: setattr(Simulator, "step", step))

    def undo_before(args, kwargs):
        return len(args[0]) - args[1]
    method(UndoJournal, "undo_to", lambda f: t.wrap(
        "sim.journal.undo_to", f, before=undo_before,
        after=lambda a, k, r, pending: t.add(
            "sim.journal.entries_replayed", max(pending, 0))))

    # -- checker ---------------------------------------------------------
    def next_candidate(args, kwargs):
        state["candidate"] += 1
        return f"{state['method']}#{state['candidate']}"

    def check_done(args, kwargs, result, token):
        stats = kwargs.get("stats")
        if stats is None:
            return
        t.add("verify.incremental.accesses_delivered",
              stats.accesses_delivered)
        t.add("verify.incremental.naive_accesses", stats.naive_accesses)
        t.add("verify.incremental.transposition_hits",
              stats.transposition_hits)
        t.add("verify.interleave.orders", result.total_interleavings)

    t.patch_function(incremental.check_scenario_incremental, t.wrap(
        "verify.incremental.check", incremental.check_scenario_incremental,
        ident=next_candidate, after=check_done))
    method(ProtocolHarness, "deliver", lambda f: t.wrap(
        "verify.interleave.deliver", f))
    t.patch_function(model_check.make_harness, t.wrap(
        "verify.model_check.make_harness", model_check.make_harness))
    t.patch_function(model_check.replay_interleaving, t.wrap(
        "verify.model_check.replay", model_check.replay_interleaving))
    t.patch_function(shrink.shrink_counterexample, t.wrap(
        "verify.synth.shrink", shrink.shrink_counterexample))
    return state


def per_layer_metrics(tracer: Tracer, state: Dict[str, Any],
                      work: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced pass.

    *work* carries the pass's own exact counters and totals (completed
    requests, CPU instructions, hunt candidates, traced and untraced
    wall) that the program reports without any wrapper.
    """
    out: Dict[str, float] = {}
    counts = tracer.counts

    def calls_self(name: str) -> None:
        calls, _, self_s = tracer.layer_totals(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s

    calls_self("service.shard.register")
    calls, busy, _ = tracer.layer_totals("service.shard.execute")
    out["service.shard.execute.calls"] = calls
    out["service.shard.execute.busy_s"] = busy
    out["service.shard.queue_wait_s"] = state["queue_wait_s"]
    out["service.shard.sweep_s"] = tracer.layer_totals(
        "service.shard.sweep")[1]
    out["hw.memory.bytes"] = counts.get("hw.memory.bytes", 0)
    out["hw.memory.self_s"] = tracer.layer_totals("hw.memory")[2]
    calls_self("faults.plan.decide")
    out["faults.fired"] = work.get("faults_fired", 0)
    calls_self("core.api.dma_reliable")
    dmas = out["core.api.dma_reliable.calls"]
    out["core.api.attempts_per_dma"] = (
        counts.get("core.api.attempts", 0) / dmas if dmas else 0.0)
    calls_self("core.api.initiate.user")
    calls_self("core.api.initiate.kernel")
    out["hw.cpu.run.self_s"] = tracer.layer_totals("hw.cpu.run")[2]
    out["hw.cpu.instructions"] = work.get("instructions", 0)
    completed = work.get("completed", 0)
    out["hw.cpu.instructions_per_req"] = (
        out["hw.cpu.instructions"] / completed if completed else 0.0)
    bus_calls, _, bus_self = tracer.layer_totals("hw.bus")
    out["hw.bus.accesses"] = bus_calls
    out["hw.bus.self_s"] = bus_self
    out["service.frontend.submit.self_s"] = tracer.layer_totals(
        "service.frontend.submit")[2]
    out["service.frontend.codec.self_s"] = tracer.layer_totals(
        "service.frontend.codec")[2]
    calls_self("service.admission.admit")
    out["service.admission.admit.rejected"] = counts.get(
        "service.admission.rejected", 0)
    out["service.telemetry.record.self_s"] = tracer.layer_totals(
        "service.telemetry.record")[2]
    calls_self("service.telemetry.close_window")
    calls_self("hw.dma.engine.mmio")
    starts = tracer.layer_totals("hw.dma.engine.try_start")[0]
    out["hw.dma.engine.started_ratio"] = (
        counts.get("hw.dma.engine.started", 0) / starts if starts else 0.0)
    out["sim.engine.events_fired"] = counts.get("sim.engine.events_fired", 0)
    out["sim.engine.run.self_s"] = tracer.layer_totals("sim.engine.run")[2]
    calls_self("sim.engine.new")
    calls_self("sim.journal.undo_to")
    out["sim.journal.entries_replayed"] = counts.get(
        "sim.journal.entries_replayed", 0)
    calls_self("verify.incremental.check")
    delivered = counts.get("verify.incremental.accesses_delivered", 0)
    naive = counts.get("verify.incremental.naive_accesses", 0)
    out["verify.incremental.accesses_delivered"] = delivered
    out["verify.incremental.delivery_ratio"] = (
        delivered / naive if naive else 0.0)
    out["verify.incremental.transposition_hits"] = counts.get(
        "verify.incremental.transposition_hits", 0)
    out["verify.interleave.orders"] = counts.get(
        "verify.interleave.orders", 0)
    calls_self("verify.interleave.deliver")
    out["verify.model_check.make_harness.self_s"] = tracer.layer_totals(
        "verify.model_check.make_harness")[2]
    out["verify.model_check.replay.calls"] = tracer.layer_totals(
        "verify.model_check.replay")[0]
    out["verify.synth.shrink.self_s"] = tracer.layer_totals(
        "verify.synth.shrink")[2]
    out["verify.synth.candidates"] = work.get("candidates", 0)
    traced = work["traced_wall_s"]
    out["trace.overhead"] = traced / work["untraced_wall_s"]
    out["trace.coverage"] = tracer.root_s / traced
    return out

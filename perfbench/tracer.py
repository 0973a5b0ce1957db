"""Outside-in tracer for the benchmark's traced run.

The tracer wraps the public callables of each layer from here, never
from inside ``src/``: it swaps class attributes and module-level
function references for timing wrappers while a traced call runs, and
puts the originals back afterwards.

Two kinds of boundary:

* **spans** at the coarse boundaries (sweep call, job, simulation build
  and run, digest, invariant check, cache key and batch, transport
  round operations).  Each span records name, layer, start, end, parent
  and the id of the job it belongs to; spans are kept in memory and
  written out by :meth:`Tracer.write` when the run ends.
* **accumulators** at the per-handoff boundaries
  (``resume_and_wait`` / ``yield_to_scheduler``, about 10^3-10^4 calls
  per simulation) and the FT library entry points, which run on fiber
  threads: only a call count and a time sum are kept.

A layer's self time is the time its spans cover minus the time their
child spans cover.  The FT library runs inside rank slices, so its self
time (entry to exit minus the caller's own time suspended in
``yield_to_scheduler``) is moved from ``simmpi`` to ``ft``.

Pool workers are separate processes: a fork hook removes the wrappers
in the child, so on pooled sweeps only the parent side is traced.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Callable

clock = time.perf_counter_ns

#: Layers whose self time the traced run reports, in table order.
#: ``sweep`` is the sweep driver and job code of ``repro.faults`` and
#: ``repro.protocols`` (job building, scenario set-up, report folding).
LAYERS = ("sweep", "parallel", "cache", "simmpi", "ft", "analysis")

#: Span name -> layer.  ``call`` is the benchmark client's own root span
#: around one API call; on sweep workloads the root is the sweep call.
SPAN_LAYERS = {
    "call": "client",
    "sweep": "sweep",
    "job": "sweep",
    "sim.build": "simmpi",
    "sim.run": "simmpi",
    "digest": "analysis",
    "invariants": "analysis",
    "cache.key": "cache",
    "cache.get_many": "cache",
    "cache.put_many": "cache",
    "transport.open_round": "parallel",
    "transport.submit": "parallel",
    "transport.wait": "parallel",
    "transport.close": "parallel",
    "transport.abandon": "parallel",
}

#: FT library entry points (module, function) counted as ``ft`` calls.
FT_FUNCTIONS = (
    ("repro.ft.validate", "comm_validate"),
    ("repro.ft.validate_all", "comm_validate_all"),
    ("repro.ft.validate_all", "icomm_validate_all"),
    ("repro.ft.ulfm", "comm_agree"),
    ("repro.ft.ulfm", "comm_shrink"),
)


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "items")

    def __init__(self, sid: int, name: str, parent: int | None, job: int) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.job = job
        self.start = clock()
        self.end = 0
        #: Batch size for cache batches (keys looked up / entries stored).
        self.items = 0


class Tracer:
    """Install/uninstall timing wrappers; hold spans and accumulators."""

    def __init__(self, backend: str) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._next_job = 0
        #: Handoff accumulators: [calls, ns].
        self.resume = [0, 0]
        self.ft = [0, 0]
        #: Per-execution-context time suspended in yield_to_scheduler.
        self._yield_ns: dict[Any, int] = {}
        self._ft_depth: dict[Any, int] = {}
        self._context = _context_key(backend)
        self._patches = self._plan(backend)
        self.installed = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, *, new_job: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_job:
            self._next_job += 1
            job = self._next_job
        else:
            job = parent.job if parent is not None else 0
        self._next_id += 1
        span = Span(self._next_id, name, parent.id if parent else None, job)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    def _span(self, name: str, fn: Callable, *, new_job: bool = False,
              items: Callable[[tuple], int] | None = None) -> Callable:
        main = threading.main_thread().ident

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            span = self.begin(name, new_job=new_job)
            if items is not None:
                span.items = items(args)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    # -- accumulators ------------------------------------------------------

    def _resume_wrapper(self, fn: Callable) -> Callable:
        acc = self.resume

        def resume_and_wait(fiber):
            t = clock()
            try:
                return fn(fiber)
            finally:
                acc[0] += 1
                acc[1] += clock() - t

        return resume_and_wait

    def _yield_wrapper(self, fn: Callable) -> Callable:
        waited = self._yield_ns
        context = self._context

        def yield_to_scheduler(fiber):
            t = clock()
            try:
                return fn(fiber)
            finally:
                key = context()
                waited[key] = waited.get(key, 0) + clock() - t

        return yield_to_scheduler

    def _ft_wrapper(self, fn: Callable) -> Callable:
        acc, waited, depth, context = (
            self.ft, self._yield_ns, self._ft_depth, self._context,
        )

        def ft_call(*args, **kwargs):
            key = context()
            level = depth.get(key, 0)
            depth[key] = level + 1
            if level:
                # Nested call inside the library: the outer call owns it.
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[key] = level
            y0 = waited.get(key, 0)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t
                depth[key] = 0
                acc[0] += 1
                acc[1] += elapsed - (waited.get(key, 0) - y0)

        return ft_call

    # -- patching ----------------------------------------------------------

    def _plan(self, backend: str) -> list[tuple[Any, str, Any, Any, bool]]:
        """Every (owner, attribute, original, wrapper, own) to swap in."""
        import repro.analysis.digest as digest
        import repro.cache.keys as keys
        import repro.faults.campaign as campaign
        import repro.parallel.jobs as jobs
        import repro.parallel.transport as transport
        import repro.protocols.compare as compare
        import repro.simmpi.fibers as fibers
        from repro.cache import RunCache
        from repro.simmpi import Simulation

        plan: list[tuple[Any, str, Any, Any, bool]] = []

        def method(cls: type, attr: str, wrap: Callable) -> None:
            own = attr in cls.__dict__
            original = getattr(cls, attr)
            plan.append((cls, attr, original, wrap(original), own))

        def function(module: str, attr: str, wrap: Callable) -> None:
            # Replace every reference a loaded repro module holds, so
            # ``from x import f`` call sites are traced too.
            original = getattr(sys.modules[module], attr)
            wrapper = wrap(original)
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, key, original, wrapper, True))

        span = self._span
        method(Simulation, "__init__", lambda f: span("sim.build", f))
        method(Simulation, "run", lambda f: span("sim.run", f))
        fiber_cls = {"thread": fibers.ThreadFiber}
        if hasattr(fibers, "GreenletFiber"):
            fiber_cls["greenlet"] = fibers.GreenletFiber
        method(fiber_cls[backend], "resume_and_wait", self._resume_wrapper)
        method(fiber_cls[backend], "yield_to_scheduler", self._yield_wrapper)
        for module, attr in FT_FUNCTIONS:
            __import__(module)
            function(module, attr, self._ft_wrapper)
        function(digest.__name__, "result_digest", lambda f: span("digest", f))
        function(jobs.__name__, "check_invariants",
                 lambda f: span("invariants", f))
        function(keys.__name__, "job_key", lambda f: span("cache.key", f))
        method(RunCache, "get_many", lambda f: span(
            "cache.get_many", f, items=_batch_size))
        method(RunCache, "put_many", lambda f: span(
            "cache.put_many", f, items=_batch_size))
        for job_cls in (campaign.CampaignJob, compare.ProtocolCompareJob):
            method(job_cls, "__call__", lambda f: span("job", f, new_job=True))
            method(job_cls, "cache_payload",
                   lambda f: span("job", f, new_job=True))
        for cls in _subclasses(transport.Transport):
            if "open_round" in cls.__dict__:
                method(cls, "open_round",
                       lambda f: span("transport.open_round", f))
        for cls in _subclasses(transport.TransportRound):
            for op in ("submit", "wait", "close", "abandon"):
                if op in cls.__dict__:
                    method(cls, op,
                           lambda f, op=op: span(f"transport.{op}", f))
        return plan

    def install(self) -> None:
        for owner, attr, _original, wrapper, _own in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.installed = False

    def _after_fork(self) -> None:
        if self.installed:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer over every recorded span."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end - s.start
        out = {layer: 0 for layer in ("client",) + LAYERS}
        for s in self.spans:
            out[SPAN_LAYERS[s.name]] += s.end - s.start - child_ns.get(s.id, 0)
        out["simmpi"] -= self.ft[1]
        out["ft"] += self.ft[1]
        return out

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Write the spans as JSONL (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "perfbench.spans/1", **extra}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "layer": SPAN_LAYERS[s.name],
                    "parent": s.parent, "job": s.job,
                    "start_ns": s.start - t0, "end_ns": s.end - t0,
                }) + "\n")
            fh.write(json.dumps({
                "accumulators": {
                    "resume_and_wait": {"calls": self.resume[0],
                                        "ns": self.resume[1]},
                    "ft": {"calls": self.ft[0], "self_ns": self.ft[1]},
                },
            }) + "\n")


def _context_key(backend: str) -> Callable[[], Any]:
    """What identifies one fiber's call stack: its OS thread on the thread
    backend, its greenlet on the greenlet backend."""
    if backend == "greenlet":
        import greenlet

        return greenlet.getcurrent
    return threading.get_ident


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _batch_size(args: tuple) -> int:
    """Length of a cache batch method's first argument (0 if unsized)."""
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0

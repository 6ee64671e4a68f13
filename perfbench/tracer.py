"""Outside-in layer trace: spans around each layer's public boundary.

The tracer wraps the program's layer boundaries (the methods in
:data:`BOUNDARIES`) and every event-loop callback, from the benchmark's own
files; nothing inside the program changes.  Each wrapped call is a span:
its self time is its duration minus the time its child spans cover, and it
is charged to its layer.  Every call is aggregated.  Full spans (name,
start, end, parent, invocation id) are kept for a deterministic sample of
arrivals and written out as JSON lines when the replay ends.

Callbacks are timed under their event label's prefix (``route:<id>`` is a
``faas.controller`` span, ``release:<container>`` a ``faas.invoker`` one).
The driver's slice is the root span: what it covers beyond its children
is the event loop's own work, ``sim.events``.  Work a callback does that
no boundary covers stays in that callback's layer; so a steal search
triggered by an invoker's spare-capacity hook is charged to the invoker's
``release:`` callback.  Garbage-collection pauses are charged to
``python.gc`` rather than to whichever span's allocation triggered them.
The tracer's own bookkeeping lands in the parent's self time;
``trace.overhead_frac`` reports what tracing costs in all.

A boundary that no longer exists is reported absent, not an error.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (bucket, module, class, method, how the invocation id is found).  The
#: id spec is ``("arg", i)`` for an Invocation at positional ``i``,
#: ``("str", i, keyword)`` for an id string, ``("ret",)`` for the returned
#: Invocation, or ``None`` to inherit the parent span's id.  Subclasses
#: that override a method are wrapped into the same bucket.
BOUNDARIES: Tuple[Tuple[str, str, str, str, Optional[tuple]], ...] = (
    ("faas.controller", "repro.faas.cluster", "FaaSCluster", "invoke_async", ("ret",)),
    ("faas.controller", "repro.faas.controller", "Controller", "submit", ("arg", 0)),
    ("faas.scheduler", "repro.faas.scheduler", "Scheduler", "submit", ("arg", 0)),
    ("faas.scheduler.select", "repro.faas.scheduler", "SchedulingPolicy", "select", ("arg", 1)),
    ("faas.invoker", "repro.faas.invoker", "Invoker", "submit", ("arg", 0)),
    ("faas.invoker", "repro.faas.invoker", "Invoker", "release_queued", None),
    ("faas.invoker", "repro.faas.invoker", "Invoker", "adopt", ("arg", 0)),
    ("faas.container", "repro.faas.container", "Container", "execute", ("arg", 0)),
    ("faas.container", "repro.faas.container", "Container", "initialize", None),
    ("core.policy", "repro.core.policy", "IsolationMechanism", "invoke", ("str", 1, "request_id")),
    ("core.manager", "repro.core.manager", "GroundhogManager", "handle_request", ("str", 1, "request_id")),
    ("core.restore", "repro.core.restore", "Restorer", "restore", None),
    ("core.snapshot", "repro.core.snapshot", "Snapshotter", "take", None),
    ("runtime", "repro.runtime.base", "FunctionRuntime", "invoke", ("str", 1, "request_id")),
    ("faas.metrics.write", "repro.faas.metrics", "MetricsCollector", "record", ("arg", 0)),
    ("faas.metrics.read", "repro.faas.metrics", "MetricsCollector", "window", None),
    ("faas.metrics.read", "repro.faas.metrics", "MetricsCollector", "by_caller", None),
    ("faas.controlplane", "repro.faas.controlplane.slo", "SLOMonitor", "assess", None),
    ("faas.controlplane", "repro.faas.controlplane.tuner", "QuotaTuner", "apply", None),
    ("faas.controlplane", "repro.faas.controlplane.planner", "CapacityPlanner", "plan", None),
)

#: Event-label prefix -> bucket.  Labels ``route:``, ``respond:`` and
#: ``complete:`` carry the invocation id after the colon.
CALLBACK_BUCKETS = {
    "route": "faas.controller",
    "respond": "faas.controller",
    "release": "faas.invoker",
    "complete": "faas.invoker",
    "coldstart": "faas.invoker",
    "restore": "faas.invoker",
    "keep-alive": "faas.invoker",
    "control-plane": "faas.controlplane",
    "bench-arrival": "bench.driver",
}
INVOCATION_LABELS = ("route", "respond", "complete")
OTHER_BUCKET = "other"
GC_BUCKET = "python.gc"
ROOT_BUCKET = "sim.events"
DRIVER_BUCKET = "bench.driver"

#: Layers whose boundaries must all resolve for the layer to be present.
LAYER_BOUNDARIES = {
    "faas.controller": ("FaaSCluster.invoke_async", "Controller.submit"),
    "faas.scheduler": ("Scheduler.submit", "SchedulingPolicy.select"),
    "faas.invoker": ("Invoker.submit", "Invoker.release_queued", "Invoker.adopt"),
    "faas.container": ("Container.execute", "Container.initialize"),
    "core.policy": ("IsolationMechanism.invoke",),
    "core.manager": ("GroundhogManager.handle_request",),
    "core.restore": ("Restorer.restore",),
    "core.snapshot": ("Snapshotter.take",),
    "runtime": ("FunctionRuntime.invoke",),
    "faas.metrics": ("MetricsCollector.record", "MetricsCollector.window", "MetricsCollector.by_caller"),
    "faas.controlplane": ("SLOMonitor.assess", "QuotaTuner.apply", "CapacityPlanner.plan"),
}

#: Most spans kept in memory for the sampled arrivals.
MAX_SPANS = 400_000
#: Sampled arrivals aimed for (one in ``arrivals // SAMPLED_ARRIVALS``).
SAMPLED_ARRIVALS = 500


def _find_class(module_name: str, class_name: str) -> Optional[type]:
    """The class at its known home, else wherever ``repro`` defines it now."""
    try:
        found = getattr(importlib.import_module(module_name), class_name, None)
    except ImportError:
        found = None
    if isinstance(found, type):
        return found
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            candidate = getattr(module, class_name, None)
            if isinstance(candidate, type) and candidate.__module__.startswith("repro"):
                return candidate
    return None


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return found


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "self_norm", "incl_norm", "mark_self", "mark_incl")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.self_norm = 0.0
        self.incl_norm = 0.0
        self.mark_self = 0.0
        self.mark_incl = 0.0


class _Callback:
    """A wrapped event callback: one span per firing."""

    __slots__ = ("tracer", "fn", "stat", "bucket", "name", "rid")

    def __init__(self, tracer: "Tracer", fn: Callable[[], None], label: str) -> None:
        prefix, _, rest = label.partition(":")
        self.tracer = tracer
        self.fn = fn
        self.name = f"callback {prefix}"
        self.bucket = CALLBACK_BUCKETS.get(prefix, OTHER_BUCKET)
        self.stat = tracer.stat(self.name, self.bucket)
        self.rid = rest if prefix in INVOCATION_LABELS else None

    def __call__(self) -> None:
        self.tracer.span(self.fn, (), {}, self.stat, self.name, self.rid, None)


class Tracer:
    """Spans at the layer boundaries of one cluster replay."""

    def __init__(self, spans_path: str) -> None:
        self.spans_path = spans_path
        self.stats: Dict[str, _Stat] = {}
        self.buckets: Dict[str, str] = {}
        #: Open spans: [child seconds, invocation id, sequence number].
        self.stack: List[list] = []
        self.sequence = 0
        self.sampled: set = set()
        self.spans: List[tuple] = []
        self.epoch = time.perf_counter()
        self.absent: List[str] = []
        self.restores = 0
        self.pages_restored = 0
        self.restore_seconds = 0.0
        self._patched: List[Tuple[type, str, Any]] = []
        self._root_stat = self.stat("slice", ROOT_BUCKET)
        self._gc_stat = self.stat("garbage collection", GC_BUCKET)
        self._gc_started = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def stat(self, name: str, bucket: str) -> _Stat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = _Stat()
            self.buckets[name] = bucket
        return found

    def span(self, fn, args, kwargs, stat: _Stat, name: str, rid, id_spec) -> Any:
        stack = self.stack
        if rid is None and id_spec is not None and id_spec[0] != "ret":
            rid = _invocation_id(id_spec, args, kwargs)
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[1]
        self.sequence += 1
        frame = [0.0, rid, self.sequence]
        stack.append(frame)
        started = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            ended = time.perf_counter()
            stack.pop()
            duration = ended - started
            if parent is not None:
                parent[0] += duration
            stat.calls += 1
            stat.self_s += duration - frame[0]
            stat.incl_s += duration
            if rid is None and id_spec is not None and id_spec[0] == "ret":
                rid = getattr(result, "invocation_id", None)
            if rid is not None and rid in self.sampled and len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (name, frame[2], parent[2] if parent is not None else 0,
                     started - self.epoch, ended - self.epoch, rid)
                )

    def _method_wrapper(self, original, stat: _Stat, name: str, id_spec, *, bound=False):
        tracer = self
        if not bound:
            id_spec = _shift(id_spec)

        def traced(*args, **kwargs):
            return tracer.span(original, args, kwargs, stat, name, None, id_spec)

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: type, attribute: str, replacement: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, loop_class: type) -> None:
        """Wrap every boundary that still exists and ``loop_class``'s scheduling."""
        resolved: Dict[str, bool] = {}
        for bucket, module_name, class_name, method, id_spec in BOUNDARIES:
            key = f"{class_name}.{method}"
            cls = _find_class(module_name, class_name)
            if cls is None or not callable(getattr(cls, method, None)):
                resolved[key] = False
                continue
            resolved[key] = True
            stat = self.stat(key, bucket)
            for owner in _subclasses(cls):
                if method in owner.__dict__:
                    original = owner.__dict__[method]
                    if key == "Restorer.restore":
                        original = self._observe_restore(original)
                    self._patch(owner, method, self._method_wrapper(original, stat, key, id_spec))
        self.absent = [
            layer for layer, keys in LAYER_BOUNDARIES.items()
            if not all(resolved.get(key, False) for key in keys)
        ]
        self._wrap_scheduling(loop_class)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        """Charge each collection to ``python.gc``, not to the span it hit."""
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        stat = self._gc_stat
        stat.calls += 1
        stat.self_s += pause
        stat.incl_s += pause
        if self.stack:
            self.stack[-1][0] += pause

    def _wrap_scheduling(self, loop_class: type) -> None:
        tracer = self
        for method in ("schedule_at", "schedule"):
            original = loop_class.__dict__[method]

            def scheduling(loop, when, callback, label="", _original=original):
                if not isinstance(callback, _Callback):
                    callback = _Callback(tracer, callback, label)
                return _original(loop, when, callback, label)

            self._patch(loop_class, method, scheduling)

    def _observe_restore(self, original):
        tracer = self

        def observed(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.restores += 1
            tracer.pages_restored += getattr(result, "pages_restored", 0)
            tracer.restore_seconds += getattr(result, "total_seconds", 0.0)
            return result

        return observed

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def attach(self, driver: Any) -> None:
        """Trace the driver's own work and sample its arrivals."""
        driver.sampled_ids = self.sampled
        driver.sample_period = max(1, len(driver.arrivals) // SAMPLED_ARRIVALS)
        for method in ("complete", "due_before"):
            original = getattr(driver, method)
            stat = self.stat(f"driver.{method}", DRIVER_BUCKET)
            wrapped = self._method_wrapper(original, stat, f"driver.{method}", None, bound=True)
            setattr(driver, method, wrapped)

    # ------------------------------------------------------------------
    # Slices (the root span) and normalisation
    # ------------------------------------------------------------------

    def begin_slice(self) -> None:
        self.sequence += 1
        self.stack.append([0.0, None, self.sequence])

    def end_slice(self, wall: float) -> None:
        root = self.stack.pop()
        stat = self._root_stat
        stat.calls += 1
        stat.self_s += wall - root[0]
        stat.incl_s += wall

    def scale_slice(self, scale: float) -> None:
        """Convert this slice's raw times to reference seconds."""
        for stat in self.stats.values():
            stat.self_norm += (stat.self_s - stat.mark_self) * scale
            stat.incl_norm += (stat.incl_s - stat.mark_incl) * scale
            stat.mark_self = stat.self_s
            stat.mark_incl = stat.incl_s

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def _bucket_self(self, bucket: str) -> float:
        return sum(
            stat.self_norm for name, stat in self.stats.items() if self.buckets[name] == bucket
        )

    def _calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def report(
        self, cluster: Any, driver: Any, arrivals: int, queue_wait_p99_ms: float
    ) -> Dict[str, Any]:
        """Per-layer metrics, per-boundary aggregates, and the spans file."""
        per_arrival_us = 1e6 / arrivals

        def self_us(bucket: str) -> float:
            return self._bucket_self(bucket) * per_arrival_us

        events = sum(
            stat.calls for name, stat in self.stats.items() if name.startswith("callback ")
        )
        rows = getattr(cluster, "cluster_stats", lambda: [])()
        demotes = sum(row.get("demotes", 0) for row in rows)
        discards = sum(row.get("snapshot_discards", 0) for row in rows)
        retained = 0
        for action in driver.workload.actions:
            for container in cluster.containers(action):
                retained += len(getattr(container, "executions", ()))
        initialize = self.stats.get("Container.initialize")
        metrics = {
            "sim.events.self_us": self_us(ROOT_BUCKET),
            "sim.events.per_inv": events / arrivals,
            "faas.controller.self_us": self_us("faas.controller"),
            "faas.scheduler.self_us": self_us("faas.scheduler"),
            "faas.scheduler.select_us": self_us("faas.scheduler.select"),
            "faas.scheduler.steals": self._calls("Invoker.adopt"),
            "faas.scheduler.routing_skew": float(getattr(cluster, "routing_skew", 0.0)),
            "faas.invoker.self_us": self_us("faas.invoker"),
            "faas.invoker.warm_frac": float(getattr(cluster, "warm_hit_rate", 0.0)),
            "faas.invoker.cold_starts": self._calls("callback coldstart"),
            "faas.invoker.restores": self._calls("callback restore"),
            "faas.invoker.snapshot_discard_frac": discards / demotes if demotes else 0.0,
            "faas.invoker.queue_wait_p99_ms": queue_wait_p99_ms,
            "faas.container.self_us": self_us("faas.container"),
            "faas.container.boot_us": (
                initialize.incl_norm * per_arrival_us if initialize is not None else 0.0
            ),
            "faas.container.executions_retained": retained,
            "core.policy.self_us": self_us("core.policy"),
            "core.manager.self_us": self_us("core.manager"),
            "core.restore.self_us": self_us("core.restore"),
            "core.snapshot.self_us": self_us("core.snapshot"),
            "runtime.self_us": self_us("runtime"),
            "core.restore.pages_restored_per_req": (
                self.pages_restored / self.restores if self.restores else 0.0
            ),
            "core.restore.unavailable_ms": (
                self.restore_seconds / self.restores * 1000.0 if self.restores else 0.0
            ),
            "faas.metrics.write_us": self_us("faas.metrics.write"),
            "faas.metrics.read_us": self_us("faas.metrics.read"),
            "faas.controlplane.self_us": self_us("faas.controlplane"),
            "faas.controlplane.ticks": self._calls("callback control-plane"),
            "bench.driver.self_us": self_us(DRIVER_BUCKET),
            "python.gc_us": self_us(GC_BUCKET),
        }
        boundaries = {
            name: {
                "bucket": self.buckets[name],
                "calls": stat.calls,
                "self_us": stat.self_norm * per_arrival_us,
                "incl_us": stat.incl_norm * per_arrival_us,
            }
            for name, stat in sorted(self.stats.items())
        }
        other_us = self_us(OTHER_BUCKET)
        self._write_spans()
        return {
            "metrics": metrics,
            "boundaries": boundaries,
            "other_us": other_us,
            "absent": self.absent,
            "spans_file": os.path.relpath(self.spans_path),
            "sampled_arrivals": len(self.sampled),
        }

    def _write_spans(self) -> None:
        os.makedirs(os.path.dirname(self.spans_path), exist_ok=True)
        with open(self.spans_path, "w") as handle:
            for name, sequence, parent, start, end, rid in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "span": sequence,
                    "parent": parent,
                    "start_us": round(start * 1e6, 3),
                    "end_us": round(end * 1e6, 3),
                    "invocation": rid,
                }) + "\n")


def _shift(id_spec: Optional[tuple]) -> Optional[tuple]:
    """Methods patched on a class get ``self`` first: move positions by one."""
    if id_spec is None or id_spec[0] == "ret":
        return id_spec
    return (id_spec[0], id_spec[1] + 1) + tuple(id_spec[2:])


def _invocation_id(id_spec: tuple, args: tuple, kwargs: dict) -> Optional[str]:
    kind, position = id_spec[0], id_spec[1]
    if kind == "arg":
        value = args[position] if len(args) > position else None
        return getattr(value, "invocation_id", None)
    value = args[position] if len(args) > position else kwargs.get(id_spec[2])
    return value if isinstance(value, str) and value else None

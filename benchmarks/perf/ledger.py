"""Per-layer wall-time ledger, measured from outside the simulator.

The simulator runs every layer synchronously inside one scheduler
callback (a packet delivery runs switch forwarding, the detour decision,
queueing, the next transmit and the TCP handler in one stack), so a
per-callback profile books almost everything to ``link.deliver``.  This
module instead wraps the entry points of each layer's classes and keeps
a stack of open calls, so every wrapped call's *self* time — its wall
time minus the wall time of the wrapped calls nested inside it — lands
on the layer that owns the method.

Rules the wrappers follow:

* They are installed on the classes, before any network is built:
  ``Port.attach_peer`` caches the peer's bound ``receive`` and scheduled
  events hold bound methods, so anything bound before installation would
  bypass the wrapper.
* Every class in a base's subclass tree that defines the method itself
  gets its own wrapper; inherited definitions are reached through the
  base's wrapper.
* A call nested directly inside the same layer and method name (a
  ``super()`` call) adds time but not a second call, so ``calls`` counts
  logical entries.
* Only the caller decides when to install them.  The benchmark does so
  in the traced subprocess alone, never in a timed sample.

Closure.  With ``callbacks=True`` the tracer also watches what the
scheduler is asked to run: a callback that is not a wrapped entry point
(a port's PFC ``resume``, a lambda, a sampler) is scheduled behind a
shim that times it.  The shim's self time is callback time no layer
owns, so the ledger closes only when that time is negligible:
Σ layer self time is compared with Σ top-level time (callbacks, run-loop
hooks and whatever ``Network.run`` calls around the loop), which the
shims make an independent measurement.
"""

from __future__ import annotations

import importlib
import time

# layer -> [(module, base class, entry-point methods)]
SIM_LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "sim.schedule": [
        ("repro.sim.engine", "Scheduler",
         ("schedule", "schedule_at", "schedule_once", "schedule_reserved", "cancel")),
        # Most cancellations go through the event handle directly.
        ("repro.sim.engine", "Event", ("cancel",)),
    ],
    "net.link": [
        ("repro.net.link", "Port", ("send", "_tx_next", "_deliver", "set_down", "set_up")),
    ],
    "net.switch": [
        ("repro.net.switch", "Switch", ("receive", "_drop")),
    ],
    "core.detour": [
        ("repro.net.switch", "Switch", ("_detour", "detour_candidates")),
        ("repro.core.detour", "DetourPolicy", ("choose", "should_detour")),
    ],
    "net.queues": [
        ("repro.net.queues", "DropTailQueue", ("enqueue", "dequeue", "is_full")),
        ("repro.net.queues", "PFabricQueue", ("enqueue", "dequeue", "is_full")),
        ("repro.net.queues", "DynamicBufferQueue", ("enqueue", "dequeue", "is_full")),
        ("repro.net.queues", "SharedBufferPool", ("admits",)),
    ],
    "net.host": [
        ("repro.net.host", "Host", ("send", "receive")),
    ],
    "transport": [
        ("repro.transport.tcp", "TcpSender",
         ("start", "on_ack", "_on_timeout", "_transmit_segment")),
        ("repro.transport.tcp", "TcpReceiver", ("on_data", "_on_delack_timeout")),
        ("repro.transport.pacing", "PacedSender", ("_on_pace_timer",)),
    ],
    "workload": [
        ("repro.workload.query", "QueryTraffic", ("_arrival",)),
        ("repro.workload.background", "BackgroundTraffic", ("_arrival",)),
        ("repro.workload.background", "DiurnalBackgroundTraffic", ("_candidate",)),
        ("repro.net.network", "Network", ("start_flow",)),
    ],
    "metrics": [
        ("repro.metrics.collector", "MetricsCollector", ("add_flow", "new_query")),
        ("repro.metrics.collector", "QueryRecord", ("_flow_done",)),
    ],
    "faults": [
        ("repro.faults.injector", "FaultInjector", ("_apply",)),
        ("repro.faults.guards", "InvariantChecker", ("_check", "check_now")),
    ],
    # The livelock watchdog hook runs on every simulation (every 100k
    # events), so it is kept out of ``faults``: that layer then makes
    # calls only where faults are injected or audited mid-run.
    "watchdog": [
        ("repro.faults.watchdog", "Watchdog", ("_tick",)),
    ],
    "control": [
        ("repro.control.controller", "RuntimeController", ("_tick",)),
    ],
}

EXPERIMENT_LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "experiments.executor": [
        ("repro.experiments.parallel", "WorkerPool", ("launch", "poll")),
    ],
    "experiments.journal": [
        ("repro.experiments.journal", "RunJournal", ("record_success", "lookup")),
    ],
}

# Scheduler methods that take a callback -> the callback's position
# among the arguments after ``self``.
CALLBACK_ARG = {"schedule": 1, "schedule_at": 1, "schedule_once": 1, "schedule_reserved": 2}
# The pseudo-layer that holds callback time no layer owns.
UNWRAPPED = "unwrapped"

# Modules whose subclasses must exist before the subclass walk.
_SUBCLASS_MODULES = (
    "repro.net.cioq",
    "repro.transport.fairq",
    "repro.transport.mptcp",
    "repro.transport.pfabric",
    "repro.transport.tinybuf",
)

_MARK = "__perf_layer__"


def _subclass_tree(cls) -> list[type]:
    seen: list[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def entry_points(layers) -> list[tuple[str, type, str]]:
    """Every ``(layer, class, method)`` whose class defines the method."""
    for name in _SUBCLASS_MODULES:
        importlib.import_module(name)
    found = []
    for layer, specs in layers.items():
        for module, base, methods in specs:
            root = getattr(importlib.import_module(module), base)
            for cls in _subclass_tree(root):
                for method in methods:
                    if method in cls.__dict__ and (layer, cls, method) not in found:
                        found.append((layer, cls, method))
    return found


def _raw(cls, method):
    attr = cls.__dict__[method]
    return attr.__func__ if isinstance(attr, staticmethod) else attr


def wrapped_count(layers) -> int:
    """How many entry points currently carry a ledger wrapper."""
    return sum(1 for _layer, cls, method in entry_points(layers)
               if hasattr(_raw(cls, method), _MARK))


class Tracer:
    """Self-time and call accounting for a set of layers."""

    def __init__(self, layers, entries=None, callbacks: bool = False) -> None:
        self.layers = list(layers)
        self._entries = entry_points(layers) if entries is None else entries
        # One slot per (layer, method name): subclass overrides share it,
        # which is what makes a super() call recognisable.
        self.keys: list[str] = []
        for layer, _cls, method in self._entries:
            key = f"{layer}:{method}"
            if key not in self.keys:
                self.keys.append(key)
        self.callbacks = callbacks
        if callbacks:
            self.layers.append(UNWRAPPED)
            self.keys.append(f"{UNWRAPPED}:callback")
        # qualname -> how often it was scheduled without a wrapper
        self.unwrapped: dict[str, int] = {}
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.keys)
        self.top = [0.0]  # summed wall of top-level calls (entry points and shims)
        self._stack: list[float] = []
        self._open: list[int] = []
        self._saved: list[tuple[type, str, object]] = []
        self._marks: dict[str, dict] = {}

    def _wrap(self, fn, layer_slot: int, key_slot: int):
        clock = time.perf_counter
        stack = self._stack
        open_keys = self._open
        self_s = self.self_s
        calls = self.calls
        top = self.top

        def wrapper(*args, **kwargs):
            nested_same = bool(open_keys) and open_keys[-1] == key_slot
            stack.append(0.0)
            open_keys.append(key_slot)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                open_keys.pop()
                child = stack.pop()
                self_s[layer_slot] += elapsed - child
                if not nested_same:
                    calls[key_slot] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    top[0] += elapsed

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, self.layers[layer_slot])
        return wrapper

    def _catch(self, method, index: int):
        """``method`` with its callback argument put behind a timing shim,
        unless the callback is a wrapped entry point."""
        wrap = self._wrap
        layer_slot = self.layers.index(UNWRAPPED)
        key_slot = self.keys.index(f"{UNWRAPPED}:callback")
        unwrapped = self.unwrapped

        def catching(sched, *args):
            fn = args[index]
            if not hasattr(getattr(fn, "__func__", fn), _MARK):
                name = getattr(fn, "__qualname__", type(fn).__name__)
                unwrapped[name] = unwrapped.get(name, 0) + 1
                args = args[:index] + (wrap(fn, layer_slot, key_slot),) + args[index + 1:]
            return method(sched, *args)

        return catching

    def install(self) -> "Tracer":
        if self.callbacks:
            # Beneath the sim.schedule wrappers, so the check is booked
            # to that layer rather than to the caller's.
            from repro.sim.engine import Scheduler

            for method, index in CALLBACK_ARG.items():
                attr = Scheduler.__dict__[method]
                self._saved.append((Scheduler, method, attr))
                setattr(Scheduler, method, self._catch(attr, index))
        for layer, cls, method in self._entries:
            attr = cls.__dict__[method]
            layer_slot = self.layers.index(layer)
            key_slot = self.keys.index(f"{layer}:{method}")
            self._saved.append((cls, method, attr))
            if isinstance(attr, staticmethod):
                setattr(cls, method, staticmethod(self._wrap(attr.__func__, layer_slot, key_slot)))
            else:
                setattr(cls, method, self._wrap(attr, layer_slot, key_slot))
        return self

    def uninstall(self) -> None:
        for cls, method, attr in reversed(self._saved):
            setattr(cls, method, attr)
        self._saved.clear()

    def _snapshot(self) -> dict:
        return {"self_s": list(self.self_s), "calls": list(self.calls), "top": self.top[0]}

    def start(self) -> None:
        """Open the measured window (call just before it starts)."""
        self._marks["before"] = self._snapshot()

    def stop(self) -> None:
        """Close the measured window (call just after it ends)."""
        self._marks["after"] = self._snapshot()

    def ledger(self, window_s: float) -> dict:
        """Per-layer numbers for the window between start() and stop()."""
        before, after = self._marks["before"], self._marks["after"]
        layer_calls = {layer: 0 for layer in self.layers}
        entry_calls = {}
        for slot, key in enumerate(self.keys):
            count = after["calls"][slot] - before["calls"][slot]
            entry_calls[key] = count
            layer_calls[key.split(":", 1)[0]] += count
        layers = {}
        for slot, layer in enumerate(self.layers):
            spent = after["self_s"][slot] - before["self_s"][slot]
            calls = layer_calls[layer]
            layers[layer] = {
                "calls": calls,
                "self_s": spent,
                "share": spent / window_s if window_s > 0 else 0.0,
                "ns_per_call": spent / calls * 1e9 if calls else 0.0,
            }
        top_s = after["top"] - before["top"]
        owned_s = sum(row["self_s"] for layer, row in layers.items() if layer != UNWRAPPED)
        # The layers must own all top-level time (which the callback shims
        # make independent of them), and that time must fit in the window.
        closure_s = abs(top_s - owned_s) + max(0.0, top_s - window_s)
        return {
            "layers": layers,
            "entry_calls": entry_calls,
            "top_s": top_s,
            "closure_error": closure_s / window_s if window_s > 0 else 0.0,
            "unwrapped_callbacks": dict(self.unwrapped),
        }


def wrapper_overhead_ns(calls: int = 200_000) -> float:
    """Cost a ledger wrapper adds to one call, timed on a no-op method."""

    class _Noop:
        def hit(self) -> None:
            pass

    probe = _Noop()
    bare = _time_calls(probe.hit, calls)
    tracer = Tracer(["probe"], entries=[("probe", _Noop, "hit")]).install()
    wrapped = _time_calls(probe.hit, calls)
    tracer.uninstall()
    return max(0.0, (wrapped - bare) / calls * 1e9)


def _time_calls(fn, calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - started

"""Reference binary-heap discrete-event engine.

This is the original ``heapq``-backed scheduler, kept alive after the
calendar-queue rewrite of :mod:`repro.sim.engine` as the *reference
implementation*: both engines realise the exact same ``(time, seq)``
total order, so any fixed-seed experiment must produce bit-identical
results on either.  ``benchmarks/bench_engine_speed.py`` runs that A/A
identity check (and the speed comparison) on every CI pass, and
``REPRO_ENGINE=heap`` (see :func:`repro.sim.engine.make_scheduler`)
selects this engine for a whole run when debugging a suspected calendar
bug.

The class mirrors the full scheduler API — including the elision
primitives (:meth:`reserve_seq` / :meth:`schedule_reserved` /
``schedule_once``), the logical ``events_processed`` accounting and the
rejection of negative, past and non-finite times — so the port layer's
event elision behaves identically here.  The event free list is
deliberately *not* replicated: this engine optimises for
obvious correctness, not speed.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.engine import (
    _INF,
    DEFAULT_MAX_PENDING_EVENTS,
    Event,
    ResourceError,
    SimulationError,
    invalid_schedule,
    schedule_tx_calls,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import SchedulerProfiler

__all__ = ["HeapScheduler"]


class HeapScheduler:
    """Single-threaded discrete-event scheduler backed by a binary heap.

    Drop-in replacement for :class:`repro.sim.engine.Scheduler` (same
    API, same event ordering, bit-identical results for identical seeds);
    O(log n) per push/pop instead of the calendar queue's amortised O(1).
    """

    __slots__ = ("now", "_heap", "_seq", "_now_seq", "_events_processed",
                 "_events_elided", "_running", "max_pending_events",
                 "profiler", "_hooks", "_cancelled_pending")

    def __init__(self, max_pending_events: Optional[int] = DEFAULT_MAX_PENDING_EVENTS) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._now_seq: int = -1
        self._events_processed: int = 0
        self._events_elided: int = 0
        self._running: bool = False
        self._cancelled_pending: int = 0
        self.max_pending_events: Optional[int] = max_pending_events or None
        self._hooks: list[tuple[Callable[["HeapScheduler"], None], int]] = []
        self.profiler: Optional["SchedulerProfiler"] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise invalid_schedule(fn, delay, 0.0, "delay")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not self.now <= time < _INF:
            raise invalid_schedule(fn, time, self.now, "time")
        self._check_pressure(fn, time)
        ev = Event(time, self._seq, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def _check_pressure(self, fn: Callable[..., Any], time: float) -> None:
        if self.max_pending_events is not None and len(self._heap) >= self.max_pending_events:
            raise ResourceError(
                f"event queue exceeded {self.max_pending_events} pending events at "
                f"t={self.now:.9f}s ({self._events_processed} processed) while scheduling "
                f"{getattr(fn, '__qualname__', fn)} for t={time:.9f}s — runaway scheduling "
                f"loop aborted before the process runs out of memory"
            )

    def schedule_once(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Fire-and-forget schedule: :meth:`schedule_reserved` at ``now +
        delay`` under a fresh sequence number (see the calendar engine's
        docstring; the heap engine recycles nothing)."""
        if not 0.0 <= delay < _INF:
            raise invalid_schedule(fn, delay, 0.0, "delay")
        seq = self._seq
        self._seq = seq + 1
        return self.schedule_reserved(self.now + delay, seq, fn, *args)

    def schedule_tx(self, tx: float, tx_fn: Callable[..., Any], at: float,
                    fn: Callable[..., Any], *args: Any) -> Event:
        """The tx-done at ``now + tx``, then ``fn(*args)`` at ``at``, each
        a :meth:`schedule_reserved` under a fresh sequence number,
        returning the second event (see the calendar engine's docstring;
        here it is just the two calls)."""
        return schedule_tx_calls(self, tx, tx_fn, at, fn, args)

    def reserve_seq(self) -> int:
        """Claim the next sequence number without inserting an event (the
        elision primitive — see the calendar engine's docstring)."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(self, time: float, seq: int, fn: Callable[..., Any],
                          *args: Any) -> Event:
        """Materialize a :meth:`reserve_seq`-ed event at its original
        ``(time, seq)`` position in the total order.  Guarded by
        ``max_pending_events`` like :meth:`schedule_at`."""
        if not self.now <= time < _INF:
            raise invalid_schedule(fn, time, self.now, "time")
        self._check_pressure(fn, time)
        ev = Event(time, seq, fn, args, self)
        ev.recyclable = True
        heapq.heappush(self._heap, ev)
        return ev

    @staticmethod
    def cancel(event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op on ``None``)."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # run-loop hooks
    # ------------------------------------------------------------------
    def add_hook(self, fn: Callable[["HeapScheduler"], None], interval_events: int) -> tuple:
        """Invoke ``fn(self)`` from the run loop every ``interval_events``
        processed events (see the calendar engine for semantics)."""
        if interval_events < 1:
            raise SimulationError("hook interval must be at least one event")
        handle = (fn, interval_events)
        self._hooks.append(handle)
        return handle

    def remove_hook(self, handle: tuple) -> None:
        """Detach a hook registered with :meth:`add_hook` (no-op if absent)."""
        try:
            self._hooks.remove(handle)
        except ValueError:
            pass

    def _hook_states(self) -> list[list]:
        return [[interval, interval, fn] for fn, interval in self._hooks]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is passed, or
        ``max_events`` have been processed.  Returns events processed.
        """
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run())")
        self._running = True
        try:
            if self.profiler is None:
                processed = self._run_plain(until, max_events)
            else:
                processed = self._run_profiled_sampled(until, max_events)
        finally:
            self._running = False
        if max_events is None or processed < max_events:
            # Drained or passed the horizon: everything ordered at or
            # before (now, any seq) has fired, so the order position moves
            # past all sequence numbers issued so far (elided reservations
            # at exactly ``until`` rely on this — see Port._settle_tx).
            self._now_seq = self._seq
            if until is not None and self.now < until:
                self.now = until
        return processed

    def _run_plain(self, until: Optional[float], max_events: Optional[int]) -> int:
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        hooks = self._hook_states()
        base = self._events_processed
        try:
            while heap:
                ev = heap[0]
                if until is not None and ev.time > until:
                    break
                heappop(heap)
                if ev.cancelled:
                    self._cancelled_pending -= 1
                    continue
                # Settle the event (see Event.cancel) before dispatch so a
                # callback cancelling its own handle stays a no-op.
                ev.cancelled = True
                self.now = ev.time
                self._now_seq = ev.seq
                ev.fn(*ev.args)
                processed += 1
                if hooks:
                    for state in hooks:
                        state[0] -= 1
                        if state[0] <= 0:
                            state[0] = state[1]
                            self._events_processed = base + processed
                            state[2](self)
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._events_processed = base + processed
        return processed

    def _run_profiled_sampled(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The profiled loop, sampled or (``sample_stride=1``) exact;
        mirrors the calendar engine's, see
        :class:`repro.obs.profiler.SchedulerProfiler`."""
        from time import perf_counter

        profiler = self.profiler
        slot_of = profiler._by_fn.get
        slot_for = profiler._slot_for
        stride = profiler.sample_stride
        rng = 0x2545F491  # fixed seed: profiles are deterministic across runs
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        hooks = self._hook_states()
        base = self._events_processed
        done_ev = None  # last *executed* event, for the leftover flush
        window = countdown = stride
        last = perf_counter()
        try:
            while heap:
                ev = heap[0]
                if until is not None and ev.time > until:
                    break
                heappop(heap)
                if ev.cancelled:
                    self._cancelled_pending -= 1
                    continue
                ev.cancelled = True
                self.now = ev.time
                self._now_seq = ev.seq
                ev.fn(*ev.args)
                processed += 1
                done_ev = ev
                countdown -= 1
                if countdown <= 0:
                    now_wall = perf_counter()
                    fn = ev.fn
                    key = getattr(fn, "__func__", fn)
                    slot = slot_of(key)
                    if slot is None:
                        slot = slot_for(key, fn)
                    slot[0] += window
                    slot[1] += now_wall - last
                    last = now_wall
                    rng = (rng * 1103515245 + 12345) & 0xFFFFFFFF
                    window = countdown = stride + (rng >> 16) % stride
                if hooks:
                    for state in hooks:
                        state[0] -= 1
                        if state[0] <= 0:
                            state[0] = state[1]
                            self._events_processed = base + processed
                            # A window that closed on this event has
                            # just read the clock: open the bracket there,
                            # so exact mode (every window closes) spends no
                            # extra read and charges no tick to the hook.
                            hook_started = last if countdown == window else perf_counter()
                            state[2](self)
                            last += perf_counter() - hook_started
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._events_processed = base + processed
            leftover = window - countdown
            if leftover > 0 and done_ev is not None:
                fn = done_ev.fn
                key = getattr(fn, "__func__", fn)
                slot = slot_of(key)
                if slot is None:
                    slot = slot_for(key, fn)
                slot[0] += leftover
                slot[1] += perf_counter() - last
        return processed

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the heap is empty."""
        return self.run(max_events=1) > 0

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        return heap[0].time if heap else None

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled_pending

    @property
    def events_processed(self) -> int:
        """Total events executed over the scheduler's lifetime, including
        elided no-op dispatches (see the calendar engine's docstring)."""
        return self._events_processed + self._events_elided

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        # Settle discarded events so a stale handle cancelled after the
        # reset cannot skew the fresh _cancelled_pending count.
        for ev in self._heap:
            ev.cancelled = True
        self._heap.clear()
        self.now = 0.0
        self._seq = 0
        self._now_seq = -1
        self._events_processed = 0
        self._events_elided = 0
        self._cancelled_pending = 0

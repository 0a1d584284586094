"""Discrete-event simulation engine.

The engine is a calendar of timestamped events backed by a **calendar
queue** (Brown 1988): a ring of time buckets plus an overflow band, sized
so that in the simulator's steady state an insert is an O(1) append and a
pop is an O(1) list step.  Everything else in the simulator (links,
switches, transports, workload generators) schedules callbacks on a single
:class:`Scheduler`.

Why a calendar queue beats the old binary heap here: event times cluster
within a few RTTs of ``now`` (serialization times and propagation delays
bound how far ahead anything schedules), which is exactly the regime where
bucketed insertion wins — a heap pays O(log n) comparisons per push *and*
per pop, and with a pure-Python comparison of events each one is a
Python call.  The calendar does no comparisons at all on the fast path.

Design notes
------------
* Time is a float, in **seconds** of simulated time.  Every insert path
  rejects a negative delay, a time in the past and a non-finite (``inf``
  or NaN) time before it touches any state.
* Events scheduled for the same timestamp fire in FIFO order of scheduling
  (a monotonically increasing sequence number breaks ties), which makes
  runs fully deterministic.  The total order is exactly ``(time, seq)``,
  the order of a plain sorted list (``tests/reference_scheduler.py``, the
  differential tests' reference), so identical seeds produce
  bit-identical results; ``tests/golden`` pins recorded results.
* Cancellation is O(1): the event is flagged and skipped when consumed.  A
  live count of cancelled-but-not-yet-consumed events makes
  :attr:`pending` O(1) too, so watchdogs and heartbeats can poll it every
  few thousand events without an O(calendar) scan.
* Run-loop hooks (:meth:`add_hook`) and the :attr:`profiler`'s sampling
  window share one countdown, the events until the next of them is due,
  so plain and profiled runs take one loop and either costs a local
  decrement per event.  :meth:`step` is a one-event :meth:`run`, so it
  fires hooks and feeds the profiler too.
* Two methods hold the single-event insert: :meth:`schedule_at` (a
  plain event) and :meth:`schedule_reserved` (a recyclable one, at a
  reserved or fresh sequence number).  :meth:`schedule` and
  :meth:`schedule_once` validate a relative delay and delegate to them,
  and every port delivery is a ``schedule_reserved`` call, so a wrapper
  on that one method sees all of them.
* Recyclable events go through a LIFO free list threaded through
  :attr:`Event.free_next`: the run loop parks each one it settles, and
  the next ``schedule_reserved`` pops it instead of allocating.  A link
  callback typically schedules two of these per event it settles, so a
  single spare would miss half of them; the list catches them all with a
  few attribute stores and no Python call.  A parked event drops its
  ``args`` so it does not keep a delivered packet alive.  Only events
  whose handle never escapes the scheduler/port machinery are recycled,
  so a stale external handle can never cancel a recycled (reused) event.
* A busy port's transmit inserts its tx-done and the packet's delivery
  with one call, :meth:`schedule_tx`, whether the link's delay is fixed
  or jittered: it places both events exactly as two ``schedule_reserved``
  calls under fresh sequence numbers would.  Whenever one of those calls
  would fail, or ``schedule_reserved`` has been replaced on the class (an
  instrumenting wrapper that must see every callback), it makes the two
  calls instead.

Calendar layout
---------------
``_buckets`` is a ring of ``_NBUCKETS`` lists.  An event at time ``t``
has the absolute bucket index ``idx = int((t - _wstart) * _inv_width)``
and lives in ring slot ``idx & _MASK``; float subtraction, multiply and
truncation are all monotone non-decreasing in ``t``, so bucket indices
can never invert the time order.  ``_cur`` is the absolute index of the
bucket being consumed, so the ring *slides*: it always covers the one
revolution ``[_cur, _cur + _NBUCKETS)``, however far the cursor has
moved, and the look-ahead never shrinks as the cursor advances.

* An insert with ``_cur < idx < _cur + _NBUCKETS`` appends to its bucket,
  which is sorted once, by ``(time, seq)``, when the cursor enters it.
* An insert with ``idx <= _cur`` goes into the current bucket through
  ``bisect.insort`` keyed on time, from the consumption cursor on: every
  new event satisfies ``(t, s) > (now, now_seq)``, so its place is at or
  after the cursor.
* An insert a full revolution ahead or more goes to ``_overflow``, a heap
  of ``(time, seq, event)`` tuples (tuple comparison stays in C).  When
  the cursor enters a bucket, the overflow heads that are now within one
  revolution move into the ring.  ``_slow_at`` is the first cursor value
  at which that (or the width check below) has work to do, so entering a
  bucket with nothing due costs one comparison.
* The width adapts to the workload's event density without any
  configuration.  Once per revolution, from the events dispatched since
  the last estimate (at least ``_WIDTH_MIN_SAMPLE`` of them), the width
  that would hold ``_WIDTH_EVENTS_PER_BUCKET`` events per bucket is
  estimated, damped to a 4x change and clamped to global bounds.  The
  window is rebuilt only when the estimate leaves a 2x band around the
  current width: the ring is re-based at the earliest pending event and
  every non-empty bucket is re-bucketed.  When the ring drains with
  events left in the overflow band, the window jumps to the overflow
  head, taking the new estimate as it goes.

The width, the rebuilds and the migrations are pure functions of the
event stream, and none of them can reorder events, so the dispatch order
stays exactly ``(time, seq)`` whatever the geometry.
"""

from __future__ import annotations

import time as _time
from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import SchedulerProfiler

__all__ = [
    "Event",
    "Scheduler",
    "SimulationError",
    "LivelockError",
    "ResourceError",
    "DEFAULT_MAX_PENDING_EVENTS",
]

# Upper bound on the pending-event calendar before a run is declared
# runaway.  Five million entries is roughly half a gigabyte of Event
# objects — far beyond anything a healthy scenario schedules (the biggest
# full-scale sweeps stay under a few hundred thousand pending events), but
# comfortably below the point where the OOM killer takes out the worker
# process without leaving a diagnostic behind.
DEFAULT_MAX_PENDING_EVENTS = 5_000_000

# Calendar-queue geometry.  1024 buckets of adaptive width, indexed by
# masking the absolute bucket index (hence the power of two); anything a
# full revolution or more ahead of the cursor parks in the overflow heap
# until the cursor comes within a revolution of it.  What matters is that
# NBUCKETS * width comfortably covers the few-RTT band where nearly all
# events land.
_NBUCKETS = 1024
_MASK = _NBUCKETS - 1
_MIN_WIDTH = 1e-12
_MAX_WIDTH = 1.0
_INITIAL_WIDTH = 1e-6
# Re-derive the width only from enough dispatched events for the mean gap
# to be a signal, and aim for ~4 events per bucket.
_WIDTH_MIN_SAMPLE = 64
_WIDTH_EVENTS_PER_BUCKET = 4.0

_ORDER = attrgetter("time", "seq")
# Bisect key for *fresh* inserts: a freshly issued event holds the highest
# sequence number in existence, so among equal times it belongs after every
# resident entry — exactly where a right-bisect on time alone lands it,
# without building a (time, seq) tuple per probe.  Only
# ``schedule_reserved`` re-inserts an *old* sequence number and must bisect
# on the full key.
_TIME = attrgetter("time")

# Run-loop sentinels: an unset horizon/budget becomes a value no event can
# exceed, so the per-event bound checks are single comparisons.
_INF = float("inf")
_NO_LIMIT = 1 << 62


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class ResourceError(SimulationError):
    """The simulation exceeded a resource budget (event-queue pressure).

    Raised by :meth:`Scheduler.schedule_at` when the pending-event calendar
    grows past ``max_pending_events``.  A run that schedules events faster
    than it can consume them (a feedback loop amplifying packets, a
    workload generator stuck re-arming itself) would otherwise grow the
    calendar until the kernel OOM-kills the worker — losing the traceback
    and surfacing as an inscrutable crash.  Aborting deterministically
    keeps the failure inside the run, where the experiment executor can
    record it (and, with a journal attached, write a replay bundle).
    """


class LivelockError(SimulationError):
    """The simulation stopped making progress.

    Raised by runtime guards (see :mod:`repro.faults.watchdog`) when events
    keep processing without simulated time advancing, or when a packet's
    hop count explodes past any TTL-derived bound.  Both conditions mean a
    bug (a zero-delay event loop, a forwarding cycle that skips the TTL
    decrement) that would otherwise spin or silently corrupt results.
    """


def invalid_schedule(fn: Callable[..., Any], value: float, floor: float,
                     what: str) -> SimulationError:
    """The error for an insert whose ``what`` (``"delay"`` or ``"time"``)
    is not in ``[floor, inf)``: negative, in the past, infinite or NaN.

    The insert paths test the value with one chained comparison and call
    this only to build the message, before any scheduler state has
    changed."""
    name = getattr(fn, "__qualname__", fn)
    if value < floor:
        problem = (f"negative delay: {value}" if what == "delay"
                   else f"cannot schedule into the past: {value} < {floor}")
    else:
        problem = f"non-finite {what}: {value}"
    return SimulationError(f"{problem} (scheduling {name})")


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Scheduler.schedule` /
    :meth:`Scheduler.schedule_at` and can be cancelled via
    :meth:`Event.cancel`.

    The ``cancelled`` flag doubles as a *settled* marker: the run loop sets
    it when the event fires, so cancelling an event that already executed
    is a no-op and the scheduler's live pending count stays exact.

    ``recyclable`` marks events created by :meth:`Scheduler.schedule_reserved`
    (directly, or through :meth:`Scheduler.schedule_once`: fire-and-forget
    paths whose handle never escapes): once settled — after its callback
    returns, or when consumed cancelled — the run loop parks the event on
    the scheduler's free list (linked through ``free_next``), and the next
    ``schedule_reserved`` reuses it instead of allocating a fresh object.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sched", "recyclable",
                 "free_next")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sched: Optional["Scheduler"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sched = sched
        self.recyclable = False

    def cancel(self) -> None:
        """Mark this event so the scheduler skips it (no-op once settled)."""
        if self.cancelled:
            return
        self.cancelled = True
        sched = self.sched
        if sched is not None:
            sched._cancelled_pending += 1


    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "settled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} seq={self.seq} {state} fn={getattr(self.fn, '__qualname__', self.fn)}>"


class Scheduler:
    """Single-threaded discrete-event scheduler (calendar-queue backed).

    Usage::

        sched = Scheduler()
        sched.schedule(1e-3, callback, arg1, arg2)
        sched.run(until=1.0)
    """

    __slots__ = ("now", "_seq", "_now_seq", "_events_processed", "_events_elided",
                 "_running", "_cap", "profiler", "_hooks", "_cancelled_pending",
                 "_buckets", "_cur", "_pos", "_wstart", "_width", "_inv_width",
                 "_overflow", "_ocount", "_odue", "_slow_at", "_count", "_free",
                 "_rev_next", "_rev_base", "_rev_t", "_ticks", "_window")

    def __init__(self, max_pending_events: Optional[int] = DEFAULT_MAX_PENDING_EVENTS) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        # Sequence number of the most recently dispatched event: together
        # with ``now`` it pins the scheduler's position in the (time, seq)
        # total order, which is what lets ports elide events whose turn
        # has provably passed (see repro.net.link.Port._settle_tx).
        self._now_seq: int = -1
        self._events_processed: int = 0
        # Events whose execution was elided as a no-op by the port layer;
        # counted so ``events_processed`` is the logical event count, the
        # one an engine dispatching every event would report.
        self._events_elided: int = 0
        self._running: bool = False
        # Cancelled events still sitting in the calendar;
        # pending = _count - this.
        self._cancelled_pending: int = 0
        # Event-queue pressure guard: ``None`` (or 0) disables it.
        # Stored as the ``_cap`` sentinel (see max_pending_events property)
        # so the hot schedule paths test it with a single comparison.
        self.max_pending_events = max_pending_events
        # Run-loop hooks (see add_hook): fired every ``interval``
        # processed events, from inside the loop, in install order.  Used
        # by the livelock watchdog (a livelocked simulation never reaches
        # a later timestamp, so a scheduled check would never fire) and by
        # the observability layer (heartbeats, occupancy sampling), so
        # instrumentation never perturbs the event calendar itself.
        self._hooks: list[tuple[Callable[["Scheduler"], None], int]] = []
        # Opt-in per-callback wall-time profiling (repro.obs.profiler).
        # The disabled state costs nothing per event.
        self.profiler: Optional["SchedulerProfiler"] = None
        # The current run's cadence, set by run() for _beat: each hook's
        # ``[next firing count, interval, fn]``, and the profiler's window
        # ``(profiler, first count, closing count, clock at start, LCG
        # state)`` or ``None``.
        self._ticks: list[list] = []
        self._window: Optional[tuple] = None
        # Recyclable events parked after they settled, newest first,
        # linked through Event.free_next (see schedule_once).
        self._free: Optional[Event] = None
        # The calendar (see the module docstring's layout).
        self._buckets: list[list[Event]] = [[] for _ in range(_NBUCKETS)]
        self._cur: int = 0          # absolute index of the bucket being consumed
        self._pos: int = 0          # consumption cursor within that bucket
        self._wstart: float = 0.0   # absolute time of bucket index 0's left edge
        self._width: float = _INITIAL_WIDTH
        self._inv_width: float = 1.0 / _INITIAL_WIDTH
        self._overflow: list[tuple[float, int, Event]] = []
        self._ocount: int = 0       # entries in _overflow (no len() per bucket)
        # First cursor value at which the overflow head is within one
        # revolution (``_NO_LIMIT`` while the heap is empty).
        self._odue: int = _NO_LIMIT
        # Cursor value of the next width check, and the event count and
        # clock at the last estimate.
        self._rev_next: int = _NBUCKETS
        self._rev_base: int = 0
        self._rev_t: float = 0.0
        # min(_odue, _rev_next): entering a bucket below it is the fast path.
        self._slow_at: int = _NBUCKETS
        # Live entries anywhere in the calendar (ring past the cursor plus
        # overflow), including cancelled-but-not-consumed ones.
        self._count: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise invalid_schedule(fn, delay, 0.0, "delay")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.  Hot
        relative-time callers pass ``now + delay`` themselves: the same
        ``(time, seq)`` as :meth:`schedule`, one Python call fewer."""
        if not self.now <= time < _INF:
            raise invalid_schedule(fn, time, self.now, "time")
        count = self._count + 1
        if count > self._cap:
            self._overpressure(fn, time)
        self._count = count
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        idx = int((time - self._wstart) * self._inv_width)
        cur = self._cur
        if 0 < idx - cur < _NBUCKETS:
            self._buckets[idx & _MASK].append(ev)
        elif idx <= cur:
            # Bisect only the live suffix: entries before the
            # consumption cursor are settled and may be recycled Event
            # objects whose (time, seq) now belong to a later
            # incarnation — their keys must never be compared.
            insort(self._buckets[cur & _MASK], ev, key=_TIME, lo=self._pos)
        else:
            self._park_far(idx, time, seq, ev)
        return ev

    def schedule_once(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Like :meth:`schedule`, but :meth:`schedule_reserved` under a fresh
        sequence number, so the event is recycled once it settles: the
        handle must not outlive the machinery that created it.  Callers
        that keep it only until they cancel it (and drop it at settle
        time) qualify; anything that might cancel *after* the event fired
        must use :meth:`schedule`, or a recycled (reused) event could be
        killed through the stale handle."""
        if not 0.0 <= delay < _INF:
            raise invalid_schedule(fn, delay, 0.0, "delay")
        seq = self._seq
        self._seq = seq + 1
        return self.schedule_reserved(self.now + delay, seq, fn, *args)

    def _park_far(self, idx: int, time: float, seq: int, ev: Event) -> None:
        """Insert an event a full revolution or more ahead of the cursor
        into the overflow heap (the rare path, kept out of line)."""
        heappush(self._overflow, (time, seq, ev))
        self._ocount += 1
        due = idx - _NBUCKETS + 1
        if due < self._odue:
            self._odue = due
            if due < self._slow_at:
                self._slow_at = due

    def _overpressure(self, fn: Callable[..., Any], time: float) -> None:
        raise ResourceError(
            f"event queue exceeded {self.max_pending_events} pending events at "
            f"t={self.now:.9f}s ({self._events_processed} processed) while scheduling "
            f"{getattr(fn, '__qualname__', fn)} for t={time:.9f}s — runaway scheduling "
            f"loop aborted before the process runs out of memory"
        )

    def reserve_seq(self) -> int:
        """Claim the next sequence number *without* inserting an event.

        This is the elision primitive: a caller that knows an event would
        be a no-op (see ``Port.send``) reserves its place in the
        ``(time, seq)`` total order so every later event keeps the exact
        sequence number it would have had had the event been inserted, then
        either settles the reservation once its turn has passed or
        materializes it via :meth:`schedule_reserved`.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(self, time: float, seq: int, fn: Callable[..., Any],
                          *args: Any) -> Event:
        """Insert ``fn(*args)`` at ``(time, seq)`` as a recyclable event
        (see :meth:`schedule_once`): the second of the two single-event
        insert bodies.  ``seq`` is either a :meth:`reserve_seq`-ed number,
        when the condition that justified eliding an event stops holding
        (e.g. a packet arrives behind an in-progress transmission), or a
        fresh one the caller took itself — :meth:`schedule_once` and
        every port delivery.  Subject to ``max_pending_events`` like every
        other insert path."""
        if not self.now <= time < _INF:
            raise invalid_schedule(fn, time, self.now, "time")
        count = self._count + 1
        if count > self._cap:
            self._overpressure(fn, time)
        self._count = count
        ev = self._free
        if ev is not None:
            self._free = ev.free_next  # parked events are recyclable already
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, fn, args, self)
            ev.recyclable = True
        idx = int((time - self._wstart) * self._inv_width)
        cur = self._cur
        if 0 < idx - cur < _NBUCKETS:
            self._buckets[idx & _MASK].append(ev)
        elif idx <= cur:
            # Bisect only the live suffix (see schedule_at), on the full
            # key: a reserved seq may be older than resident entries.
            insort(self._buckets[cur & _MASK], ev, key=_ORDER, lo=self._pos)
        else:
            self._park_far(idx, time, seq, ev)
        return ev

    def schedule_tx(self, tx: float, tx_fn: Callable[..., Any], at: float,
                    fn: Callable[..., Any], *args: Any) -> Event:
        """A busy port's transmit in one call: the tx-done ``tx_fn`` at
        ``now + tx``, then ``fn(*args)`` at the absolute time ``at`` (the
        packet's delivery), each under the next fresh sequence number,
        returning the delivery's event.  Both events get the ``(time,
        seq)`` and the free-list events that two
        :meth:`schedule_reserved` calls would give them
        (:func:`schedule_tx_calls`).  When either insert would fail (a bad
        ``tx`` or ``at``, or the pending cap), or ``schedule_reserved``
        has been replaced on the class (a subclass, or a wrapper that must
        see every callback scheduled), this makes those two calls, so they
        fail or are seen exactly as they would be on their own."""
        count = self._count + 2
        now = self.now
        cls = self.__class__
        if (count > self._cap or not 0.0 <= tx < _INF or not now <= at < _INF
                or cls.schedule_reserved is not _SCHEDULE_RESERVED):
            return schedule_tx_calls(self, tx, tx_fn, at, fn, args)
        self._count = count
        seq = self._seq
        self._seq = seq + 2
        cur = self._cur
        # The tx-done, then the delivery under the next sequence number.
        # Both seqs are fresh, so the time-keyed bisects place them as
        # schedule_reserved's full-key ones would.
        for time, call, call_args in ((now + tx, tx_fn, ()), (at, fn, args)):
            ev = self._free
            if ev is not None:
                self._free = ev.free_next  # parked events are recyclable already
                ev.time = time
                ev.seq = seq
                ev.fn = call
                ev.args = call_args
                ev.cancelled = False
            else:
                ev = Event(time, seq, call, call_args, self)
                ev.recyclable = True
            idx = int((time - self._wstart) * self._inv_width)
            if 0 < idx - cur < _NBUCKETS:
                self._buckets[idx & _MASK].append(ev)
            elif idx <= cur:
                insort(self._buckets[cur & _MASK], ev, key=_TIME, lo=self._pos)
            else:
                self._park_far(idx, time, seq, ev)
            seq += 1
        return ev

    # ------------------------------------------------------------------
    # run-loop hooks
    # ------------------------------------------------------------------
    def add_hook(self, fn: Callable[["Scheduler"], None], interval_events: int) -> tuple:
        """Invoke ``fn(self)`` from the run loop every ``interval_events``
        processed events.

        Unlike a scheduled event, a hook fires on *event-count* cadence, so
        it never perturbs the event calendar (identical seeds stay
        bit-identical with hooks installed) and it keeps firing even when
        simulated time is stuck — the property the livelock watchdog relies
        on.  Hooks due on the same event fire in install order; each
        :meth:`run` counts from its own start, and a hook added or removed
        during a run takes effect at the next one.  Returns an opaque
        handle for :meth:`remove_hook`.
        """
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

    # ------------------------------------------------------------------
    # calendar maintenance
    # ------------------------------------------------------------------
    def _scan_overrun(self) -> None:
        raise SimulationError(
            f"calendar bucket scan passed a full revolution from bucket {self._cur} "
            f"without finding the {self._count - self._ocount} entries the ring "
            f"should hold — the calendar's entry count is out of step"
        )

    def _enter_slow(self, cur: int) -> int:
        """Slow path of entering bucket ``cur`` (``cur >= _slow_at``): run
        the per-revolution width check, then move the overflow heads that
        are now within one revolution into the ring and re-arm ``_odue``
        for the next head.  Returns the cursor, which a rebuild re-bases."""
        if cur >= self._rev_next:
            self._rev_next = cur + _NBUCKETS
            width = self._estimate_width()
            if width is not None and not self._width * 0.5 <= width <= self._width * 2.0:
                cur = self._rebuild(cur, width)
        if cur >= self._odue:
            overflow = self._overflow
            buckets = self._buckets
            wstart = self._wstart
            inv_width = self._inv_width
            limit = cur + _NBUCKETS
            moved = 0
            due = _NO_LIMIT
            while overflow:
                idx = int((overflow[0][0] - wstart) * inv_width)
                if idx >= limit:
                    due = idx - _NBUCKETS + 1
                    break
                buckets[idx & _MASK].append(heappop(overflow)[2])
                moved += 1
            self._ocount -= moved
            self._odue = due
        self._slow_at = self._odue if self._odue < self._rev_next else self._rev_next
        return cur

    def _estimate_width(self) -> Optional[float]:
        """Width for ``_WIDTH_EVENTS_PER_BUCKET`` events per bucket, from
        the mean gap between the events dispatched since the last
        estimate, damped to a 4x change and clamped to global bounds.

        ``None`` while fewer than ``_WIDTH_MIN_SAMPLE`` events have been
        dispatched since then: the sample keeps accumulating across
        revolutions.  Otherwise the sample restarts here.  A pure function
        of the event stream, so runs stay deterministic."""
        processed = self._events_processed
        consumed = processed - self._rev_base
        if consumed < _WIDTH_MIN_SAMPLE:
            return None
        span = self.now - self._rev_t
        self._rev_base = processed
        self._rev_t = self.now
        width = self._width
        if span <= 0.0:
            return width
        est = (span / consumed) * _WIDTH_EVENTS_PER_BUCKET
        hi = width * 4.0
        lo = width * 0.25
        if est > hi:
            est = hi
        elif est < lo:
            est = lo
        if est < _MIN_WIDTH:
            est = _MIN_WIDTH
        elif est > _MAX_WIDTH:
            est = _MAX_WIDTH
        return est

    def _rebuild(self, cur: int, width: float) -> int:
        """Re-base the ring at the earliest pending event (the head of
        bucket ``cur``, which the cursor is entering) with a new bucket
        ``width``, and re-bucket every non-empty bucket; entries now a
        revolution or more ahead go to the overflow heap.  Returns the
        new cursor, 0."""
        buckets = self._buckets
        wstart = min(buckets[cur & _MASK], key=_TIME).time
        entries = []
        for bucket in buckets:
            if bucket:
                entries += bucket
                bucket.clear()
        self._width = width
        self._inv_width = inv_width = 1.0 / width
        self._wstart = wstart
        self._cur = 0
        self._rev_next = _NBUCKETS
        overflow = self._overflow
        for ev in entries:
            time = ev.time
            idx = int((time - wstart) * inv_width)
            if idx < _NBUCKETS:
                buckets[idx].append(ev)
            else:
                heappush(overflow, (time, ev.seq, ev))
                self._ocount += 1
        self._odue = 0  # re-armed by the migration _enter_slow runs next
        return 0

    def _jump(self) -> int:
        """The ring drained with events left in the overflow band: move
        the window to the overflow head (taking a fresh width estimate if
        one is ready) and refill the ring from the band.  Returns the new
        cursor, 0."""
        width = self._estimate_width()
        if width is not None:
            self._width = width
            self._inv_width = 1.0 / width
        self._wstart = self._overflow[0][0]
        self._cur = 0
        self._rev_next = _NBUCKETS
        self._odue = 0  # the head is due at once
        return self._enter_slow(0)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the calendar drains, ``until`` is passed, or
        ``max_events`` have been processed.  Returns events processed.

        Plain and profiled runs take the same loop.  Its one countdown,
        ``due``, holds the events left until the next hook or the end of
        the profiler's window (``_NO_LIMIT`` with neither), so either
        costs a local decrement per event — what keeps profiled runs
        inside their 8% budget on microsecond-scale events.  At 0 it calls
        :meth:`_beat`.  Hooks and windows count from the start of each run.
        """
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run())")
        processed = 0
        base = self._events_processed
        fn = None  # the last executed event's callback
        self._ticks = [[base + interval, interval, hook] for hook, interval in self._hooks]
        profiler = self.profiler
        if profiler is None:
            self._window = None
        else:
            # Fixed LCG seed: profiles are deterministic across runs.
            self._window = (profiler, base, base + profiler.sample_stride,
                            _time.perf_counter(), 0x2545F491)
        due = self._beat(None)
        # Sentinels turn the per-event "is a bound set?" double checks
        # into single comparisons.
        horizon = _INF if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        # The consumption cursor and ``events_processed`` are kept in
        # locals and flushed at the slow path, before hook calls and on
        # exit — so hooks and re-entrant scheduling observe exact state
        # while the per-event cost stays a couple of local updates.
        buckets = self._buckets
        cur = self._cur
        bucket = buckets[cur & _MASK]
        pos = self._pos
        if pos:
            # Resuming mid-bucket (after an ``until``/``max_events`` stop
            # or step()): drop the consumed prefix once, so the bucket
            # walk below starts at the cursor.
            del bucket[:pos]
            pos = self._pos = 0
        # Horizon checks are hoisted to bucket granularity: a bucket whose
        # upper bound (with one spare bucket of slack for float fuzz in the
        # index map) lies at or before the horizon cannot contain an event
        # past it.
        check_h = self._wstart + (cur + 2) * self._width > horizon
        self._running = True
        try:
            while True:
                # A list iterator re-reads the length on every step, so it
                # picks up entries the callbacks add: they land at or after
                # the cursor (insort from ``_pos``, appends at the end).
                for ev in bucket:
                    if check_h and ev.time > horizon:
                        break
                    pos += 1
                    self._count -= 1
                    if ev.cancelled:
                        self._cancelled_pending -= 1
                        if ev.recyclable:
                            ev.args = ()
                            ev.free_next = self._free
                            self._free = ev
                        continue
                    # Settle the event (see Event.cancel) before dispatch
                    # so a callback cancelling its own handle is a no-op.
                    ev.cancelled = True
                    self.now = ev.time
                    self._now_seq = ev.seq
                    # The cursor must be exact during the callback: an
                    # insert into the current bucket bisects from it
                    # (see schedule).
                    self._pos = pos
                    # Held in a local, not read back from the event: a hook
                    # may recycle the event before the exit flush reads it.
                    fn = ev.fn
                    fn(*ev.args)
                    processed += 1
                    if ev.recyclable:
                        # Parked only now that the callback has returned:
                        # a callback may still hold (and cancel) its own
                        # handle, which must stay settled until then.
                        ev.args = ()
                        ev.free_next = self._free
                        self._free = ev
                    due -= 1
                    if not due:
                        self._events_processed = base + processed
                        due = self._beat(fn)
                    if processed >= limit:
                        break
                else:
                    # The bucket is exhausted: advance to the next
                    # non-empty one (the calendar's only bucket walk).
                    bucket.clear()
                    if self._count == self._ocount:
                        # Ring is empty: everything live sits in the
                        # overflow band, or nothing is left at all.
                        if not self._ocount:
                            # Drained.  Rewind the cursor with the cleared
                            # bucket, so an event inserted here after this
                            # run is consumed by the next one.
                            pos = 0
                            break
                        # The width estimate reads the event count.
                        self._events_processed = base + processed
                        cur = self._jump()
                    else:
                        stop = cur + _NBUCKETS
                        cur += 1
                        while not buckets[cur & _MASK]:
                            cur += 1
                            if cur >= stop:
                                self._scan_overrun()
                        if cur >= self._slow_at:
                            self._events_processed = base + processed
                            cur = self._enter_slow(cur)
                        self._cur = cur
                    bucket = buckets[cur & _MASK]
                    bucket.sort(key=_ORDER)
                    pos = 0
                    check_h = self._wstart + (cur + 2) * self._width > horizon
                    continue
                # Horizon passed or event budget spent.
                break
        finally:
            self._running = False
            self._pos = pos
            self._events_processed = done = base + processed
            window = self._window
            if window is not None and done > window[1]:
                # The trailing partial window goes to the last event
                # dispatched (the one that raised, if a callback did): a
                # peeked-but-not-run or cancelled one never takes the
                # charge.  Windows partition the run: totals stay exact.
                _profiler, begin, _end, last, _rng = window
                _profiler.record(fn, _time.perf_counter() - last, done - begin)
        if max_events is None or processed < max_events:
            # The loop stopped because it drained or passed the horizon:
            # every event ordered at or before (now, any seq) has been
            # dispatched, so the order position advances past all sequence
            # numbers issued so far.  Elided reservations at exactly
            # ``until`` rely on this (see Port._settle_tx).
            self._now_seq = self._seq
            if until is not None and self.now < until:
                # Advance the clock to the requested horizon even if dry.
                self.now = until
        return processed

    def _beat(self, fn: Optional[Callable[..., Any]]) -> int:
        """The run loop's slow path, called when its countdown reaches 0
        with ``fn``, the callback of the event just run (and once as a
        run starts, with ``None``: nothing is due yet).  Returns the
        events left until the next hook or window end.

        First it closes the profiler's window if due: the clock is read
        once per window of ``[stride, 2*stride)`` events and the whole
        window is charged to ``fn``'s category.  Totals are exact, the
        split statistical; a deterministic LCG jitters window lengths so a
        periodic event pattern (links alternating tx/deliver) cannot alias
        with the sampling grid.  ``sample_stride=1`` is exact mode: one
        event per window.  The charge is inlined rather than a
        ``profiler.record`` call, since exact mode runs this per event.
        Then it fires the due hooks in install order inside one bracket
        whose wall time the window skips.  The bracket opens at the
        window's own clock read when the window closed here (so exact mode
        spends no extra read) and at a fresh read otherwise.
        """
        n = self._events_processed
        due = _NO_LIMIT
        opened = None  # the clock read the hook bracket opens at
        window = self._window
        if window is not None:
            profiler, begin, end, last, rng = window
            if n >= end:
                opened = now = _time.perf_counter()
                # Bound methods are fresh objects per schedule: the memo
                # keys by the underlying function.
                key = getattr(fn, "__func__", fn)
                slot = profiler._by_fn.get(key)
                if slot is None:
                    slot = profiler._slot_for(key, fn)
                slot[0] += n - begin
                slot[1] += now - last
                rng = (rng * 1103515245 + 12345) & 0xFFFFFFFF
                stride = profiler.sample_stride
                begin, end, last = n, n + stride + (rng >> 16) % stride, now
                # Stored before any hook runs: a hook that raises leaves
                # the exit flush a window that starts here.
                self._window = (profiler, begin, end, last, rng)
            due = end - n
        fired = False
        for tick in self._ticks:
            at = tick[0]
            if at <= n:
                if opened is None and window is not None:
                    opened = _time.perf_counter()
                fired = True
                tick[0] = at = n + tick[1]
                tick[2](self)
            if at - n < due:
                due = at - n
        if fired and window is not None:
            self._window = (profiler, begin, end, last + (_time.perf_counter() - opened), rng)
        return due

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when idle."""
        return self.run(max_events=1) > 0

    @property
    def max_pending_events(self) -> Optional[int]:
        """Event-queue pressure bound; ``None`` means unbounded.

        Backed by the ``_cap`` sentinel (unbounded stores ``_NO_LIMIT``)
        so the schedule hot paths test the bound with a single integer
        comparison instead of a None check plus a second attribute load.
        """
        return None if self._cap == _NO_LIMIT else self._cap

    @max_pending_events.setter
    def max_pending_events(self, value: Optional[int]) -> None:
        # ``None`` and 0 both mean "disabled", matching the historical
        # ``max_pending_events or None`` normalization.
        self._cap = value or _NO_LIMIT

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): cancellation keeps a live count instead of the calendar
        being rescanned per call, so pollers (watchdog, heartbeat, guards)
        can read this every few thousand events for free.
        """
        return self._count - self._cancelled_pending

    @property
    def events_processed(self) -> int:
        """Total events executed over the scheduler's lifetime, including
        events whose dispatch was elided as a provable no-op (the count an
        engine dispatching every event would report)."""
        return self._events_processed + self._events_elided


# What Scheduler.schedule_tx compares the class's insert method against.
_SCHEDULE_RESERVED = Scheduler.schedule_reserved


def schedule_tx_calls(sched, tx: float, tx_fn: Callable[..., Any], at: float,
                      fn: Callable[..., Any], args: tuple) -> Event:
    """``schedule_tx`` as two ``schedule_reserved`` calls, each under a
    fresh sequence number taken only once its time has passed the check
    ``schedule_reserved`` makes (a bad ``tx`` fails with its "delay"
    message, before anything is inserted): :meth:`Scheduler.schedule_tx`'s
    fallback."""
    if not 0.0 <= tx < _INF:
        raise invalid_schedule(tx_fn, tx, 0.0, "delay")
    now = sched.now
    seq = sched._seq
    sched._seq = seq + 1
    sched.schedule_reserved(now + tx, seq, tx_fn)
    if not now <= at < _INF:
        raise invalid_schedule(fn, at, now, "time")
    seq = sched._seq
    sched._seq = seq + 1
    return sched.schedule_reserved(at, seq, fn, *args)


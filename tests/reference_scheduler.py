"""A deliberately naive scheduler: the reference for differential tests.

Its pending events are one Python list kept sorted on ``(time, seq)``:
every insert is a ``bisect.insort`` and every dispatch pops the head.
Nothing is bucketed, recycled, elided or profiled, so it is slow and
obviously right, and that is its whole job: the calendar engine
(:class:`repro.sim.engine.Scheduler`) must dispatch exactly what this
one dispatches, in the same order, for any sequence of operations.

It speaks the part of the scheduler API the differential tests drive
(schedule, schedule_at, schedule_once, reserve_seq, schedule_reserved,
schedule_tx, run, step, pending, events_processed)
plus the attributes a :class:`repro.net.link.Port` reads and writes
(``_seq``, ``_now_seq``, ``_events_elided``, ``profiler``), so a port
can transmit on it.  Inputs are assumed valid: the calendar's checks of
bad delays and times are tested on the calendar directly.
"""

from __future__ import annotations

from bisect import insort

__all__ = ["ReferenceScheduler"]


class _Event:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    def __init__(self):
        self.now = 0.0
        self.profiler = None
        self._seq = 0
        self._now_seq = -1
        self._events_elided = 0
        self._dispatched = 0
        self._queue = []  # (time, seq, event), sorted; seqs are unique

    # -- inserts ---------------------------------------------------------
    def reserve_seq(self):
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(self, time, seq, fn, *args):
        ev = _Event(time, seq, fn, args)
        insort(self._queue, (time, seq, ev))
        return ev

    def schedule_at(self, time, fn, *args):
        return self.schedule_reserved(time, self.reserve_seq(), fn, *args)

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    schedule_once = schedule

    def schedule_tx(self, tx, tx_fn, at, fn, *args):
        self.schedule_reserved(self.now + tx, self.reserve_seq(), tx_fn)
        return self.schedule_reserved(at, self.reserve_seq(), fn, *args)

    # -- execution -------------------------------------------------------
    def run(self, until=None, max_events=None):
        queue = self._queue
        processed = 0
        while queue and (max_events is None or processed < max_events):
            time, seq, ev = queue[0]
            if until is not None and time > until:
                break
            del queue[0]
            if ev.cancelled:
                continue
            ev.cancelled = True  # fired: a later cancel is a no-op
            self.now = time
            self._now_seq = seq
            ev.fn(*ev.args)
            processed += 1
        self._dispatched += processed
        if max_events is None or processed < max_events:
            # Drained or past the horizon: the order position moves past
            # every sequence number issued so far.
            self._now_seq = self._seq
            if until is not None and self.now < until:
                self.now = until
        return processed

    def step(self):
        return self.run(max_events=1) > 0

    @property
    def pending(self):
        return sum(not ev.cancelled for _t, _s, ev in self._queue)

    @property
    def events_processed(self):
        return self._dispatched + self._events_elided

"""Unit tests for the discrete-event scheduler."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    _INITIAL_WIDTH,
    _NBUCKETS,
    ResourceError,
    Scheduler,
    SimulationError,
)
from tests.reference_scheduler import ReferenceScheduler


class TestScheduling:
    def test_single_event_runs_at_its_time(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.5, fired.append, "a")
        sched.run()
        assert fired == ["a"]
        assert sched.now == 1.5

    def test_events_run_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.schedule(3.0, order.append, 3)
        sched.schedule(1.0, order.append, 1)
        sched.schedule(2.0, order.append, 2)
        sched.run()
        assert order == [1, 2, 3]

    def test_ties_break_in_fifo_order(self):
        sched = Scheduler()
        order = []
        for i in range(10):
            sched.schedule(1.0, order.append, i)
        sched.run()
        assert order == list(range(10))

    def test_schedule_at_absolute_time(self):
        sched = Scheduler()
        times = []
        sched.schedule_at(0.25, lambda: times.append(sched.now))
        sched.run()
        assert times == [0.25]

    def test_zero_delay_event_fires(self):
        sched = Scheduler()
        fired = []
        sched.schedule(0.0, fired.append, True)
        sched.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        sched = Scheduler()
        with pytest.raises(SimulationError):
            sched.schedule(-1e-9, lambda: None)

    def test_scheduling_into_the_past_rejected(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sched = Scheduler()
        order = []

        def first():
            order.append("first")
            sched.schedule(1.0, lambda: order.append("nested"))

        sched.schedule(1.0, first)
        sched.run()
        assert order == ["first", "nested"]
        assert sched.now == 2.0


class TestRunControl:
    def test_until_stops_before_later_events(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, 1)
        sched.schedule(5.0, fired.append, 5)
        processed = sched.run(until=2.0)
        assert fired == [1]
        assert processed == 1
        assert sched.now == 2.0  # clock advances to the horizon

    def test_event_exactly_at_until_runs(self):
        sched = Scheduler()
        fired = []
        sched.schedule(2.0, fired.append, 2)
        sched.run(until=2.0)
        assert fired == [2]

    def test_resume_after_until(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, 1)
        sched.schedule(5.0, fired.append, 5)
        sched.run(until=2.0)
        sched.run()
        assert fired == [1, 5]

    def test_max_events_limits_processing(self):
        sched = Scheduler()
        fired = []
        for i in range(10):
            sched.schedule(float(i + 1), fired.append, i)
        processed = sched.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_step_processes_one_event(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, 1)
        sched.schedule(2.0, fired.append, 2)
        assert sched.step() is True
        assert fired == [1]
        assert sched.step() is True
        assert sched.step() is False

    def test_events_processed_counter(self):
        sched = Scheduler()
        for i in range(5):
            sched.schedule(float(i), lambda: None)
        sched.run()
        assert sched.events_processed == 5

    def test_step_feeds_profiler_and_hooks(self):
        """``step`` is a one-event ``run``: the profiler sees every stepped
        event and a one-event hook fires once per step."""
        from repro.obs.profiler import SchedulerProfiler

        sched = Scheduler()
        profiler = SchedulerProfiler().install(sched)
        ticks = []
        sched.add_hook(lambda s: ticks.append(s.now), 1)
        for i in range(5):
            sched.schedule(float(i + 1), lambda: None)
        sched.run(max_events=2)
        while sched.step():
            pass
        assert sched.events_processed == 5
        assert profiler.total_events == sched.events_processed
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_reentrant_run_rejected(self):
        sched = Scheduler()

        def recurse():
            sched.run()

        sched.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sched.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = Scheduler()
        fired = []
        ev = sched.schedule(1.0, fired.append, "x")
        ev.cancel()
        sched.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sched = Scheduler()
        ev = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        assert sched.pending == 2
        ev.cancel()
        assert sched.pending == 1

    def test_cancel_one_of_simultaneous_events(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "keep")
        ev = sched.schedule(1.0, fired.append, "drop")
        ev.cancel()
        sched.run()
        assert fired == ["keep"]


class TestCalendarGeometry:
    """The bucketed ring, the overflow band, and window rollovers."""

    def test_order_preserved_across_window_rollovers(self):
        # Span many multiples of the initial window so the run loop must
        # roll the window forward repeatedly (and re-derive the bucket
        # width from the observed event stream along the way).
        sched = Scheduler()
        span = _NBUCKETS * _INITIAL_WIDTH * 8
        rng = random.Random(7)
        times = sorted(rng.uniform(0.0, span) for _ in range(3000))
        order = []
        for t in rng.sample(times, len(times)):  # insert in shuffled order
            sched.schedule_at(t, order.append, t)
        sched.run()
        assert order == times
        assert sched.pending == 0

    def test_far_future_event_lands_in_overflow_and_fires_last(self):
        sched = Scheduler()
        far = _NBUCKETS * _INITIAL_WIDTH * 100
        order = []
        sched.schedule_at(far, order.append, "far")
        for i in range(5):
            sched.schedule_at(i * 1e-6, order.append, i)
        assert len(sched._overflow) == 1  # parked beyond the window
        sched.run()
        assert order == [0, 1, 2, 3, 4, "far"]
        assert sched.now == far

    def test_fifo_ties_preserved_through_overflow_refill(self):
        # Simultaneous events parked in the overflow band must keep their
        # FIFO (sequence) order when a rollover pulls them into the ring.
        sched = Scheduler()
        far = _NBUCKETS * _INITIAL_WIDTH * 10
        order = []
        for i in range(20):
            sched.schedule_at(far, order.append, i)
        sched.schedule_at(0.0, order.append, "first")
        sched.run()
        assert order == ["first"] + list(range(20))

    def test_width_adapts_to_sparse_event_stream(self):
        # A stream sparser than the initial 1 us/bucket geometry but dense
        # enough that each consumed window clears the _WIDTH_MIN_SAMPLE
        # gate: the derived width must grow (damped to 4x per rollover),
        # and ordering must survive the repeated re-bucketing.
        sched = Scheduler()
        order = []
        gap = _INITIAL_WIDTH * 8  # ~128 events per initial window
        for i in range(1000):
            sched.schedule_at(i * gap, order.append, i)
        sched.run()
        assert order == list(range(1000))
        assert sched._width > _INITIAL_WIDTH

    def test_events_scheduled_mid_run_join_current_bucket(self):
        # A callback scheduling an event for "now" (same bucket, behind
        # the cursor's time band) must see it fire before later buckets.
        sched = Scheduler()
        order = []

        def first():
            order.append("first")
            sched.schedule(0.0, order.append, "same-time")
            sched.schedule(1e-7, order.append, "same-bucket")

        sched.schedule_at(1e-7, first)
        sched.schedule_at(5e-6, order.append, "later")
        sched.run()
        assert order == ["first", "same-time", "same-bucket", "later"]

    @pytest.mark.parametrize("path", ["schedule_at", "schedule_reserved", "schedule_tx"])
    def test_current_bucket_insert_lands_at_or_after_the_cursor(self, path):
        # The entries before the cursor are consumed, and recycled ones
        # carry the later times of their next incarnation: an insert into
        # the current bucket that bisected them could land before the
        # cursor, where the run loop never reaches it.
        sched = Scheduler()
        order = []
        step = _INITIAL_WIDTH / 16  # every event below shares bucket 0

        def insert():
            order.append("insert")
            for _ in range(4):  # recycle the four consumed events far ahead
                sched.schedule_once(1.0, order.append, "far")
            at = sched.now + step / 2
            if path == "schedule_at":
                sched.schedule_at(at, order.append, "new")
            elif path == "schedule_reserved":
                sched.schedule_reserved(at, sched.reserve_seq(), order.append, "new")
            else:
                sched.schedule_tx(step / 4, lambda: order.append("tx"), at, order.append, "new")

        for i in range(4):
            sched.schedule_once(i * step, order.append, i)
        sched.schedule_once(4 * step, insert)
        for i in (5, 6):
            sched.schedule_once(i * step, order.append, i)
        sched.run()
        tx = ["tx"] if path == "schedule_tx" else []
        assert order == [0, 1, 2, 3, "insert", *tx, "new", 5, 6] + ["far"] * 4
        assert sched.pending == 0

    def test_cancel_future_event_from_callback(self):
        sched = Scheduler()
        fired = []
        victim = sched.schedule(3e-6, fired.append, "victim")
        sched.schedule(1e-6, victim.cancel)
        sched.schedule(5e-6, fired.append, "after")
        sched.run()
        assert fired == ["after"]
        assert sched.pending == 0

    def test_stream_within_one_revolution_never_overflows(self):
        # Sixteen self-rearming chains whose delays stay under half the
        # initial revolution.  The sliding ring covers one full revolution
        # ahead of the cursor wherever the cursor stands, so no re-arm may
        # ever take the overflow heap.
        sched = Scheduler()
        rng = random.Random(3)
        revolution = _NBUCKETS * _INITIAL_WIDTH
        fired = []
        overflowed = []

        def chain(name, left):
            fired.append((sched.now, name))
            if left:
                sched.schedule(rng.uniform(0.0, 0.5 * revolution), chain, name, left - 1)
                overflowed.append(len(sched._overflow))

        for name in range(16):
            sched.schedule(rng.uniform(0.0, 0.5 * revolution), chain, name, 200)
        assert not sched._overflow
        sched.run()
        assert len(fired) == 16 * 201
        assert [t for t, _ in fired] == sorted(t for t, _ in fired)
        assert len(overflowed) == 16 * 200 and not any(overflowed)

    def test_event_a_revolution_ahead_overflows_and_fires_in_order(self):
        sched = Scheduler()
        revolution = _NBUCKETS * _INITIAL_WIDTH
        order = []

        def mid():
            order.append("mid")
            # From a cursor half-way round the ring: just under one
            # revolution ahead stays in the ring, well past it overflows.
            parked = sched._ocount
            sched.schedule(0.9 * revolution, order.append, "near")
            assert sched._ocount == parked
            sched.schedule(1.5 * revolution, order.append, "far")
            assert sched._ocount == len(sched._overflow) == parked + 1
            assert any(ev.args == ("far",) for _, _, ev in sched._overflow)

        t_mid = 0.5 * revolution
        sched.schedule_at(t_mid, mid)
        background = [(i * 0.1 * revolution + 0.01 * revolution, i) for i in range(1, 30)]
        for t, i in background:
            sched.schedule_at(t, order.append, i)
        sched.run()
        expected = sorted(background + [(t_mid, "mid"), (t_mid + 0.9 * revolution, "near"),
                                        (t_mid + 1.5 * revolution, "far")],
                          key=lambda item: item[0])
        assert order == [label for _, label in expected]
        assert sched._ocount == 0 and sched.pending == 0

    def test_revolution_rebuild_keeps_order_and_fifo_ties(self, monkeypatch):
        # A dense burst followed by a sparse tail: the per-revolution width
        # check must rebuild the window mid-run (widths outside the 2x
        # band), and the dispatch order, FIFO ties included, must stay the
        # reference scheduler's, also for events callbacks add during the
        # run.
        rebuilds = []
        original = Scheduler._rebuild

        def counting(self, cur, width):
            rebuilds.append(width)
            return original(self, cur, width)

        monkeypatch.setattr(Scheduler, "_rebuild", counting)
        rng = random.Random(11)
        times = [rng.choice([i * 1e-7 for i in range(200)]) for _ in range(600)]
        times += [rng.choice([i * 2e-5 for i in range(1, 400)]) for _ in range(600)]

        def drive(sched):
            order = []

            def fire(label):
                order.append((sched.now, label))
                if label % 7 == 0:
                    # A same-time child (it ties with residents scheduled
                    # before it) and one a few buckets on.
                    sched.schedule(0.0, fire, -label - 1)
                    sched.schedule(3e-6, fire, -label - 2)

            for label, t in enumerate(times):
                sched.schedule_at(t, fire, label)
            sched.run()
            return order

        calendar = drive(Scheduler())
        assert len(rebuilds) >= 2
        assert calendar == drive(ReferenceScheduler())
        assert len(calendar) == 1200 + 2 * sum(1 for label in range(1200) if label % 7 == 0)
        # FIFO among ties: the initial events at each shared time fire in
        # the order they were scheduled (ascending label).
        roots = [(t, label) for t, label in calendar if label >= 0]
        assert roots == sorted(roots)

    def test_scan_bound_raises_instead_of_spinning(self):
        # A calendar whose entry count is out of step (the ring claims an
        # entry it does not hold) must fail loudly, not scan forever.
        sched = Scheduler()
        sched.schedule(1e-6, lambda: None)
        sched._count += 1
        with pytest.raises(SimulationError, match="full revolution"):
            sched.run()


class TestReferenceParity:
    """The calendar engine and the naive reference scheduler must execute
    any workload identically: same callback order, same clock, same
    counts."""

    @staticmethod
    def _drive(sched):
        """A deterministic but irregular workload: bursts, ties, cancels,
        far-future stragglers, and callbacks that schedule more work."""
        rng = random.Random(1234)
        trace = []
        handles = []

        def work(label):
            trace.append((sched.now, label))
            if rng.random() < 0.4:
                sched.schedule(rng.choice([0.0, 1e-7, 3e-6, 2e-3]), work,
                               f"{label}/child")
            if handles and rng.random() < 0.2:
                handles.pop(rng.randrange(len(handles))).cancel()

        for i in range(300):
            delay = rng.choice([0.0, 1e-7, 1e-6, 7e-6, 1e-3, 0.5])
            handles.append(sched.schedule(delay, work, f"root{i}"))
        sched.run(until=0.25)
        sched.run()  # drain the stragglers past the horizon
        return trace, sched.events_processed, sched.pending, sched.now

    def test_identical_execution_and_counters(self):
        assert self._drive(Scheduler()) == self._drive(ReferenceScheduler())


def _mixed_chain(sched, drive):
    """A once/reserved/cancel chain: every callback schedules a
    ``schedule_once`` child, a reserved-then-materialized child and a
    ``schedule_once`` child it may cancel before it fires, with ties.
    Only unfired handles are ever cancelled (the recycling contract)."""
    rng = random.Random(99)
    trace = []
    live = {}  # token -> schedule_once handle not yet settled

    def work(label, depth, token=None):
        live.pop(token, None)
        trace.append((sched.now, label))
        if depth == 0:
            return
        sched.schedule_once(rng.choice([0.0, 1e-7, 2e-6]), work, label + "o", depth - 1)
        seq = sched.reserve_seq()
        token = label + "c"
        live[token] = sched.schedule_once(1e-6, work, token, depth - 1, token)
        sched.schedule_reserved(sched.now + rng.choice([0.0, 1e-6]), seq, work,
                                label + "r", depth - 1)
        if live and rng.random() < 0.3:
            victim = sorted(live)[rng.randrange(len(live))]
            live.pop(victim).cancel()

    sched.schedule_once(0.0, work, "a", 6)
    sched.schedule(1e-7, work, "b", 5)
    drive(sched)
    return trace, sched.events_processed, sched.pending, sched.now


def _profiled(stride):
    from repro.obs.profiler import SchedulerProfiler

    def drive(sched):
        SchedulerProfiler(sample_stride=stride).install(sched)
        sched.run(until=3e-6)
        sched.run()

    return drive


def _plain(sched):
    sched.run(until=3e-6)
    sched.run()


def _stepped(sched):
    while sched.step():
        pass


def _parked(sched):
    """The free list, newest first."""
    out = []
    ev = sched._free
    while ev is not None:
        out.append(ev)
        ev = ev.free_next
    return out


class TestRecycleSlot:
    """Settled schedule_once/schedule_reserved events are parked on the
    scheduler's LIFO free list and reused by later such schedules."""

    def test_fired_once_event_is_reused_by_next_schedule_once(self):
        sched = Scheduler()
        fired = sched.schedule_once(1e-6, lambda: None)
        sched.run()
        assert _parked(sched) == [fired]
        ev = sched.schedule_once(1e-6, lambda: None)
        assert ev is fired  # reused, not freshly allocated
        assert _parked(sched) == []
        # The list is empty now, so the next schedule allocates.
        assert sched.schedule_once(1e-6, lambda: None) is not fired

    def test_reserved_schedule_takes_the_slot(self):
        sched = Scheduler()
        fired = sched.schedule_once(1e-6, lambda: None)
        sched.run()
        seq = sched.reserve_seq()
        assert sched.schedule_reserved(sched.now, seq, lambda: None) is fired

    def test_event_is_parked_only_after_its_callback_returns(self):
        sched = Scheduler()
        seen = []

        def callback():
            # Still in flight: the list must not offer this very event.
            seen.append(_parked(sched))

        first = sched.schedule_once(1e-6, lambda: None)
        second = sched.schedule_once(2e-6, callback)
        sched.run()
        assert seen == [[first]]
        assert _parked(sched) == [second, first]

    def test_cancelled_event_recycled_only_after_consumption(self):
        sched = Scheduler()
        fired = []
        ev = sched.schedule_once(2e-6, fired.append, "x")
        ev.cancel()
        assert _parked(sched) == []  # cancelling alone parks nothing
        sched.schedule(1e-6, fired.append, "y")
        sched.run(until=1.5e-6)
        assert _parked(sched) == []  # still sitting in the calendar
        sched.run()
        assert fired == ["y"]
        assert _parked(sched) == [ev]  # parked once the loop consumed it

    def test_schedule_handles_are_never_recycled(self):
        # schedule() handles may outlive the run (callers can cancel
        # late); they must never be parked for reuse.
        sched = Scheduler()
        ev = sched.schedule(1e-6, lambda: None)
        at = sched.schedule_at(2e-6, lambda: None)
        sched.run()
        assert _parked(sched) == []
        assert sched.schedule_once(1e-6, lambda: None) not in (ev, at)
        ev.cancel()  # late cancel through the stale handle: harmless no-op
        assert sched.pending == 1

    def test_recycled_event_fires_with_new_payload(self):
        sched = Scheduler()
        fired = []
        sched.schedule_once(1e-6, fired.append, "first")
        sched.run()
        sched.schedule_once(1e-6, fired.append, "second")
        sched.run()
        assert fired == ["first", "second"]

    @pytest.mark.parametrize("drive", [_plain, _stepped], ids=["plain", "step"])
    def test_parked_events_are_reused_lifo(self, drive):
        sched = Scheduler()
        events = [sched.schedule_once(i * 1e-6, lambda: None) for i in range(3)]
        drive(sched)
        assert _parked(sched) == events[::-1]  # the last settled is on top
        reused = [sched.schedule_once(1e-6, lambda: None) for _ in range(3)]
        assert reused == events[::-1]
        assert _parked(sched) == []

    def test_parked_event_holds_no_args(self):
        # A parked event must not keep its payload (a delivered packet)
        # alive until it is reused.
        sched = Scheduler()
        payload = object()
        fired = sched.schedule_once(1e-6, lambda p: None, payload)
        cancelled = sched.schedule_once(2e-6, lambda p: None, payload)
        cancelled.cancel()
        sched.run()
        assert _parked(sched) == [cancelled, fired]
        assert fired.args == () and cancelled.args == ()

    @pytest.mark.parametrize("drive", [_plain, _profiled(4), _profiled(1), _stepped],
                             ids=["plain", "profiled-sampled", "profiled-exact", "step"])
    def test_mixed_chain_matches_reference(self, drive):
        calendar = _mixed_chain(Scheduler(), drive)
        assert calendar == _mixed_chain(ReferenceScheduler(), drive)
        assert len(calendar[0]) > 300  # the chain really branched


def _category_chain(sched, dispatched):
    """Callbacks in four profile categories that fan out into each other,
    with some children cancelled before they fire; ``dispatched`` counts
    the callbacks that actually ran, by module."""
    rng = random.Random(5)

    def make(module):
        def callback(depth):
            dispatched[module] += 1
            if depth == 0:
                return
            for _ in range(2):
                ev = sched.schedule(rng.choice([0.0, 1e-7, 1e-6]),
                                    rng.choice(callbacks), depth - 1)
                if rng.random() < 0.1:
                    ev.cancel()
        callback.__module__ = module
        return callback

    callbacks = [make(module) for module in (
        "repro.transport.tcp", "repro.workload.query",
        "repro.faults.injector", "repro.net.pfc",
    )]
    sched.schedule(0.0, callbacks[0], 9)
    return callbacks


class TestExactProfile:
    """``sample_stride=1`` is exact mode of the one profiled loop: every
    window holds one event, so category counts are dispatch counts."""

    def test_category_events_equal_dispatch_counts_across_resume(self):
        from collections import Counter

        from repro.obs.profiler import SchedulerProfiler, profile_category

        sched = Scheduler()
        profiler = SchedulerProfiler(sample_stride=1).install(sched)
        dispatched = Counter()
        callbacks = _category_chain(sched, dispatched)
        assert sched.run(until=2e-6) > 0
        assert sched.pending > 0  # the horizon split the run
        sched.run()
        expected = {profile_category(cb): dispatched[cb.__module__] for cb in callbacks}
        events = {c: d["events"] for c, d in profiler.as_dict()["categories"].items()}
        assert events == expected
        assert len(events) == 4
        assert sum(events.values()) == sched.events_processed

    def test_mixed_chain_category_events_count_reference_dispatches(self):
        # Every callback of the chain is one function: one category, which
        # holds every event the reference scheduler dispatches for it.
        sched = Scheduler()
        _mixed_chain(sched, _profiled(1))
        categories = sched.profiler.as_dict()["categories"]
        _trace, dispatched, _pending, _now = _mixed_chain(ReferenceScheduler(), _plain)
        assert [d["events"] for d in categories.values()] == [dispatched]


class TestHookCadence:
    """Several hooks share the run loop's one countdown with each other
    and with the profiler's window: each fires every ``interval`` events
    counted from the start of each run, hooks due on the same event fire
    in install order, and a hook added mid-run starts at the next run."""

    # (events_processed at the start, at the end) of each run the test
    # drives: run(until), three step()s, run(max_events=20), run(until),
    # run().  The hook added mid-run is installed during the fifth.
    SEGMENTS = [(0, 25), (25, 26), (26, 27), (27, 28), (28, 48), (48, 71), (71, 121)]
    HOOKS = (("a", 3), ("b", 7), ("c", 10), ("d", 4))

    @classmethod
    def _expected(cls):
        fired = []
        for start, end in cls.SEGMENTS:
            for count in range(start + 1, end + 1):
                for name, every in cls.HOOKS:
                    if (count - start) % every == 0 and (name != "d" or start >= 48):
                        fired.append((name, count))
        return fired

    @pytest.mark.parametrize("stride", [None, 16, 1], ids=["plain", "sampled", "exact"])
    def test_hooks_fire_on_their_cadence(self, stride):
        from repro.obs.profiler import SchedulerProfiler

        sched = Scheduler()
        if stride is not None:
            profiler = SchedulerProfiler(sample_stride=stride).install(sched)
        fired = []

        def hook(name):
            return lambda s: fired.append((name, s.events_processed))

        for name, every in self.HOOKS[:3]:
            sched.add_hook(hook(name), every)
        for i in range(1, 121):
            sched.schedule_at(i * 1e-3, lambda: None)
        # Event 31 installs hook d, during run(max_events=20).
        sched.schedule_at(0.0305, lambda: sched.add_hook(hook("d"), 4))
        sched.run(until=0.0255)
        for _ in range(3):
            sched.step()
        sched.run(max_events=20)
        sched.run(until=0.07)
        sched.run()
        assert sched.events_processed == 121
        assert fired == self._expected()
        # Spot checks: a and b both due at 21 fire in install order, and
        # d's first call is at the next run's fourth event.
        assert fired[fired.index(("a", 21)) + 1] == ("b", 21)
        assert [count for name, count in fired if name == "d"][0] == 48 + 4
        if stride is not None:
            assert profiler.total_events == 121


class TestReservedSequences:
    """reserve_seq / schedule_reserved: the elision primitive must keep
    the (time, seq) total order exactly as if the event was never elided."""

    def test_materialized_event_keeps_its_tie_position(self):
        sched = Scheduler()
        order = []
        sched.schedule_at(1e-6, order.append, "a")  # seq 0
        seq = sched.reserve_seq()                   # seq 1, held back
        sched.schedule_at(1e-6, order.append, "c")  # seq 2
        sched.schedule_reserved(1e-6, seq, order.append, "b")
        sched.run()
        assert order == ["a", "b", "c"]

    def test_reservation_alone_does_not_block_draining(self):
        sched = Scheduler()
        fired = []
        sched.reserve_seq()  # reserved but never materialized
        sched.schedule(1e-6, fired.append, 1)
        sched.run()
        assert fired == [1]
        assert sched.pending == 0

    def test_parity_with_reference(self):
        def drive(sched):
            order = []
            sched.schedule_at(5e-6, order.append, "x")
            seq = sched.reserve_seq()
            sched.schedule_at(5e-6, order.append, "z")
            sched.schedule_reserved(5e-6, seq, order.append, "y")
            sched.run()
            return order, sched.events_processed

        assert drive(Scheduler()) == drive(ReferenceScheduler())


def _run_all(sched):
    sched.run()


def _run_profiled(sched):
    from repro.obs.profiler import SchedulerProfiler

    if sched.profiler is None:
        SchedulerProfiler(sample_stride=2).install(sched)
    sched.run()


class TestRunAfterDrain:
    """Regression: a ``run()`` that drained the calendar used to leave the
    consumption cursor past the (cleared) current bucket, so the next
    insert landing in that bucket was lost and the next ``run()`` raised
    ``IndexError``."""

    @staticmethod
    def _drain_then_schedule(sched, drive, late_delay):
        fired = []
        for i in range(5):
            sched.schedule(1e-9 * i, fired.append, i)
        drive(sched)
        sched.schedule(late_delay, fired.append, "late")
        drive(sched)
        return fired, sched.pending, sched.events_processed, sched.now

    @pytest.mark.parametrize("drive", [_run_all, _run_profiled, _stepped],
                             ids=["plain", "profiled", "step"])
    @pytest.mark.parametrize("late_delay", [0.0, 1e-9, 5e-6, 2.0])
    def test_event_after_drained_run_fires(self, drive, late_delay):
        calendar = self._drain_then_schedule(Scheduler(), drive, late_delay)
        assert calendar == self._drain_then_schedule(ReferenceScheduler(), drive, late_delay)
        assert calendar[0] == [0, 1, 2, 3, 4, "late"]
        assert calendar[1] == 0


class TestOverpressure:
    def test_pending_cap_aborts_runaway_scheduling(self):
        sched = Scheduler(max_pending_events=10)
        for i in range(10):
            sched.schedule(1.0, lambda: None)
        with pytest.raises(ResourceError):
            sched.schedule(1.0, lambda: None)

    def test_reserved_insert_honours_cap(self):
        sched = Scheduler(max_pending_events=3)
        for _ in range(3):
            sched.schedule(1.0, lambda: None)
        seq = sched.reserve_seq()
        with pytest.raises(ResourceError):
            sched.schedule_reserved(1.0, seq, lambda: None)
        assert sched.pending == 3

    def test_cap_is_live_tunable(self):
        sched = Scheduler(max_pending_events=5)
        assert sched.max_pending_events == 5
        sched.max_pending_events = None  # disable
        for _ in range(50):
            sched.schedule(1.0, lambda: None)
        assert sched.pending == 50


class TestInvalidTimes:
    """Regression: ``schedule(float("inf"), f)`` used to move ``_count``
    and ``_seq`` before failing with a raw ``OverflowError``, leaving a
    phantom pending entry that made the next ``run()`` die in the bucket
    scan; NaN did the same with ``ValueError``.  Every insert path now
    rejects them before touching any state."""

    @staticmethod
    def _insert(sched, path, value, fn):
        if path == "schedule":
            return sched.schedule(value, fn)
        if path == "schedule_once":
            return sched.schedule_once(value, fn)
        if path == "schedule_at":
            return sched.schedule_at(value, fn)
        return sched.schedule_reserved(value, sched.reserve_seq(), fn)

    @pytest.mark.parametrize("path", ["schedule", "schedule_once", "schedule_at",
                                      "schedule_reserved"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf")],
                             ids=["inf", "nan", "-inf"])
    def test_rejected_before_any_state_changes(self, path, value):
        sched = Scheduler()
        fired = []
        sched.schedule(1e-6, fired.append, "before")
        pending = sched.pending

        def victim():
            fired.append("victim")

        seq = sched._seq
        with pytest.raises(SimulationError, match="victim") as info:
            self._insert(sched, path, value, victim)
        assert sched.pending == pending
        # schedule/schedule_once check the delay before delegating to an
        # absolute-time insert, and take no sequence number when they fail.
        relative = path in ("schedule", "schedule_once")
        assert ("delay" in str(info.value)) == relative
        assert sched._seq == seq + (path == "schedule_reserved")  # its reserve_seq
        sched.schedule(2e-6, fired.append, "after")
        assert sched.run() == 2
        assert fired == ["before", "after"]
        assert sched.pending == 0

    def test_messages_name_the_problem(self):
        sched = Scheduler()
        sched.run(until=1.0)
        with pytest.raises(SimulationError, match="negative delay"):
            sched.schedule(-1e-9, print)
        with pytest.raises(SimulationError, match="into the past"):
            sched.schedule_at(0.5, print)
        with pytest.raises(SimulationError, match="non-finite time"):
            sched.schedule_at(float("nan"), print)
        with pytest.raises(SimulationError, match="non-finite delay"):
            sched.schedule(float("inf"), print)


_REVOLUTION = _NBUCKETS * _INITIAL_WIDTH
# Delays from "same bucket" through several revolutions, plus the exact
# bucket and revolution edges.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e-7, _INITIAL_WIDTH, 3e-6, 0.5 * _REVOLUTION,
                     _REVOLUTION, 1.5 * _REVOLUTION, 4 * _REVOLUTION, 0.05]),
    st.floats(min_value=0.0, max_value=5 * _REVOLUTION),
)
_KINDS = st.sampled_from(["schedule", "schedule_at", "schedule_once", "reserved"])
_PROGRAM = st.lists(st.tuples(_KINDS, _DELAYS), max_size=3)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _KINDS, _DELAYS, _PROGRAM, st.integers(0, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_max"), st.integers(1, 30)),
    st.tuples(st.just("step")),
), max_size=60)


class _Driver:
    """Applies one operation sequence to one engine and records what it
    observes.  Callbacks re-run their ``program`` (kind, delay) pairs as
    children, ``depth`` levels deep, within a shared spawn budget.  Only
    unfired ``schedule_once``/reserved handles are ever cancelled (the
    recycling contract); plain handles may be cancelled at any time."""

    def __init__(self, sched):
        self.sched = sched
        self.trace = []
        self.results = []
        self.plain = {}   # label -> schedule/schedule_at handle
        self.live = {}    # label -> unfired recyclable handle
        self.label = 0
        self.budget = 400

    def fire(self, label, program, depth):
        self.live.pop(label, None)
        self.trace.append((self.sched.now, label))
        if depth:
            for kind, delay in program:
                if self.budget <= 0:
                    return
                self.budget -= 1
                self.insert(kind, delay, program, depth - 1)

    def insert(self, kind, delay, program, depth):
        sched = self.sched
        label = self.label = self.label + 1
        if kind == "schedule":
            self.plain[label] = sched.schedule(delay, self.fire, label, program, depth)
        elif kind == "schedule_at":
            self.plain[label] = sched.schedule_at(sched.now + delay, self.fire, label,
                                                  program, depth)
        elif kind == "schedule_once":
            self.live[label] = sched.schedule_once(delay, self.fire, label, program, depth)
        else:
            # Reserve, let a same-time event take a later sequence number,
            # then materialize the reservation ahead of it.
            seq = sched.reserve_seq()
            self.insert("schedule", delay, [], 0)
            self.live[label] = sched.schedule_reserved(sched.now + delay, seq, self.fire,
                                                       label, program, depth)

    def apply(self, op):
        sched = self.sched
        name = op[0]
        if name == "insert":
            self.insert(*op[1:])
        elif name == "cancel":
            labels = sorted(self.plain.keys() | self.live.keys())
            if labels:
                label = labels[op[1] % len(labels)]
                handle = self.live.pop(label, None) or self.plain[label]
                handle.cancel()
        elif name == "run_until":
            self.results.append(sched.run(until=sched.now + op[1]))
        elif name == "run_max":
            self.results.append(sched.run(max_events=op[1]))
        else:
            self.results.append(sched.step())

    def state(self):
        sched = self.sched
        return (self.trace, self.results, sched.now, sched.pending, sched.events_processed)


class TestDifferentialAgainstReference:
    """Calendar ≡ the naive reference scheduler on random operation
    sequences: after every operation both have dispatched the same
    callbacks in the same order and agree on ``now``, ``pending`` and
    ``events_processed``."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_OPS)
    def test_every_operation_matches_reference(self, ops):
        calendar = _Driver(Scheduler())
        reference = _Driver(ReferenceScheduler())
        for op in ops + [("run_until", 10.0)]:
            calendar.apply(op)
            reference.apply(op)
            assert calendar.state() == reference.state(), op
        assert calendar.sched.pending == 0

"""Unit tests for all queue disciplines."""

import pytest

from repro.net.packet import ACK, DATA, MTU_BYTES, Packet
from repro.net.queues import (
    INFINITE_CAPACITY,
    DropTailQueue,
    DynamicBufferQueue,
    EcnQueue,
    PFabricQueue,
    SharedBufferPool,
)


def make_pkt(flow=1, seq=0, priority=None, ecn=False, payload=1460):
    return Packet(flow_id=flow, src=0, dst=1, kind=DATA, seq=seq, payload=payload,
                  ecn_capable=ecn, priority=priority)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10)
        pkts = [make_pkt(seq=i) for i in range(5)]
        for p in pkts:
            assert q.enqueue(p)
        out = [q.dequeue() for _ in range(5)]
        assert out == pkts

    def test_rejects_when_full(self):
        q = DropTailQueue(2)
        assert q.enqueue(make_pkt())
        assert q.enqueue(make_pkt())
        assert not q.enqueue(make_pkt())
        assert q.drops == 1
        assert len(q) == 2

    def test_is_full_boundary(self):
        q = DropTailQueue(3)
        for _ in range(2):
            q.enqueue(make_pkt())
        assert not q.is_full()
        q.enqueue(make_pkt())
        assert q.is_full()

    def test_byte_count_tracks_contents(self):
        q = DropTailQueue(10)
        q.enqueue(make_pkt(payload=1460))
        q.enqueue(make_pkt(payload=100))
        assert q.byte_count == 1500 + 140
        q.dequeue()
        assert q.byte_count == 140
        q.dequeue()
        assert q.byte_count == 0

    def test_dequeue_empty_returns_none(self):
        q = DropTailQueue(3)
        assert q.dequeue() is None

    def test_infinite_capacity_never_drops(self):
        q = DropTailQueue(INFINITE_CAPACITY)
        for i in range(10_000):
            assert q.enqueue(make_pkt(seq=i))
        assert q.drops == 0
        assert not q.is_full()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_clear(self):
        q = DropTailQueue(5)
        q.enqueue(make_pkt())
        q.clear()
        assert len(q) == 0
        assert q.byte_count == 0

    def test_clear_keeps_counter_history(self):
        q = DropTailQueue(1)
        q.enqueue(make_pkt(seq=0))
        q.enqueue(make_pkt(seq=1))  # dropped
        q.clear()
        assert q.enqueues == 1
        assert q.drops == 1


class TestEcnQueue:
    def test_marks_above_threshold(self):
        q = EcnQueue(100, mark_threshold_pkts=3)
        pkts = [make_pkt(seq=i, ecn=True) for i in range(6)]
        for p in pkts:
            q.enqueue(p)
        # Occupancy including the arrival must exceed 3: packets 4..6.
        assert [p.ecn_ce for p in pkts] == [False, False, False, True, True, True]
        assert q.marks == 3

    def test_non_ecn_packets_not_marked(self):
        q = EcnQueue(100, mark_threshold_pkts=1)
        pkts = [make_pkt(seq=i, ecn=False) for i in range(5)]
        for p in pkts:
            q.enqueue(p)
        assert all(not p.ecn_ce for p in pkts)
        assert q.marks == 0

    def test_still_drops_when_full(self):
        q = EcnQueue(2, mark_threshold_pkts=1)
        q.enqueue(make_pkt(ecn=True))
        q.enqueue(make_pkt(ecn=True))
        assert not q.enqueue(make_pkt(ecn=True))
        assert q.drops == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            EcnQueue(10, mark_threshold_pkts=0)


class TestPFabricQueue:
    def test_dequeues_best_priority_first(self):
        q = PFabricQueue(24)
        low = make_pkt(flow=1, priority=50_000)
        high = make_pkt(flow=2, priority=1_000)
        mid = make_pkt(flow=3, priority=10_000)
        for p in (low, high, mid):
            q.enqueue(p)
        assert q.dequeue() is high
        assert q.dequeue() is mid
        assert q.dequeue() is low

    def test_fifo_among_equal_priorities(self):
        q = PFabricQueue(24)
        a = make_pkt(flow=1, seq=0, priority=100)
        b = make_pkt(flow=1, seq=1460, priority=100)
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue() is a
        assert q.dequeue() is b

    def test_full_queue_evicts_worst_for_better_arrival(self):
        q = PFabricQueue(2)
        worst = make_pkt(flow=1, priority=90_000)
        ok = make_pkt(flow=2, priority=50_000)
        q.enqueue(worst)
        q.enqueue(ok)
        better = make_pkt(flow=3, priority=10_000)
        assert q.enqueue(better)
        assert q.evictions == 1
        assert q.drops == 1  # the evicted packet counts as dropped
        remaining = {q.dequeue(), q.dequeue()}
        assert worst not in remaining
        assert {ok, better} == remaining

    def test_full_queue_drops_worse_arrival(self):
        q = PFabricQueue(2)
        q.enqueue(make_pkt(flow=1, priority=10))
        q.enqueue(make_pkt(flow=2, priority=20))
        assert not q.enqueue(make_pkt(flow=3, priority=99))
        assert q.drops == 1
        assert q.evictions == 0

    def test_equal_priority_arrival_dropped_not_evicted(self):
        # Ties favor residents (no useless churn).
        q = PFabricQueue(1)
        q.enqueue(make_pkt(flow=1, priority=10))
        assert not q.enqueue(make_pkt(flow=2, priority=10))

    def test_untagged_packets_are_worst_priority(self):
        q = PFabricQueue(2)
        untagged = make_pkt(flow=1, priority=None)
        tagged = make_pkt(flow=2, priority=1 << 40)
        q.enqueue(untagged)
        q.enqueue(tagged)
        assert q.dequeue() is tagged

    def test_byte_count_consistent_after_eviction(self):
        q = PFabricQueue(1)
        q.enqueue(make_pkt(flow=1, priority=100, payload=1460))
        q.enqueue(make_pkt(flow=2, priority=5, payload=100))
        assert q.byte_count == 140
        q.dequeue()
        assert q.byte_count == 0

    def test_clear_empties_and_keeps_counters(self):
        q = PFabricQueue(4)
        for i in range(4):
            q.enqueue(make_pkt(seq=i, priority=i))
        q.clear()
        assert len(q) == 0
        assert q.byte_count == 0
        assert q.dequeue() is None
        assert q.enqueues == 4

    def test_eviction_prefers_newest_among_equal_worst(self):
        q = PFabricQueue(2)
        old = make_pkt(flow=1, priority=100)
        new = make_pkt(flow=1, priority=100)
        q.enqueue(old)
        q.enqueue(new)
        q.enqueue(make_pkt(flow=2, priority=1))
        contents = {q.dequeue(), q.dequeue()}
        assert old in contents and new not in contents


class TestSharedBufferPool:
    def test_admission_within_free_space(self):
        pool = SharedBufferPool(10_000, alpha=1.0)
        assert pool.admits(queue_bytes=0, pkt_size=1500, queue_pkts=0)

    def test_rejects_when_pool_exhausted(self):
        pool = SharedBufferPool(3_000, alpha=1.0)
        pool.take(3_000)
        assert not pool.admits(queue_bytes=0, pkt_size=1, queue_pkts=5)

    def test_dynamic_threshold_limits_single_queue(self):
        # With alpha=1 a queue may hold at most as many bytes as remain free.
        pool = SharedBufferPool(10_000, alpha=1.0, reserved_pkts_per_port=0)
        pool.take(6_000)
        # queue already holds 5_000 > alpha * free (4_000): reject.
        assert not pool.admits(queue_bytes=5_000, pkt_size=100, queue_pkts=4)

    def test_reserved_packets_bypass_threshold(self):
        pool = SharedBufferPool(10_000, alpha=0.01, reserved_pkts_per_port=2)
        # Tiny alpha would reject, but the first packets are reserved.
        assert pool.admits(queue_bytes=0, pkt_size=1500, queue_pkts=0)
        assert pool.admits(queue_bytes=1500, pkt_size=1500, queue_pkts=1)

    def test_release_accounting(self):
        pool = SharedBufferPool(5_000)
        pool.take(2_000)
        pool.release(2_000)
        assert pool.free_bytes == 5_000

    def test_negative_accounting_raises(self):
        pool = SharedBufferPool(5_000)
        with pytest.raises(AssertionError):
            pool.release(1)


class TestDynamicBufferQueue:
    def test_queues_share_the_pool(self):
        pool = SharedBufferPool(4 * MTU_BYTES, alpha=1.0, reserved_pkts_per_port=0)
        q1 = DynamicBufferQueue(pool)
        q2 = DynamicBufferQueue(pool)
        assert q1.enqueue(make_pkt())
        assert q1.enqueue(make_pkt())
        assert q2.enqueue(make_pkt())
        # Pool nearly exhausted; q2 already holds >= alpha * free.
        assert not q2.enqueue(make_pkt())
        assert pool.used_bytes == 3 * MTU_BYTES

    def test_dequeue_releases_pool_space(self):
        pool = SharedBufferPool(2 * MTU_BYTES, reserved_pkts_per_port=0)
        q = DynamicBufferQueue(pool)
        q.enqueue(make_pkt())
        q.dequeue()
        assert pool.used_bytes == 0
        # The in-place release keeps release()'s negative-balance check.
        q.enqueue(make_pkt())
        pool.used_bytes = 0  # simulate a double release elsewhere
        with pytest.raises(AssertionError, match="went negative"):
            q.dequeue()

    def test_ecn_marking_when_configured(self):
        pool = SharedBufferPool(100 * MTU_BYTES)
        q = DynamicBufferQueue(pool, mark_threshold_pkts=1)
        a = make_pkt(ecn=True)
        b = make_pkt(ecn=True)
        q.enqueue(a)
        q.enqueue(b)
        assert not a.ecn_ce and b.ecn_ce

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_invalid_threshold_rejected(self, threshold):
        # Same rule as EcnQueue: a threshold below 1 would mark every
        # ECN-capable packet, even one arriving at an empty queue.
        with pytest.raises(ValueError, match="ECN mark threshold must be positive"):
            DynamicBufferQueue(SharedBufferPool(100 * MTU_BYTES), mark_threshold_pkts=threshold)
        # None (no marking) and 1 stay valid.
        DynamicBufferQueue(SharedBufferPool(100 * MTU_BYTES), mark_threshold_pkts=None)
        DynamicBufferQueue(SharedBufferPool(100 * MTU_BYTES), mark_threshold_pkts=1)

    def test_is_full_reflects_pool_state(self):
        pool = SharedBufferPool(2 * MTU_BYTES, reserved_pkts_per_port=0)
        q = DynamicBufferQueue(pool)
        assert not q.is_full()
        q.enqueue(make_pkt())
        pool.take(MTU_BYTES)  # another port grabbed the rest
        assert q.is_full()

    def test_clear_releases_bytes_back_to_pool(self):
        pool = SharedBufferPool(10 * MTU_BYTES)
        a = DynamicBufferQueue(pool)
        b = DynamicBufferQueue(pool)
        for i in range(3):
            a.enqueue(make_pkt(seq=i))
        b.enqueue(make_pkt())
        held_by_b = b.byte_count
        a.clear()
        # Pool accounting no longer carries a's bytes; b's are untouched.
        assert pool.used_bytes == held_by_b
        assert len(a) == 0 and a.byte_count == 0
        assert len(b) == 1


class FakeClock:
    """Minimal scheduler stand-in: the queues only read ``.now``."""

    def __init__(self):
        self.now = 0.0


class TestBShareQueue:
    def _queue(self, pool=None, target=1e-3, gain=1.0, clock=None):
        from repro.net.queues import BShareQueue

        pool = pool or SharedBufferPool(
            100 * MTU_BYTES, alpha=1.0, reserved_pkts_per_port=0
        )
        clock = clock or FakeClock()
        return BShareQueue(pool, clock, target, delay_gain=gain), pool, clock

    def test_validates_parameters(self):
        from repro.net.queues import BShareQueue

        pool = SharedBufferPool(10 * MTU_BYTES)
        with pytest.raises(ValueError):
            BShareQueue(pool, FakeClock(), 0.0)
        with pytest.raises(ValueError):
            BShareQueue(pool, FakeClock(), 1e-3, delay_gain=0.0)
        with pytest.raises(ValueError):
            BShareQueue(pool, FakeClock(), 1e-3, delay_gain=1.5)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_invalid_threshold_rejected(self, threshold):
        from repro.net.queues import BShareQueue

        with pytest.raises(ValueError, match="ECN mark threshold must be positive"):
            BShareQueue(SharedBufferPool(10 * MTU_BYTES), FakeClock(), 1e-3,
                        mark_threshold_pkts=threshold)

    def test_sojourn_ewma_tracks_measured_delay(self):
        q, _, clock = self._queue(gain=1.0)
        q.enqueue(make_pkt())
        clock.now = 5e-3
        q.dequeue()
        assert q.delay_ewma_s == pytest.approx(5e-3)

    def test_high_delay_shrinks_admission(self):
        # Healthy port: DT limit (alpha * free) admits a second packet.
        pool = SharedBufferPool(4 * MTU_BYTES, alpha=1.0, reserved_pkts_per_port=1)
        q, _, clock = self._queue(pool=pool, target=1e-3, gain=1.0)
        q.enqueue(make_pkt())
        assert q._admits(MTU_BYTES)
        # Same occupancy, but the measured sojourn is 10x the target: the
        # limit scales by target/ewma and the same packet is now refused.
        q.enqueue(make_pkt())
        clock.now = 10e-3
        q.dequeue()
        assert q.delay_ewma_s > q.target_delay_s
        assert not q._admits(MTU_BYTES)
        assert q.is_full()

    def test_reserved_packets_admitted_even_when_slow(self):
        pool = SharedBufferPool(10 * MTU_BYTES, alpha=1.0, reserved_pkts_per_port=2)
        q, _, _ = self._queue(pool=pool)
        q.delay_ewma_s = 1.0  # catastrophically slow port
        assert q.enqueue(make_pkt())  # below the reserved floor
        assert q.enqueue(make_pkt())

    def test_timestamp_shadow_stays_parallel(self):
        q, _, _ = self._queue()
        for i in range(4):
            q.enqueue(make_pkt(seq=i))
        q.dequeue()
        assert len(q._tq) == len(q._q) == 3
        q.clear()
        assert len(q._tq) == len(q._q) == 0

    def test_clear_releases_pool_exactly_once(self):
        pool = SharedBufferPool(10 * MTU_BYTES, alpha=1.0, reserved_pkts_per_port=0)
        q, _, _ = self._queue(pool=pool)
        other = DynamicBufferQueue(pool)
        other.enqueue(make_pkt())
        for i in range(3):
            q.enqueue(make_pkt(seq=i))
        q.clear()
        assert pool.used_bytes == other.byte_count
        # A second clear must not release again (pool would go negative).
        q.clear()
        assert pool.used_bytes == other.byte_count

    def test_marks_ecn_above_threshold(self):
        from repro.net.queues import BShareQueue

        pool = SharedBufferPool(100 * MTU_BYTES)
        q = BShareQueue(pool, FakeClock(), 1e-3, mark_threshold_pkts=1)
        a, b = make_pkt(ecn=True), make_pkt(ecn=True)
        q.enqueue(a)
        q.enqueue(b)
        assert not a.ecn_ce and b.ecn_ce


class TestFairQQueue:
    def _queue(self, rate_bps=1e9, epoch_pkts=64, clock=None):
        from repro.net.queues import FairQQueue

        clock = clock or FakeClock()
        return FairQQueue(100, 20, rate_bps, clock, epoch_pkts=epoch_pkts), clock

    def test_validates_parameters(self):
        from repro.net.queues import FairQQueue

        with pytest.raises(ValueError):
            FairQQueue(100, 20, 0.0, FakeClock())
        with pytest.raises(ValueError):
            FairQQueue(100, 20, 1e9, FakeClock(), epoch_pkts=0)

    def test_stamps_fair_share_on_data(self):
        q, _ = self._queue(rate_bps=1e9)
        pkt = make_pkt(flow=1)
        q.enqueue(pkt)
        assert pkt.rate_signal == pytest.approx(1e9)  # sole active flow
        assert q.rate_stamps == 1

    def test_share_divides_by_active_flows(self):
        q, _ = self._queue(rate_bps=1e9)
        for flow in (1, 2, 3, 4):
            q.enqueue(make_pkt(flow=flow))
        pkt = make_pkt(flow=1)
        q.enqueue(pkt)
        assert q.active_flows() == 4
        assert pkt.rate_signal == pytest.approx(1e9 / 4)

    def test_keeps_minimum_across_hops(self):
        fast, _ = self._queue(rate_bps=1e9)
        slow, _ = self._queue(rate_bps=1e8)
        pkt = make_pkt(flow=1)
        fast.enqueue(pkt)
        assert fast.dequeue() is pkt
        slow.enqueue(pkt)
        assert pkt.rate_signal == pytest.approx(1e8)  # bottleneck hop wins
        # Reverse order: a later, faster hop must NOT raise the signal.
        assert slow.dequeue() is pkt
        pkt2 = make_pkt(flow=2, seq=1)
        slow.enqueue(pkt2)
        assert slow.dequeue() is pkt2
        low = pkt2.rate_signal
        fast.enqueue(pkt2)
        assert pkt2.rate_signal == low

    def test_acks_not_stamped_or_counted(self):
        q, _ = self._queue()
        ack = Packet(flow_id=1, src=1, dst=0, kind=ACK, seq=0, payload=0)
        q.enqueue(ack)
        assert ack.rate_signal is None
        assert q.active_flows() == 1  # floor, no flow actually observed
        assert q.rate_stamps == 0

    def test_epoch_rotation_forgets_departed_flows(self):
        q, clock = self._queue(rate_bps=1e9, epoch_pkts=1)
        q.enqueue(make_pkt(flow=1))
        q.enqueue(make_pkt(flow=2))
        assert q.active_flows() == 2
        # One epoch later only flow 1 is still sending: flow 2 survives in
        # the history epoch...
        clock.now = q.epoch_s
        q.enqueue(make_pkt(flow=1, seq=1))
        assert q.active_flows() == 2
        # ...but after 2+ silent epochs the history is dropped entirely.
        clock.now = 4 * q.epoch_s
        pkt = make_pkt(flow=1, seq=2)
        q.enqueue(pkt)
        assert q.active_flows() == 1
        assert pkt.rate_signal == pytest.approx(1e9)

    def test_still_drops_at_capacity(self):
        from repro.net.queues import FairQQueue

        q = FairQQueue(2, 1, 1e9, FakeClock())
        assert q.enqueue(make_pkt(seq=0))
        assert q.enqueue(make_pkt(seq=1))
        assert not q.enqueue(make_pkt(seq=2))
        assert q.drops == 1

"""Unit tests for ports and links (serialization + propagation model)."""

import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.actuators import Actuators
from repro.core.config import DibsConfig
from repro.net.audit import assert_conserved, conservation_report
from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.network import Network, SwitchQueueConfig
from repro.net.node import Node
from repro.net.packet import MTU_BYTES, Packet
from repro.net.queues import DropTailQueue, DynamicBufferQueue, EcnQueue, SharedBufferPool
from repro.net.switch import Switch
from repro.obs.spans import PacketSpan
from repro.sim.engine import ResourceError, Scheduler, SimulationError
from repro.sim.engine_heap import HeapScheduler
from repro.topo import fat_tree


class SinkNode(Node):
    """Records (time, packet, in_port) for every arrival."""

    def __init__(self, node_id, name, scheduler):
        super().__init__(node_id, name, scheduler)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.scheduler.now, pkt, in_port))


def make_pair(rate_bps=1e9, delay_s=10e-6, capacity=100, sched=None, queues=None):
    """Two sink nodes joined by one link; ``queues`` is an optional
    ``(queue_a, queue_b)`` pair (default: droptail of ``capacity``)."""
    sched = Scheduler() if sched is None else sched
    a = SinkNode(0, "a", sched)
    b = SinkNode(1, "b", sched)
    qa, qb = queues if queues is not None else (DropTailQueue(capacity), DropTailQueue(capacity))
    pa = Port(a, qa, rate_bps, delay_s)
    pb = Port(b, qb, rate_bps, delay_s)
    connect(pa, pb)
    return sched, a, b, pa, pb


def pkt(size=1500, flow=1):
    return Packet(flow_id=flow, src=0, dst=1, payload=size - 40)


def ecn_pkt(size=1500, flow=1):
    return Packet(flow_id=flow, src=0, dst=1, payload=size - 40, ecn_capable=True)


class TestDelivery:
    def test_packet_arrives_after_tx_plus_propagation(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=10e-6)
        p = pkt(size=1500)
        pa.send(p)
        sched.run()
        assert len(b.arrivals) == 1
        t, received, in_port = b.arrivals[0]
        assert received is p
        # 1500 B at 1 Gbps = 12 us serialization + 10 us propagation.
        assert t == pytest.approx(12e-6 + 10e-6)
        assert in_port == pb.index

    def test_back_to_back_packets_serialize(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=0.0)
        p1, p2 = pkt(), pkt()
        pa.send(p1)
        pa.send(p2)
        sched.run()
        t1, t2 = b.arrivals[0][0], b.arrivals[1][0]
        assert t1 == pytest.approx(12e-6)
        assert t2 == pytest.approx(24e-6)  # second waits for the first's tx

    def test_full_duplex_directions_independent(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())
        pb.send(pkt())
        sched.run()
        assert len(a.arrivals) == 1 and len(b.arrivals) == 1
        # Both arrive at the same time: no shared medium contention.
        assert a.arrivals[0][0] == pytest.approx(b.arrivals[0][0])

    def test_small_packet_faster(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=0.0)
        ack = Packet(flow_id=1, src=0, dst=1, kind=1, ack_seq=0)  # 40 B
        pa.send(ack)
        sched.run()
        assert b.arrivals[0][0] == pytest.approx(40 * 8 / 1e9)

    def test_rate_scales_serialization(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e8, delay_s=0.0)
        pa.send(pkt(size=1500))
        sched.run()
        assert b.arrivals[0][0] == pytest.approx(120e-6)


class TestQueueInteraction:
    def test_tail_drop_when_queue_full(self):
        # Capacity 1: the first packet immediately dequeues into the
        # transmitter, so two more fill-and-overflow the queue.
        sched, a, b, pa, pb = make_pair(capacity=1, delay_s=0.0)
        assert pa.send(pkt())
        assert pa.send(pkt())
        assert not pa.send(pkt())
        sched.run()
        assert len(b.arrivals) == 2

    def test_counters(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())
        pa.send(pkt())
        sched.run()
        assert pa.pkts_sent == 2
        assert pa.bytes_sent == 3000
        assert pa.busy_seconds == pytest.approx(24e-6)

    def test_busy_flag_clears_when_drained(self):
        sched, a, b, pa, pb = make_pair()
        pa.send(pkt())
        sched.run()
        assert not pa.busy
        assert len(pa.queue) == 0


class TestWiring:
    def test_connect_rejects_reconnection(self):
        sched = Scheduler()
        a = SinkNode(0, "a", sched)
        b = SinkNode(1, "b", sched)
        c = SinkNode(2, "c", sched)
        pa = Port(a, DropTailQueue(1), 1e9, 0.0)
        pb = Port(b, DropTailQueue(1), 1e9, 0.0)
        pc = Port(c, DropTailQueue(1), 1e9, 0.0)
        connect(pa, pb)
        with pytest.raises(ValueError):
            connect(pa, pc)

    def test_peer_is_host_flag(self):
        sched = Scheduler()

        class FakeHost(SinkNode):
            is_host = True

        h = FakeHost(0, "h", sched)
        s = SinkNode(1, "s", sched)
        ph = Port(h, DropTailQueue(1), 1e9, 0.0)
        ps = Port(s, DropTailQueue(1), 1e9, 0.0)
        connect(ph, ps)
        assert ps.peer_is_host
        assert not ph.peer_is_host

    def test_invalid_parameters_rejected(self):
        sched = Scheduler()
        node = SinkNode(0, "n", sched)
        with pytest.raises(ValueError):
            Port(node, DropTailQueue(1), 0.0, 0.0)
        with pytest.raises(ValueError):
            Port(node, DropTailQueue(1), 1e9, -1.0)

    def test_port_indices_assigned_in_order(self):
        sched = Scheduler()
        node = SinkNode(0, "n", sched)
        ports = [Port(node, DropTailQueue(1), 1e9, 0.0) for _ in range(4)]
        assert [p.index for p in ports] == [0, 1, 2, 3]
        assert node.ports == ports

    def test_unconnected_delivery_raises(self):
        # A miswired topology must fail loudly (even under python -O,
        # which would have silenced the old assert).
        sched = Scheduler()
        node = SinkNode(0, "n", sched)
        port = Port(node, DropTailQueue(10), 1e9, 0.0)
        port.send(pkt())
        with pytest.raises(SimulationError, match="not connected"):
            sched.run()


class TestPauseExpiry:
    def test_timed_pause_auto_resumes(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.pause(50e-6)
        pa.send(pkt())
        sched.run()
        # Held for the pause duration, then 12 us serialization.
        assert b.arrivals[0][0] == pytest.approx(50e-6 + 12e-6)

    def test_indefinite_pause_cancels_pending_expiry(self):
        # pause(duration) then pause(None): the earlier timed expiry must
        # not fire and resume a port that was since re-paused indefinitely.
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.pause(50e-6)
        pa.pause(None)
        pa.send(pkt())
        sched.run(until=1.0)
        assert pa.paused
        assert b.arrivals == []  # still parked, expiry never fired
        pa.resume()
        sched.run()
        assert len(b.arrivals) == 1

    def test_repause_extends_expiry(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.pause(50e-6)
        pa.pause(200e-6)  # replaces, not stacks: only the later expiry fires
        pa.send(pkt())
        sched.run()
        assert b.arrivals[0][0] == pytest.approx(200e-6 + 12e-6)

    def test_resume_on_busy_port_does_not_double_start(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())  # starts transmitting immediately (12 us)
        pa.send(pkt())  # queued behind it
        pa.pause()
        pa.resume()  # port is mid-transmission: must NOT re-enter _tx_next
        sched.run()
        times = [t for t, _p, _i in b.arrivals]
        assert times == [pytest.approx(12e-6), pytest.approx(24e-6)]
        assert pa.busy_seconds == pytest.approx(24e-6)

    def test_resume_without_pause_is_noop(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())
        pa.resume()  # never paused: nothing to do, no double-start
        sched.run()
        assert len(b.arrivals) == 1
        assert pa.pkts_sent == 1


class TestFaultState:
    def test_down_port_rejects_sends(self):
        sched, a, b, pa, pb = make_pair()
        pa.set_down()
        assert not pa.send(pkt())
        assert pa.drops_link_down == 1
        sched.run()
        assert b.arrivals == []

    def test_set_down_kills_in_flight_packets(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=100e-6)
        pa.send(pkt())
        sched.run(until=50e-6)  # transmitted, still propagating
        assert pa.in_flight == 1
        killed = pa.set_down()
        sched.run()
        assert killed == 1
        assert pa.in_flight == 0
        assert pa.drops_link_down == 1
        assert b.arrivals == []  # the delivery event was cancelled

    def test_set_up_drains_parked_queue(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())
        pa.send(pkt())
        sched.run(until=6e-6)  # first packet mid-transmission
        pa.set_down()
        sched.run(until=1.0)
        assert b.arrivals == []  # first killed, second parked in queue
        assert len(pa.queue) == 1
        pa.set_up()
        sched.run()
        assert len(b.arrivals) == 1  # the parked packet finally crosses

    def test_set_down_idempotent(self):
        sched, a, b, pa, pb = make_pair()
        pa.send(pkt())
        assert pa.set_down() == 1
        assert pa.set_down() == 0  # already down: nothing more to kill
        assert pa.drops_link_down == 1

    def test_in_flight_counts_ledger_exactly(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=100e-6)
        for _ in range(3):
            pa.send(pkt())
        # At 40 us: all three serialized (12/24/36 us) but none delivered
        # (earliest arrival is 112 us).
        sched.run(until=40e-6)
        assert pa.in_flight == 3
        sched.run()
        assert pa.in_flight == 0
        assert len(b.arrivals) == 3

    def test_set_down_backs_out_mid_transmission_credit(self):
        # Regression: set_down() used to leave the full bytes_sent /
        # busy_seconds credit of a packet caught mid-serialization, so a
        # flap overcounted utilization in the Figure 4-5 hot-link
        # analysis.  Half-way through a 1500 B / 12 us transmission only
        # 750 bytes and 6 us actually happened.
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=100e-6)
        pa.send(pkt(size=1500))
        sched.run(until=6e-6)  # exactly half the serialization
        assert pa.bytes_sent == 1500  # credited in full at tx start
        killed = pa.set_down()
        assert killed == 1
        assert pa.bytes_sent == 750
        assert pa.busy_seconds == pytest.approx(6e-6)
        assert pa.bytes_killed == 1500  # full size, tallied separately
        assert pa.drops_link_down == 1

    def test_set_down_after_serialization_keeps_credit(self):
        # The packet fully left the transmitter and is only propagating:
        # every byte crossed the wire, so nothing is backed out (but the
        # killed delivery still counts in bytes_killed).
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=100e-6)
        pa.send(pkt(size=1500))
        sched.run(until=50e-6)  # tx done at 12 us, arrival at 112 us
        pa.set_down()
        assert pa.bytes_sent == 1500
        assert pa.busy_seconds == pytest.approx(12e-6)
        assert pa.bytes_killed == 1500

    def test_utilization_never_negative_after_flap_storm(self):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=50e-6)
        for i in range(5):
            pa.send(pkt())
            sched.run(until=sched.now + 3e-6)  # mid-serialization
            pa.set_down()
            sched.run(until=sched.now + 1e-6)
            pa.set_up()
        sched.run()
        assert 0 <= pa.bytes_sent <= 5 * 1500
        assert 0.0 <= pa.busy_seconds
        assert pa.bytes_killed <= 5 * 1500
        assert pa.drops_link_down == pa.pkts_sent - len(b.arrivals)

    def test_corruption_budget_consumed_in_order(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.corrupt_next = 2
        for _ in range(4):
            pa.send(pkt())
        sched.run()
        assert pa.drops_corrupt == 2
        assert pa.corrupt_next == 0
        assert len(b.arrivals) == 2  # first two eaten, rest clean


class TestFlapStateMachine:
    """Port up/paused/busy transitions under fault flaps: no stuck-idle
    port, no double _tx_next, regardless of how the flap interleaves with
    an in-progress serialization."""

    def test_set_up_before_tx_done_fires_drains_exactly_once(self):
        # Down mid-transmission, back up before the (materialized) tx-done
        # fires: the tx-done lands on an up port and must start draining
        # the parked queue exactly once — not zero times (stuck idle) and
        # not twice (overlapping serializations).
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=0.0)
        pa.send(pkt())  # serializes over [0, 12 us]
        pa.send(pkt())  # parked behind it
        sched.run(until=6e-6)
        pa.set_down()   # kills the first, parks the second
        pa.set_up()     # recovers before the 12 us tx-done
        sched.run()
        assert [t for t, _p, _i in b.arrivals] == [pytest.approx(24e-6)]
        assert pa.pkts_sent == 2
        assert not pa.busy
        assert len(pa.queue) == 0

    def test_resume_on_down_port_does_not_transmit(self):
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.pause()
        pa.send(pkt())  # parked: port is paused
        pa.set_down()
        pa.resume()     # un-pauses, but the port is still down
        sched.run(until=1.0)
        assert b.arrivals == []
        assert not pa.paused
        assert not pa.busy  # crucially not stuck busy
        pa.set_up()
        sched.run()
        assert len(b.arrivals) == 1  # recovery alone restarts the drain

    def test_pause_expiry_racing_explicit_resume(self):
        # pause(duration) schedules an expiry; an explicit resume() before
        # it fires must cancel it — the stale expiry must not re-enter
        # _tx_next behind the already-resumed transmitter.
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.pause(50e-6)
        pa.send(pkt())
        pa.send(pkt())
        sched.schedule_at(20e-6, pa.resume)
        sched.run()
        times = [t for t, _p, _i in b.arrivals]
        assert times == [pytest.approx(32e-6), pytest.approx(44e-6)]
        assert pa.busy_seconds == pytest.approx(24e-6)

    def test_flap_while_paused_then_resume(self):
        # down -> up while paused: set_up must respect the pause (no
        # transmission), and the later resume starts the drain.
        sched, a, b, pa, pb = make_pair(delay_s=0.0)
        pa.send(pkt())
        sched.run(until=6e-6)
        pa.pause()
        pa.set_down()
        pa.set_up()
        sched.run(until=100e-6)
        assert b.arrivals == []  # killed first packet, pause holds
        pa.send(pkt())
        pa.resume()
        sched.run()
        assert len(b.arrivals) == 1
        assert not pa.busy


def _dba_pair(total_pkts=100.0, **pool_kwargs):
    """Both directions of a link on one shared pool (one switch's DBA
    buffer), marking ECN at occupancy > 1."""
    def make():
        pool = SharedBufferPool(int(total_pkts * MTU_BYTES), **pool_kwargs)
        return DynamicBufferQueue(pool, 1), DynamicBufferQueue(pool, 1)
    return make


# Port queue kinds the idle-send bypass covers.  The DBA variants: the
# default pool; no reserved allotment (admission by the alpha rule alone);
# an alpha that refuses an empty queue once anything else holds pool bytes;
# and a pool the reverse direction nearly fills, so idle sends drop.  The
# ECN bursts (see ELISION_BURSTS) drive a busy port's inline enqueue past
# its mark threshold and then to capacity.
ELISION_QUEUES = {
    "droptail": lambda: (DropTailQueue(100), DropTailQueue(100)),
    "ecn": lambda: (EcnQueue(100, 1), EcnQueue(100, 1)),
    "dba": _dba_pair(),
    "dba-unreserved": _dba_pair(reserved_pkts_per_port=0),
    "dba-alpha-refuses": _dba_pair(total_pkts=10, alpha=0.1, reserved_pkts_per_port=0),
    "dba-nearly-full": _dba_pair(total_pkts=2.5),
    "ecn-burst": lambda: (EcnQueue(8, 5), EcnQueue(8, 5)),
    "ecn-burst-retuned": lambda: (EcnQueue(8, 5), EcnQueue(8, 5)),
}


class _SpanLog:
    """Stands in for a SpanRecorder: records how each span finished."""

    def __init__(self):
        self.finished = []

    def end(self, span, status, t_end, where=None):
        self.finished.append((span.idx, status, t_end, where))


def _ecn_burst(retune):
    """16 span-carrying ECN packets into ``pa``, one every 2 us — six
    times faster than it drains — so the busy queue passes the mark
    threshold and then fills; with ``retune``, the runtime controller's
    actuator lowers the threshold mid-burst.  Returns the spans and
    their finish log."""
    def burst(sched, pa, pb):
        log = _SpanLog()
        spans = []
        for i in range(16):
            p = ecn_pkt(flow=2)
            p.span = PacketSpan(log, i, 2, i, p.size, False, 0.0)
            p.span.hops.append({"node": "a"})
            spans.append(p.span)
            sched.schedule_at(120e-6 + 2e-6 * i, pa.send, p)
        if retune:
            fabric = SimpleNamespace(topology_generation=0,
                                     switches=[SimpleNamespace(ports=[pa, pb])])
            sched.schedule_at(127e-6, Actuators(fabric).set_ecn_threshold, 2)
        return spans, log
    return burst


ELISION_BURSTS = {
    "ecn-burst": _ecn_burst(retune=False),
    "ecn-burst-retuned": _ecn_burst(retune=True),
}


class TestElisionEquivalence:
    """The tx-done-elision hot path (elide_tx) must be observationally
    identical to the seed's two-event transmit path — same delivery
    times, ECN marks, counters and pool balance, same logical event
    count — including across pauses and fault flaps, for every queue
    kind whose idle sends bypass the queue."""

    @staticmethod
    def _run_traffic(elide, queues, burst=None):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=10e-6, queues=queues)
        pa.elide_tx = elide
        pb.elide_tx = elide
        # The reverse direction parks a backlog (pool bytes, on a shared
        # pool) until 40 us, then drains it.
        pb.pause()
        for i in range(2):
            pb.send(ecn_pkt())
        sched.schedule_at(40e-6, pb.resume)
        for i in range(3):
            pa.send(ecn_pkt())
        sched.schedule_at(5e-6, pa.pause, 20e-6)   # PFC pause mid-burst
        sched.schedule_at(30e-6, pa.send, ecn_pkt(size=200))
        sched.schedule_at(60e-6, pa.send, ecn_pkt())
        sched.schedule_at(70e-6, pa.set_down)      # flap
        sched.schedule_at(80e-6, pa.set_up)
        sched.schedule_at(90e-6, pa.send, ecn_pkt())
        sched.schedule_at(91e-6, pa.send, ecn_pkt())
        spans = None if burst is None else burst(sched, pa, pb)
        sched.run()
        # Settle any leftover elided tx-done, as Network.run's post-run
        # sweep does for real topologies.
        assert not pa.busy and not pb.busy
        arrivals = [
            [(t, p.size, p.ecn_ce) for t, p, _i in node.arrivals] for node in (a, b)
        ]
        counters = [
            (port.pkts_sent, port.bytes_sent, port.bytes_killed, port.drops_link_down,
             round(port.busy_seconds, 12), port.queue.enqueues, port.queue.drops,
             getattr(port.queue, "marks", 0))
            for port in (pa, pb)
        ]
        pool = getattr(pa.queue, "pool", None)
        used = None if pool is None else pool.used_bytes
        if spans is not None:
            # Span hop annotations (the ecn flag included) and how each
            # span finished.
            spans = ([span.hops for span in spans[0]], spans[1].finished,
                     pa.queue.counter_dict())
        return arrivals, counters, used, sched.events_processed, sched.now, spans

    @pytest.mark.parametrize("kind", list(ELISION_QUEUES))
    def test_elide_on_matches_elide_off(self, kind):
        make = ELISION_QUEUES[kind]
        burst = ELISION_BURSTS.get(kind)
        on = self._run_traffic(True, make(), burst)
        assert on == self._run_traffic(False, make(), burst)
        arrivals, counters, used, _events, _now, spans = on
        assert used in (None, 0)  # every admitted byte went back to the pool
        if kind in ("dba-alpha-refuses", "dba-nearly-full"):
            # The case under test happened: idle sends were refused.
            assert counters[0][6] > 0
        if kind in ("ecn", "dba"):
            assert any(ce for _t, _size, ce in arrivals[1])
        if burst is not None:
            # The busy queue marked, then overflowed.
            hops, finished, queue_counters = spans
            assert queue_counters["ecn_marks"] > 0 and queue_counters["queue_drops"] > 0
            assert any(hop.get("ecn") for span_hops in hops for hop in span_hops)
            assert [status for _i, status, _t, _w in finished].count("dropped:overflow") > 0
            retuned = kind == "ecn-burst-retuned"
            assert queue_counters["mark_threshold_pkts"] == (2 if retuned else 5)

    def test_busy_property_settles_elided_tx_done(self):
        # External readers polling `busy` between events must observe the
        # settled state even though the tx-done event was never dispatched.
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=0.0)
        pa.send(pkt())
        sched.run(until=20e-6)  # serialization ended at 12 us
        assert not pa.busy
        assert sched.events_processed == 2  # delivery + elided tx-done


# A random shared-pool state: pool size, DT alpha, reserved allotment
# (0 included), the packets each port holds, and bytes held by ports
# outside the test.
pool_states = st.fixed_dictionaries({
    "total": st.integers(1, 24).map(lambda n: n * 500),
    "alpha": st.sampled_from([0.0625, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0]),
    "reserved": st.integers(0, 3),
    "held": st.lists(st.lists(st.sampled_from([64, 500, 1500]), max_size=4),
                     min_size=3, max_size=3),
    "others": st.integers(0, 12_000),
})


def _fill(pool, ports, state):
    """Park each port's packets in its queue (ports paused), then charge
    the bytes other ports hold, capped at the pool size."""
    for port, sizes in zip(ports, state["held"]):
        port.pause()
        for size in sizes:
            port.send(Packet(flow_id=9, src=0, dst=1, payload=size - 40))
    pool.used_bytes += min(state["others"], pool.total_bytes - pool.used_bytes)


class TestSharedPoolHotPath:
    """DBA ports take the idle-send bypass and the switch's inline detour
    trigger; both must decide exactly as the queue's own admission rule
    (SharedBufferPool.admits) over any pool state."""

    @settings(deadline=None, max_examples=150)
    @given(state=pool_states, size=st.sampled_from([40, 64, 500, 1499, 1500]),
           elide=st.booleans())
    def test_idle_send_admits_iff_pool_admits_at_zero(self, state, size, elide):
        pool = SharedBufferPool(state["total"], alpha=state["alpha"],
                                reserved_pkts_per_port=state["reserved"])
        sched, a, b, pa, pb = make_pair(
            delay_s=0.0, queues=(DynamicBufferQueue(pool, 1), DynamicBufferQueue(pool, 1)))
        pa.elide_tx = pb.elide_tx = elide
        _fill(pool, [pb], state)  # pa stays idle with an empty queue
        used = pool.used_bytes
        expected = pool.admits(0, size, 0)
        calls = []
        real_enqueue = DynamicBufferQueue.enqueue

        def spy(queue, p):
            calls.append(p)
            return real_enqueue(queue, p)

        DynamicBufferQueue.enqueue = spy
        try:
            sent = pa.send(Packet(flow_id=1, src=0, dst=1, payload=size - 40, ecn_capable=True))
        finally:
            DynamicBufferQueue.enqueue = real_enqueue
        assert sent == expected
        assert pa.queue.drops == (0 if expected else 1)
        # The bypass is taken exactly when the pool admits the packet (a
        # refused one goes through enqueue, which drops and counts it);
        # with elide_tx off every send takes the seed's queue path.
        assert len(calls) == (0 if elide and expected else 1)
        sched.run()
        assert len(b.arrivals) == int(expected)
        assert not any(p.ecn_ce for _t, p, _i in b.arrivals)  # occupancy 1 never marks
        assert pool.used_bytes == used  # take-then-release nets to zero

    @settings(deadline=None, max_examples=150)
    @given(state=pool_states)
    def test_dba_desired_port_detours_iff_full(self, state):
        # One DIBS switch whose ports all draw on one pool: port 0 faces
        # the destination host, ports 1 and 2 face neighbor switches (the
        # detour candidates).  Paused ports hold their queues.
        sched = Scheduler()
        pool = SharedBufferPool(state["total"], alpha=state["alpha"],
                                reserved_pkts_per_port=state["reserved"])
        hub = Switch(10, "hub", sched, dibs=DibsConfig(), rng=random.Random(0))
        host = Host(0, "h0", sched)
        ports = [Port(hub, DynamicBufferQueue(pool), 1e9, 0.0)]
        connect(ports[0], Port(host, DropTailQueue(100), 1e9, 0.0))
        for i in range(2):
            nbr = Switch(20 + i, f"n{i}", sched, rng=random.Random(i))
            ports.append(Port(hub, DynamicBufferQueue(pool), 1e9, 0.0))
            connect(ports[-1], Port(nbr, DropTailQueue(100), 1e9, 0.0))
        hub.fib = {0: [0]}
        _fill(pool, ports, state)
        full = ports[0].queue.is_full()
        candidates = [p.index for p in ports[1:] if not p.queue.is_full()]
        assert [p.index for p in hub.detour_candidates(ports[0], 5)] == candidates
        before = dict(hub.counters.as_dict())
        hub.receive(Packet(flow_id=1, src=5, dst=0, payload=MTU_BYTES - 40), 5)
        after = hub.counters.as_dict()
        triggered = (after["detours"] - before["detours"]
                     + after["drops_no_detour"] - before["drops_no_detour"])
        assert triggered == int(full)
        if full:
            assert after["detours"] - before["detours"] == int(bool(candidates))
        else:
            # Not full means DBA admits a full MTU: the packet is queued.
            assert after["forwards"] - before["forwards"] == 1


def jittered_pair(jitter_s, **kwargs):
    sched, a, b, pa, pb = make_pair(**kwargs)
    if jitter_s:
        pa.set_jitter(jitter_s, random.Random(7))
    return sched, a, b, pa, pb


def off_the_wire(p):
    """A packet that is not propagating holds no FIFO link and no
    delivery handle (a stale handle would pin a recycled event)."""
    return p.flight_next is None and p.flight_event is None


class TestInFlightFifo:
    """The per-port in-flight FIFO threaded through the packets."""

    @pytest.mark.parametrize("jitter_s", [0.0, 30e-6], ids=["fixed", "jittered"])
    def test_in_flight_exact_through_flaps(self, jitter_s):
        sched, a, b, pa, pb = jittered_pair(jitter_s, rate_bps=1e9, delay_s=100e-6)
        killed = 0

        def check():
            assert pa.in_flight == pa.pkts_sent - len(b.arrivals) - killed

        for _ in range(4):
            pa.send(pkt())
        sched.run(until=40e-6)  # three serialized, the fourth mid-tx
        assert pa.in_flight == 4
        check()
        killed += pa.set_down()
        assert killed == 4 and pa.in_flight == 0
        check()
        sched.run(until=300e-6)
        pa.set_up()
        for _ in range(3):
            pa.send(pkt())
        while sched.step():
            check()
        assert pa.in_flight == 0
        assert len(b.arrivals) == 3
        assert pa.drops_link_down == 4

    @pytest.mark.parametrize("jitter_s", [0.0, 30e-6], ids=["fixed", "jittered"])
    def test_slots_cleared_on_delivery_and_kill(self, jitter_s):
        sched, a, b, pa, pb = jittered_pair(jitter_s, rate_bps=1e9, delay_s=100e-6)
        sent = [pkt() for _ in range(5)]
        for p in sent[:2]:
            pa.send(p)
        sched.run()
        for p in sent[2:]:
            pa.send(p)
        sched.run(until=sched.now + 30e-6)
        assert not any(off_the_wire(p) for p in sent[2:4])  # on the wire
        assert pa.set_down() == 3
        sched.run()
        assert [p for _t, p, _i in b.arrivals] == sent[:2]
        assert all(off_the_wire(p) for p in sent)

    def test_jittered_deliveries_stay_fifo(self):
        sched, a, b, pa, pb = jittered_pair(50e-6, rate_bps=1e10, delay_s=1e-6)
        sent = [pkt() for _ in range(40)]
        for p in sent:
            pa.send(p)
        sched.run()
        assert [p for _t, p, _i in b.arrivals] == sent
        times = [t for t, _p, _i in b.arrivals]
        assert times == sorted(times)
        assert all(off_the_wire(p) for p in sent)

    def test_forward_from_own_delivery_unlinks_upstream_first(self):
        # b forwards every arrival onto its second port from inside the
        # delivery callback: the packet must already be off pa's FIFO
        # (or linking it onto pb2's would splice the two FIFOs).
        sched = Scheduler()
        a = SinkNode(0, "a", sched)
        c = SinkNode(2, "c", sched)
        seen = []

        class Relay(Node):
            def receive(self, p, in_port):
                seen.append((pa.in_flight, off_the_wire(p)))
                out.send(p)

        b = Relay(1, "b", sched)
        pa = Port(a, DropTailQueue(100), 1e9, 100e-6)
        pb = Port(b, DropTailQueue(100), 1e9, 100e-6)
        connect(pa, pb)
        out = Port(b, DropTailQueue(100), 1e9, 10e-6)
        pc = Port(c, DropTailQueue(100), 1e9, 10e-6)
        connect(out, pc)
        sent = [pkt() for _ in range(3)]
        for p in sent:
            pa.send(p)
        sched.run()
        # All three are on pa's wire (12 us serializations, 100 us
        # propagation) before the first arrives: 2, 1, 0 stay upstream.
        assert seen == [(2, True), (1, True), (0, True)]
        assert [p for _t, p, _i in c.arrivals] == sent
        assert pa.in_flight == out.in_flight == 0
        assert all(off_the_wire(p) for p in sent)

    def test_kills_counted_once_and_ledger_conserved(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
            seed=3,
        )
        for i in range(1, 9):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dibs", kind="query")
        net.run(until=0.0003)
        ports = [p for sw in net.switches for p in sw.ports if p.in_flight >= 2]
        assert ports  # the kill below is not vacuous
        port = ports[0]
        before = net.counters().total_drops()
        on_wire = port.in_flight
        assert port.set_down() == on_wire
        assert port.in_flight == 0
        assert net.counters().total_drops() == before + on_wire
        assert conservation_report(net).leaked == 0  # mid-run, right after
        port.set_up()
        net.run()
        assert_conserved(net)


class TestJitterPressure:
    def test_jittered_flood_hits_pending_cap(self):
        # Jittered deliveries are inserted with schedule_reserved, which
        # must honour max_pending_events like every other insert path.
        def flood(sched):
            _s, _a, _b, pa, _pb = make_pair(rate_bps=1e9, delay_s=1.0, sched=sched)
            pa.set_jitter(1e-6, random.Random(3))
            for _ in range(50):
                pa.send(pkt())
            with pytest.raises(ResourceError) as info:
                sched.run()
            return str(info.value)

        message = flood(Scheduler(max_pending_events=16))
        assert "Port._deliver" in message
        assert flood(HeapScheduler(max_pending_events=16)) == message


class TestInsertSites:
    """The transmit sites put their events on the calendar three ways: an
    idle send's or elided ``_tx_next``'s delivery (``schedule_reserved``
    under a fresh seq), a busy send's materialized tx-done
    (``schedule_reserved``) and a busy ``_tx_next``'s tx-done plus
    delivery in one ``schedule_tx`` call, on a fixed or a jittered link.  The calendar and
    heap engines must dispatch the same events at the same ``(time, seq)``
    and fail the same way."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """Record ``(now, now_seq, name)`` at every port entry point, the
        callback of every event the calendar inserts into the bucket
        being consumed (``insort``) or into the overflow heap, and where
        each calendar ``schedule_tx`` delivery lands (``tx_places``:
        ``"cursor"``, ``"ring"`` or ``"far"``)."""
        import repro.sim.engine as engine

        trace, places, tx_places = [], [], []
        schedule_tx = Scheduler.schedule_tx

        def schedule_tx_spy(sched, tx, tx_fn, at, fn, *args):
            ahead = int((at - sched._wstart) * sched._inv_width) - sched._cur
            tx_places.append("cursor" if ahead <= 0 else "ring" if ahead < 1024 else "far")
            return schedule_tx(sched, tx, tx_fn, at, fn, *args)

        monkeypatch.setattr(Scheduler, "schedule_tx", schedule_tx_spy)
        for name in ("send", "_tx_next", "_deliver"):
            def recorder(port, *args, _fn=getattr(Port, name), _name=name):
                trace.append((port.scheduler.now, port.scheduler._now_seq, _name))
                return _fn(port, *args)
            recorder.__qualname__ = f"Port.{name}"
            monkeypatch.setattr(Port, name, recorder)
        insort, park_far = engine.insort, Scheduler._park_far

        def insort_spy(bucket, ev, **kwargs):
            places.append(("cursor", ev.fn.__qualname__))
            return insort(bucket, ev, **kwargs)

        def park_far_spy(sched, idx, time, seq, ev):
            places.append(("far", ev.fn.__qualname__))
            return park_far(sched, idx, time, seq, ev)

        monkeypatch.setattr(engine, "insort", insort_spy)
        monkeypatch.setattr(Scheduler, "_park_far", park_far_spy)
        return trace, places, tx_places

    # name -> (rate_bps, delay_s, jitter, send times); the later sends
    # find parked events on the free list.  ``jitter`` is a jitter_s, or
    # ``(time, jitter_s)`` steps applied with set_jitter on one stream.
    CASES = {
        "fixed": (1e9, 10e-6, 0.0, [0.0, 50e-6, 100e-6]),
        "jitter": (1e9, 10e-6, 30e-6, [0.0] * 6 + [200e-6, 250e-6]),
        # Busy jittered hops in three bursts: a ~1 ns jitter on 12 ns
        # serializations (deliveries into the bucket being consumed), a
        # 100 us one (ring), then 20 ms (overflow).
        "jitter-busy": (1e12, 0.0, ((0.0, 1e-9), (1e-4, 1e-4), (1e-3, 0.02)),
                        [0.0] * 5 + [1e-4] * 5 + [1e-3] * 5),
        # A backlog: tx-dones dispatched, and an elided one materialized.
        "busy": (1e9, 10e-6, 0.0, [0.0] * 8 + [200e-6] * 3),
        # 12 ns serializations, no propagation: every insert lands in the
        # bucket being consumed, and the materialized tx-done shares its
        # time with the delivery inserted after it (an older seq first).
        "cursor": (1e12, 0.0, 0.0, [0.0] * 5 + [1e-6] * 3),
        # Propagation beyond one ring revolution: overflow inserts.
        "overflow": (1e9, 0.01, 0.0, [0.0] * 3 + [1e-3]),
    }

    def _run(self, sched, case, trace):
        rate, delay, jitter, times = self.CASES[case]
        del trace[:]
        _s, _a, b, pa, pb = make_pair(rate_bps=rate, delay_s=delay, sched=sched)
        if jitter:
            rng = random.Random(7)
            steps = jitter if isinstance(jitter, tuple) else ((0.0, jitter),)
            for t, jitter_s in steps:
                if t == 0.0:
                    pa.set_jitter(jitter_s, rng)
                else:
                    sched.schedule_at(t, pa.set_jitter, jitter_s, rng)
        for t in times:
            if t == 0.0:
                pa.send(pkt())
            else:
                sched.schedule_at(t, pa.send, pkt())
        sched.run()
        assert not pa.busy
        arrivals = [(t, p.size) for t, p, _i in b.arrivals]
        return list(trace), arrivals, sched.events_processed, sched._seq, sched.pending

    @pytest.mark.parametrize("case", list(CASES))
    def test_calendar_matches_heap(self, case, traced):
        trace, places, tx_places = traced
        calendar = self._run(Scheduler(), case, trace)
        cal_places = list(places)
        heap = self._run(HeapScheduler(), case, trace)
        assert calendar == heap
        events = calendar[0]
        assert len(calendar[1]) == len(self.CASES[case][3])  # all delivered
        if case == "busy":
            assert any(name == "_tx_next" for _t, _s, name in events)
        if case == "cursor":
            # schedule_tx's two inserts and the materialized tx-done all
            # land in the bucket being consumed ...
            assert ("cursor", "Port._deliver") in cal_places
            assert cal_places.count(("cursor", "Port._tx_next")) >= 2
            # ... and the materialized tx-done (reserved seq) ran before
            # the delivery sharing its time.
            tx_done = next(e for e in events if e[2] == "_tx_next")
            first = next(e for e in events if e[2] == "_deliver")
            assert tx_done[0] == first[0] and tx_done[1] < first[1]
        if case == "overflow":
            assert ("far", "Port._deliver") in cal_places
        if case == "jitter-busy":
            # Every burst's busy hops went through schedule_tx, and its
            # deliveries landed in each part of the calendar.
            assert tx_places == ["cursor"] * 3 + ["ring"] * 3 + ["far"] * 3

    @pytest.mark.parametrize("tx, at", [
        (float("inf"), 1e-6), (float("nan"), 1e-6), (-1e-6, 1e-6),
        (1e-6, float("inf")), (1e-6, -1e-6), (1e-6, float("nan")), (1e-6, 5e-6),
    ])
    def test_schedule_tx_rejects_like_two_schedule_once(self, tx, at):
        """A bad tx-done delay fails before anything is inserted; a bad
        delivery time (before ``now`` = 10 us, or not finite) fails with
        the tx-done already in and no sequence number taken for the
        delivery — on both engines, with the same message, ``pending``
        and sequence numbers as the fallback's two ``schedule_reserved``
        calls give."""

        def attempt(sched):
            sched.schedule_at(10e-6, lambda: None)
            sched.run()
            pending, seq = sched.pending, sched._seq
            with pytest.raises(SimulationError) as info:
                sched.schedule_tx(tx, lambda: None, at, lambda pkt: None, "pkt")
            return str(info.value), sched.pending - pending, sched._seq - seq

        calendar = attempt(Scheduler())
        assert calendar == attempt(HeapScheduler())
        assert calendar[1:] == ((0, 0) if tx != 1e-6 else (1, 1))
        if tx == 1e-6:
            assert ("into the past" if at < 10e-6 else "non-finite time") in calendar[0]

    def test_schedule_tx_events_are_parked_after_firing(self):
        sched = Scheduler()
        fired = []
        ev = sched.schedule_tx(1e-6, lambda: fired.append("tx"), 2e-6, fired.append, "deliver")
        sched.run()
        assert fired == ["tx", "deliver"]
        # Both events were new (the free list was empty); both were parked.
        tx_done = ev.free_next
        assert sched._free is ev and tx_done is not None and tx_done.free_next is None

    @pytest.mark.parametrize("jitter", [0.0, 30e-6], ids=["fixed", "jitter"])
    def test_replaced_insert_methods_see_every_port_callback(self, jitter, monkeypatch):
        """With ``schedule_once`` and ``schedule_reserved`` replaced on the
        class (what the traced ledger wraps), every port callback reaches
        the ``schedule_reserved`` wrapper — ``schedule_tx`` makes its two
        calls there — on a fixed and on a jittered port, and the run is
        unchanged."""

        def run():
            sched, _a, b, pa, _pb = make_pair(rate_bps=1e9, delay_s=10e-6)
            if jitter:
                pa.set_jitter(jitter, random.Random(3))
            for _ in range(4):
                pa.send(pkt())
            sched.run()
            return [(t, p.size) for t, p, _i in b.arrivals], sched._seq, sched.events_processed

        direct = run()
        seen = []
        once, reserved = Scheduler.schedule_once, Scheduler.schedule_reserved

        def once_wrapper(sched, delay, fn, *args):
            seen.append(("once", fn.__qualname__))
            return once(sched, delay, fn, *args)

        def reserved_wrapper(sched, time, seq, fn, *args):
            seen.append(("reserved", fn.__qualname__))
            return reserved(sched, time, seq, fn, *args)

        monkeypatch.setattr(Scheduler, "schedule_once", once_wrapper)
        monkeypatch.setattr(Scheduler, "schedule_reserved", reserved_wrapper)
        assert run() == direct
        deliver = ("reserved", "Port._deliver")
        tx_done = ("reserved", "Port._tx_next")
        # The idle send's delivery; the second send's materialized tx-done;
        # the first busy _tx_next's pair, the second's; and the last
        # packet's delivery with its tx-done elided.
        assert seen == [deliver, tx_done, tx_done, deliver, tx_done, deliver, deliver]

    def test_replaced_schedule_reserved_alone_sees_busy_deliveries(self, monkeypatch):
        """Replacing only ``schedule_reserved`` is enough for
        ``schedule_tx`` to make the two calls, so the wrapper sees every
        port callback."""
        seen = []
        reserved = Scheduler.schedule_reserved

        def wrapper(sched, time, seq, fn, *args):
            seen.append(fn.__qualname__)
            return reserved(sched, time, seq, fn, *args)

        monkeypatch.setattr(Scheduler, "schedule_reserved", wrapper)
        sched, _a, b, pa, _pb = make_pair(rate_bps=1e9, delay_s=10e-6)
        for _ in range(4):
            pa.send(pkt())
        sched.run()
        assert len(b.arrivals) == 4
        # As in the test above: every port callback, idle and busy.
        assert seen == ["Port._deliver", "Port._tx_next", "Port._tx_next", "Port._deliver",
                        "Port._tx_next", "Port._deliver", "Port._deliver"]

    @staticmethod
    def _pressure(sched, site):
        """Drive ``site`` into ``max_pending_events`` and return the
        error message.  The cap is set to the live count, so the next
        insert — the one under test — is the first to exceed it."""
        _s, _a, _b, pa, _pb = make_pair(rate_bps=1e9, delay_s=1.0, sched=sched)
        if site == "send-delivery":
            sched.max_pending_events = 1
            sched.schedule_at(0.5, lambda: None)
            call = partial(pa.send, pkt())  # idle: the bypass delivery
        elif site == "materialize":
            pa.send(pkt())
            sched.max_pending_events = sched.pending
            call = partial(pa.send, pkt())  # busy: the elided tx-done back
        else:
            for _ in range(3):
                pa.send(pkt())
            if site == "tx-done":
                # Dispatching the tx-done frees a slot that its own
                # tx-done re-insert takes back: cap one below the count.
                sched.max_pending_events = sched.pending - 1
            else:  # "tx-delivery": the tx-done fits, the delivery does not
                sched.max_pending_events = sched.pending
            call = sched.run
        pending = sched.pending
        with pytest.raises(ResourceError) as info:
            call()
        if site in ("send-delivery", "materialize"):
            assert sched.pending == pending
        return str(info.value)

    @pytest.mark.parametrize("site, fn", [
        ("send-delivery", "Port._deliver"),
        ("materialize", "Port._tx_next"),
        ("tx-done", "Port._tx_next"),
        ("tx-delivery", "Port._deliver"),
    ])
    def test_pending_cap_at_each_insert_site(self, site, fn):
        message = self._pressure(Scheduler(), site)
        assert f"while scheduling {fn} " in message
        assert self._pressure(HeapScheduler(), site) == message

    @staticmethod
    def _infinite_tx(sched):
        _s, _a, _b, pa, _pb = make_pair(rate_bps=1e-320, sched=sched)
        messages = []
        for _ in range(2):  # idle-send delivery, then the busy materialize
            pending = sched.pending
            with pytest.raises(SimulationError) as info:
                pa.send(pkt())
            assert sched.pending == pending == 0
            messages.append(str(info.value))
        return messages, sched._seq

    def test_infinite_serialization_rejected_alike(self):
        calendar = self._infinite_tx(Scheduler())
        assert calendar == self._infinite_tx(HeapScheduler())
        assert calendar[0] == [
            "non-finite time: inf (scheduling Port._deliver)",
            "non-finite time: inf (scheduling Port._tx_next)",
        ]

    def test_steady_state_deliveries_reuse_parked_events(self, monkeypatch):
        import repro.sim.engine as engine

        made = []
        real = engine.Event

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(engine, "Event", counting)
        sched, _a, b, pa, _pb = make_pair(rate_bps=1e9, delay_s=10e-6)
        first = pkt()
        pa.send(first)  # a fresh event, parked once it has fired
        ev = first.flight_event
        sched.run()
        assert sched._free is ev
        for _ in range(5):  # warm-up burst: allocates the working set
            pa.send(pkt())
        sched.run()
        assert made
        del made[:]
        for _ in range(3):
            for _ in range(5):
                pa.send(pkt())
            sched.run()
        assert made == []  # every insert popped a parked event
        for _ in range(3):  # idle sends: the delivery is the free-list head
            head = sched._free
            p = pkt()
            pa.send(p)
            assert p.flight_event is head
            sched.run()
        assert len(b.arrivals) == 24

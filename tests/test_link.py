"""Unit tests for ports and links (serialization + propagation model)."""

import random

import pytest

from repro.net.audit import assert_conserved, conservation_report
from repro.net.link import Port, connect
from repro.net.network import Network, SwitchQueueConfig
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
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


def make_pair(rate_bps=1e9, delay_s=10e-6, capacity=100, sched=None):
    sched = Scheduler() if sched is None else sched
    a = SinkNode(0, "a", sched)
    b = SinkNode(1, "b", sched)
    pa = Port(a, DropTailQueue(capacity), rate_bps, delay_s)
    pb = Port(b, DropTailQueue(capacity), rate_bps, delay_s)
    connect(pa, pb)
    return sched, a, b, pa, pb


def pkt(size=1500, flow=1):
    return Packet(flow_id=flow, src=0, dst=1, payload=size - 40)


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


class TestElisionEquivalence:
    """The tx-done-elision hot path (elide_tx) must be observationally
    identical to the seed's two-event transmit path — same delivery
    times, same counters, same logical event count — including across
    pauses and fault flaps."""

    @staticmethod
    def _run_traffic(elide):
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=10e-6)
        pa.elide_tx = elide
        pb.elide_tx = elide
        for i in range(3):
            pa.send(pkt())
        sched.schedule_at(5e-6, pa.pause, 20e-6)   # PFC pause mid-burst
        sched.schedule_at(60e-6, pa.send, pkt())
        sched.schedule_at(70e-6, pa.set_down)      # flap
        sched.schedule_at(80e-6, pa.set_up)
        sched.schedule_at(90e-6, pa.send, pkt())
        sched.run()
        # Settle any leftover elided tx-done, as Network.run's post-run
        # sweep does for real topologies.
        assert not pa.busy and not pb.busy
        arrivals = [(t, p.size) for t, p, _i in b.arrivals]
        counters = (pa.pkts_sent, pa.bytes_sent, pa.bytes_killed,
                    pa.drops_link_down, round(pa.busy_seconds, 12),
                    pa.queue.enqueues)
        return arrivals, counters, sched.events_processed, sched.now

    def test_elide_on_matches_elide_off(self):
        assert self._run_traffic(True) == self._run_traffic(False)

    def test_busy_property_settles_elided_tx_done(self):
        # External readers polling `busy` between events must observe the
        # settled state even though the tx-done event was never dispatched.
        sched, a, b, pa, pb = make_pair(rate_bps=1e9, delay_s=0.0)
        pa.send(pkt())
        sched.run(until=20e-6)  # serialization ended at 12 us
        assert not pa.busy
        assert sched.events_processed == 2  # delivery + elided tx-done


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

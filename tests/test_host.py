"""Unit tests for end hosts."""

import pytest

from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Scheduler


def wired_host():
    sched = Scheduler()
    h = Host(0, "h0", sched)
    peer = Host(1, "h1", sched)
    p0 = Port(h, DropTailQueue(100), 1e9, 0.0)
    p1 = Port(peer, DropTailQueue(100), 1e9, 0.0)
    connect(p0, p1)
    return sched, h, peer


def pkt(flow=1, dst=1):
    return Packet(flow_id=flow, src=0, dst=dst, payload=1460)


class TestDemux:
    def test_registered_endpoint_receives(self):
        sched, h, peer = wired_host()
        got = []
        peer.register(7, got.append)
        h.send(pkt(flow=7, dst=1))
        sched.run()
        assert len(got) == 1

    def test_unregistered_flow_counts_unclaimed(self):
        sched, h, peer = wired_host()
        h.send(pkt(flow=9, dst=1))
        sched.run()
        assert peer.unclaimed == 1

    def test_wrong_destination_not_forwarded(self):
        sched, h, peer = wired_host()
        got = []
        peer.register(7, got.append)
        h.send(pkt(flow=7, dst=42))  # not peer's id
        sched.run()
        assert got == []
        assert peer.misdelivered == 1

    def test_duplicate_registration_rejected(self):
        sched, h, peer = wired_host()
        peer.register(7, lambda p: None)
        with pytest.raises(ValueError):
            peer.register(7, lambda p: None)

    def test_unregister_then_reregister(self):
        sched, h, peer = wired_host()
        peer.register(7, lambda p: None)
        peer.unregister(7)
        peer.register(7, lambda p: None)  # must not raise

    def test_unregister_missing_is_noop(self):
        sched, h, peer = wired_host()
        peer.unregister(12345)


class TestNic:
    def test_nic_property_requires_port(self):
        sched = Scheduler()
        h = Host(0, "h0", sched)
        with pytest.raises(RuntimeError):
            _ = h.nic
        with pytest.raises(RuntimeError, match="no NIC attached"):
            h.send(Packet(flow_id=1, src=0, dst=1))

    def test_send_returns_false_on_nic_overflow(self):
        sched = Scheduler()
        h = Host(0, "h0", sched)
        peer = Host(1, "h1", sched)
        p0 = Port(h, DropTailQueue(1), 1e9, 0.0)
        p1 = Port(peer, DropTailQueue(1), 1e9, 0.0)
        connect(p0, p1)
        assert h.send(pkt())
        assert h.send(pkt())
        assert not h.send(pkt())

    def test_trace_paths_initializes_path(self):
        sched, h, peer = wired_host()
        h.trace_paths = True
        p = pkt()
        h.send(p)
        assert p.path == ["h0"]
        sched.run()
        assert p.path == ["h0", "h1"]

    def test_no_tracing_leaves_path_none(self):
        sched, h, peer = wired_host()
        p = pkt()
        h.send(p)
        assert p.path is None

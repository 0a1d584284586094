"""Unit tests for the packet representation."""

from repro.net.packet import (
    ACK,
    ACK_BYTES,
    DATA,
    DEFAULT_TTL,
    HEADER_BYTES,
    MSS_BYTES,
    MTU_BYTES,
    Packet,
)
from repro.transport.base import FlowHandle, TcpConfig
from repro.transport.fairq import FairQConfig, FairQReceiver, FairQSender
from repro.transport.pfabric import PFabricConfig, PFabricReceiver, PFabricSender
from repro.transport.tcp import TcpReceiver, TcpSender

from tests.helpers import TransportHarness


class TestSizes:
    def test_mss_plus_header_is_mtu(self):
        assert MSS_BYTES + HEADER_BYTES == MTU_BYTES

    def test_full_data_packet_is_mtu_sized(self):
        pkt = Packet(flow_id=1, src=0, dst=1, kind=DATA, payload=MSS_BYTES)
        assert pkt.size == MTU_BYTES

    def test_partial_segment_wire_size(self):
        pkt = Packet(flow_id=1, src=0, dst=1, kind=DATA, payload=100)
        assert pkt.size == 100 + HEADER_BYTES

    def test_ack_wire_size(self):
        pkt = Packet(flow_id=1, src=0, dst=1, kind=ACK, ack_seq=1460)
        assert pkt.size == ACK_BYTES

    def test_explicit_size_override(self):
        pkt = Packet(flow_id=1, src=0, dst=1, size=64)
        assert pkt.size == 64


class TestFields:
    def test_defaults(self):
        pkt = Packet(flow_id=5, src=2, dst=9)
        assert pkt.is_data and not pkt.is_ack
        assert pkt.ttl == DEFAULT_TTL
        assert pkt.detours == 0
        assert pkt.hops == 0
        assert not pkt.ecn_capable
        assert not pkt.ecn_ce
        assert not pkt.ece
        assert pkt.priority is None
        assert pkt.path is None
        assert not pkt.is_retransmit

    def test_end_seq(self):
        pkt = Packet(flow_id=1, src=0, dst=1, seq=2920, payload=1460)
        assert pkt.end_seq == 4380

    def test_ack_kind_flags(self):
        pkt = Packet(flow_id=1, src=0, dst=1, kind=ACK)
        assert pkt.is_ack and not pkt.is_data

    def test_priority_tag_carried(self):
        pkt = Packet(flow_id=1, src=0, dst=1, priority=12345)
        assert pkt.priority == 12345

    def test_transport_hooks_stamp_priority_and_rate_signal(self):
        # The sender's priority hook and the receiver's ACK hook are
        # methods only on pFabric/FairQ; plain TCP leaves both unset.
        def observe(sender_cls, receiver_cls, config, signal=None):
            h = TransportHarness()
            data, acks = [], []

            def tap(p):
                if p.kind == DATA:
                    data.append(p.priority)
                    p.rate_signal = signal
                else:
                    acks.append(p.rate_signal)
                return False

            h.wire.drop_if = tap
            handle = FlowHandle(1, "test", 0, 1, 4 * MSS_BYTES, 0.0)
            receiver_cls(h.b, handle, config)
            sender_cls(h.a, handle, config).start()
            h.run()
            assert handle.completed
            return data, acks

        data, acks = observe(PFabricSender, PFabricReceiver, PFabricConfig(window_pkts=1))
        # Remaining flow size at send time: one segment per window.
        assert data == [4 * MSS_BYTES, 3 * MSS_BYTES, 2 * MSS_BYTES, MSS_BYTES]
        data, acks = observe(TcpSender, TcpReceiver, TcpConfig())
        assert data and all(tag is None for tag in data)
        assert acks and all(signal is None for signal in acks)
        data, acks = observe(FairQSender, FairQReceiver, FairQConfig(), signal=2.5e8)
        assert acks and all(signal == 2.5e8 for signal in acks)

    def test_slots_prevent_arbitrary_attributes(self):
        pkt = Packet(flow_id=1, src=0, dst=1)
        try:
            pkt.bogus = 1  # type: ignore[attr-defined]
        except AttributeError:
            return
        raise AssertionError("Packet should use __slots__")

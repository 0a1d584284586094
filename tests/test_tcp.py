"""Unit tests for the TCP sender/receiver machinery."""

import pytest

from repro.net.packet import DATA, MSS_BYTES
from repro.transport.base import TcpConfig

from tests.helpers import TransportHarness


class TestBasicTransfer:
    def test_single_segment_flow_completes(self):
        h = TransportHarness()
        flow, sender, receiver = h.flow(1000)
        sender.start()
        h.run()
        assert flow.completed
        assert flow.bytes_received == 1000
        assert flow.fct > 0

    def test_multi_window_flow_completes(self):
        h = TransportHarness()
        flow, sender, receiver = h.flow(500_000)
        sender.start()
        h.run()
        assert flow.completed
        assert sender.done
        assert flow.sender_done_time >= flow.receiver_done_time - 1e-9

    def test_partial_final_segment(self):
        h = TransportHarness()
        size = 3 * MSS_BYTES + 123
        flow, sender, receiver = h.flow(size)
        sender.start()
        h.run()
        assert flow.completed
        assert receiver.rcv_next == size

    def test_one_byte_flow(self):
        h = TransportHarness()
        flow, sender, receiver = h.flow(1)
        sender.start()
        h.run()
        assert flow.completed

    def test_packets_sent_matches_size_without_loss(self):
        h = TransportHarness()
        size = 10 * MSS_BYTES
        flow, sender, receiver = h.flow(size)
        sender.start()
        h.run()
        assert flow.packets_sent == 10
        assert flow.retransmits == 0
        assert flow.timeouts == 0

    def test_initial_window_burst(self):
        h = TransportHarness()
        config = TcpConfig(init_cwnd_pkts=10)
        flow, sender, receiver = h.flow(100 * MSS_BYTES, config)
        sender.start()
        # Before any event runs, exactly IW segments are in flight.
        assert sender.next_seq == 10 * MSS_BYTES
        h.run()
        assert flow.completed

    def test_fct_close_to_ideal_for_bulk_flow(self):
        h = TransportHarness(rate_bps=1e9, delay_s=1e-6)
        size = 1_000_000
        flow, sender, receiver = h.flow(size)
        sender.start()
        h.run()
        ideal = size * 8 / 1e9
        assert flow.fct < ideal * 1.6  # within slow-start overhead

    def test_two_simultaneous_flows_complete(self):
        h = TransportHarness()
        f1, s1, _ = h.flow(50_000)
        f2, s2, _ = h.flow(50_000)
        s1.start()
        s2.start()
        h.run()
        assert f1.completed and f2.completed


class TestCongestionWindow:
    def test_slow_start_doubles_window(self):
        h = TransportHarness()
        config = TcpConfig(init_cwnd_pkts=2)
        flow, sender, receiver = h.flow(200 * MSS_BYTES, config)
        sender.start()
        h.run(until=0.001)
        # After a few RTTs of slow start the window is far above initial.
        assert sender.cwnd >= 8 * MSS_BYTES

    def test_congestion_avoidance_after_ssthresh(self):
        h = TransportHarness()
        config = TcpConfig(init_cwnd_pkts=4)
        flow, sender, receiver = h.flow(80 * MSS_BYTES, config)
        sender.start()
        sender.ssthresh = 4 * MSS_BYTES  # force CA from the start
        h.run()
        assert flow.completed
        # CA growth is ~1 MSS/RTT: the window stays moderate.
        assert sender.cwnd < 30 * MSS_BYTES

    def test_window_cap_respected(self):
        h = TransportHarness()
        config = TcpConfig(init_cwnd_pkts=2, max_cwnd_pkts=4)
        flow, sender, receiver = h.flow(100 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert sender.cwnd <= 4 * MSS_BYTES + 1e-9

    def test_grow_cwnd_stops_at_max_cwnd(self):
        h = TransportHarness()
        config = TcpConfig(init_cwnd_pkts=2, max_cwnd_pkts=8)
        _flow, sender, _receiver = h.flow(100 * MSS_BYTES, config)
        cap = 8 * MSS_BYTES
        sender._grow_cwnd(MSS_BYTES)  # slow start: one MSS per MSS acked
        assert sender.cwnd == 3 * MSS_BYTES
        for cwnd in (5, 7, 8):  # ABC caps each step at 2 MSS, then max_cwnd
            sender._grow_cwnd(10 * MSS_BYTES)
            assert sender.cwnd == cwnd * MSS_BYTES
        sender.ssthresh = 0.0  # congestion avoidance pushes past the cap
        for _ in range(5):
            sender._grow_cwnd(MSS_BYTES)
            assert sender.cwnd == cap


class TestLossRecovery:
    def test_fast_retransmit_recovers_single_loss(self):
        h = TransportHarness()
        dropped = []

        def drop_once(pkt):
            if pkt.kind == DATA and pkt.seq == 2 * MSS_BYTES and not dropped:
                dropped.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_once
        config = TcpConfig(fast_retransmit_threshold=3, min_rto=0.05)
        flow, sender, receiver = h.flow(30 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert flow.completed
        assert flow.retransmits >= 1
        assert flow.timeouts == 0  # recovered without RTO
        assert flow.fct < 0.05  # far quicker than the RTO

    def test_disabled_fast_retransmit_waits_for_rto(self):
        h = TransportHarness()
        dropped = []

        def drop_once(pkt):
            if pkt.kind == DATA and pkt.seq == 2 * MSS_BYTES and not dropped:
                dropped.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_once
        config = TcpConfig(fast_retransmit_threshold=None, min_rto=0.02)
        flow, sender, receiver = h.flow(30 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert flow.completed
        assert flow.timeouts == 1
        assert flow.fct >= 0.02

    def test_higher_dupack_threshold_tolerates_reordering(self):
        # Deliver one packet late by bouncing it: drop seq and let RTO be
        # large; with threshold 3 the sender spuriously retransmits on
        # reorder; with threshold 10 it does not.  We emulate reordering by
        # dropping nothing but delaying via a one-shot detour is complex;
        # instead check that dupacks below threshold don't retransmit.
        h = TransportHarness()
        config = TcpConfig(fast_retransmit_threshold=10, min_rto=0.05)
        flow, sender, receiver = h.flow(30 * MSS_BYTES, config)
        sender.start()
        # Simulate two dupacks arriving: no retransmission must occur.
        sender.dupacks = 0
        before = flow.retransmits
        for _ in range(9):
            sender._on_dup_ack(False)
        assert flow.retransmits == before
        h.run()
        assert flow.completed

    def test_rto_recovers_tail_loss(self):
        h = TransportHarness()
        dropped = []

        def drop_last(pkt):
            if pkt.kind == DATA and pkt.seq == 9 * MSS_BYTES and not dropped:
                dropped.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_last
        config = TcpConfig(min_rto=0.01)
        flow, sender, receiver = h.flow(10 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert flow.completed
        assert flow.timeouts == 1  # tail loss has no dupacks: must RTO

    def test_timeout_collapses_window(self):
        h = TransportHarness()
        first = []

        def drop_burst(pkt):
            if pkt.kind == DATA and not pkt.is_retransmit and len(first) < 10:
                first.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_burst
        config = TcpConfig(min_rto=0.01, init_cwnd_pkts=10)
        flow, sender, receiver = h.flow(20 * MSS_BYTES, config)
        sender.start()
        # Run exactly through the RTO instant, before the retransmission's
        # ACK can arrive and regrow the window.
        h.run(until=0.01)
        assert flow.timeouts == 1
        assert sender.cwnd == pytest.approx(MSS_BYTES)
        h.run()
        assert flow.completed

    def test_rto_backoff_doubles(self):
        h = TransportHarness()
        h.wire.drop_if = lambda pkt: pkt.kind == DATA  # black hole
        config = TcpConfig(min_rto=0.01, max_rto=1.0)
        flow, sender, receiver = h.flow(MSS_BYTES, config)
        sender.start()
        h.run(until=0.10)
        # Timeouts at ~10ms, 30ms (10+20), 70ms (30+40): three by t=100ms.
        assert flow.timeouts == 3
        assert sender.rto == pytest.approx(0.08)

    def test_repeated_loss_still_completes(self):
        h = TransportHarness()
        state = {"count": 0}

        def drop_every_7th(pkt):
            if pkt.kind == DATA:
                state["count"] += 1
                return state["count"] % 7 == 0
            return False

        h.wire.drop_if = drop_every_7th
        config = TcpConfig(min_rto=0.005)
        flow, sender, receiver = h.flow(60 * MSS_BYTES, config)
        sender.start()
        h.run(until=5.0)
        assert flow.completed


class TestRttEstimation:
    def test_srtt_tracks_path_rtt(self):
        h = TransportHarness(rate_bps=1e9, delay_s=100e-6)
        flow, sender, receiver = h.flow(50 * MSS_BYTES)
        sender.start()
        h.run()
        # 4 propagation legs of 100us plus serialization: ~400-600 us.
        assert sender.srtt is not None
        assert 300e-6 < sender.srtt < 1e-3

    def test_rto_not_below_min(self):
        h = TransportHarness(delay_s=1e-6)
        config = TcpConfig(min_rto=0.01)
        flow, sender, receiver = h.flow(50 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert sender.rto >= 0.01

    def test_sample_rtt_clamps_to_rto_bounds(self):
        # Inside the bounds the RTO is srtt + 4 * rttvar; outside, exactly
        # the bound (first sample: rttvar = rtt / 2, so rto = 3 * rtt).
        h = TransportHarness()
        config = TcpConfig(min_rto=0.01, max_rto=0.5)
        for rtt, rto in ((1e-3, 0.01), (0.01, 0.03), (1.0, 0.5)):
            _flow, sender, _receiver = h.flow(MSS_BYTES, config)
            sender._sample_rtt(rtt)
            assert sender.rto == pytest.approx(rto)
            assert config.min_rto <= sender.rto <= config.max_rto
        assert sender.rto == 0.5  # the bound itself, not a computed value

    def test_no_rtt_sample_from_retransmits(self):
        h = TransportHarness(delay_s=50e-6)
        dropped = []

        def drop_once(pkt):
            if pkt.kind == DATA and pkt.seq == 0 and not dropped:
                dropped.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_once
        config = TcpConfig(min_rto=0.02, fast_retransmit_threshold=None)
        flow, sender, receiver = h.flow(MSS_BYTES, config)
        sender.start()
        h.run()
        assert flow.completed
        # The only data packet was retransmitted: Karn's rule forbids
        # sampling, so srtt must remain unset.
        assert sender.srtt is None


class TestReceiver:
    def test_out_of_order_buffering(self):
        h = TransportHarness()
        # Drop the first copy of segment 0 so 1..4 arrive out of order first.
        dropped = []

        def drop_once(pkt):
            if pkt.kind == DATA and pkt.seq == 0 and not dropped:
                dropped.append(pkt)
                return True
            return False

        h.wire.drop_if = drop_once
        config = TcpConfig(min_rto=0.01, init_cwnd_pkts=5, fast_retransmit_threshold=None)
        flow, sender, receiver = h.flow(5 * MSS_BYTES, config)
        sender.start()
        h.run()
        assert flow.completed
        # Segments 1-4 were buffered out of order: one go-back-N
        # retransmission of segment 0 completes the flow (5 arrivals
        # total), rather than resending the whole window.
        assert flow.packets_received == 5
        assert flow.retransmits == 1

    def test_duplicate_data_ignored_for_progress(self):
        h = TransportHarness()
        flow, sender, receiver = h.flow(2 * MSS_BYTES)
        sender.start()
        h.run()
        final = receiver.rcv_next
        # Replay an old segment directly.
        from repro.net.packet import Packet

        old = Packet(flow_id=flow.flow_id, src=0, dst=1, seq=0, payload=MSS_BYTES)
        receiver.on_data(old)
        assert receiver.rcv_next == final

    def test_completion_reported_once(self):
        h = TransportHarness()
        completions = []
        flow, sender, receiver = h.flow(MSS_BYTES)
        flow.on_complete = completions.append
        sender.start()
        h.run()
        from repro.net.packet import Packet

        dup = Packet(flow_id=flow.flow_id, src=0, dst=1, seq=0, payload=MSS_BYTES)
        receiver.on_data(dup)
        assert len(completions) == 1


class TestConfigValidation:
    def test_bad_mss(self):
        with pytest.raises(ValueError):
            TcpConfig(mss=0)

    def test_bad_rto_bounds(self):
        with pytest.raises(ValueError):
            TcpConfig(min_rto=0.1, max_rto=0.01)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            TcpConfig(fast_retransmit_threshold=0)

    def test_with_overrides(self):
        cfg = TcpConfig().with_overrides(min_rto=0.123)
        assert cfg.min_rto == 0.123
        assert TcpConfig().min_rto == 0.010  # original untouched

"""Tests for the MPTCP model and its coexistence with DIBS (§6)."""

import pytest

from repro.core.config import DibsConfig
from repro.net.audit import assert_conserved
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import fat_tree
from repro.transport.base import TcpConfig, dibs_host_config
from repro.transport.mptcp import (
    SUBFLOW_KIND,
    MptcpConfig,
    split_ranges,
    start_mptcp_flow,
)


class TestSplitRanges:
    def test_even_split(self):
        assert split_ranges(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        assert split_ranges(10, 3) == [4, 3, 3]

    def test_more_parts_than_bytes(self):
        assert split_ranges(2, 4) == [1, 1]

    def test_sums_to_size(self):
        for size in (1, 7, 1000, 99_999):
            for parts in (1, 2, 3, 8):
                assert sum(split_ranges(size, parts)) == size

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MptcpConfig(subflows=0)


class TestBasicTransfer:
    def test_flow_completes(self):
        net = Network(fat_tree(k=4), seed=1)
        conn = start_mptcp_flow(net, "host_0", "host_15", 100_000,
                                MptcpConfig(subflows=2, tcp=TcpConfig()))
        net.run(until=1.0)
        assert conn.completed
        assert conn.parent.fct > 0
        assert conn.parent.bytes_received == 100_000

    def test_single_subflow_degenerates_to_tcp(self):
        net = Network(fat_tree(k=4), seed=1)
        conn = start_mptcp_flow(net, "host_0", "host_15", 50_000, MptcpConfig(subflows=1))
        net.run(until=1.0)
        assert conn.completed
        assert len(conn.children) == 1

    def test_subflows_do_not_pollute_flow_metrics(self):
        net = Network(fat_tree(k=4), seed=1)
        start_mptcp_flow(net, "host_0", "host_15", 9_000, MptcpConfig(subflows=3),
                         kind="background")
        net.run(until=1.0)
        bg = net.collector.fct_values(kind="background")
        sub = net.collector.fct_values(kind=SUBFLOW_KIND)
        assert len(bg) == 1
        assert len(sub) == 3

    def test_parent_completes_only_after_all_children(self):
        net = Network(fat_tree(k=4), seed=1)
        conn = start_mptcp_flow(net, "host_0", "host_15", 60_000, MptcpConfig(subflows=4))
        net.run(until=1.0)
        assert conn.parent.receiver_done_time == pytest.approx(
            max(c.receiver_done_time for c in conn.children)
        )

    def test_validation(self):
        net = Network(fat_tree(k=4), seed=1)
        with pytest.raises(ValueError):
            start_mptcp_flow(net, "host_0", "host_0", 100)
        with pytest.raises(ValueError):
            start_mptcp_flow(net, "host_0", "host_1", 0)

    def test_conservation(self):
        net = Network(fat_tree(k=4), seed=1)
        start_mptcp_flow(net, "host_0", "host_15", 100_000, MptcpConfig(subflows=4))
        net.run()
        assert_conserved(net)


def _find_shared(net, conn):
    """Locate the _CoupledState behind a connection via its receiver host's
    registered subflow senders (test-only introspection)."""
    src_host = net.host(conn.parent.src)
    for flow in conn.children:
        endpoint = src_host._endpoints.get(flow.flow_id)
        sender = getattr(endpoint, "__self__", None)
        if sender is not None and getattr(sender, "shared", None) is not None:
            return sender.shared
    raise AssertionError("no coupled state found (is coupled=False?)")


class TestMultipathBehaviour:
    def test_subflows_spread_over_uplinks(self):
        # With enough subflows, both edge uplinks carry data of one
        # connection — the point of MPTCP over ECMP.
        net = Network(fat_tree(k=4), seed=3)
        start_mptcp_flow(net, "host_0", "host_15", 400_000, MptcpConfig(subflows=8))
        net.run(until=1.0)
        up0 = net.port_between("edge_0_0", "agg_0_0").pkts_sent
        up1 = net.port_between("edge_0_0", "agg_0_1").pkts_sent
        assert up0 > 20 and up1 > 20

    def test_lia_alpha_equal_subflows(self):
        """For n equal subflows (same cwnd and RTT), RFC 6356's alpha is
        1/n — the aggregate behaves like a single TCP."""
        from repro.transport.mptcp import _CoupledState
        from repro.net.packet import MSS_BYTES

        net = Network(fat_tree(k=4), seed=4)
        for n in (2, 3, 4):
            conn = start_mptcp_flow(net, "host_1", "host_2", n * 50_000,
                                    MptcpConfig(subflows=n))
            shared = None
            # Reach into the subflow senders through the shared state they
            # registered with.
            shared = _find_shared(net, conn)
            for sender in shared.senders:
                sender.cwnd = 10.0 * MSS_BYTES
                sender.srtt = 100e-6
            assert shared.lia_alpha() == pytest.approx(1.0 / n)

    def test_coupled_ca_growth_quarter_of_solo_for_two_subflows(self):
        """Per-ACK CA increase of one of two equal coupled subflows is
        alpha*b/total = (1/2)*b/(2c) = a quarter of the solo b/c."""
        from repro.net.packet import MSS_BYTES

        net = Network(fat_tree(k=4), seed=4)
        conn = start_mptcp_flow(net, "host_1", "host_2", 100_000, MptcpConfig(subflows=2))
        shared = _find_shared(net, conn)
        a, b = shared.senders
        for sender in (a, b):
            sender.cwnd = 10.0 * MSS_BYTES
            sender.ssthresh = 1.0  # force congestion avoidance
            sender.srtt = 100e-6
        before = a.cwnd
        a._grow_cwnd(MSS_BYTES)
        coupled_delta = a.cwnd - before

        solo_delta = MSS_BYTES * MSS_BYTES / (10.0 * MSS_BYTES)
        assert coupled_delta == pytest.approx(solo_delta / 4.0)

    def test_coupled_growth_never_exceeds_solo(self):
        """LIA's min() clause: a coupled subflow never grows faster than a
        regular TCP would on its own path."""
        from repro.net.packet import MSS_BYTES

        net = Network(fat_tree(k=4), seed=4)
        conn = start_mptcp_flow(net, "host_1", "host_2", 100_000, MptcpConfig(subflows=3))
        shared = _find_shared(net, conn)
        small, mid, big = shared.senders
        small.cwnd, mid.cwnd, big.cwnd = (2.0 * MSS_BYTES, 10.0 * MSS_BYTES, 50.0 * MSS_BYTES)
        for sender in shared.senders:
            sender.ssthresh = 1.0
            sender.srtt = 100e-6
        for sender in shared.senders:
            before = sender.cwnd
            sender._grow_cwnd(MSS_BYTES)
            delta = sender.cwnd - before
            solo = MSS_BYTES * MSS_BYTES / before
            assert delta <= solo + 1e-9

    def test_mptcp_under_dibs_incast(self):
        """§6's coexistence claim: MPTCP connections ride a DIBS fabric."""
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
            dibs=DibsConfig(),
            seed=5,
        )
        cfg = MptcpConfig(subflows=2, tcp=dibs_host_config())
        conns = [
            start_mptcp_flow(net, f"host_{i}", "host_0", 20_000, cfg, kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        assert all(c.completed for c in conns)
        assert net.counters().total_detours() > 0
        assert net.counters().total_drops() == 0

    def test_deferred_start(self):
        net = Network(fat_tree(k=4), seed=1)
        conn = start_mptcp_flow(net, "host_0", "host_15", 30_000,
                                MptcpConfig(subflows=2), at=0.02)
        net.run(until=1.0)
        assert conn.completed
        assert conn.parent.start_time == 0.02
        assert all(c.receiver_done_time > 0.02 for c in conn.children)

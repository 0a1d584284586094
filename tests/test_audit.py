"""Packet-conservation audits over a range of network configurations."""

import pytest

from repro.core.config import DibsConfig
from repro.net.audit import assert_conserved, conservation_report
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import click_testbed, fat_tree
from repro.transport.base import TcpConfig, dibs_host_config
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import fixed_size
from repro.workload.query import QueryTraffic


def drained(net):
    """Run to quiescence (heap empty means nothing in flight)."""
    net.run()
    return net


class TestSingleFlow:
    def test_clean_flow_balances(self):
        net = Network(fat_tree(k=4))
        flow = net.start_flow("host_0", "host_15", 50_000, transport="dctcp")
        drained(net)
        report = assert_conserved(net)
        assert report.data_sent == report.data_delivered
        assert report.acks_sent == report.acks_delivered
        assert report.dropped == 0
        assert report.parked == 0

    def test_report_fields_roundtrip(self):
        net = Network(fat_tree(k=4))
        net.start_flow("host_0", "host_5", 5_000)
        drained(net)
        d = conservation_report(net).as_dict()
        assert d["leaked"] == 0
        assert set(d) == {
            "data_sent", "acks_sent", "data_delivered", "acks_delivered",
            "unclaimed", "misdelivered", "dropped", "parked", "in_flight",
            "leaked",
        }
        assert d["in_flight"] == 0  # quiescent: nothing propagating


class TestUnderLoss:
    @pytest.mark.parametrize("dibs", [False, True])
    def test_incast_balances(self, dibs):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
            dibs=DibsConfig() if dibs else DibsConfig.disabled(),
            seed=5,
        )
        cfg = dibs_host_config() if dibs else "dctcp"
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
        drained(net)
        report = assert_conserved(net)
        if not dibs:
            assert report.dropped > 0

    def test_ttl_expiry_accounted(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=5, ecn_threshold_pkts=2),
            dibs=DibsConfig(),
            seed=6,
        )
        cfg = dibs_host_config(ttl=12)
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
        drained(net)
        report = assert_conserved(net)
        assert net.counters().drop_report()["ttl_expired"] > 0
        assert report.dropped >= net.counters().drop_report()["ttl_expired"]

    def test_pfabric_evictions_accounted(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(discipline="pfabric"),
            seed=7,
        )
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="pfabric", kind="query")
        drained(net)
        assert_conserved(net)

    def test_pfc_pausing_accounted(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=15, ecn_threshold_pkts=5, pfc=True),
            seed=8,
        )
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
        drained(net)
        assert_conserved(net)


class TestMixedWorkload:
    def test_full_scenario_balances(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=30, ecn_threshold_pkts=8),
            dibs=DibsConfig(),
            seed=9,
        )
        cfg = dibs_host_config()
        BackgroundTraffic(net, 0.02, fixed_size(8_000), transport=cfg, stop_at=0.1).start()
        QueryTraffic(net, qps=100, degree=10, response_bytes=20_000,
                     transport=cfg, stop_at=0.1).start()
        drained(net)
        report = assert_conserved(net)
        assert report.created > 1000

    def test_testbed_balances(self):
        net = Network(click_testbed(), dibs=DibsConfig(), seed=10)
        cfg = TcpConfig(fast_retransmit_threshold=None)
        for s in range(5):
            for _ in range(10):
                net.start_flow(f"host_{s}", "host_5", 32_000, transport=cfg, kind="query")
        drained(net)
        assert_conserved(net)

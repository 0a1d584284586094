"""Unit/integration tests for network assembly and end-to-end flows."""

import pytest

from repro.core.config import DibsConfig
from repro.net.network import Network, SwitchQueueConfig
from repro.net.packet import MSS_BYTES
from repro.net.queues import DynamicBufferQueue, EcnQueue, PFabricQueue
from repro.topo import click_testbed, fat_tree, leaf_spine, linear
from repro.transport.base import TcpConfig
from repro.transport.pfabric import PFabricConfig


class TestAssembly:
    def test_node_counts(self):
        net = Network(fat_tree(k=4))
        assert len(net.hosts) == 16
        assert len(net.switches) == 20

    def test_host_lookup_by_name_and_id(self):
        net = Network(fat_tree(k=4))
        h = net.host("host_3")
        assert net.host(h.node_id) is h

    def test_switch_lookup_type_checked(self):
        net = Network(fat_tree(k=4))
        with pytest.raises(KeyError):
            net.switch("host_0")
        with pytest.raises(KeyError):
            net.host("edge_0_0")

    def test_port_between(self):
        net = Network(fat_tree(k=4))
        port = net.port_between("edge_0_0", "agg_0_0")
        assert port.node.name == "edge_0_0"
        assert port.peer_node.name == "agg_0_0"

    def test_fabric_ports_exclude_host_links(self):
        net = Network(fat_tree(k=4))
        for switch, port in net.fabric_ports():
            assert not port.peer_is_host
        # K=4: 32 edge-agg directed + 32 agg-core directed.
        assert len(net.fabric_ports()) == 64

    def test_every_switch_has_full_fib(self):
        net = Network(fat_tree(k=4))
        for sw in net.switches:
            assert len(sw.fib) == 16

    def test_queue_discipline_selection(self):
        net = Network(fat_tree(k=4), switch_queues=SwitchQueueConfig(discipline="pfabric"))
        sw = net.switch("edge_0_0")
        assert all(isinstance(p.queue, PFabricQueue) for p in sw.ports)

    def test_ecn_discipline_default(self):
        net = Network(fat_tree(k=4))
        sw = net.switch("edge_0_0")
        assert all(isinstance(p.queue, EcnQueue) for p in sw.ports)

    def test_dba_ports_share_one_pool_per_switch(self):
        net = Network(fat_tree(k=4), switch_queues=SwitchQueueConfig(discipline="dba"))
        sw = net.switch("edge_0_0")
        pools = {p.queue.pool for p in sw.ports if isinstance(p.queue, DynamicBufferQueue)}
        assert len(pools) == 1
        other = net.switch("edge_0_1")
        other_pools = {p.queue.pool for p in other.ports}
        assert pools.isdisjoint(other_pools)

    def test_invalid_discipline_rejected(self):
        with pytest.raises(ValueError):
            SwitchQueueConfig(discipline="wat")


class TestFlows:
    @pytest.mark.parametrize("transport", ["tcp", "dctcp", "dibs", "pfabric"])
    def test_flow_completes_under_each_transport(self, transport):
        net = Network(fat_tree(k=4), dibs=DibsConfig())
        flow = net.start_flow("host_0", "host_15", 30_000, transport=transport)
        net.run(until=1.0)
        assert flow.completed

    def test_explicit_config_object(self):
        net = Network(fat_tree(k=4))
        flow = net.start_flow("host_0", "host_5", 10_000, transport=TcpConfig(init_cwnd_pkts=2))
        net.run(until=1.0)
        assert flow.completed

    def test_pfabric_config_object(self):
        net = Network(fat_tree(k=4), switch_queues=SwitchQueueConfig(discipline="pfabric"))
        flow = net.start_flow("host_0", "host_5", 10_000, transport=PFabricConfig())
        net.run(until=1.0)
        assert flow.completed

    def test_deferred_start(self):
        net = Network(fat_tree(k=4))
        flow = net.start_flow("host_0", "host_5", 1_460, at=0.05)
        net.run(until=1.0)
        assert flow.completed
        assert flow.start_time == 0.05
        assert flow.receiver_done_time > 0.05

    def test_same_edge_pair_short_path(self):
        net = Network(fat_tree(k=4))
        f_near = net.start_flow("host_0", "host_1", 1_460)
        net.run(until=0.1)
        near_fct = f_near.fct

        net2 = Network(fat_tree(k=4))
        f_far = net2.start_flow("host_0", "host_15", 1_460)
        net2.run(until=0.1)
        assert near_fct < f_far.fct

    def test_flow_rejects_same_endpoint(self):
        net = Network(fat_tree(k=4))
        with pytest.raises(ValueError):
            net.start_flow("host_0", "host_0", 100)

    def test_flow_rejects_bad_size(self):
        net = Network(fat_tree(k=4))
        with pytest.raises(ValueError):
            net.start_flow("host_0", "host_1", 0)

    def test_flow_ids_unique(self):
        net = Network(fat_tree(k=4))
        flows = [net.start_flow("host_0", "host_5", 100) for _ in range(10)]
        ids = [f.flow_id for f in flows]
        assert len(set(ids)) == 10

    def test_collector_tracks_flows(self):
        net = Network(fat_tree(k=4))
        net.start_flow("host_0", "host_5", 100)
        assert len(net.collector.flows) == 1


class TestTopologies:
    @pytest.mark.parametrize(
        "factory,src,dst",
        [
            (click_testbed, "host_0", "host_5"),
            (lambda: leaf_spine(2, 2, 2), "host_0", "host_3"),
            (lambda: linear(3, 1), "host_0", "host_2"),
        ],
    )
    def test_flow_completes_on_other_topologies(self, factory, src, dst):
        net = Network(factory(), dibs=DibsConfig())
        flow = net.start_flow(src, dst, 20_000, transport="dibs")
        net.run(until=1.0)
        assert flow.completed


class TestDeterminism:
    def run_once(self, seed=3):
        net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=seed,
                      switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4))
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dibs", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=1.0)
        return [f.fct for f in flows], net.counters().total_detours()

    def test_identical_seeds_identical_results(self):
        assert self.run_once(seed=3) == self.run_once(seed=3)

    def test_different_seeds_differ(self):
        a = self.run_once(seed=3)
        b = self.run_once(seed=4)
        assert a != b  # detour choices differ


class TestAccounting:
    def incast(self, dibs, buffer_pkts=10):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(buffer_pkts=buffer_pkts, ecn_threshold_pkts=4),
            dibs=DibsConfig() if dibs else DibsConfig.disabled(),
            seed=1,
        )
        flows = [
            net.start_flow(f"host_{i}", "host_0", 30_000, transport="dibs" if dibs else "dctcp", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=2.0)
        return net, flows

    def test_dibs_counts_detours_not_drops(self):
        net, flows = self.incast(dibs=True)
        assert net.counters().total_detours() > 0
        assert net.counters().total_drops() == 0
        assert all(f.completed for f in flows)

    def test_no_dibs_counts_drops_not_detours(self):
        net, flows = self.incast(dibs=False)
        assert net.counters().total_detours() == 0
        assert net.counters().total_drops() > 0

    def test_ecn_marks_counted(self):
        net, flows = self.incast(dibs=True)
        assert net.counters().total_ecn_marks() > 0

    def test_drop_report_keys(self):
        net, _ = self.incast(dibs=False)
        report = net.counters().drop_report()
        assert set(report) == {
            "overflow",
            "ttl_expired",
            "no_route",
            "no_detour_port",
            "host_nic",
            "pfabric_evictions",
            "ingress_overflow",
            "switch_failed",
            "link_down",
            "corrupt",
        }
        assert report["overflow"] == net.counters().total_drops()

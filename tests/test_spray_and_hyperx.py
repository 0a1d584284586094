"""Tests for packet-level ECMP (spraying, §6) and the HyperX topology (§7)."""

import networkx as nx
import pytest

from repro.core.config import DibsConfig
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import fat_tree
from repro.topo.hyperx import hyperx


def to_networkx(topo):
    g = nx.Graph()
    g.add_nodes_from(topo.node_names())
    for link in topo.links:
        g.add_edge(link.node_a, link.node_b)
    return g


class TestPacketSpraying:
    def spray_net(self, **kwargs):
        return Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(ecmp_mode="packet", **kwargs),
            seed=1,
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SwitchQueueConfig(ecmp_mode="bogus")
        from repro.net.switch import Switch
        from repro.sim.engine import Scheduler

        with pytest.raises(ValueError):
            Switch(0, "s", Scheduler(), ecmp_mode="nope")

    def test_single_flow_uses_both_uplinks(self):
        # Spraying reorders; disable fast retransmit like §4 suggests.
        from repro.transport.base import dctcp_config

        net = self.spray_net()
        flow = net.start_flow("host_0", "host_15", 100_000,
                              transport=dctcp_config(fast_retransmit_threshold=None))
        net.run(until=1.0)
        assert flow.completed
        up0 = net.port_between("edge_0_0", "agg_0_0")
        up1 = net.port_between("edge_0_0", "agg_0_1")
        assert up0.pkts_sent > 10 and up1.pkts_sent > 10  # split ~evenly

    def test_flow_mode_uses_one_uplink(self):
        net = Network(fat_tree(k=4), seed=1)
        flow = net.start_flow("host_0", "host_15", 100_000, transport="dctcp")
        net.run(until=1.0)
        assert flow.completed
        up0 = net.port_between("edge_0_0", "agg_0_0").pkts_sent
        up1 = net.port_between("edge_0_0", "agg_0_1").pkts_sent
        assert min(up0, up1) <= 2  # data rides a single hash bucket

    def test_spraying_does_not_help_last_hop_incast(self):
        """The §6 argument: even perfect packet-level load balancing cannot
        relieve the receiver's access link — DIBS can."""

        def drops(mode, dibs):
            net = Network(
                fat_tree(k=4),
                switch_queues=SwitchQueueConfig(
                    buffer_pkts=10, ecn_threshold_pkts=4, ecmp_mode=mode,
                ),
                dibs=DibsConfig() if dibs else DibsConfig.disabled(),
                seed=3,
            )
            from repro.transport.base import dibs_host_config

            cfg = dibs_host_config()
            flows = [
                net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
                for i in range(1, 13)
            ]
            net.run(until=5.0)
            assert all(f.completed for f in flows)
            return net.counters().total_drops()

        spray_drops = drops("packet", dibs=False)
        dibs_drops = drops("flow", dibs=True)
        assert spray_drops > 0, "spraying cannot protect the last hop"
        assert dibs_drops == 0, "DIBS absorbs the same burst"


class TestHyperX:
    def test_shape_and_counts(self):
        topo = hyperx((3, 3), hosts_per_switch=2)
        assert len(topo.switches) == 9
        assert len(topo.hosts) == 18
        # Each dimension is a clique of 3: 3 links per row x 3 rows x 2 dims.
        fabric_links = [l for l in topo.links if l.node_a.startswith("sw") and l.node_b.startswith("sw")]
        assert len(fabric_links) == 18

    def test_fabric_degree(self):
        topo = hyperx((3, 3), hosts_per_switch=0)
        adj = topo.switch_adjacency()
        assert all(len(v) == 4 for v in adj.values())  # 2 per dimension

    def test_one_dimension_is_full_mesh(self):
        topo = hyperx((4,), hosts_per_switch=1)
        adj = topo.switch_adjacency()
        assert all(len(v) == 3 for v in adj.values())
        assert to_networkx(topo).subgraph(topo.switches).number_of_edges() == 6

    def test_diameter_equals_dimensions(self):
        # One hop fixes one coordinate: switch-graph diameter = #dims.
        topo = hyperx((3, 3, 2), hosts_per_switch=0)
        g = to_networkx(topo)
        assert nx.diameter(g) == 3

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            hyperx(())
        with pytest.raises(ValueError):
            hyperx((1, 3))
        with pytest.raises(ValueError):
            hyperx((3, 3), hosts_per_switch=-1)

    def test_incast_with_dibs_on_hyperx(self):
        """§7: HyperX's rich neighbor sets suit detouring."""
        from repro.transport.base import dibs_host_config

        net = Network(
            hyperx((3, 3), hosts_per_switch=2),
            switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
            dibs=DibsConfig(),
            seed=4,
        )
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport=dibs_host_config(), kind="query")
            for i in range(1, 14)
        ]
        net.run(until=5.0)
        assert all(f.completed for f in flows)
        assert net.counters().total_drops() == 0
        assert net.counters().total_detours() > 0

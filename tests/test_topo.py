"""Unit tests for topology builders, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.topo import (
    Topology,
    click_testbed,
    fat_tree,
    fat_tree_stats,
    jellyfish,
    leaf_spine,
    linear,
)


def to_networkx(topo: Topology) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(topo.node_names())
    for link in topo.links:
        g.add_edge(link.node_a, link.node_b)
    return g


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_element_counts(self, k):
        topo = fat_tree(k=k)
        stats = fat_tree_stats(k)
        assert len(topo.hosts) == stats["hosts"]
        assert len(topo.switches) == stats["switches"]
        assert len(topo.links) == stats["links"]

    def test_k8_matches_paper_scale(self):
        topo = fat_tree(k=8)
        assert len(topo.hosts) == 128  # the paper's simulated cluster

    @pytest.mark.parametrize("k", [4, 8])
    def test_connected(self, k):
        g = to_networkx(fat_tree(k=k))
        assert nx.is_connected(g)

    @pytest.mark.parametrize("k", [4, 8])
    def test_diameter_is_six(self, k):
        g = to_networkx(fat_tree(k=k))
        assert nx.diameter(g) == 6

    def test_switch_degrees_are_k(self):
        k = 4
        topo = fat_tree(k=k)
        for sw in topo.switches:
            if sw.startswith("core"):
                assert topo.degree(sw) == k
            else:
                assert topo.degree(sw) == k  # edge: k/2 hosts + k/2 aggs; agg: k/2 + k/2

    def test_hosts_single_homed(self):
        topo = fat_tree(k=4)
        for host in topo.hosts:
            assert topo.degree(host) == 1

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(k=3)

    def test_oversubscription_slows_fabric_links_only(self):
        topo = fat_tree(k=4, rate_bps=1e9, inter_switch_slowdown=4.0)
        hosts = set(topo.hosts)
        for link in topo.links:
            if link.node_a in hosts or link.node_b in hosts:
                assert link.rate_bps == 1e9
            else:
                assert link.rate_bps == 0.25e9

    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(k=4, inter_switch_slowdown=0.5)

    def test_pod_locality(self):
        # Hosts in the same pod are 4 hops apart (host-edge-agg-edge-host)
        # or 2 via shared edge; cross-pod pairs are 6.
        topo = fat_tree(k=4)
        g = to_networkx(topo)
        same_edge = nx.shortest_path_length(g, "host_0", "host_1")
        same_pod = nx.shortest_path_length(g, "host_0", "host_2")
        cross_pod = nx.shortest_path_length(g, "host_0", "host_15")
        assert same_edge == 2
        assert same_pod == 4
        assert cross_pod == 6


class TestClickTestbed:
    def test_shape_matches_paper(self):
        topo = click_testbed()
        assert len(topo.hosts) == 6  # 3 racks x 2 servers
        assert len(topo.switches) == 5  # 3 edge + 2 agg
        # Each edge connects to both aggs: 6 fabric links + 6 host links.
        assert len(topo.links) == 12

    def test_connected_and_validates(self):
        topo = click_testbed()
        topo.validate()
        assert nx.is_connected(to_networkx(topo))


class TestLeafSpine:
    def test_counts(self):
        topo = leaf_spine(leaves=4, spines=2, hosts_per_leaf=4)
        assert len(topo.hosts) == 16
        assert len(topo.switches) == 6
        assert len(topo.links) == 4 * 2 + 16

    def test_two_spine_paths_between_leaves(self):
        topo = leaf_spine(leaves=2, spines=3, hosts_per_leaf=1)
        g = to_networkx(topo)
        paths = list(nx.all_shortest_paths(g, "host_0", "host_1"))
        assert len(paths) == 3

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            leaf_spine(leaves=0)


class TestLinear:
    def test_chain_shape(self):
        topo = linear(switches=4, hosts_per_switch=1)
        assert len(topo.switches) == 4
        assert len(topo.hosts) == 4
        g = to_networkx(topo)
        assert nx.shortest_path_length(g, "host_0", "host_3") == 5

    def test_single_switch(self):
        topo = linear(switches=1, hosts_per_switch=2)
        topo.validate()
        assert len(topo.links) == 2


class TestJellyfish:
    def test_regular_fabric_degree(self):
        topo = jellyfish(switches=10, fabric_degree=3, hosts_per_switch=1, seed=1)
        adj = topo.switch_adjacency()
        assert all(len(nbrs) == 3 for nbrs in adj.values())

    def test_connected(self):
        topo = jellyfish(switches=12, fabric_degree=4, seed=2)
        assert nx.is_connected(to_networkx(topo))

    def test_deterministic_for_seed(self):
        a = jellyfish(switches=10, fabric_degree=3, seed=5)
        b = jellyfish(switches=10, fabric_degree=3, seed=5)
        assert [l.endpoints() for l in a.links] == [l.endpoints() for l in b.links]

    def test_different_seeds_differ(self):
        a = jellyfish(switches=10, fabric_degree=3, seed=5)
        b = jellyfish(switches=10, fabric_degree=3, seed=6)
        assert [l.endpoints() for l in a.links] != [l.endpoints() for l in b.links]

    def test_odd_stub_count_rejected(self):
        with pytest.raises(ValueError):
            jellyfish(switches=5, fabric_degree=3)

    def test_degree_too_high_rejected(self):
        with pytest.raises(ValueError):
            jellyfish(switches=4, fabric_degree=4)


class TestValidation:
    def test_duplicate_names_rejected(self):
        topo = Topology("t")
        topo.add_host("x")
        topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.validate()

    def test_unknown_link_endpoint_rejected(self):
        topo = Topology("t")
        topo.add_switch("s")
        topo.add_link("s", "ghost", 1e9, 0.0)
        with pytest.raises(ValueError):
            topo.validate()

    def test_self_loop_rejected(self):
        topo = Topology("t")
        topo.add_switch("s")
        topo.add_link("s", "s", 1e9, 0.0)
        with pytest.raises(ValueError):
            topo.validate()

    def test_multihomed_host_rejected(self):
        topo = Topology("t")
        topo.add_host("h")
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_link("h", "s1", 1e9, 0.0)
        topo.add_link("h", "s2", 1e9, 0.0)
        topo.add_link("s1", "s2", 1e9, 0.0)
        with pytest.raises(ValueError):
            topo.validate()

    def test_multihomed_host_error_gives_degree(self):
        topo = Topology("t")
        topo.add_switch("s")
        topo.add_host("h0")
        topo.add_host("h1")
        topo.add_link("h0", "s", 1e9, 0.0)
        for _ in range(3):
            topo.add_link("h1", "s", 1e9, 0.0)
        with pytest.raises(ValueError, match=r"^host 'h1' must have exactly one link, has 3$"):
            topo.validate()

    def test_host_without_link_rejected(self):
        topo = Topology("t")
        topo.add_switch("s")
        topo.add_host("h0")
        topo.add_host("h1")
        topo.add_link("h0", "s", 1e9, 0.0)
        with pytest.raises(ValueError, match=r"^host 'h1' must have exactly one link, has 0$"):
            topo.validate()

    def test_disconnected_rejected(self):
        topo = Topology("t")
        topo.add_host("h")
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_link("h", "s1", 1e9, 0.0)
        with pytest.raises(ValueError):
            topo.validate()

    def test_diameter_helper_matches_networkx(self):
        topo = fat_tree(k=4)
        assert topo.diameter() == nx.diameter(to_networkx(topo))

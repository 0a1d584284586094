"""Unit tests for FIB computation, cross-validated with networkx."""

from collections import deque

import networkx as nx
import pytest

from repro.net.network import Network
from repro.routing.fib import compute_fibs, shortest_path_lengths
from repro.topo import Topology, click_testbed, fat_tree, hyperx, jellyfish, leaf_spine, linear


def to_networkx(topo):
    g = nx.Graph()
    g.add_nodes_from(topo.node_names())
    for link in topo.links:
        g.add_edge(link.node_a, link.node_b)
    return g


class TestAgainstNetworkx:
    @pytest.mark.parametrize("factory", [lambda: fat_tree(k=4), click_testbed, lambda: leaf_spine(2, 2, 2)])
    def test_next_hops_lie_on_shortest_paths(self, factory):
        topo = factory()
        g = to_networkx(topo)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, next_hops in table.items():
                d = nx.shortest_path_length(g, switch, dst)
                for hop in next_hops:
                    hop_d = 0 if hop == dst else nx.shortest_path_length(g, hop, dst)
                    assert hop_d == d - 1, f"{switch}->{hop}->{dst}"

    def test_all_equal_cost_hops_present(self):
        topo = fat_tree(k=4)
        g = to_networkx(topo)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, next_hops in table.items():
                d = nx.shortest_path_length(g, switch, dst)
                expected = sorted(
                    nbr
                    for nbr in g.neighbors(switch)
                    if not nbr.startswith("host") or nbr == dst
                    if (0 if nbr == dst else nx.shortest_path_length(g, nbr, dst)) == d - 1
                )
                assert next_hops == expected


class TestStructure:
    def test_every_switch_routes_to_every_host(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        for switch in topo.switches:
            assert set(fibs[switch]) == set(topo.hosts)

    def test_edge_switch_routes_directly_to_attached_host(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        assert fibs["edge_0_0"]["host_0"] == ["host_0"]

    def test_edge_switch_has_multiple_uplink_choices(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        # Cross-pod destination: both aggregation switches are equal cost.
        hops = fibs["edge_0_0"]["host_15"]
        assert len(hops) == 2
        assert all(h.startswith("agg_0") for h in hops)

    def test_core_switch_single_downlink(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        # A core switch reaches any host through exactly one aggregation
        # switch (the one in the destination pod it is wired to).
        for dst in topo.hosts:
            assert len(fibs["core_0"][dst]) == 1

    def test_linear_chain_routes_both_directions(self):
        topo = linear(switches=3, hosts_per_switch=1)
        fibs = compute_fibs(topo)
        assert fibs["sw_0"]["host_2"] == ["sw_1"]
        assert fibs["sw_2"]["host_0"] == ["sw_1"]

    def test_next_hops_never_through_foreign_hosts(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, hops in table.items():
                for hop in hops:
                    assert not hop.startswith("host") or hop == dst

    def test_fibs_deterministic(self):
        a = compute_fibs(fat_tree(k=4))
        b = compute_fibs(fat_tree(k=4))
        assert a == b


class TestShortestPathLengths:
    def test_matches_networkx(self):
        topo = fat_tree(k=4)
        g = to_networkx(topo)
        mine = shortest_path_lengths(topo, "host_0")
        theirs = nx.shortest_path_length(g, "host_0")
        assert mine == dict(theirs)


# ----------------------------------------------------------------------
# equivalence with one BFS per destination host
# ----------------------------------------------------------------------
def per_host_fibs(topo):
    """The reference: one BFS per destination host over every node."""
    adj = topo.adjacency()
    switch_names = set(topo.switches)
    fibs = {name: {} for name in topo.switches}

    for dst in topo.hosts:
        dist = _bfs_distances(adj, dst)
        for switch in topo.switches:
            d = dist.get(switch)
            if d is None:
                continue
            next_hops = [
                nbr
                for nbr in adj[switch]
                if dist.get(nbr, -1) == d - 1 and (nbr in switch_names or nbr == dst)
            ]
            if next_hops:
                fibs[switch][dst] = sorted(next_hops)
    return fibs


def _bfs_distances(adj, start):
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        base = dist[node]
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = base + 1
                frontier.append(nbr)
    return dist


def ordered(fibs):
    """Values and the key order of both dict levels, as nested lists."""
    return [(switch, list(table.items())) for switch, table in fibs.items()]


BUILDERS = {
    "fat_tree-k4": lambda: fat_tree(k=4),
    "fat_tree-k6": lambda: fat_tree(k=6),
    "fat_tree-k8": lambda: fat_tree(k=8),
    "leaf_spine": lambda: leaf_spine(4, 3, 3),
    "linear": lambda: linear(switches=5, hosts_per_switch=2),
    "click_testbed": click_testbed,
    "hyperx": lambda: hyperx((3, 4), hosts_per_switch=2),
    **{f"jellyfish-s{seed}": (lambda seed=seed: jellyfish(12, 4, 2, seed=seed))
       for seed in range(5)},
}


def take_down(net, name_a, name_b):
    net.port_between(name_a, name_b).set_down()
    net.port_between(name_b, name_a).set_down()


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builder_tables_match_per_host_bfs(self, name):
        topo = BUILDERS[name]()
        assert ordered(compute_fibs(topo)) == ordered(per_host_fibs(topo))

    def test_link_down(self):
        net = Network(fat_tree(k=4))
        take_down(net, "agg_0_0", "core_0")
        take_down(net, "edge_1_0", "agg_1_1")
        live = net.live_topology()
        fibs = compute_fibs(live)
        assert ordered(fibs) == ordered(per_host_fibs(live))
        assert fibs["edge_1_0"]["host_0"] == ["agg_1_0"]

    def test_switch_failed(self):
        net = Network(fat_tree(k=4))
        for port in net.switch("agg_0_0").ports:
            take_down(net, "agg_0_0", port.peer_node.name)
        live = net.live_topology()
        fibs = compute_fibs(live)
        assert ordered(fibs) == ordered(per_host_fibs(live))
        assert fibs["agg_0_0"] == {}

    def test_host_cut_off(self):
        net = Network(fat_tree(k=4))
        take_down(net, "host_0", "edge_0_0")
        live = net.live_topology()
        fibs = compute_fibs(live)
        assert ordered(fibs) == ordered(per_host_fibs(live))
        assert all("host_0" not in table for table in fibs.values())
        assert all("host_1" in table for table in fibs.values())

    def test_multihomed_host_rejected(self):
        topo = Topology("t", hosts=["h"], switches=["s1", "s2"])
        topo.add_link("h", "s1", 1e9, 0.0)
        topo.add_link("h", "s2", 1e9, 0.0)
        with pytest.raises(ValueError, match="'h' must have exactly one link"):
            compute_fibs(topo)

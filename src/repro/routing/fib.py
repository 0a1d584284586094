"""Forwarding-table computation.

§3 of the paper assumes FIB-based forwarding (no spanning tree): each switch
holds, per destination host, the set of neighbors on shortest paths, and
picks among them with flow-level ECMP.  A centralized controller (or OSPF)
would compute the same tables; we compute them directly with one BFS per
attachment switch, which is exact all-shortest-path routing.

The output is symbolic (names, not ports); :mod:`repro.net.network`
translates neighbor names into port indices when it instantiates switches.
"""

from __future__ import annotations

from collections import deque

from repro.topo.base import Topology

__all__ = ["compute_fibs", "shortest_path_lengths"]


def compute_fibs(topo: Topology) -> dict[str, dict[str, list[str]]]:
    """Compute ``fib[switch][dst_host] -> sorted list of next-hop names``.

    Every entry lists *all* shortest-path next hops, so ECMP fan-out falls
    out for free.  Hosts get no FIB (they only talk to their edge switch).

    Hosts are single-homed leaves, so every shortest path to a host ends
    with the hop from its attachment switch, which routes to it directly;
    every other switch's next hops toward it are its next hops toward
    that switch over the switch fabric.  One BFS per attachment switch
    therefore serves all of its hosts, and they share its next-hop lists.
    A host without a link to a switch gets no entries.
    """
    hosts = set(topo.hosts)
    attached: dict[str, str] = {}
    for link in topo.links:
        for host, other in ((link.node_a, link.node_b), (link.node_b, link.node_a)):
            if host in hosts:
                if host in attached:
                    raise ValueError(f"host {host!r} must have exactly one link")
                attached[host] = other
    fabric = topo.switch_adjacency()
    fibs: dict[str, dict[str, list[str]]] = {name: {} for name in topo.switches}
    toward: dict[str, dict[str, list[str]]] = {}

    for dst in topo.hosts:
        attach = attached.get(dst)
        if attach not in fibs:
            continue
        routes = toward.get(attach)
        if routes is None:
            dist = _bfs_distances(fabric, attach)
            routes = toward[attach] = {
                switch: sorted([nbr for nbr in fabric[switch] if dist[nbr] == d - 1])
                for switch, d in dist.items() if d
            }
        for switch, next_hops in routes.items():
            fibs[switch][dst] = next_hops
        fibs[attach][dst] = [dst]
    return fibs


def shortest_path_lengths(topo: Topology, src: str) -> dict[str, int]:
    """Hop distance from ``src`` to every reachable node (testing aid)."""
    return _bfs_distances(topo.adjacency(), src)


def _bfs_distances(adj: dict[str, list[str]], start: str) -> dict[str, int]:
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

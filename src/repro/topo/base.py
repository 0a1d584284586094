"""Topology descriptions.

A :class:`Topology` is a plain description — node names plus links with
rates and delays — that :class:`repro.net.network.Network` turns into live
simulation objects.  Keeping it declarative makes topologies easy to test
(counts, degrees, diameters) without running anything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["LinkSpec", "Topology"]


@dataclass(frozen=True)
class LinkSpec:
    """A full-duplex link between two named nodes."""

    node_a: str
    node_b: str
    rate_bps: float
    delay_s: float

    def endpoints(self) -> tuple[str, str]:
        return (self.node_a, self.node_b)


@dataclass
class Topology:
    """Named hosts, named switches, and the links among them."""

    name: str
    hosts: list[str] = field(default_factory=list)
    switches: list[str] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> str:
        self.hosts.append(name)
        return name

    def add_switch(self, name: str) -> str:
        self.switches.append(name)
        return name

    def add_link(self, node_a: str, node_b: str, rate_bps: float, delay_s: float) -> None:
        self.links.append(LinkSpec(node_a, node_b, rate_bps, delay_s))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_names(self) -> list[str]:
        return list(self.hosts) + list(self.switches)

    def is_host(self, name: str) -> bool:
        return name in set(self.hosts)

    def adjacency(self) -> dict[str, list[str]]:
        """Neighbor lists over all nodes."""
        adj: dict[str, list[str]] = {name: [] for name in self.node_names()}
        for link in self.links:
            adj[link.node_a].append(link.node_b)
            adj[link.node_b].append(link.node_a)
        return adj

    def switch_adjacency(self) -> dict[str, list[str]]:
        """Neighbor lists restricted to the switch fabric."""
        hosts = set(self.hosts)
        adj: dict[str, list[str]] = {name: [] for name in self.switches}
        for link in self.links:
            if link.node_a in hosts or link.node_b in hosts:
                continue
            adj[link.node_a].append(link.node_b)
            adj[link.node_b].append(link.node_a)
        return adj

    def degree(self, name: str) -> int:
        return sum(1 for link in self.links if name in link.endpoints())

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems (duplicate names,
        links to unknown nodes, disconnected fabric, multi-homed hosts)."""
        names = self.node_names()
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in topology {self.name!r}")
        degree = dict.fromkeys(names, 0)
        for link in self.links:
            for end in link.endpoints():
                if end not in degree:
                    raise ValueError(f"link references unknown node {end!r}")
            if link.node_a == link.node_b:
                raise ValueError(f"self-loop on {link.node_a!r}")
            degree[link.node_a] += 1
            degree[link.node_b] += 1
        for host in self.hosts:
            if degree[host] != 1:
                raise ValueError(f"host {host!r} must have exactly one link, has {degree[host]}")
        if self.hosts and len(self._reachable(self.hosts[0])) != len(names):
            raise ValueError(f"topology {self.name!r} is not connected")

    def _reachable(self, start: str) -> set[str]:
        adj = self.adjacency()
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nbr in adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen

    def diameter(self) -> int:
        """Hop diameter over all node pairs (BFS from every node)."""
        adj = self.adjacency()
        best = 0
        for start in self.node_names():
            dist = {start: 0}
            frontier = deque([start])
            while frontier:
                node = frontier.popleft()
                for nbr in adj[node]:
                    if nbr not in dist:
                        dist[nbr] = dist[node] + 1
                        frontier.append(nbr)
            best = max(best, max(dist.values()))
        return best

"""DIBS detour policies — the paper's primary contribution.

A detour policy answers the four questions of §2 of the paper:

  (i)   when to start detouring,
  (ii)  which packets to detour,
  (iii) where to detour them to,
  (iv)  when to stop detouring.

The paper's headline policy is :class:`RandomDetourPolicy`: detour exactly
when the desired output queue is full, detour every such packet, pick a
random eligible port, stop as soon as the desired queue has room again.  It
has *no tunable parameters*, which the paper calls out as a feature.

§7 sketches three alternatives, implemented here for the ablation benches:
load-aware (:class:`LoadAwareDetourPolicy`), flow-based
(:class:`FlowBasedDetourPolicy`) and probabilistic
(:class:`ProbabilisticDetourPolicy`).

Eligible detour ports (all policies): any connected port other than the
desired one whose queue is not full and whose peer is a *switch* — packets
are never detoured to end hosts, because hosts do not forward packets that
are not addressed to them (§2, footnote 4).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.net.packet import Packet

__all__ = [
    "DetourPolicy",
    "RandomDetourPolicy",
    "LoadAwareDetourPolicy",
    "FlowBasedDetourPolicy",
    "ProbabilisticDetourPolicy",
    "make_policy",
]


class DetourPolicy:
    """Interface for DIBS detour policies."""

    name = "abstract"

    def should_detour(self, pkt: "Packet", desired_port: "Port", rng: random.Random) -> bool:
        """Question (i)/(ii): detour this packet instead of enqueueing it?

        The default — and the paper's — trigger is a full desired queue.
        """
        return desired_port.queue.is_full()

    def choose(
        self,
        pkt: "Packet",
        desired_port: "Port",
        candidates: Sequence["Port"],
        rng: random.Random,
    ) -> Optional["Port"]:
        """Question (iii): pick the detour port.  ``None`` means drop."""
        raise NotImplementedError


class RandomDetourPolicy(DetourPolicy):
    """The paper's default: a uniformly random eligible port."""

    name = "random"

    def choose(self, pkt, desired_port, candidates, rng):
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]


class LoadAwareDetourPolicy(DetourPolicy):
    """§7: detour to the eligible port with the lowest buffer occupancy.

    Ties are broken randomly so synchronized bursts do not all pile onto
    the same neighbor.
    """

    name = "load-aware"

    def choose(self, pkt, desired_port, candidates, rng):
        if not candidates:
            return None
        best_len = min(len(port.queue) for port in candidates)
        best = [port for port in candidates if len(port.queue) == best_len]
        return best[rng.randrange(len(best))]


class FlowBasedDetourPolicy(DetourPolicy):
    """§7: all detoured packets of a flow leave via the same port.

    The port is chosen by a stable hash of (flow, switch) modulo the
    number of eligible candidates, so detoured packets of one flow follow
    a consistent path while the eligible set is unchanged — fewer
    reorderings at the cost of less effective buffer spreading.  Full
    ports are never candidates, so when one fills (or frees) the modulus
    changes and the flow may map to a different port.
    """

    name = "flow-based"

    def choose(self, pkt, desired_port, candidates, rng):
        if not candidates:
            return None
        start = stable_hash(pkt.flow_id, desired_port.node.name) % len(candidates)
        return candidates[start]


class ProbabilisticDetourPolicy(DetourPolicy):
    """§7: begin detouring *before* the queue is full, with probability
    rising with occupancy, and detour low-priority traffic first.

    ``onset`` is the occupancy fraction at which detouring may begin.  At
    occupancy ``x >= onset`` a packet is detoured with probability
    ``(x - onset) / (1 - onset)`` (always, once full).  This approximates a
    priority queue built out of the neighbors' FIFO queues.
    """

    name = "probabilistic"

    def __init__(self, onset: float = 0.8) -> None:
        if not 0.0 <= onset < 1.0:
            raise ValueError("onset must be in [0, 1)")
        self.onset = onset

    def should_detour(self, pkt, desired_port, rng):
        queue = desired_port.queue
        if queue.is_full():
            return True
        capacity = queue.capacity_hint
        if capacity <= 0:
            return False
        occupancy = len(queue) / capacity
        if occupancy < self.onset:
            return False
        prob = (occupancy - self.onset) / (1.0 - self.onset)
        return rng.random() < prob

    def choose(self, pkt, desired_port, candidates, rng):
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]


_POLICIES = {
    cls.name: cls
    for cls in (
        RandomDetourPolicy,
        LoadAwareDetourPolicy,
        FlowBasedDetourPolicy,
        ProbabilisticDetourPolicy,
    )
}


def make_policy(name: str, **kwargs) -> DetourPolicy:
    """Instantiate a detour policy by its registry name.

    >>> make_policy("random").name
    'random'
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown detour policy {name!r}; known: {sorted(_POLICIES)}") from None
    return cls(**kwargs)

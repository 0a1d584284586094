"""Hierarchical counter registry and snapshots.

The simulator keeps its counters where the hot paths already touch them —
``SwitchCounters`` slots, queue ``drops``/``enqueues``/``marks`` fields,
``Port`` byte/fault tallies — so increments stay O(1) attribute bumps with
zero indirection.  This module is the one place to *read* them.

Through :class:`CounterRegistry`, every instrumented object
registers a *scope* (a dotted hierarchical name such as
``switch.agg_0.port2`` or ``host.host_3.nic``) together with a callable
returning its counters as a plain dict.  :meth:`CounterRegistry.snapshot`
materialises everything into a :class:`CounterSnapshot`, which offers
hierarchical sums (:meth:`CounterSnapshot.total`) and the network-wide
aggregates (:meth:`CounterSnapshot.drop_report`, ``total_drops``,
``total_detours``, ``total_ecn_marks``); ``Network.counters()`` is the one
API for every total.

Scopes used by :class:`~repro.net.network.Network`:

=======================  ====================================================
scope                    counters
=======================  ====================================================
``switch.<name>``        forwards, detours, drops_* (by reason),
                         ingress_overflow (CIOQ only)
``switch.<name>.port<i>`` enqueues, queue_drops, ecn_marks,
                         pfabric_evictions, link_down, corrupt, bytes_sent,
                         pkts_sent, pauses_received, in_flight, qlen
``host.<name>``          misdelivered, unclaimed
``host.<name>.nic``      same port counters as switch ports
``pfc.<name>``           pause_frames_sent, resume_frames_sent
=======================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

__all__ = ["CounterRegistry", "CounterSnapshot"]


class CounterSnapshot:
    """An immutable point-in-time view of every registered counter.

    ``scopes`` maps dotted scope names to ``{counter: value}`` dicts.  All
    aggregation helpers are prefix-based: ``total("detours", "switch.")``
    sums the ``detours`` counter over every scope under ``switch.``.
    """

    __slots__ = ("scopes",)

    def __init__(self, scopes: Mapping[str, Mapping[str, int]]) -> None:
        self.scopes = {name: dict(counters) for name, counters in scopes.items()}

    # ------------------------------------------------------------------
    # generic access
    # ------------------------------------------------------------------
    def total(self, counter: str, prefix: str = "") -> int:
        """Sum ``counter`` over every scope whose name starts with ``prefix``."""
        out = 0
        for scope, counters in self.scopes.items():
            if prefix and not scope.startswith(prefix):
                continue
            out += counters.get(counter, 0)
        return out

    def get(self, scope: str, counter: str, default: int = 0) -> int:
        return self.scopes.get(scope, {}).get(counter, default)

    def iter_scopes(self, prefix: str = "") -> Iterator[tuple[str, dict]]:
        for scope, counters in self.scopes.items():
            if not prefix or scope.startswith(prefix):
                yield scope, counters

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Nested plain-dict view (scope -> counter -> value)."""
        return {scope: dict(counters) for scope, counters in self.scopes.items()}

    def flat(self) -> dict[str, int]:
        """Flat ``{"scope.counter": value}`` view for compact JSON export."""
        return {
            f"{scope}.{counter}": value
            for scope, counters in sorted(self.scopes.items())
            for counter, value in sorted(counters.items())
        }

    # ------------------------------------------------------------------
    # network-wide aggregates
    # ------------------------------------------------------------------
    def total_detours(self) -> int:
        """DIBS detours across all switches."""
        return self.total("detours", "switch.")

    def total_ecn_marks(self) -> int:
        """ECN CE marks applied by switch egress queues."""
        return self.total("ecn_marks", "switch.")

    def drop_report(self) -> dict[str, int]:
        """Drops by cause, network-wide (switch pipeline + host NICs +
        pFabric in-queue evictions + fault-injected losses).

        Each cause is one counter summed over one prefix, as
        :meth:`total` would sum it: the switch pipeline's and queues'
        causes over ``switch.`` scopes, NIC overflow over ``host.``,
        ``link_down`` and ``corrupt`` over every scope.  It is one walk
        over the scopes, with no call per scope, because the invariant
        checker takes it at every mid-run audit."""
        overflow = ttl = no_route = no_detour = host_nic = 0
        evictions = ingress = failed = link_down = corrupt = 0
        for scope, c in self.scopes.items():
            if "link_down" in c:
                link_down += c["link_down"]
            if "corrupt" in c:
                corrupt += c["corrupt"]
            if scope[:7] == "switch.":
                if "drops_overflow" in c:
                    overflow += c["drops_overflow"]
                if "drops_ttl" in c:
                    ttl += c["drops_ttl"]
                if "drops_no_route" in c:
                    no_route += c["drops_no_route"]
                if "drops_no_detour" in c:
                    no_detour += c["drops_no_detour"]
                if "pfabric_evictions" in c:
                    evictions += c["pfabric_evictions"]
                if "ingress_overflow" in c:
                    ingress += c["ingress_overflow"]
                if "drops_switch_failed" in c:
                    failed += c["drops_switch_failed"]
            elif scope[:5] == "host." and "queue_drops" in c:
                host_nic += c["queue_drops"]
        return {
            "overflow": overflow,
            "ttl_expired": ttl,
            "no_route": no_route,
            "no_detour_port": no_detour,
            "host_nic": host_nic,
            "pfabric_evictions": evictions,
            "ingress_overflow": ingress,
            "switch_failed": failed,
            "link_down": link_down,
            "corrupt": corrupt,
        }

    def total_drops(self) -> int:
        """Sum of :meth:`drop_report`.

        The causes are disjoint, so they add: "overflow" counts arrivals
        the queue rejected, while pFabric evictions happen after
        acceptance (a resident is pushed out).  A down port rejects before
        the queue sees the packet, corruption discards after dequeue, and
        a failed switch drops in its own pipeline.
        """
        return sum(self.drop_report().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterSnapshot scopes={len(self.scopes)} drops={self.total_drops()}>"


class CounterRegistry:
    """Registered scrape sources, snapshotted on demand.

    Registration happens once at network build time; reading the counters
    costs nothing until :meth:`snapshot` is called, and increments go
    straight to the owning objects' attributes as before — the registry
    adds no per-event overhead.
    """

    __slots__ = ("_sources",)

    def __init__(self) -> None:
        self._sources: list[tuple[str, Callable[[], Mapping[str, int]]]] = []

    def register(self, scope: str, source: Callable[[], Mapping[str, int]]) -> None:
        """Attach ``source`` (a zero-arg callable returning a counter dict)
        under ``scope``.  Scopes registered twice are merged at snapshot
        time (later sources win on key collisions)."""
        if not scope:
            raise ValueError("counter scope cannot be empty")
        self._sources.append((scope, source))

    def snapshot(self) -> CounterSnapshot:
        scopes: dict[str, dict[str, int]] = {}
        for scope, source in self._sources:
            scopes.setdefault(scope, {}).update(source())
        return CounterSnapshot(scopes)

    def __len__(self) -> int:
        return len(self._sources)

"""Output-queued switch with FIB forwarding, flow-level ECMP, and DIBS.

The forwarding pipeline mirrors the paper's description (§2, §4):

1. decrement TTL; expire the packet if it hits zero (§5.5.3),
2. look up the FIB entry for the destination host,
3. pick one of the equal-cost next hops by a stable flow hash (ECMP),
4. if the chosen output queue is full and DIBS is enabled, detour the
   packet out of a random other switch-facing, non-full port;
   if DIBS is disabled (or no eligible port exists) the packet is dropped.

ECN marking happens inside the queue discipline (see
:mod:`repro.net.queues`), so a detoured packet that lands in a long queue on
the detour port is marked there — detoured packets carry congestion signals
exactly like normally forwarded ones (§5.3: "The detoured packets are also
marked").
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.config import DibsConfig
from repro.core.detour import DetourPolicy, RandomDetourPolicy
from repro.net.link import Port
from repro.net.node import Node
from repro.net.packet import MTU_BYTES, Packet
from repro.sim.engine import LivelockError, Scheduler, SimulationError
from repro.sim.rng import stable_hash

__all__ = [
    "Switch",
    "SwitchCounters",
    "DROP_OVERFLOW",
    "DROP_TTL",
    "DROP_NO_ROUTE",
    "DROP_NO_DETOUR",
    "DROP_SWITCH_FAILED",
    "DEFAULT_HOP_LIMIT",
]

DROP_OVERFLOW = "overflow"
DROP_TTL = "ttl_expired"
DROP_NO_ROUTE = "no_route"
DROP_NO_DETOUR = "no_detour_port"
DROP_SWITCH_FAILED = "switch_failed"

# Effectively-unbounded default for the per-packet hop guard; the watchdog
# (repro.faults.watchdog) tightens it to a TTL-derived bound.
DEFAULT_HOP_LIMIT = 1 << 30


class SwitchCounters:
    """Per-switch event counters consumed by the metrics layer.

    Increments are plain slot bumps on the forwarding hot path; the
    observability registry (:mod:`repro.obs.counters`) scrapes
    :meth:`as_dict` into the ``switch.<name>`` scope of a
    ``Network.counters()`` snapshot.
    """

    __slots__ = ("forwards", "detours", "drops_overflow", "drops_ttl",
                 "drops_no_route", "drops_no_detour", "drops_switch_failed")

    def __init__(self) -> None:
        self.forwards = 0
        self.detours = 0
        self.drops_overflow = 0
        self.drops_ttl = 0
        self.drops_no_route = 0
        self.drops_no_detour = 0
        self.drops_switch_failed = 0

    @property
    def drops(self) -> int:
        return (self.drops_overflow + self.drops_ttl + self.drops_no_route
                + self.drops_no_detour + self.drops_switch_failed)

    def as_dict(self) -> dict[str, int]:
        return {
            "forwards": self.forwards,
            "detours": self.detours,
            "drops_overflow": self.drops_overflow,
            "drops_ttl": self.drops_ttl,
            "drops_no_route": self.drops_no_route,
            "drops_no_detour": self.drops_no_detour,
            "drops_switch_failed": self.drops_switch_failed,
        }


class Switch(Node):
    """An output-queued switch.

    Parameters
    ----------
    dibs:
        DIBS configuration; ``DibsConfig.disabled()`` gives a stock switch.
    rng:
        Random stream for detour choices (and nothing else, so toggling
        DIBS does not perturb other randomness).
    on_detour / on_drop:
        Optional trace callbacks ``(time, switch, packet[, reason])`` used
        by the anatomy examples (Figures 1–2).
    """

    def __init__(
        self,
        node_id: int,
        name: str,
        scheduler: Scheduler,
        dibs: Optional[DibsConfig] = None,
        rng: Optional[random.Random] = None,
        ecmp_mode: str = "flow",
    ) -> None:
        super().__init__(node_id, name, scheduler)
        if ecmp_mode not in ("flow", "packet"):
            raise ValueError(f"ecmp_mode must be 'flow' or 'packet', got {ecmp_mode!r}")
        self.dibs = dibs if dibs is not None else DibsConfig.disabled()
        self.rng = rng if rng is not None else random.Random(stable_hash(name))
        self.ecmp_mode = ecmp_mode
        self._spray_counter = 0
        # _fib_full is the installed (fault-free) table; _fib is the active
        # view the forwarding hot path reads.  They are the same object
        # while every port is up; on a fault transition refresh_fault_state
        # rebuilds _fib with down ports filtered out, so the per-packet
        # path never pays a liveness check.
        self._fib_full: dict[int, list[int]] = {}
        self._fib: dict[int, list[int]] = {}
        # Forwarding memos, so a hop's decision is one dict lookup; both
        # map to the output Port and refresh_fault_state clears both.
        # _route (dst -> Port, checked first) holds destinations with one
        # live next hop; _ecmp_cache ((dst, flow_id) -> Port) holds the
        # flow-hash picks, replacing a stable_hash per packet (keyed by dst
        # too: ACKs reuse the data flow_id in reverse).  Spray picks are
        # never memoized.
        self._route: dict[int, Port] = {}
        self._ecmp_cache: dict[tuple[int, int], Port] = {}
        self.failed = False  # crashed switch (repro.faults SwitchFail)
        self.hop_limit = DEFAULT_HOP_LIMIT
        self.counters = SwitchCounters()
        # Per-switch detour master switch, on top of the shared DibsConfig:
        # the runtime controller's circuit breaker (repro.control) flips it
        # to fail soft during a detour storm without touching the config
        # object every other switch shares.
        self.detour_enabled = True
        self._recompute_detour_fastpath()
        self.on_detour: Optional[Callable[[float, "Switch", Packet], None]] = None
        self.on_drop: Optional[Callable[[float, "Switch", Packet, str], None]] = None

    # ------------------------------------------------------------------
    # DIBS enable/disable (runtime controller actuator)
    # ------------------------------------------------------------------
    def _recompute_detour_fastpath(self) -> None:
        # Hot-path specialization: every shipped policy except the
        # probabilistic one inherits the base trigger — "is the desired
        # queue full" — so that case is resolved once here and the
        # per-packet path skips the policy dispatch entirely.  A policy
        # overriding should_detour keeps the dynamic call.
        self._plain_detour = (
            self.detour_enabled
            and self.dibs.enabled
            and type(self.dibs.policy).should_detour is DetourPolicy.should_detour
        )

    def set_detour_enabled(self, enabled: bool) -> None:
        """Toggle detouring on this switch (circuit-breaker degraded mode).

        With detouring off the switch behaves like a stock drop-tail/ECN
        switch: a full desired queue means a drop.  The toggle goes
        through :meth:`refresh_fault_state` — the same invalidation path a
        fault transition takes — so the memoized routes are cleared and
        no cached forwarding decision can straddle the mode change.
        """
        if enabled == self.detour_enabled:
            return
        self.detour_enabled = enabled
        self._recompute_detour_fastpath()
        self.refresh_fault_state()

    # ------------------------------------------------------------------
    # FIB
    # ------------------------------------------------------------------
    @property
    def fib(self) -> dict[int, list[int]]:
        return self._fib

    @fib.setter
    def fib(self, table: dict[int, list[int]]) -> None:
        self.install_fib(table)

    def install_fib(self, table: dict[int, list[int]]) -> None:
        """Install a forwarding table, invalidating the memoized routes."""
        self._fib_full = table
        self.refresh_fault_state()

    def refresh_fault_state(self) -> None:
        """Recompute the active FIB after a port up/down transition.

        Down ports are removed from every ECMP next-hop set (a destination
        whose every next hop is down becomes unroutable and its packets
        drop with ``no_route``), and the memoized routes and ECMP picks
        are invalidated so no cached decision can point at a dead port.  The
        DIBS detour mask needs no rebuild: :meth:`detour_candidates`
        checks ``port.up`` directly.
        """
        down = {port.index for port in self.ports if not port.up}
        if not down:
            self._fib = self._fib_full
        else:
            self._fib = {
                dst: [hop for hop in hops if hop not in down]
                for dst, hops in self._fib_full.items()
            }
        self._route.clear()
        self._ecmp_cache.clear()

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, in_port: int) -> None:
        if self.failed:
            # A crashed switch loses everything it was handed (packets
            # already inside the fabric at fail time, e.g. CIOQ ingress).
            self._drop(pkt, DROP_SWITCH_FAILED)
            return
        pkt.hops += 1
        if pkt.hops > self.hop_limit:
            raise LivelockError(
                f"packet exceeded hop guard at {self.name}: {pkt.hops} hops "
                f"(limit {self.hop_limit}) — ttl={pkt.ttl}, detours={pkt.detours}"
            )
        if pkt.path is not None:
            pkt.path.append(self.name)
        if pkt.span is not None:
            # TTL recorded on arrival, before this hop's decrement.
            pkt.span.hops.append(
                {"node": self.name, "t_in": self.scheduler.now, "ttl": pkt.ttl}
            )

        pkt.ttl -= 1
        if pkt.ttl <= 0:
            self._drop(pkt, DROP_TTL)
            return

        # Memo probes are ``in`` plus a subscript, not ``.get``: no call.
        dst = pkt.dst
        route = self._route
        if dst in route:
            desired = route[dst]
        else:
            cache_key = (dst, pkt.flow_id)
            ecmp = self._ecmp_cache
            if cache_key in ecmp:
                desired = ecmp[cache_key]
            else:
                next_hops = self._fib.get(dst)
                if not next_hops:
                    self._drop(pkt, DROP_NO_ROUTE)
                    return
                n = len(next_hops)
                if n == 1:
                    desired = self._route[dst] = self.ports[next_hops[0]]
                elif self.ecmp_mode == "flow":
                    desired = self.ports[next_hops[stable_hash(pkt.flow_id, self.node_id) % n]]
                    self._ecmp_cache[cache_key] = desired
                else:
                    # Packet-level ECMP ("packet spraying", §6): round-robin
                    # over equal-cost ports; finer than flow hashing, but no
                    # help against last-hop incast, which is the paper's point.
                    self._spray_counter += 1
                    desired = self.ports[next_hops[self._spray_counter % n]]

        if self._plain_detour:
            # Inlined default trigger (== desired.queue.is_full()).
            q = desired.queue
            pool = desired._pool
            if pool is not None:
                # DBA port: the DT admission rule for a full MTU
                # (SharedBufferPool.admits), so the hop tests it once here
                # instead of through is_full -> admits.  The byte limit is
                # tested before the reserved allotment: the queue length
                # is needed only for a queue already over its limit.
                free = pool.total_bytes - pool.used_bytes
                full = free < MTU_BYTES or (
                    q.byte_count + MTU_BYTES > pool.alpha * free
                    and len(q._q) >= pool.reserved_pkts_per_port
                )
            elif desired._fast_q:
                qq = q._q
                full = qq and len(qq) >= q.capacity_pkts
            else:
                full = q.is_full()
            if full:
                self._detour(pkt, desired, in_port)
                return
        elif (
            self.detour_enabled
            and self.dibs.enabled
            and self.dibs.policy.should_detour(pkt, desired, self.rng)
        ):
            self._detour(pkt, desired, in_port)
            return

        if desired.send(pkt):
            self.counters.forwards += 1
        elif desired.up:  # a down port has already counted a link_down drop
            self._drop(pkt, DROP_OVERFLOW)

    # ------------------------------------------------------------------
    # DIBS
    # ------------------------------------------------------------------
    def detour_candidates(self, desired: Port, in_port: int) -> list[Port]:
        """Eligible detour ports per §2: connected, up, switch-facing, not
        full, and not the desired port itself (nor the ingress port, unless
        ``allow_detour_to_ingress``).  Down ports (failed links or crashed
        neighbors) shrink the detour mask — the virtual buffer loses the
        dead neighborhood.

        One comprehension, so a detour pays one call for the scan.  A
        droptail/ECN queue's fullness is tested inline (== ``is_full()``,
        an empty queue skipping the ``len``); pooled and other queues
        take the call.
        """
        skip = -1 if self.dibs.allow_detour_to_ingress else in_port
        return [
            port for port in self.ports
            if port is not desired
            and port.peer_node is not None
            and not port.peer_is_host
            and port.up
            and port.index != skip
            and not (
                ((qq := (q := port.queue)._q) and len(qq) >= q.capacity_pkts)
                if port._plain_q else port.queue.is_full()
            )
        ]

    def _detour(self, pkt: Packet, desired: Port, in_port: int) -> None:
        dibs = self.dibs
        cap = dibs.max_detours_per_packet
        if cap and pkt.detours >= cap:
            self._drop(pkt, DROP_NO_DETOUR)
            return
        candidates = self.detour_candidates(desired, in_port)
        rng = self.rng
        if type(dibs.policy) is RandomDetourPolicy and type(rng) is random.Random:
            # Inlined RandomDetourPolicy.choose: rng.randrange(n) on an
            # exact random.Random is CPython's _randbelow_with_getrandbits
            # — k = n.bit_length() bits per draw, redrawn until below n —
            # so these are the very same getrandbits calls and the
            # dibs.detour stream advances identically (pinned by
            # tests/test_detour_policies.py's RNG-identity tests).
            n = len(candidates)
            if n:
                k = n.bit_length()
                getrandbits = rng.getrandbits
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = candidates[r]
            else:
                choice = None
        else:
            choice = dibs.policy.choose(pkt, desired, candidates, rng)
        if choice is None:
            # Every neighbor is also full: the virtual buffer is exhausted
            # here and the packet is dropped, as it would be without DIBS.
            self._drop(pkt, DROP_NO_DETOUR)
            return
        pkt.detours += 1
        self.counters.detours += 1
        if pkt.span is not None:
            hop = pkt.span.hops[-1]
            hop["detour"] = True
            hop["desired"] = desired.index
            hop["cause"] = "queue_full" if desired.queue.is_full() else "policy"
        if self.on_detour is not None:
            self.on_detour(self.scheduler.now, self, pkt)
        # Candidates were filtered to up, non-full ports and nothing can run
        # between the check and the send in a discrete-event world.  A real
        # error (not an assert) so a violation cannot silently leak the
        # packet under ``python -O``.
        if not choice.send(pkt):
            raise SimulationError(
                f"{self.name}: detour port rejected a packet that fit at selection time"
            )
        self.counters.forwards += 1

    # ------------------------------------------------------------------
    def _drop(self, pkt: Packet, reason: str) -> None:
        if reason == DROP_TTL:
            self.counters.drops_ttl += 1
        elif reason == DROP_NO_ROUTE:
            self.counters.drops_no_route += 1
        elif reason == DROP_NO_DETOUR:
            self.counters.drops_no_detour += 1
        elif reason == DROP_SWITCH_FAILED:
            self.counters.drops_switch_failed += 1
        else:
            self.counters.drops_overflow += 1
        if pkt.span is not None:
            pkt.span.rec.end(
                pkt.span, "dropped:" + reason, self.scheduler.now, where=self.name
            )
        if self.on_drop is not None:
            self.on_drop(self.scheduler.now, self, pkt, reason)

    # ------------------------------------------------------------------
    # introspection helpers (metrics / tests)
    # ------------------------------------------------------------------
    def queue_occupancy(self) -> list[int]:
        """Per-port queue lengths in packets."""
        return [len(port.queue) for port in self.ports]

    def buffer_fill_fraction(self) -> float:
        """Occupied fraction of this switch's total nominal buffering."""
        total = sum(port.queue.capacity_hint for port in self.ports)
        if total == 0:
            return 0.0
        used = sum(len(port.queue) for port in self.ports)
        return used / total

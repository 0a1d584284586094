"""Network assembly: topology description -> live simulation.

:class:`Network` instantiates hosts, switches, ports, and queues from a
:class:`~repro.topo.base.Topology`, installs all-shortest-path FIBs, and
offers ``start_flow`` to launch transport endpoints.  It is the public
entry point of the library::

    from repro import Network, SwitchQueueConfig, DibsConfig, fat_tree

    net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=1)
    flow = net.start_flow(src="host_0", dst="host_5", size=20_000, transport="dibs")
    net.run(until=0.1)
    print(flow.fct)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.config import DibsConfig
from repro.metrics.collector import MetricsCollector
from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.packet import Packet
from repro.net.queues import (
    INFINITE_CAPACITY,
    BShareQueue,
    DropTailQueue,
    DynamicBufferQueue,
    EcnQueue,
    FairQQueue,
    PFabricQueue,
    SharedBufferPool,
)
from repro.net.switch import Switch
from repro.obs.counters import CounterRegistry
from repro.routing.fib import compute_fibs
from repro.sim.engine import Scheduler
from repro.sim.rng import RngFactory
from repro.topo.base import Topology
from repro.transport.base import FlowHandle, TcpConfig, dctcp_config, dibs_host_config
from repro.transport.fairq import FairQConfig, FairQReceiver, FairQSender
from repro.transport.pfabric import PFabricConfig, PFabricReceiver, PFabricSender
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.transport.tinybuf import TinyBufferConfig, TinyBufferSender

__all__ = ["SwitchQueueConfig", "Network"]

_TRANSPORT_ALIASES = {
    "tcp": lambda: TcpConfig(),
    "dctcp": dctcp_config,
    "dibs": dibs_host_config,
    "pfabric": lambda: PFabricConfig(),
    "fairq": lambda: FairQConfig(dctcp=True, ecn=True),
    "tinybuf": lambda: TinyBufferConfig(dctcp=True, ecn=True),
}


def _switch_counter_source(switch: Switch):
    """Closure reading one switch's pipeline counters at snapshot time.

    CIOQ switches additionally carry ingress drops; exposing them here (not
    in a port scope) mirrors where the architecture counts them.
    """

    def source() -> dict[str, int]:
        counters = switch.counters.as_dict()
        ingress = getattr(switch, "ingress_drops", None)
        if ingress is not None:
            counters["ingress_overflow"] = ingress
        return counters

    return source


@dataclass
class SwitchQueueConfig:
    """Per-port queue configuration for all switches.

    ``discipline`` selects the queue type:

    * ``"ecn"`` — droptail FIFO with DCTCP marking (Table 1 default:
      100-packet buffer, marking threshold K=20),
    * ``"droptail"`` — plain droptail FIFO,
    * ``"infinite"`` — unbounded FIFO (Figure 6/7 baselines); may be
      combined with ECN marking via ``infinite_with_ecn``,
    * ``"pfabric"`` — 24-packet priority queue (§5.8),
    * ``"dba"`` — per-switch shared memory with dynamic buffer allocation,
      modelled on the Arista 7050QX: 1.7 MB shared across ports (§5.5.2),
    * ``"bshare"`` — the same shared memory allocated from measured packet
      sojourn delay instead of the DT alpha rule (BShare, ROADMAP item 4),
    * ``"fairq"`` — ECN FIFO that also stamps a per-flow fair share into
      passing packets from its active-flow estimate (FairQ).
    """

    discipline: str = "ecn"
    buffer_pkts: int = 100
    ecn_threshold_pkts: int = 20
    pfabric_queue_pkts: int = 24
    dba_total_bytes: int = 1_700_000
    dba_alpha: float = 1.0
    dba_ecn: bool = True
    # BShare (discipline "bshare"): target per-packet sojourn delay and
    # the EWMA gain of the delay estimator; the pool size and ECN flag are
    # shared with the DBA fields above.
    bshare_target_delay_s: float = 500e-6
    bshare_delay_gain: float = 0.125
    # FairQ (discipline "fairq"): epoch length, in full-MTU serialization
    # times, of the active-flow estimate behind the signalled share.
    fairq_epoch_pkts: int = 64
    infinite_with_ecn: bool = True
    host_nic_queue_pkts: int = INFINITE_CAPACITY
    # Ethernet flow control (§6 comparison): hop-by-hop PAUSE when a queue
    # crosses xoff_fraction of capacity, RESUME below xon_fraction.
    pfc: bool = False
    pfc_xoff_fraction: float = 0.8
    pfc_xon_fraction: float = 0.5
    # "flow" = standard flow-level ECMP; "packet" = per-packet spraying (§6).
    ecmp_mode: str = "flow"
    # Switch architecture (§4): "output" (default) or "cioq" with a fabric
    # speedup and shallow per-input buffers.
    architecture: str = "output"
    cioq_speedup: float = 2.0
    cioq_ingress_pkts: int = 16

    def __post_init__(self) -> None:
        known = {"ecn", "droptail", "infinite", "pfabric", "dba", "bshare", "fairq"}
        if self.discipline not in known:
            raise ValueError(f"unknown discipline {self.discipline!r}; known: {sorted(known)}")
        if self.ecmp_mode not in ("flow", "packet"):
            raise ValueError(f"unknown ecmp_mode {self.ecmp_mode!r}")
        if self.architecture not in ("output", "cioq"):
            raise ValueError(f"unknown architecture {self.architecture!r}")


class Network:
    """A runnable network built from a topology description."""

    def __init__(
        self,
        topo: Topology,
        switch_queues: Optional[SwitchQueueConfig] = None,
        dibs: Optional[DibsConfig] = None,
        seed: int = 0,
        trace_paths: bool = False,
        scheduler: Optional[Scheduler] = None,
        link_jitter_s: float = 0.0,
    ) -> None:
        topo.validate()
        if link_jitter_s < 0:
            raise ValueError("link jitter cannot be negative")
        self.topo = topo
        self.switch_queues = switch_queues if switch_queues is not None else SwitchQueueConfig()
        self.dibs = dibs if dibs is not None else DibsConfig.disabled()
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.rngs = RngFactory(seed)
        self.collector = MetricsCollector()
        self.trace_paths = trace_paths

        self._nodes: dict[str, Union[Host, Switch]] = {}
        self.hosts: list[Host] = []
        self.switches: list[Switch] = []
        self._host_by_id: dict[int, Host] = {}
        self._dba_pools: dict[str, SharedBufferPool] = {}
        self._port_index: dict[tuple[str, str], int] = {}
        self._next_flow_id = 0
        self._next_query_id = 0

        # Attached by repro.faults.install_faults when the scenario carries
        # a fault schedule; None for a fault-free network.
        self.fault_injector = None
        # Monotone counter bumped on every topology-visible transition
        # (FIB installs/reroutes and injector-driven port up/down).  The
        # runtime controller's actuator caches key on it, so a retune can
        # never act on port/queue lists that predate a fault.
        self.topology_generation = 0

        self._build_nodes()
        self._build_links()
        if link_jitter_s > 0:
            # One shared seeded stream: draws happen in event-dispatch
            # order, so jittered delays are deterministic per seed.
            jitter_rng = self.rngs.stream("link.jitter")
            for node in self._nodes.values():
                for port in node.ports:
                    port.set_jitter(link_jitter_s, jitter_rng)
        self._install_fibs()

        self.pfc_controllers = []
        if self.switch_queues.pfc:
            from repro.net.pfc import enable_pfc

            self.pfc_controllers = enable_pfc(
                self,
                xoff_fraction=self.switch_queues.pfc_xoff_fraction,
                xon_fraction=self.switch_queues.pfc_xon_fraction,
            )

        self.counter_registry = self._build_counter_registry()
        # Flat tuple of every port, for the post-run settle sweep in run()
        # (topology is immutable once built).
        self._all_ports: tuple = tuple(
            port for node in self._nodes.values() for port in node.ports
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        node_id = 0
        for name in self.topo.hosts:
            host = Host(node_id, name, self.scheduler)
            host.trace_paths = self.trace_paths
            self._nodes[name] = host
            self.hosts.append(host)
            self._host_by_id[node_id] = host
            node_id += 1
        detour_rng = self.rngs.stream("dibs.detour")
        for name in self.topo.switches:
            if self.switch_queues.architecture == "cioq":
                from repro.net.cioq import CioqSwitch

                switch = CioqSwitch(
                    node_id, name, self.scheduler, dibs=self.dibs, rng=detour_rng,
                    ecmp_mode=self.switch_queues.ecmp_mode,
                    fabric_speedup=self.switch_queues.cioq_speedup,
                    ingress_capacity_pkts=self.switch_queues.cioq_ingress_pkts,
                )
            else:
                switch = Switch(node_id, name, self.scheduler, dibs=self.dibs, rng=detour_rng,
                                ecmp_mode=self.switch_queues.ecmp_mode)
            self._nodes[name] = switch
            self.switches.append(switch)
            node_id += 1

    def _shared_pool(self, switch_name: str) -> SharedBufferPool:
        """The per-switch shared memory pool (dba/bshare), memoized."""
        cfg = self.switch_queues
        pool = self._dba_pools.get(switch_name)
        if pool is None:
            pool = SharedBufferPool(cfg.dba_total_bytes, alpha=cfg.dba_alpha)
            self._dba_pools[switch_name] = pool
        return pool

    def _make_switch_queue(self, switch_name: str, rate_bps: float):
        cfg = self.switch_queues
        if cfg.discipline == "ecn":
            return EcnQueue(cfg.buffer_pkts, cfg.ecn_threshold_pkts)
        if cfg.discipline == "droptail":
            return DropTailQueue(cfg.buffer_pkts)
        if cfg.discipline == "infinite":
            if cfg.infinite_with_ecn:
                return EcnQueue(INFINITE_CAPACITY, cfg.ecn_threshold_pkts)
            return DropTailQueue(INFINITE_CAPACITY)
        if cfg.discipline == "pfabric":
            return PFabricQueue(cfg.pfabric_queue_pkts)
        threshold = cfg.ecn_threshold_pkts if cfg.dba_ecn else None
        if cfg.discipline == "dba":
            return DynamicBufferQueue(self._shared_pool(switch_name), mark_threshold_pkts=threshold)
        if cfg.discipline == "bshare":
            return BShareQueue(
                self._shared_pool(switch_name),
                self.scheduler,
                cfg.bshare_target_delay_s,
                mark_threshold_pkts=threshold,
                delay_gain=cfg.bshare_delay_gain,
            )
        if cfg.discipline == "fairq":
            return FairQQueue(
                cfg.buffer_pkts,
                cfg.ecn_threshold_pkts,
                rate_bps,
                self.scheduler,
                epoch_pkts=cfg.fairq_epoch_pkts,
            )
        raise AssertionError(f"unhandled discipline {cfg.discipline}")

    def _build_links(self) -> None:
        for link in self.topo.links:
            ports = []
            for end in (link.node_a, link.node_b):
                node = self._nodes[end]
                if isinstance(node, Host):
                    queue = DropTailQueue(self.switch_queues.host_nic_queue_pkts)
                else:
                    queue = self._make_switch_queue(end, link.rate_bps)
                port = Port(node, queue, link.rate_bps, link.delay_s)
                self._port_index[(end, self._other(link, end))] = port.index
                ports.append(port)
            connect(ports[0], ports[1])
        # The two transmit ports of every topology link, in topology
        # order: whose ``up`` flags make the live-link set that
        # live_topology() and the route memo read.
        self._link_ports: tuple[tuple[Port, Port], ...] = tuple(
            (self.port_between(link.node_a, link.node_b),
             self.port_between(link.node_b, link.node_a))
            for link in self.topo.links
        )

    @staticmethod
    def _other(link, end: str) -> str:
        return link.node_b if end == link.node_a else link.node_a

    def _install_fibs(self) -> None:
        tables = self._port_tables(compute_fibs(self.topo))
        # Route memo: the port tables of every live-link set seen so far,
        # keyed by its down links (see recompute_routes), seeded with the
        # build-time tables for "every link up".
        self._route_memo: dict[tuple[int, ...], tuple[dict[int, list[int]], ...]] = {
            (): tables}
        self._install_port_tables(tables)

    def _port_tables(self, fibs: dict[str, dict[str, list[str]]]) -> tuple[dict[int, list[int]], ...]:
        """Translate symbolic FIBs into one port table per switch, in
        ``self.switches`` order.

        Hosts behind one attachment switch share their next-hop lists
        (see :func:`~repro.routing.fib.compute_fibs`) and every builder
        numbers them consecutively, so a list is translated when it
        differs from the previous host's and the hosts share the result.
        """
        nodes, port_index = self._nodes, self._port_index
        tables = []
        for switch in self.switches:
            name = switch.name
            table: dict[int, list[int]] = {}
            last = None
            for dst_name, next_hops in fibs.get(name, {}).items():
                if next_hops is not last:
                    last = next_hops
                    ports = [port_index[(name, hop)] for hop in next_hops]
                table[nodes[dst_name].node_id] = ports
            tables.append(table)
        return tuple(tables)

    def _install_port_tables(self, tables: tuple[dict[int, list[int]], ...]) -> None:
        for switch, table in zip(self.switches, tables):
            switch.install_fib(table)
        self.note_topology_change()

    def note_topology_change(self) -> None:
        """Invalidate topology-derived caches (controller actuators).

        Called on every FIB install/reroute and by the fault injector on
        port up/down transitions that skip rerouting.  Code that flips
        ``Port.up`` directly (outside the injector) should call this too.
        """
        self.topology_generation += 1

    def live_topology(self) -> Topology:
        """The current topology minus links with either direction down.

        A failed switch contributes nothing: the injector takes all its
        links down with it, so no path can traverse it.
        """
        live_links = [
            link
            for link, (port_a, port_b) in zip(self.topo.links, self._link_ports)
            if port_a.up and port_b.up
        ]
        return Topology(
            name=f"{self.topo.name}-live",
            hosts=list(self.topo.hosts),
            switches=list(self.topo.switches),
            links=live_links,
        )

    def recompute_routes(self) -> None:
        """Re-run all-shortest-path routing on the live topology.

        Models (idealized, immediate) routing reconvergence after a fault:
        destinations cut off by dead links get rerouted over surviving
        paths, and unreachable destinations simply vanish from the FIBs
        (their packets drop with ``no_route``).  Installing the new tables
        also clears every memoized ECMP pick.

        The tables are a pure function of the live-link set, so they are
        memoized on it (keyed by the indices of the links with either
        direction down): the first visit to a set runs
        :func:`~repro.routing.fib.compute_fibs` on :meth:`live_topology`
        and translates the result to port tables, and a return to a set
        already seen (a flap healing, a switch recovering) reinstalls
        the stored tables.  The build-time tables seed the "every link
        up" entry.  Hit or miss, every switch gets its table through
        :meth:`~repro.net.switch.Switch.install_fib` (which clears its
        route memos) and the topology generation is bumped.  Installed
        tables are shared with the memo and never mutated: a switch
        filters down ports into a new table of its own.  The memo holds
        at most one table set per distinct live-link set a run reaches.
        """
        down = tuple(i for i, (port_a, port_b) in enumerate(self._link_ports)
                     if not (port_a.up and port_b.up))
        tables = self._route_memo.get(down)
        if tables is None:
            tables = self._port_tables(compute_fibs(self.live_topology()))
            self._route_memo[down] = tables
        self._install_port_tables(tables)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _build_counter_registry(self):
        """Register every counter source under dotted hierarchical scopes.

        Registration is one-time wiring of zero-arg closures; the hot paths
        keep bumping their own attributes and pay nothing extra.  See
        :mod:`repro.obs.counters` for the scope layout.
        """
        registry = CounterRegistry()
        for switch in self.switches:
            registry.register(f"switch.{switch.name}", _switch_counter_source(switch))
            for port in switch.ports:
                registry.register(f"switch.{switch.name}.port{port.index}", port.counter_dict)
        for host in self.hosts:
            registry.register(f"host.{host.name}", host.counter_dict)
            for port in host.ports:
                registry.register(f"host.{host.name}.nic", port.counter_dict)
        for controller in self.pfc_controllers:
            registry.register(f"pfc.{controller.switch.name}", controller.counters_dict)
        return registry

    def counters(self):
        """One coherent snapshot of every counter in the network.

        Returns a :class:`repro.obs.counters.CounterSnapshot` with
        hierarchical per-switch / per-port / per-host / PFC scopes and the
        network-wide totals (``total_drops()``, ``drop_report()``,
        ``total_detours()``, ``total_ecn_marks()``).  Take one snapshot and
        read every total from it.
        """
        return self.counter_registry.snapshot()

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def node(self, name: str) -> Union[Host, Switch]:
        return self._nodes[name]

    def host(self, name_or_id: Union[str, int]) -> Host:
        if isinstance(name_or_id, int):
            return self._host_by_id[name_or_id]
        node = self._nodes[name_or_id]
        if not isinstance(node, Host):
            raise KeyError(f"{name_or_id!r} is not a host")
        return node

    def switch(self, name: str) -> Switch:
        node = self._nodes[name]
        if not isinstance(node, Switch):
            raise KeyError(f"{name!r} is not a switch")
        return node

    def port_between(self, node_a: str, node_b: str) -> Port:
        """The transmit port on ``node_a`` facing ``node_b``."""
        node = self._nodes[node_a]
        return node.ports[self._port_index[(node_a, node_b)]]

    def fabric_ports(self) -> list[tuple[Switch, Port]]:
        """All switch transmit ports facing other switches (directed fabric links)."""
        out = []
        for switch in self.switches:
            for port in switch.ports:
                if port.peer_node is not None and not port.peer_is_host:
                    out.append((switch, port))
        return out

    def fabric_links(self) -> list[tuple[str, str]]:
        """Undirected switch-to-switch links, in topology order (the
        deterministic universe the random fault generators draw from)."""
        switch_names = set(self.topo.switches)
        return [
            (link.node_a, link.node_b)
            for link in self.topo.links
            if link.node_a in switch_names and link.node_b in switch_names
        ]

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: Union[str, int],
        dst: Union[str, int],
        size: int,
        transport: Union[str, TcpConfig, PFabricConfig] = "dctcp",
        at: Optional[float] = None,
        kind: str = "background",
        flow_id: Optional[int] = None,
    ) -> FlowHandle:
        """Create a flow of ``size`` bytes and schedule its first burst.

        ``transport`` may be one of the aliases ``"tcp"``, ``"dctcp"``,
        ``"dibs"`` (DCTCP with fast retransmit disabled, the paper's DIBS
        host setting), ``"pfabric"``, ``"fairq"``, ``"tinybuf"``, or an
        explicit config object.
        """
        if size <= 0:
            raise ValueError("flow size must be positive")
        src_host = self.host(src)
        dst_host = self.host(dst)
        if src_host is dst_host:
            raise ValueError("flow endpoints must differ")

        config = _TRANSPORT_ALIASES[transport]() if isinstance(transport, str) else transport
        start = self.scheduler.now if at is None else at
        if flow_id is None:
            flow_id = self._next_flow_id
        self._next_flow_id = max(self._next_flow_id, flow_id) + 1

        flow = FlowHandle(flow_id, kind, src_host.node_id, dst_host.node_id, size, start)
        if isinstance(config, PFabricConfig):
            PFabricReceiver(dst_host, flow, config)
            sender = PFabricSender(src_host, flow, config)
        elif isinstance(config, FairQConfig):
            FairQReceiver(dst_host, flow, config)
            sender = FairQSender(src_host, flow, config)
        elif isinstance(config, TinyBufferConfig):
            TcpReceiver(dst_host, flow, config)
            sender = TinyBufferSender(src_host, flow, config)
        else:
            TcpReceiver(dst_host, flow, config)
            sender = TcpSender(src_host, flow, config)
        self.collector.add_flow(flow)
        if start <= self.scheduler.now:
            sender.start()
        else:
            self.scheduler.schedule_at(start, sender.start)
        return flow

    def next_query_id(self) -> int:
        qid = self._next_query_id
        self._next_query_id += 1
        return qid

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        processed = self.scheduler.run(until=until, max_events=max_events)
        # Settle or re-materialize every elided tx-done the run left
        # behind (see repro.net.link): afterwards port state and the
        # logical events_processed count are exactly what an engine
        # dispatching every event would report at this horizon.
        for port in self._all_ports:
            if port._txdone_seq >= 0:
                port._settle_tx(materialize=True)
        return processed

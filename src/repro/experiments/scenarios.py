"""Canonical experiment scenarios.

A :class:`Scenario` bundles every knob of Table 1/Table 2 — topology,
switch queueing, scheme (which combination of queue discipline, DIBS, and
host transport), workload intensities — and knows how to instantiate the
network and host transport configs.  Scheme dispatch goes through the
:mod:`repro.experiments.schemes` registry (``repro schemes`` lists every
registered name with its description); the built-ins:

===============  ============================  =====  =========================
scheme           switch queues                 DIBS   host transport
===============  ============================  =====  =========================
``dctcp``        ECN FIFO (K=20)               off    DCTCP, fast rtx on
``dibs``         ECN FIFO (K=20)               on     DCTCP, fast rtx off (§4)
``dctcp-inf``    infinite FIFO + ECN           off    DCTCP
``tcp``          droptail FIFO                 off    NewReno
``tcp-inf``      infinite FIFO                 off    NewReno
``tcp-dibs``     droptail FIFO                 on     NewReno, fast rtx off
``pfabric``      24-pkt priority queues        off    pFabric minimal TCP
``dctcp-dba``    shared-memory DBA + ECN       off    DCTCP
``dibs-dba``     shared-memory DBA + ECN       on     DCTCP, fast rtx off
``dctcp-pfc``    ECN FIFO + Ethernet PAUSE     off    DCTCP (§6 comparison)
``dctcp-spray``  ECN FIFO, packet-level ECMP   off    DCTCP, dup-ACK thr 10
``bshare``       delay-driven shared buffer    off    DCTCP (BShare)
``fairq``        ECN FIFO + fair-share stamps  off    DCTCP, paced (FairQ)
``tinybuf``      8–16-pkt static ECN FIFO      off    DCTCP, paced slow start
===============  ============================  =====  =========================

Table 1 defaults are the dataclass defaults (1 Gbps, 100-pkt buffers,
minRTO 10 ms, initial window 10, MTU 1500).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.core.config import DibsConfig
from repro.net.network import Network, SwitchQueueConfig
from repro.experiments.schemes import (
    SCHEME_DEFAULT_DUPACK,
    available_schemes,
    get_scheme,
)
from repro.sim.engine import Scheduler
from repro.topo import click_testbed, fat_tree, jellyfish, leaf_spine, linear
from repro.transport.base import TcpConfig
from repro.transport.pfabric import PFabricConfig

__all__ = [
    "Scenario",
    "SCHEMES",
    "PAPER_DEFAULTS",
    "SCALED_DEFAULTS",
    "SPACE_DC_DEFAULTS",
    "space_dc",
    "flap_storm",
]

# Snapshot of the built-in registry at import time, in registration order
# (legacy eleven first).  The live source of truth is the registry:
# schemes registered later are equally usable by name everywhere — this
# tuple exists for parametrized tests and Table 1/2 documentation.
SCHEMES = available_schemes()

_UNSET = SCHEME_DEFAULT_DUPACK  # legacy alias for the dupack sentinel


@dataclass(frozen=True)
class Scenario:
    """A fully specified experiment point."""

    name: str = "default"
    scheme: str = "dibs"

    # --- topology -----------------------------------------------------
    topology: str = "fattree"  # fattree | testbed | leafspine | linear | jellyfish
    k: int = 4
    link_rate_bps: float = 1e9
    link_delay_s: float = 5e-6
    # Per-delivery uniform jitter in [0, link_jitter_s) added to every
    # link's propagation delay (seeded, deterministic; arrival order per
    # link stays FIFO).  0 keeps the classic fixed-delay links.
    link_jitter_s: float = 0.0
    oversubscription: float = 1.0  # inter-switch slowdown factor (§5.5.4)

    # --- switch configuration ------------------------------------------
    buffer_pkts: int = 100
    ecn_threshold_pkts: int = 20
    pfabric_queue_pkts: int = 24
    dba_total_bytes: int = 1_700_000
    detour_policy: str = "random"

    # --- host configuration ---------------------------------------------
    ttl: int = 255
    min_rto_s: float = 0.010
    init_cwnd_pkts: int = 10
    pfabric_rto_s: float = 350e-6
    pfabric_window_pkts: int = 12
    # "scheme-default" keeps the scheme's fast-retransmit behaviour; an int
    # sets the dup-ACK threshold; None disables fast retransmit.
    dupack_threshold: Union[str, int, None] = _UNSET

    # --- workload -------------------------------------------------------
    bg_enabled: bool = True
    bg_interarrival_s: float = 0.120
    # Diurnal (time-of-day) modulation of the background arrival rate:
    # period_s > 0 switches the generator to a non-homogeneous Poisson
    # process with a sinusoidal day cycle of that simulated length;
    # amplitude in [0, 1) sets the peak/trough depth.
    bg_diurnal_period_s: float = 0.0
    bg_diurnal_amplitude: float = 0.5
    query_enabled: bool = True
    qps: float = 300.0
    incast_degree: int = 40
    response_bytes: int = 20_000

    # --- execution --------------------------------------------------------
    duration_s: float = 0.300
    drain_s: float = 1.0
    seed: int = 0

    # --- faults & guards (repro.faults) ---------------------------------
    # Explicit fault schedule as plain tuples — FaultEvent.as_tuple() rows
    # of (time, kind, node_a[, node_b[, count]]).  Plain builtins so the
    # frozen dataclass survives the asdict round trip to worker processes.
    faults: Optional[tuple] = None
    link_flap_rate: float = 0.0  # Poisson flaps per fabric link per second
    link_flap_downtime_s: float = 1e-3
    corrupt_rate: float = 0.0  # corruption events per second, network-wide
    watchdog: bool = True
    invariant_check_interval_s: float = 0.0  # 0 = end-of-run audit only
    # Event-queue pressure guard (repro.sim.engine): a run whose pending
    # calendar exceeds this aborts with a diagnostic ResourceError instead
    # of growing until the OOM killer takes the worker.  0 disables.
    max_pending_events: int = 5_000_000

    # --- runtime control (repro.control) ---------------------------------
    # controller=True installs the closed-loop RuntimeController on the
    # run; controller_spec is its policy as a canonical JSON string (None
    # = ControllerSpec defaults).  A plain string keeps the frozen
    # dataclass hashable and round-trippable through the journal.
    controller: bool = False
    controller_spec: Optional[str] = None

    # --- observability --------------------------------------------------
    # Hook-driven flow-goodput + port-utilization sampling
    # (repro.metrics.timeseries); 0 disables.  The series is part of what
    # a run measures (its fingerprint), so it lives here; the knobs that
    # only watch a run are repro.experiments.runner.RunOptions.
    timeseries_interval_s: float = 0.0

    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)

    def validate(self) -> None:
        get_scheme(self.scheme)  # raises ValueError listing registered names
        if self.duration_s <= 0 or self.drain_s < 0:
            raise ValueError("duration must be positive, drain non-negative")
        if self.link_flap_rate < 0 or self.corrupt_rate < 0:
            raise ValueError("fault rates cannot be negative")
        if self.link_flap_downtime_s <= 0:
            raise ValueError("link flap downtime must be positive")
        if self.invariant_check_interval_s < 0:
            raise ValueError("invariant check interval cannot be negative")
        if self.max_pending_events < 0:
            raise ValueError("max pending events cannot be negative (0 disables the guard)")
        if self.timeseries_interval_s < 0:
            raise ValueError("timeseries interval cannot be negative (0 disables)")
        if self.link_jitter_s < 0:
            raise ValueError("link jitter cannot be negative")
        if self.bg_diurnal_period_s < 0:
            raise ValueError("diurnal period cannot be negative (0 disables)")
        if not (0.0 <= self.bg_diurnal_amplitude < 1.0):
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.controller_spec is not None:
            # Parse eagerly (like the fault schedule below): a typoed spec
            # fails at configuration time, not halfway into a sweep.
            from repro.control.spec import ControllerSpec

            ControllerSpec.from_json_text(self.controller_spec)
        if self.faults:
            # Parse eagerly so malformed rows fail at configuration time,
            # not halfway into a sweep.
            from repro.faults.schedule import FaultSchedule

            FaultSchedule.from_tuples(self.faults)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build_topology(self):
        if self.topology == "fattree":
            return fat_tree(
                k=self.k,
                rate_bps=self.link_rate_bps,
                delay_s=self.link_delay_s,
                inter_switch_slowdown=self.oversubscription,
            )
        if self.topology == "testbed":
            return click_testbed(rate_bps=self.link_rate_bps, delay_s=self.link_delay_s)
        if self.topology == "leafspine":
            return leaf_spine(rate_bps=self.link_rate_bps, delay_s=self.link_delay_s)
        if self.topology == "linear":
            return linear(rate_bps=self.link_rate_bps, delay_s=self.link_delay_s)
        if self.topology == "jellyfish":
            return jellyfish(rate_bps=self.link_rate_bps, delay_s=self.link_delay_s, seed=self.seed)
        raise ValueError(f"unknown topology {self.topology!r}")

    def switch_queue_config(self) -> SwitchQueueConfig:
        return get_scheme(self.scheme).switch_queue_config(self)

    def dibs_config(self) -> DibsConfig:
        return get_scheme(self.scheme).dibs_config(self)

    def transport_config(self) -> Union[TcpConfig, PFabricConfig]:
        """The host transport matching the scheme, with scenario overrides."""
        return get_scheme(self.scheme).transport_config(self)

    def build_network(self) -> Network:
        self.validate()
        return Network(
            self.build_topology(),
            switch_queues=self.switch_queue_config(),
            dibs=self.dibs_config(),
            seed=self.seed,
            scheduler=Scheduler(max_pending_events=self.max_pending_events),
            link_jitter_s=self.link_jitter_s,
        )


# The paper's Table 1/Table 2 default operating point (K=8 fat-tree).
PAPER_DEFAULTS = Scenario(
    name="paper-defaults",
    k=8,
    buffer_pkts=100,
    ecn_threshold_pkts=20,
    bg_interarrival_s=0.120,
    qps=300.0,
    incast_degree=40,
    response_bytes=20_000,
    duration_s=1.0,
)

# Scaled operating point used by the default bench suite: K=4 (16 hosts).
# Three ratios are preserved against the paper's default point:
#   * burst-to-buffer: 40 senders x 10-pkt windows vs 100-pkt buffers
#     ~= 12 senders x 10-pkt windows vs 30-pkt buffers,
#   * incast degree to cluster size: 40/128 ~= 12/16 x (smaller cluster,
#     so the degree is relatively higher; absolute burstiness is matched
#     via the buffer instead),
#   * queries per host per second: 300 qps / 128 hosts ~= 40 qps / 16.
SCALED_DEFAULTS = Scenario(
    name="scaled-defaults",
    k=4,
    buffer_pkts=30,
    ecn_threshold_pkts=8,
    bg_interarrival_s=0.120,
    qps=40.0,
    incast_degree=12,
    response_bytes=20_000,
    duration_s=0.400,
    drain_s=1.0,
)

# Hostile regime: a "space data center" — racks connected over long,
# slow, jittery, outage-prone links (LEO crosslinks / ground relays)
# instead of intra-building fiber.  Compared to the terrestrial points:
#   * 50 Mbps links and link_delay_s=0.025 put the base RTT near 200 ms
#     (8 link traversals on the leaf-spine round trip), so minRTO scales
#     up to 250 ms; slow links mean incast bursts (12 x 10-pkt windows vs
#     15-pkt buffers) take tens of ms to drain and genuinely collide;
#   * link_jitter_s adds up to 5 ms of per-delivery propagation wobble,
#     partially decorrelating the incast — mitigation must handle both
#     the synchronized and the smeared arrivals;
#   * Poisson flaps with ~1 s downtime model orbital handover outages —
#     long enough that transports see whole RTO cycles of black-holing;
#   * the diurnal background compresses a "day" of load swing into the
#     run, so mitigation tuned at the trough meets the peak mid-run.
SPACE_DC_DEFAULTS = Scenario(
    name="space-dc",
    topology="leafspine",
    link_rate_bps=50e6,
    link_delay_s=0.025,
    link_jitter_s=0.005,
    min_rto_s=0.25,
    buffer_pkts=15,
    ecn_threshold_pkts=5,
    bg_interarrival_s=0.240,
    bg_diurnal_period_s=2.0,
    bg_diurnal_amplitude=0.6,
    qps=20.0,
    incast_degree=12,
    response_bytes=40_000,
    duration_s=1.0,
    drain_s=2.0,
    link_flap_rate=0.05,
    link_flap_downtime_s=1.0,
)


def space_dc(scheme: str = "dibs", **overrides) -> Scenario:
    """The space-DC hostile point for one scheme (plus ad-hoc overrides)."""
    merged = dict(name=f"space-dc-{scheme}", scheme=scheme)
    merged.update(overrides)  # caller overrides beat the family defaults
    return SPACE_DC_DEFAULTS.with_overrides(**merged)


def flap_storm(scheme: str = "dibs", **overrides) -> Scenario:
    """Space-DC point under a flap storm: frequent, short link outages.

    2 flaps per link per second with 5 ms downtime — the pathological
    regime for DIBS, since every flap shrinks the detour mask and the
    survivors absorb the detour load.  This is the cell where the
    runtime controller's detour-storm breaker has to earn its keep.
    """
    merged = dict(
        name=f"flap-storm-{scheme}",
        scheme=scheme,
        link_flap_rate=2.0,
        link_flap_downtime_s=0.005,
        duration_s=1.0,
        drain_s=2.0,
    )
    merged.update(overrides)  # caller overrides beat the storm defaults
    return SPACE_DC_DEFAULTS.with_overrides(**merged)

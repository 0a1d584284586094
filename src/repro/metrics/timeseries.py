"""Throughput time series.

Samples per-flow goodput and per-port utilization on a fixed period,
producing the curves behind convergence/fairness-over-time analyses (§5.6)
and the link heatmaps of Figure 2.  Unlike :class:`FabricSampler` (which
aggregates to hot-link fractions), these keep the raw series.

Two driving modes:

* **Programmatic** (the original API): ``start(stop_at)`` self-schedules a
  sampling event every ``interval_s``.  Scheduled events perturb the event
  calendar, so this mode is for standalone analyses, not instrumented
  experiment runs.
* **Hook-driven** via :class:`TimeseriesRecorder`: a scheduler run-loop
  hook (never a scheduled event) checks the clock every few hundred
  processed events and calls :meth:`sample_now` once per elapsed interval
  — simulation metrics stay bit-identical with the recorder on or off.
  This is what ``--timeseries-interval-s`` wires into ``run_scenario``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.net.network import Network
    from repro.transport.base import FlowHandle

__all__ = ["FlowThroughputSampler", "PortUtilizationSampler", "TimeseriesRecorder"]

# Run-loop-hook cadence (processed events) between clock checks in
# TimeseriesRecorder; same bound as the trace occupancy hook.
_CHECK_EVERY_EVENTS = 256


class FlowThroughputSampler:
    """Periodic goodput (receiver in-order bytes/s) per tracked flow."""

    def __init__(self, network: "Network", flows: Sequence["FlowHandle"], interval_s: float = 1e-3):
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.network = network
        self.flows = list(flows)
        self.interval_s = interval_s
        self.times: list[float] = []
        self.series: dict[int, list[float]] = {f.flow_id: [] for f in self.flows}
        self._last_bytes = {f.flow_id: 0 for f in self.flows}
        self._stop_at: Optional[float] = None

    def track(self, flow: "FlowHandle") -> None:
        """Start sampling ``flow`` from the next interval on.  Its series
        is zero-padded over the already-sampled past, so every series stays
        the same length as ``times``."""
        if flow.flow_id in self.series:
            return
        self.flows.append(flow)
        self.series[flow.flow_id] = [0.0] * len(self.times)
        self._last_bytes[flow.flow_id] = 0

    def start(self, stop_at: float) -> None:
        self._stop_at = stop_at
        self.network.scheduler.schedule(self.interval_s, self._sample)

    def sample_now(self, now: float, dt: Optional[float] = None) -> None:
        """Record one sample at time ``now`` over a window of ``dt``
        seconds (defaults to the configured interval)."""
        if dt is None:
            dt = self.interval_s
        self.times.append(now)
        for flow in self.flows:
            last = self._last_bytes[flow.flow_id]
            current = flow.bytes_received
            self._last_bytes[flow.flow_id] = current
            self.series[flow.flow_id].append((current - last) * 8.0 / dt)

    def _sample(self) -> None:
        now = self.network.scheduler.now
        self.sample_now(now)
        if self._stop_at is None or now + self.interval_s <= self._stop_at + 1e-12:
            self.network.scheduler.schedule(self.interval_s, self._sample)

    def goodput_bps(self, flow_id: int) -> list[float]:
        """The sampled series for one flow."""
        return self.series[flow_id]

    def jain_over_time(self) -> list[float]:
        """Per-interval Jain index across the tracked flows."""
        from repro.metrics.stats import jain_index

        out = []
        for i in range(len(self.times)):
            snapshot = [self.series[f.flow_id][i] for f in self.flows]
            out.append(jain_index(snapshot))
        return out


class PortUtilizationSampler:
    """Periodic utilization of selected ports (fraction of capacity)."""

    def __init__(self, network: "Network", ports: Sequence["Port"], interval_s: float = 1e-3):
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if not ports:
            raise ValueError("need at least one port to sample")
        self.network = network
        self.ports = list(ports)
        self.interval_s = interval_s
        self.times: list[float] = []
        self.series: list[list[float]] = [[] for _ in self.ports]
        self._last_bytes = [p.bytes_sent for p in self.ports]
        self._stop_at: Optional[float] = None

    def start(self, stop_at: float) -> None:
        self._stop_at = stop_at
        self.network.scheduler.schedule(self.interval_s, self._sample)

    def sample_now(self, now: float, dt: Optional[float] = None) -> None:
        """Record one sample at time ``now`` over a window of ``dt``
        seconds (defaults to the configured interval)."""
        if dt is None:
            dt = self.interval_s
        self.times.append(now)
        for i, port in enumerate(self.ports):
            sent = port.bytes_sent
            delta = sent - self._last_bytes[i]
            self._last_bytes[i] = sent
            self.series[i].append(delta * 8.0 / (port.rate_bps * dt))

    def _sample(self) -> None:
        now = self.network.scheduler.now
        self.sample_now(now)
        if self._stop_at is None or now + self.interval_s <= self._stop_at + 1e-12:
            self.network.scheduler.schedule(self.interval_s, self._sample)

    def peak_utilization(self, index: int = 0) -> float:
        series = self.series[index]
        return max(series) if series else 0.0

    def mean_utilization(self, index: int = 0) -> float:
        series = self.series[index]
        return sum(series) / len(series) if series else 0.0


class TimeseriesRecorder:
    """Hook-driven wrapper over both samplers for instrumented runs.

    Drives :class:`FlowThroughputSampler` (over the collector's flows,
    picking up flows the workload registers mid-run) and
    :class:`PortUtilizationSampler` (over ``ports``, default: every
    switch port) from a scheduler run-loop hook.  The hook compares the
    clock every few hundred events and samples once per elapsed interval
    with the *actual* elapsed window as ``dt``, so rates stay correct even
    when a coarse event gap overshoots the nominal interval.
    """

    def __init__(
        self,
        network: "Network",
        interval_s: float,
        collector=None,
        ports: Optional[Sequence["Port"]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("timeseries interval must be positive")
        self.network = network
        self.interval_s = interval_s
        self.collector = collector
        if ports is None:
            ports = [port for sw in network.switches for port in sw.ports]
        self.flows_sampler = FlowThroughputSampler(network, [], interval_s)
        self.ports_sampler = (
            PortUtilizationSampler(network, ports, interval_s) if ports else None
        )
        self._port_names = [
            f"{p.node.name}[{p.index}]" for p in (ports or [])
        ]
        self._hook = None
        self._next_t = 0.0
        self._last_t = 0.0

    # ------------------------------------------------------------------
    def install(self) -> "TimeseriesRecorder":
        now = self.network.scheduler.now
        self._next_t = now + self.interval_s
        self._last_t = now
        self._hook = self.network.scheduler.add_hook(self._tick, _CHECK_EVERY_EVENTS)
        return self

    def finish(self) -> None:
        if self._hook is not None:
            self.network.scheduler.remove_hook(self._hook)
            self._hook = None

    def contribute(self, result) -> None:
        result.timeseries = self.as_dict()

    def _tick(self, scheduler) -> None:
        now = scheduler.now
        if now < self._next_t:
            return
        if self.collector is not None:
            for flow in self.collector.flows:
                self.flows_sampler.track(flow)
        dt = now - self._last_t
        self.flows_sampler.sample_now(now, dt)
        if self.ports_sampler is not None:
            self.ports_sampler.sample_now(now, dt)
        self._last_t = now
        # Skip ahead past any intervals the event gap jumped over.
        interval = self.interval_s
        self._next_t = now + interval - ((now - self._next_t) % interval)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready payload for ``timeseries.json``."""
        out = {
            "interval_s": self.interval_s,
            "times_s": list(self.flows_sampler.times),
            "flows": {
                str(flow_id): series
                for flow_id, series in sorted(self.flows_sampler.series.items())
            },
        }
        if self.ports_sampler is not None:
            out["ports"] = {
                name: self.ports_sampler.series[i]
                for i, name in enumerate(self._port_names)
            }
        return out

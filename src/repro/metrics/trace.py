"""Event tracing: detour timelines, drop logs, queue-occupancy snapshots.

These power the anatomy examples that mirror Figures 1 and 2:

* :class:`DetourTrace` hooks every switch's detour/drop callbacks and
  records one row per event — Fig. 2(a) is exactly a scatter of this log.
* :class:`QueueOccupancyTrace` snapshots per-port queue lengths of selected
  switches on a fixed period — Fig. 2(b) is a rendering of three snapshots.
* Per-packet paths (Fig. 1) come from ``Network(trace_paths=True)``, which
  makes every packet accumulate the node names it visits; see
  :func:`arc_counts` for the Fig. 1-style arc weights.

These keep events in memory for the anatomy plots.  For an on-disk,
versioned record of the same events (plus occupancy samples and counter
snapshots) that ``repro trace`` can summarize, use
:class:`repro.obs.trace.TraceWriter` — both subscribe through
:func:`repro.obs.trace.tap`, so they observe one run in either attach
order.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.obs.trace import tap

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["DetourTrace", "QueueOccupancyTrace", "arc_counts"]


class DetourTrace:
    """Records every detour decision and drop across a network."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.detour_events: list[tuple[float, str, int, int]] = []  # (t, switch, flow, nth_detour)
        self.drop_events: list[tuple[float, str, int, str]] = []  # (t, switch, flow, reason)
        tap(network, self._record, paths=False)

    def _record(self, record: dict) -> None:
        if record["type"] == "detour":
            self.detour_events.append(
                (record["t"], record["switch"], record["flow"], record["detours"]))
        else:
            self.drop_events.append(
                (record["t"], record["node"], record["flow"], record["reason"]))

    # ------------------------------------------------------------------
    def detours_by_switch(self) -> dict[str, int]:
        counts: Counter[str] = Counter()
        for _, switch_name, _, _ in self.detour_events:
            counts[switch_name] += 1
        return dict(counts)

    def detour_timeline(self, bin_s: float) -> dict[str, list[int]]:
        """Per-switch histogram of detour events over time (Fig. 2(a))."""
        if bin_s <= 0:
            raise ValueError("bin width must be positive")
        horizon = max((t for t, *_ in self.detour_events), default=0.0)
        nbins = int(horizon / bin_s) + 1
        out: dict[str, list[int]] = {}
        for t, switch_name, _, _ in self.detour_events:
            series = out.setdefault(switch_name, [0] * nbins)
            series[int(t / bin_s)] += 1
        return out

    def max_detours_seen(self) -> int:
        """Highest per-packet detour count observed (Fig. 1's packet hit 15)."""
        return max((nth for *_, nth in self.detour_events), default=0)


class QueueOccupancyTrace:
    """Periodic per-port queue-length snapshots for selected switches."""

    def __init__(
        self,
        network: "Network",
        switch_names: Optional[Sequence[str]] = None,
        interval_s: float = 1e-3,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.network = network
        self.interval_s = interval_s
        names = list(switch_names) if switch_names is not None else [s.name for s in network.switches]
        self._switches = [network.switch(name) for name in names]
        self.samples: list[tuple[float, dict[str, list[int]]]] = []
        self._stop_at: Optional[float] = None

    def start(self, stop_at: float) -> None:
        self._stop_at = stop_at
        self.network.scheduler.schedule(0.0, self._sample)

    def _sample(self) -> None:
        now = self.network.scheduler.now
        snapshot = {sw.name: sw.queue_occupancy() for sw in self._switches}
        self.samples.append((now, snapshot))
        if self._stop_at is None or now + self.interval_s <= self._stop_at + 1e-12:
            self.network.scheduler.schedule(self.interval_s, self._sample)

    def peak_occupancy(self, switch_name: str) -> int:
        """Largest single-port backlog ever sampled on ``switch_name``."""
        return max((max(snap[switch_name]) for _, snap in self.samples if switch_name in snap), default=0)


def arc_counts(path: Iterable[str]) -> dict[tuple[str, str], int]:
    """Count traversals of each (from, to) arc along a packet path.

    This is the data behind Fig. 1's weighted arcs: the packet that was
    detoured 15 times crossed some aggregation–core arcs 8+ times.
    """
    counts: Counter[tuple[str, str]] = Counter()
    nodes = list(path)
    for a, b in zip(nodes, nodes[1:]):
        counts[(a, b)] += 1
    return dict(counts)

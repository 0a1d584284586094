"""Figure 2 recreated: the anatomy of an absorbed incast burst.

Runs a large incast against one host and renders, as text:

* (a) a per-switch timeline of detour activity — which switches detoured,
  and when (the paper's scatter plot, §2), and
* (b) buffer-occupancy snapshots of the receiver pod's switches at three
  instants t1 < t2 < t3: queues building, everything detouring, congestion
  abating.

Run:  python examples/incast_anatomy.py
"""

from repro import DibsConfig, Network, SwitchQueueConfig, fat_tree
from repro.metrics.trace import DetourTrace, QueueOccupancyTrace

BIN_MS = 0.5
RUN_S = 0.02


def render_timeline(trace: DetourTrace) -> None:
    timeline = trace.detour_timeline(bin_s=BIN_MS * 1e-3)
    if not timeline:
        print("(no detours occurred)")
        return
    nbins = max(len(series) for series in timeline.values())
    print(f"Detours per {BIN_MS}ms bin ('.'=0, digits scale, '#'>=10):")
    for switch in sorted(timeline):
        cells = []
        series = timeline[switch] + [0] * (nbins - len(timeline[switch]))
        for count in series:
            if count == 0:
                cells.append(".")
            elif count < 10:
                cells.append(str(count))
            else:
                cells.append("#")
        print(f"  {switch:<10} {''.join(cells)}")


def render_snapshot(occupancy: QueueOccupancyTrace, when: float, label: str) -> None:
    sample = min(occupancy.samples, key=lambda s: abs(s[0] - when))
    t, snapshot = sample
    print(f"\n{label} (t={t * 1e3:.2f}ms) — per-port queue length in packets:")
    for switch in sorted(snapshot):
        bars = " ".join(f"{q:>3}" for q in snapshot[switch])
        print(f"  {switch:<10} [{bars}]")


def main() -> None:
    network = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=20, ecn_threshold_pkts=6),
        dibs=DibsConfig(),
        seed=7,
    )
    trace = DetourTrace(network)
    # host_0 lives in pod 0: watch that pod's switches.
    pod_switches = ["edge_0_0", "edge_0_1", "agg_0_0", "agg_0_1"]
    occupancy = QueueOccupancyTrace(network, pod_switches, interval_s=2e-4)
    occupancy.start(stop_at=RUN_S)

    flows = [
        network.start_flow(f"host_{i}", "host_0", 20_000, transport="dibs", kind="query")
        for i in range(1, 13)
    ]
    network.run(until=RUN_S)
    network.run(until=2.0)  # drain
    assert all(f.completed for f in flows)

    render_timeline(trace)

    if trace.detour_events:
        t_first = trace.detour_events[0][0]
        t_last = trace.detour_events[-1][0]
        t_mid = (t_first + t_last) / 2
        render_snapshot(occupancy, t_first, "t1: queues building up")
        render_snapshot(occupancy, t_mid, "t2: switches detouring")
        render_snapshot(occupancy, t_last + 2e-3, "t3: congestion abating")

    counters = network.counters()
    print(f"\nTotals: {counters.total_detours()} detours, "
          f"{counters.total_drops()} drops, "
          f"burst delivered in {max(f.receiver_done_time for f in flows) * 1e3:.1f}ms")


if __name__ == "__main__":
    main()

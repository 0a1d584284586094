"""Fault injection: DIBS absorbing an incast while the fabric degrades.

Builds a K=4 fat-tree, arms a fault schedule that kills a core-agg link
mid-incast (and recovers it later), sprinkles a few corrupted frames on a
host link, and runs with the livelock watchdog and periodic conservation
audits active — the same guard rails the experiment runner uses.  The
printout shows the applied fault log, how routing and the DIBS detour mask
reacted, and the exact packet-conservation ledger (including in-flight
packets) proving nothing leaked despite the carnage.

Run:  python examples/fault_injection.py
"""

from repro import DibsConfig, Network, SwitchQueueConfig, fat_tree
from repro.faults import (
    LINK_DOWN,
    LINK_UP,
    PACKET_CORRUPT,
    FaultInjector,
    FaultSchedule,
    InvariantChecker,
    Watchdog,
)
from repro.net.audit import conservation_report


def main() -> None:
    network = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
        dibs=DibsConfig(),
        seed=7,
    )

    # A hand-written schedule: one core link dies during the burst and
    # comes back 30 ms later; a host link eats three frames as CRC errors.
    schedule = FaultSchedule.from_tuples(
        [
            (0.002, LINK_DOWN, "agg_0_0", "core_0"),
            (0.032, LINK_UP, "agg_0_0", "core_0"),
            (0.001, PACKET_CORRUPT, "edge_0_0", "host_0", 3),
        ]
    )
    injector = FaultInjector(network, schedule).arm()

    # The guard rails: abort on a frozen clock or hop explosion, and audit
    # the packet-conservation ledger every 5 ms of simulated time.
    Watchdog(network.scheduler, max_hops=255 + 16).install(network)
    checker = InvariantChecker(network, interval_s=0.005, stop_at=0.5).start()

    flows = [
        network.start_flow(f"host_{i}", "host_0", 20_000, transport="dibs", kind="query")
        for i in range(1, 13)
    ]
    network.run(until=2.0)

    print("Applied faults (time, kind, endpoints):")
    for when, kind, node_a, node_b in injector.log:
        target = f"{node_a} <-> {node_b}" if node_b else node_a
        print(f"  {when * 1e3:7.2f} ms  {kind:<15} {target}")
    print()

    done = sum(1 for f in flows if f.completed)
    report = conservation_report(network)
    counters = network.counters()
    drops = counters.drop_report()
    print(f"Queries completed : {done}/{len(flows)}")
    print(f"Detours           : {counters.total_detours()}")
    print(f"Packets killed    : {injector.packets_killed} (in flight on the dead link)")
    print(f"Drop breakdown    : { {k: v for k, v in drops.items() if v} }")
    print(f"Invariant audits  : {checker.checks_run} (all green, or we'd have raised)")
    print()
    print("Conservation ledger (exact, including in-flight):")
    for key, value in report.as_dict().items():
        print(f"  {key:<12} {value}")
    assert report.leaked == 0


if __name__ == "__main__":
    main()

"""Quickstart: DIBS in ~40 lines.

Builds a K=4 fat-tree, throws a 12-way incast burst at one host, and runs
it twice — once with plain DCTCP switches, once with DIBS detouring — then
prints the completion times.  This is the paper's core claim in miniature:
with DIBS the burst is absorbed by neighboring switches' buffers instead
of being dropped, so no flow waits out a retransmission timeout.

Run:  python examples/quickstart.py
"""

from repro import DibsConfig, Network, SwitchQueueConfig, fat_tree


def run_incast(use_dibs: bool) -> dict:
    network = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=30, ecn_threshold_pkts=8),
        dibs=DibsConfig() if use_dibs else DibsConfig.disabled(),
        seed=1,
    )
    # 12 servers answer a query with 20 KB each, all at once -> incast.
    flows = [
        network.start_flow(
            src=f"host_{i}",
            dst="host_0",
            size=20_000,
            transport="dibs" if use_dibs else "dctcp",
            kind="query",
        )
        for i in range(1, 13)
    ]
    network.run(until=2.0)
    assert all(flow.completed for flow in flows)
    counters = network.counters()
    return {
        "query_completion_ms": max(f.receiver_done_time for f in flows) * 1e3,
        "slowest_flow_ms": max(f.fct for f in flows) * 1e3,
        "packets_dropped": counters.total_drops(),
        "packets_detoured": counters.total_detours(),
        "rto_timeouts": sum(f.timeouts for f in flows),
    }


def main() -> None:
    without = run_incast(use_dibs=False)
    with_dibs = run_incast(use_dibs=True)

    print(f"{'metric':<22}{'DCTCP':>12}{'DCTCP+DIBS':>14}")
    print("-" * 48)
    for key in without:
        a, b = without[key], with_dibs[key]
        fmt = "{:>12.2f}{:>14.2f}" if isinstance(a, float) else "{:>12d}{:>14d}"
        print(f"{key:<22}" + fmt.format(a, b))

    improvement = 1 - with_dibs["query_completion_ms"] / without["query_completion_ms"]
    print(f"\nDIBS cut query completion time by {improvement:.0%} "
          f"and eliminated all {without['packets_dropped']} drops.")


if __name__ == "__main__":
    main()

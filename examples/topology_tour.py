"""§7's topology discussion, executed: DIBS beyond the fat-tree.

Runs the same incast burst on four fabrics — fat-tree, leaf-spine, a
Jellyfish random graph, and the degenerate linear chain from footnote 10 —
and reports how detouring fares on each.  More neighbors means more places
to borrow buffer from; even the chain works, detouring backwards.

Run:  python examples/topology_tour.py
"""

from repro import DibsConfig, Network, SwitchQueueConfig
from repro import fat_tree, jellyfish, leaf_spine, linear


def run_on(topo, target, senders, label):
    network = Network(
        topo,
        switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
        dibs=DibsConfig(),
        seed=3,
    )
    flows = [
        network.start_flow(src, target, 20_000, transport="dibs", kind="query")
        for src in senders
    ]
    network.run(until=3.0)
    completed = sum(1 for f in flows if f.completed)
    qct = max((f.receiver_done_time for f in flows if f.completed), default=None)
    counters = network.counters()
    print(
        f"{label:<22} flows {completed}/{len(flows)}  "
        f"burst_done={qct * 1e3:7.2f}ms  "
        f"detours={counters.total_detours():>5}  drops={counters.total_drops():>3}  "
        f"diameter={topo.diameter()}"
    )


def main() -> None:
    print(f"{'topology':<22} incast results (10-pkt buffers, DIBS on)")
    print("-" * 78)

    ft = fat_tree(k=4)
    run_on(ft, "host_0", [f"host_{i}" for i in range(1, 13)], "fat-tree k=4")

    ls = leaf_spine(leaves=4, spines=2, hosts_per_leaf=4)
    run_on(ls, "host_0", [f"host_{i}" for i in range(1, 13)], "leaf-spine 4x2")

    jf = jellyfish(switches=16, fabric_degree=3, hosts_per_switch=1, seed=4)
    run_on(jf, "host_0", [f"host_{i}" for i in range(1, 13)], "jellyfish 16x3")

    chain = linear(switches=4, hosts_per_switch=3)
    run_on(chain, "host_0", [f"host_{i}" for i in range(1, 12)], "linear chain (4 sw)")

    print()
    print("Jellyfish/leaf-spine give DIBS many equal neighbors to spill into;")
    print("the chain still works — packets detour backwards and return — as")
    print("the paper's footnote 10 predicts, just with longer queues.")


if __name__ == "__main__":
    main()

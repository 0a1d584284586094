"""§6's coexistence claim, executed: MPTCP over a DIBS fabric.

Opens multipath connections (LIA-coupled subflows hashed onto different
ECMP paths) while an incast storm hits one host.  MPTCP spreads each
connection over the fabric; DIBS absorbs the incast at the congested edge.
Neither mechanism interferes with the other — the paper's "DIBS can
co-exist with MPTCP".

Run:  python examples/mptcp_coexistence.py
"""

from repro import DibsConfig, Network, SwitchQueueConfig, fat_tree
from repro.transport.base import dibs_host_config
from repro.transport.mptcp import MptcpConfig, start_mptcp_flow


def main() -> None:
    network = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=15, ecn_threshold_pkts=5),
        dibs=DibsConfig(),
        seed=6,
    )

    # Three MPTCP bulk transfers crossing the fabric.
    mptcp_cfg = MptcpConfig(subflows=4, coupled=True, tcp=dibs_host_config())
    connections = [
        start_mptcp_flow(network, src, dst, 400_000, mptcp_cfg)
        for src, dst in (("host_4", "host_12"), ("host_5", "host_13"), ("host_6", "host_14"))
    ]

    # Meanwhile, a 10-way incast slams host_0.
    incast = [
        network.start_flow(f"host_{i}", "host_0", 20_000,
                           transport=dibs_host_config(), kind="query")
        for i in range(1, 11)
    ]

    network.run(until=2.0)

    print("MPTCP connections (4 LIA-coupled subflows each):")
    for conn in connections:
        src = network.host(conn.parent.src).name
        dst = network.host(conn.parent.dst).name
        subflow_fcts = ", ".join(f"{c.fct * 1e3:.2f}" for c in conn.children)
        print(f"  {src}->{dst}: {conn.parent.size} B in {conn.parent.fct * 1e3:.2f} ms "
              f"(subflows: {subflow_fcts} ms)")

    incast_done = max(f.receiver_done_time for f in incast)
    counters = network.counters()
    print(f"\nIncast burst absorbed in {incast_done * 1e3:.2f} ms "
          f"({counters.total_detours()} detours, {counters.total_drops()} drops).")

    # Show the multipath spreading: both uplinks of host_4's edge carried data.
    up0 = network.port_between("edge_1_0", "agg_1_0").pkts_sent
    up1 = network.port_between("edge_1_0", "agg_1_1").pkts_sent
    print(f"host_4's edge uplinks carried {up0} and {up1} packets — "
          "one connection, both paths.")

    assert all(c.completed for c in connections)
    assert all(f.completed for f in incast)


if __name__ == "__main__":
    main()

"""§7 quantified — DIBS across topologies.

The paper's discussion section argues detouring quality tracks neighbor
richness: fat-tree and HyperX offer many detour options; Jellyfish's
random graph puts more switches near any destination; a linear chain only
allows backward detours yet still functions (footnote 10).  This bench
runs the same proportional incast on each topology with DIBS on/off.
"""

from repro.core.config import DibsConfig
from repro.experiments.report import format_table
from repro.metrics.stats import percentile
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import fat_tree, jellyfish, leaf_spine, linear
from repro.topo.hyperx import hyperx
from repro.transport.base import dibs_host_config

import common

NAME = "topologies"

TOPOLOGIES = [
    ("fat-tree k=4", lambda: fat_tree(k=4)),
    ("leaf-spine 4x2", lambda: leaf_spine(leaves=4, spines=2, hosts_per_leaf=4)),
    ("jellyfish 16x3", lambda: jellyfish(switches=16, fabric_degree=3, hosts_per_switch=1, seed=7)),
    ("hyperx 4x4", lambda: hyperx((4, 4), hosts_per_switch=1)),
    ("linear chain 4sw", lambda: linear(switches=4, hosts_per_switch=4)),
]


def _run(topo_factory, dibs: bool, trials: int = 5):
    qcts, drops, detours = [], 0, 0
    for seed in range(trials):
        net = Network(
            topo_factory(),
            switch_queues=SwitchQueueConfig(buffer_pkts=10, ecn_threshold_pkts=4),
            dibs=DibsConfig() if dibs else DibsConfig.disabled(),
            seed=seed,
        )
        cfg = dibs_host_config() if dibs else "dctcp"
        senders = [h.name for h in net.hosts[1:13]]
        flows = [
            net.start_flow(s, net.hosts[0].name, 20_000, transport=cfg, kind="query")
            for s in senders
        ]
        net.run(until=5.0)
        done = [f for f in flows if f.completed]
        if len(done) == len(flows):
            qcts.append(max(f.receiver_done_time for f in flows))
        counters = net.counters()
        drops += counters.total_drops()
        detours += counters.total_detours()
    return qcts, drops, detours


def run(full: bool = False) -> str:
    trials = 20 if full else 5
    rows = []
    for label, factory in TOPOLOGIES:
        topo = factory()
        no_qcts, no_drops, _ = _run(factory, dibs=False, trials=trials)
        yes_qcts, yes_drops, yes_detours = _run(factory, dibs=True, trials=trials)
        rows.append(
            {
                "topology": label,
                "diameter": topo.diameter(),
                "dctcp:qct_p99_ms": f"{percentile(no_qcts, 99) * 1e3:.1f}" if no_qcts else "-",
                "dctcp:drops": no_drops,
                "dibs:qct_p99_ms": f"{percentile(yes_qcts, 99) * 1e3:.1f}" if yes_qcts else "-",
                "dibs:drops": yes_drops,
                "dibs:detours": yes_detours,
            }
        )
    title = (
        "Section 7: the same 12-way incast on five topologies (10-pkt buffers).\n"
        "Expected shape: DIBS wins everywhere; richly connected fabrics\n"
        "(fat-tree, HyperX, Jellyfish) absorb the burst losslessly, while\n"
        "the linear chain still works but must drop more (backward-only\n"
        "detours share one path with the traffic)."
    )
    return format_table(rows, title=title)


def test_topologies(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)

"""Figure 6 — the Click-testbed incast experiment (§5.2).

Five servers each send ten simultaneous 32 KB flows to the last server on
the 5-switch testbed topology.  Three settings: infinite buffers, 100-pkt
droptail, and 100-pkt droptail with DIBS (fast retransmit disabled).

Paper numbers: infinite completes all queries by 25 ms, DIBS by 27 ms,
droptail stretches out to 51 ms because ~9% of flows hit a retransmission
timeout.  The experiment is repeated over several seeds (the paper ran 50
trials).
"""

from repro.core.config import DibsConfig
from repro.experiments.report import format_table
from repro.metrics.stats import percentile
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import click_testbed
from repro.transport.base import TcpConfig

import common

NAME = "fig06_click_incast"

SETTINGS = {
    "InfiniteBuf": dict(
        queues=SwitchQueueConfig(discipline="infinite", infinite_with_ecn=False),
        dibs=False,
        tcp=TcpConfig(),
    ),
    "Droptail100": dict(
        queues=SwitchQueueConfig(discipline="droptail", buffer_pkts=100),
        dibs=False,
        tcp=TcpConfig(),
    ),
    "Detour": dict(
        queues=SwitchQueueConfig(discipline="droptail", buffer_pkts=100),
        dibs=True,
        tcp=TcpConfig(fast_retransmit_threshold=None),
    ),
}


def _one_trial(setting: str, seed: int):
    cfg = SETTINGS[setting]
    net = Network(
        click_testbed(),
        switch_queues=cfg["queues"],
        dibs=DibsConfig() if cfg["dibs"] else DibsConfig.disabled(),
        seed=seed,
    )
    flows = []
    for sender in range(5):
        for _ in range(10):
            flows.append(net.start_flow(f"host_{sender}", "host_5", 32_000,
                                        transport=cfg["tcp"], kind="query"))
    net.run(until=5.0)
    assert all(f.completed for f in flows)
    qct = max(f.receiver_done_time for f in flows)
    counters = net.counters()
    return qct, [f.fct for f in flows], counters.total_drops(), counters.total_detours()


def run(full: bool = False) -> str:
    trials = 50 if full else 10
    rows = []
    for setting in SETTINGS:
        qcts, all_fcts, drops, detours = [], [], 0, 0
        for seed in range(trials):
            qct, fcts, d, det = _one_trial(setting, seed)
            qcts.append(qct)
            all_fcts.extend(fcts)
            drops += d
            detours += det
        rows.append(
            {
                "setting": setting,
                "trials": trials,
                "qct_min_ms": f"{min(qcts) * 1e3:.1f}",
                "qct_max_ms": f"{max(qcts) * 1e3:.1f}",
                "flow_p50_ms": f"{percentile(all_fcts, 50) * 1e3:.1f}",
                "flow_p99_ms": f"{percentile(all_fcts, 99) * 1e3:.1f}",
                "flows_over_25ms": sum(1 for f in all_fcts if f > 0.025),
                "drops": drops,
                "detours": detours,
            }
        )
    title = (
        "Figure 6: testbed incast (5 senders x 10 flows x 32KB -> 1 receiver).\n"
        "Paper shape: InfiniteBuf ~25ms, Detour ~27ms (no drops/timeouts),\n"
        "Droptail100 up to ~51ms with ~9% of flows delayed by RTOs."
    )
    return format_table(rows, title=title)


def test_fig06_click_incast(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)

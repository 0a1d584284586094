"""Ablation — host stack variants under DIBS reordering.

§4 discusses two host-side knobs for living with detour reordering:
disable fast retransmit (the paper's choice) or raise the dup-ACK
threshold.  Modern stacks add two more: SACK (retransmit only real holes,
cf. the paper's RR-TCP citation [54]) and delayed ACKs (the DCTCP
receiver).  This bench runs the default incast workload under DIBS with
each stack variant.
"""

from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.report import format_table
from repro.metrics.stats import percentile
from repro.transport.base import TcpConfig
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import web_search_background
from repro.workload.query import QueryTraffic

import common

NAME = "ablation_host_stack"

VARIANTS = [
    ("paper: no fast rtx", dict(fast_retransmit_threshold=None)),
    ("dupack-10", dict(fast_retransmit_threshold=10)),
    ("dupack-10 + sack", dict(fast_retransmit_threshold=10, sack=True)),
    ("dupack-3 + sack", dict(fast_retransmit_threshold=3, sack=True)),
    ("no fast rtx + delack-2", dict(fast_retransmit_threshold=None, delayed_ack_segments=2)),
]


def _run(scenario, tcp_overrides):
    net = scenario.build_network()
    transport = TcpConfig(dctcp=True, ecn=True, **tcp_overrides)
    BackgroundTraffic(net, scenario.bg_interarrival_s, web_search_background(),
                      transport=transport, stop_at=scenario.duration_s).start()
    QueryTraffic(net, scenario.qps, scenario.incast_degree, scenario.response_bytes,
                 transport=transport, stop_at=scenario.duration_s).start()
    net.run(until=scenario.duration_s + scenario.drain_s)
    qcts = net.collector.qct_values()
    flows = net.collector.flows
    return {
        "qct_p99_ms": f"{percentile(qcts, 99) * 1e3:.2f}" if qcts else "-",
        "retransmits": sum(f.retransmits for f in flows),
        "timeouts": sum(f.timeouts for f in flows),
        "detours": net.counters().total_detours(),
    }


def run(full: bool = False) -> str:
    base = (PAPER_DEFAULTS if full else SCALED_DEFAULTS).with_overrides(
        scheme="dibs", duration_s=1.0 if full else 0.2, name="hoststack",
    )
    rows = []
    for label, overrides in VARIANTS:
        rows.append({"host_stack": label, **_run(base, overrides)})
    title = (
        "Ablation: host stack variants under DIBS (default incast workload).\n"
        "Expected shape: the paper's no-fast-rtx choice wins; dupack-10 is\n"
        "close (slightly more spurious retransmissions).  SACK *hurts* under\n"
        "detour reordering — late packets look like holes and SACK recovery\n"
        "diligently refills all of them — which is precisely why the paper\n"
        "disables loss-signalled recovery instead of making it smarter.\n"
        "Delayed ACKs cost nothing."
    )
    return format_table(rows, title=title)


def test_ablation_host_stack(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)

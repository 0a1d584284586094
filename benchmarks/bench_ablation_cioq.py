"""Ablation (§4) — DIBS on a combined input/output-queued switch.

The paper claims DIBS ports directly to CIOQ switches: the forwarding
engine detours at output-queue-full time, exactly like the output-queued
model.  This bench runs the default incast workload on both architectures
with DIBS on and off, showing (a) the CIOQ fabric adds only its service
latency, and (b) DIBS's win carries over unchanged.
"""

from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import web_search_background
from repro.workload.query import QueryTraffic

import common

NAME = "ablation_cioq"


def _run(scenario, architecture: str):
    net_cfg = scenario.switch_queue_config()
    net_cfg.architecture = architecture
    from repro.net.network import Network

    net = Network(scenario.build_topology(), switch_queues=net_cfg,
                  dibs=scenario.dibs_config(), seed=scenario.seed)
    transport = scenario.transport_config()
    BackgroundTraffic(net, scenario.bg_interarrival_s, web_search_background(),
                      transport=transport, stop_at=scenario.duration_s).start()
    query = QueryTraffic(net, scenario.qps, scenario.incast_degree, scenario.response_bytes,
                         transport=transport, stop_at=scenario.duration_s)
    query.start()
    net.run(until=scenario.duration_s + scenario.drain_s)
    qcts = net.collector.qct_values()
    from repro.metrics.stats import percentile

    counters = net.counters()
    return {
        "qct_p99_ms": f"{percentile(qcts, 99) * 1e3:.2f}" if qcts else "-",
        "drops": counters.total_drops(),
        "detours": counters.total_detours(),
    }


def run(full: bool = False) -> str:
    base = (PAPER_DEFAULTS if full else SCALED_DEFAULTS).with_overrides(
        duration_s=1.0 if full else 0.2, name="cioq",
    )
    rows = []
    for scheme in ("dctcp", "dibs"):
        for architecture in ("output", "cioq"):
            metrics = _run(base.with_overrides(scheme=scheme), architecture)
            rows.append({"scheme": scheme, "architecture": architecture, **metrics})
    title = (
        "Section 4 ablation: DIBS on output-queued vs CIOQ switches.\n"
        "Expected shape: per architecture, DIBS eliminates drops and cuts\n"
        "qct_p99; the CIOQ fabric itself only adds its service latency."
    )
    return format_table(rows, title=title)


def test_ablation_cioq(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)

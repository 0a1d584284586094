"""§7 extension — host admission control rescues the Figure-14 overload.

The paper: "we still need admission control at the hosts to prevent
applications from sending too many intensive short flows."  This bench
offers queries at a rate past DIBS's breaking point and releases them
through a cluster-wide token bucket at progressively lower admitted rates,
showing p99 QCT of *admitted* queries recovering as the bucket tightens.
"""

from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.report import format_table
from repro.metrics.stats import percentile
from repro.workload.admission import AdmittedQueryTraffic
from repro.workload.query import QueryTraffic

import common

NAME = "admission_control"


def _run(scenario, admit_qps):
    net = scenario.build_network()
    transport = scenario.transport_config()
    query = QueryTraffic(net, scenario.qps, scenario.incast_degree, scenario.response_bytes,
                         transport=transport, stop_at=scenario.duration_s)
    gated = None
    if admit_qps is not None:
        gated = AdmittedQueryTraffic(query, admit_qps=admit_qps, burst=2)
        gated.start()
    else:
        query.start()
    net.run(until=scenario.duration_s + scenario.drain_s)
    qcts = net.collector.qct_values()
    counters = net.counters()
    return {
        "admitted_qps": admit_qps if admit_qps is not None else "unlimited",
        "queries": f"{sum(1 for q in net.collector.queries if q.completed)}/{query.queries_started}",
        "qct_p99_ms": f"{percentile(qcts, 99) * 1e3:.1f}" if qcts else "-",
        "drops": counters.total_drops(),
        "detours": counters.total_detours(),
        "delayed": gated.controller.delayed if gated else 0,
    }


def run(full: bool = False) -> str:
    base = (PAPER_DEFAULTS if full else SCALED_DEFAULTS).with_overrides(
        scheme="dibs",
        # Offer load past the break point; TTL 48 bounds detour loops.
        qps=12_000 if full else 2_500,
        ttl=48,
        duration_s=0.3 if full else 0.04,
        drain_s=1.0 if full else 0.6,
        bg_enabled=False,
        name="admission",
    )
    rows = []
    for admit in (None, 2000 if full else 500, 1000 if full else 250, 300 if full else 100):
        rows.append(_run(base, admit))
    title = (
        "Section 7 extension: token-bucket admission at the hosts.\n"
        "Expected shape: the overloaded (unlimited) point shows the Fig. 14\n"
        "collapse; tightening admission restores per-query latency and cuts\n"
        "drops, at the cost of queueing queries before the network."
    )
    return format_table(rows, title=title)


def test_admission_control(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)

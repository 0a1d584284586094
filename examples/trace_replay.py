"""Record a workload, export results, replay the trace — the ops loop.

Runs a mixed workload, writes (a) per-flow results to CSV, (b) the flow
*trace* (who sent what, when) to a replayable file, then replays that
trace on a network with DIBS disabled to ask "what would this exact
workload have looked like without detouring?" — the kind of A/B question
trace replay exists for.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import DibsConfig, Network, SwitchQueueConfig, fat_tree
from repro.metrics.export import write_flows_csv
from repro.metrics.stats import percentile
from repro.transport.base import dibs_host_config
from repro.workload.background import BackgroundTraffic
from repro.workload.distributions import web_search_background
from repro.workload.query import QueryTraffic
from repro.workload.tracefile import TraceReplay, load_trace, record_trace


def build(dibs: bool) -> Network:
    return Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=20, ecn_threshold_pkts=6),
        dibs=DibsConfig() if dibs else DibsConfig.disabled(),
        seed=8,
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="dibs-trace-"))

    # 1. Original run, DIBS on.
    original = build(dibs=True)
    cfg = dibs_host_config()
    BackgroundTraffic(original, 0.04, web_search_background(), transport=cfg, stop_at=0.1).start()
    QueryTraffic(original, qps=80, degree=10, response_bytes=20_000,
                 transport=cfg, stop_at=0.1).start()
    original.run(until=2.0)

    csv_path = write_flows_csv(original.collector, workdir / "flows.csv")
    trace_path = record_trace(original.collector, original, workdir / "workload.trace")
    print(f"recorded {len(original.collector.flows)} flows")
    print(f"  per-flow results: {csv_path}")
    print(f"  replayable trace: {trace_path}")

    # 2. Replay the *identical* workload with DIBS off.
    entries = load_trace(trace_path)
    counterfactual = build(dibs=False)
    replay = TraceReplay(counterfactual, entries, transport="dctcp")
    replay.start()
    counterfactual.run(until=2.0)

    def p99(net):
        fcts = [f.fct for f in net.collector.flows if f.completed and f.kind == "query"]
        return percentile(fcts, 99) * 1e3

    with_dibs = original.counters()
    print("\nsame workload, two fabrics:")
    print(f"  with DIBS   : query-flow p99 {p99(original):7.2f} ms, "
          f"drops {with_dibs.total_drops():>5}, detours {with_dibs.total_detours()}")
    print(f"  without DIBS: query-flow p99 {p99(counterfactual):7.2f} ms, "
          f"drops {counterfactual.counters().total_drops():>5}")


if __name__ == "__main__":
    main()

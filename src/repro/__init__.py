"""repro: a reproduction of "DIBS: Just-in-time Congestion Mitigation for
Data Centers" (EuroSys 2014).

Quickstart::

    from repro import Network, DibsConfig, fat_tree

    net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=1)
    flow = net.start_flow("host_0", "host_5", size=20_000, transport="dibs")
    net.run(until=0.1)
    print(flow.fct)

Higher-level experiments live in :mod:`repro.experiments`; the paper's
figures are regenerated by the scripts in ``benchmarks/``.  Observability
(counter snapshots via ``Network.counters()``, scheduler profiling,
heartbeats, structured traces) lives in :mod:`repro.obs`, and
:func:`repro.metrics.export.write_artifacts` bundles a run's outputs.
"""

from repro._exports import export_lazily

__version__ = "1.0.0"

__all__ = [*export_lazily(__name__, {
    "DibsConfig": "repro.core.config",
    "make_policy": "repro.core.detour",
    "Network": "repro.net.network",
    "SwitchQueueConfig": "repro.net.network",
    "fat_tree": "repro.topo.fattree",
    "click_testbed": "repro.topo.testbed",
    "leaf_spine": "repro.topo.misc",
    "linear": "repro.topo.misc",
    "jellyfish": "repro.topo.misc",
    "Scenario": "repro.experiments.scenarios",
    "run_scenario": "repro.experiments.runner",
    "PAPER_DEFAULTS": "repro.experiments.scenarios",
    "SCALED_DEFAULTS": "repro.experiments.scenarios",
    # Observability (repro.obs) + the unified exporter.
    "CounterRegistry": "repro.obs.counters",
    "CounterSnapshot": "repro.obs.counters",
    "SchedulerProfiler": "repro.obs.profiler",
    "SimHeartbeat": "repro.obs.heartbeat",
    "ExecutorHeartbeat": "repro.obs.heartbeat",
    "TraceWriter": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "summarize_trace": "repro.obs.trace",
    "write_artifacts": "repro.metrics.export",
}), "__version__"]

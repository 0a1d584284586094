"""Measurement: flow/query records, statistics, fabric sampling, traces.

The observability layer (:mod:`repro.obs`) produces the scoped counter
snapshots, scheduler profiles, and structured JSONL traces; this package
turns collected measurements into artifacts.  :func:`write_artifacts`
bundles everything one run produced into a directory.
"""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "MetricsCollector": "repro.metrics.collector",
    "QueryRecord": "repro.metrics.collector",
    "KIND_BACKGROUND": "repro.metrics.collector",
    "KIND_QUERY": "repro.metrics.collector",
    "KIND_LONG": "repro.metrics.collector",
    "FabricSampler": "repro.metrics.hotlinks",
    "write_artifacts": "repro.metrics.export",
    "export_result_json": "repro.metrics.export",
    "export_telemetry_json": "repro.metrics.export",
    "flows_to_records": "repro.metrics.export",
    "queries_to_records": "repro.metrics.export",
    "write_flows_csv": "repro.metrics.export",
    "write_queries_csv": "repro.metrics.export",
    "percentile": "repro.metrics.stats",
    "mean": "repro.metrics.stats",
    "summarize": "repro.metrics.stats",
    "jain_index": "repro.metrics.stats",
    "cdf_points": "repro.metrics.stats",
    "DetourTrace": "repro.metrics.trace",
    "QueueOccupancyTrace": "repro.metrics.trace",
    "arc_counts": "repro.metrics.trace",
    # Observability re-exports (repro.obs).
    "CounterRegistry": "repro.obs.counters",
    "CounterSnapshot": "repro.obs.counters",
    "SchedulerProfiler": "repro.obs.profiler",
    "TraceWriter": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "summarize_trace": "repro.obs.trace",
})

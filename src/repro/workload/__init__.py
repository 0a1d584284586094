"""Workload generators: background, incast query, long-lived flows."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "AdmissionController": "repro.workload.admission",
    "AdmittedQueryTraffic": "repro.workload.admission",
    "BackgroundTraffic": "repro.workload.background",
    "DiurnalBackgroundTraffic": "repro.workload.background",
    "QueryTraffic": "repro.workload.query",
    "LongLivedFlows": "repro.workload.longlived",
    "EmpiricalDistribution": "repro.workload.distributions",
    "web_search_background": "repro.workload.distributions",
    "uniform_size": "repro.workload.distributions",
    "fixed_size": "repro.workload.distributions",
    "TraceEntry": "repro.workload.tracefile",
    "TraceReplay": "repro.workload.tracefile",
    "load_trace": "repro.workload.tracefile",
    "save_trace": "repro.workload.tracefile",
    "record_trace": "repro.workload.tracefile",
})

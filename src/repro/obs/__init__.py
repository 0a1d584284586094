"""repro.obs — low-overhead observability for the simulator and executors.

Six pieces, all opt-in and all free when off:

* :mod:`repro.obs.counters` — the hierarchical counter registry behind
  ``Network.counters()``: one snapshot call returns every per-switch,
  per-port, per-host and PFC counter under dotted scopes.
* :mod:`repro.obs.profiler` — opt-in scheduler profiling: wall time and
  event counts bucketed per callback category (link deliver, switch
  forward, transport timer, workload arm, ...).
* :mod:`repro.obs.heartbeat` — periodic JSONL progress records
  (events/sec, sim-time rate, pending depth, per-worker status) from both
  ``run_scenario`` and the parallel sweep executor.
* :mod:`repro.obs.trace` — the versioned structured trace writer unifying
  detour/drop/occupancy/path events in one JSONL schema, plus the readers
  behind the ``repro trace`` CLI subcommand.
* :mod:`repro.obs.spans` — deterministic sampled per-packet span tracing:
  the hop-by-hop biography (queueing delay, detour cause, TTL, chosen
  port) of each sampled packet.
* :mod:`repro.obs.forensics` — what the spans are *for*: per-flow FCT
  attribution, packet-odyssey rendering (the ``repro explain`` CLI), and
  the anomaly flight recorder.

Nothing here schedules simulator events: instrumentation rides the
scheduler's run-loop hooks (:meth:`repro.sim.engine.Scheduler.add_hook`),
so identical seeds stay bit-identical with observability on or off.
"""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "DEFAULT_SPAN_RATE": "repro.obs.spans",
    "PacketSpan": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "span_sampled": "repro.obs.spans",
    "FlightRecorder": "repro.obs.forensics",
    "attribute_flows": "repro.obs.forensics",
    "span_components": "repro.obs.forensics",
    "format_attribution": "repro.obs.forensics",
    "format_odyssey": "repro.obs.forensics",
    "load_spans": "repro.obs.forensics",
    "CounterRegistry": "repro.obs.counters",
    "CounterSnapshot": "repro.obs.counters",
    "SchedulerProfiler": "repro.obs.profiler",
    "profile_category": "repro.obs.profiler",
    "profile_table": "repro.obs.profiler",
    "format_profile": "repro.obs.profiler",
    "merge_profiles": "repro.obs.profiler",
    "HeartbeatWriter": "repro.obs.heartbeat",
    "SimHeartbeat": "repro.obs.heartbeat",
    "ExecutorHeartbeat": "repro.obs.heartbeat",
    "TraceWriter": "repro.obs.trace",
    "TRACE_SCHEMA_VERSION": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "validate_record": "repro.obs.trace",
    "summarize_trace": "repro.obs.trace",
    "format_trace_summary": "repro.obs.trace",
})
